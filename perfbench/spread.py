"""Check that the benchmark is steady: run it on several seeds and report,
per workload and end-to-end metric, the median and the spread (distance
between the first and third quartile over the median).

Usage:
    python3 perfbench/spread.py [--seeds 10] [--workloads a,b] [--out FILE]
                                [--compare FILE]

Runs are interleaved across workloads, one at a time. A spread above a
third of the metric's bound in BENCHMARK.json is flagged (setup_s is
exempt, as it is a one-sided check); with --compare, a median worse than
the earlier set's by more than the bound is flagged too. The raw results
go to FILE for a later --compare.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--out", type=Path)
    p.add_argument("--compare", type=Path)
    args = p.parse_args()
    names = args.workloads.split(",")
    results = {w: [] for w in names}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for w in names:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            started = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            took = time.monotonic() - started
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            values = {k: v["value"] for k, v in last["metrics"].items()}
            results[w].append({"seed": seed, "correct": last["correct"], **values})
            print(f"seed {seed:>3} {w:<13} {took:5.1f}s correct={last['correct']} "
                  + " ".join(f"{k}={v:.4f}" for k, v in values.items()), flush=True)
    if args.out:
        args.out.write_text(json.dumps(results, indent=1))
    earlier = json.loads(args.compare.read_text()) if args.compare else None
    ok = all(r["correct"] for rs in results.values() for r in rs)
    print(f"\n{'workload':<13} {'metric':<14} {'median':>12} {'spread':>8} {'bound':>6}")
    for w in names:
        for m in bench["end_to_end"]:
            values = [r[m["name"]] for r in results[w]]
            med, spr = statistics.median(values), spread(values)
            flags = []
            if m["name"] != "setup_s" and spr > m["bound"] / 3:
                flags.append("SPREAD")
            if earlier and w in earlier:
                before = statistics.median(r[m["name"]] for r in earlier[w])
                worse = (med - before) / before if m["better"] == "lower" else (before - med) / before
                flags.append(f"vs earlier {worse:+.3f}")
                if worse > m["bound"]:
                    flags.append("WORSE")
            ok = ok and "SPREAD" not in flags and "WORSE" not in flags
            print(f"{w:<13} {m['name']:<14} {med:>12.4f} {spr:>8.4f} {m['bound']:>6} "
                  + " ".join(flags))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
