"""Cold-process benchmark of ellq.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is verify-all, weyl-tables, closed-forms, or all (every workload,
interleaved). Run it from anywhere inside a checkout that holds src/ellq.

Every sample is a fresh interpreter (child.py), one at a time, with a fresh
empty directory under .perfbench-work/ as its cwd, HOME, TMPDIR and
XDG_CACHE_HOME, so no cache on disk carries over. Before measuring, the
driver compiles src/ to bytecode and starts one discarded child per
workload that only imports. It then probes set-up alone a few times and
runs samples until the next one would end after S seconds. With --trace 1
it alternates plain and traced samples and reports the per-layer metrics of
the traced ones (see spans.py) plus the tracing overhead.

The last line of output is one JSON object: correct, attempted, failed
(operations) and metrics, each the median over the run's samples.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402
from speed import REF_NOMINAL, scale  # noqa: E402

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("slowest_op_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
SETUP_PROBES = 9
TIME_LIMIT = 170.0   # seconds for the whole run, so it always ends in time


class Workload:
    """One workload's inputs and the samples taken of it in this run."""

    def __init__(self, name: str, seed: int, size: str, expected_dir: Path):
        self.name = name
        self.seed = seed
        self.expected = expected_dir / f"{name}.json"
        with open(self.expected) as f:
            self.inputs = workloads.make_inputs(name, seed, size, json.load(f))
        self.n_ops = len(workloads.op_names(name, self.inputs))
        self.plain: list[dict] = []
        self.traced: list[dict] = []
        self.setup: list[float] = []
        self.durations: list[float] = []
        self.children = 0

    def child(self, mode: str, trace: bool, deadline: float):
        """Run one child; return (result or None, seconds it took)."""
        self.children += 1
        tmp = WORK / f"{self.name}-{os.getpid()}-{self.children}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        job = {"workload": self.name, "mode": mode, "trace": trace,
               "inputs": self.inputs, "src": str(SRC), "expected": str(self.expected),
               "spans": str(tmp / "spans.jsonl"),
               "run_id": f"{self.name}/seed{self.seed}/{self.children}"}
        (tmp / "job.json").write_text(json.dumps(job))
        env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "HOME": str(tmp),
               "TMPDIR": str(tmp), "XDG_CACHE_HOME": str(tmp), "LANG": "C.UTF-8"}
        cmd = [sys.executable, "-s", str(HERE / "child.py"), str(tmp / "job.json")]
        result = None
        launched = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True,
                                  timeout=max(1.0, deadline - launched))
            if proc.returncode == 0:
                result = json.loads((tmp / "result.json").read_text())
                result["setup"] = scale(result["ready"] - launched, result["setup_ref"])
                if trace:
                    lines = (tmp / "spans.jsonl").read_text().splitlines()
                    result["spans"] = [json.loads(line) for line in lines]
                    shutil.copy(tmp / "spans.jsonl", WORK / f"spans-{self.name}.jsonl")
            else:
                print(f"{self.name}: child exited {proc.returncode}\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
        except subprocess.TimeoutExpired:
            print(f"{self.name}: child stopped at the time limit", file=sys.stderr)
        took = time.monotonic() - launched
        shutil.rmtree(tmp, ignore_errors=True)
        return result, took

    def sample(self, trace: bool, deadline: float) -> None:
        result, took = self.child("run", trace, deadline)
        self.durations.append(took)
        entry = {"result": result}
        if result:
            self.setup.append(result["setup"])
            ref, ops = result["run_ref"], result["ops"]
            walls = [scale(o["wall"], o["ref"]) for o in ops]
            entry.update(wall=sum(walls), slowest=max(walls),
                         cpu=sum(scale(o["cpu"], o["ref"]) for o in ops),
                         raw_wall=sum(o["wall"] for o in ops), speed=REF_NOMINAL / ref,
                         rss_mb=result["peak_rss_kb"] / 1024,
                         failed=dict(result["failed"]))
            if trace:
                entry["layers"] = spans.layer_metrics(
                    result["spans"], result["ticks"], lambda s: scale(s, ref))
        (self.traced if trace else self.plain).append(entry)

    def probe_setup(self, deadline: float) -> None:
        result, _ = self.child("setup", False, deadline)
        if result:
            self.setup.append(result["setup"])

    def next_is_traced(self, trace: bool) -> bool:
        return trace and len(self.traced) < len(self.plain)

    def wants_more(self, trace: bool, now: float, deadline: float) -> bool:
        """Take samples until the next one, as long as the longest so far,
        would end after the deadline; always one plain (and traced) sample."""
        if not self.plain or (trace and not self.traced):
            return True
        return now + max(self.durations) <= deadline

    def attempted(self) -> int:
        return self.n_ops * (len(self.plain) + len(self.traced))

    def failed(self) -> int:
        return sum(len(s["failed"]) if s["result"] else self.n_ops
                   for s in self.plain + self.traced)

    def metrics(self, trace: bool) -> dict:
        ok = [s for s in self.plain if s["result"]]
        if not ok:
            return {}
        med = {key: statistics.median(s[key] for s in ok)
               for key in ("wall", "cpu", "slowest", "rss_mb")}
        if not trace:
            values = {"wall_s": med["wall"], "cpu_s": med["cpu"],
                      "slowest_op_s": med["slowest"],
                      "setup_s": statistics.median(self.setup),
                      "peak_rss_mb": med["rss_mb"]}
            return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        traced = [s for s in self.traced if s["result"]]
        if not traced:
            return {}
        out = {}
        for name in spans.metric_names():
            unit = "s" if name.endswith("_s") else "count"
            if name == "trace.overhead_s":
                value = statistics.median(s["wall"] for s in traced) - med["wall"]
            else:
                value = statistics.median(s["layers"][name] for s in traced)
            out[name] = {"value": value, "unit": unit}
        return out


def _report(w: Workload, metrics: dict, trace: bool) -> None:
    n = len(w.plain)
    print(f"{w.name} (seed {w.seed}): {n} plain and {len(w.traced)} traced samples "
          f"of {w.n_ops} operations; values are medians over samples")
    for name, m in metrics.items():
        note = "" if trace else f"  median of {len(w.setup) if name == 'setup_s' else n}"
        print(f"  {name:<42} {m['value']:>14.6f} {m['unit']:<5}{note}")
    print(f"  {'ops_failed':<42} {w.failed():>7}/{w.attempted():<6} ratio")
    for kind, samples in (("plain", w.plain), ("traced", w.traced)):
        ok = [s for s in samples if s["result"]]
        if ok:
            print(f"  {kind} samples: wall_s " + " ".join(f"{s['wall']:.3f}" for s in ok)
                  + "; unscaled " + " ".join(f"{s['raw_wall']:.3f}" for s in ok)
                  + "; speed " + " ".join(f"{s['speed']:.3f}" for s in ok))
    for s in w.plain + w.traced:
        for op, why in (s.get("failed") or {}).items():
            print(f"    failed {op}: {why}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                   help="tiny runs small inputs, for the smoke test")
    p.add_argument("--expected-dir", type=Path, default=HERE / "expected",
                   help="directory of recorded outputs to check against")
    args = p.parse_args(argv)
    started = time.monotonic()
    if not (SRC / "ellq" / "__init__.py").is_file():
        print(f"no ellq source at {SRC}; run inside a checkout of the repository",
              file=sys.stderr)
        return 2
    limit = started + TIME_LIMIT
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    runs = [Workload(n, args.seed, args.size, args.expected_dir.resolve()) for n in names]
    trace = bool(args.trace)
    WORK.mkdir(exist_ok=True)
    compileall.compile_dir(str(SRC), quiet=1)
    for w in runs:
        w.child("setup", False, limit)  # warm-up, discarded
    deadline = min(time.monotonic() + args.seconds, limit)
    for w in runs:
        for _ in range(SETUP_PROBES):
            w.probe_setup(limit)
    more = True
    while more and time.monotonic() < limit:
        more = False
        for w in runs:
            if w.wants_more(trace, time.monotonic(), deadline):
                w.sample(w.next_is_traced(trace), limit)
                more = True

    metrics, attempted, failed, complete = {}, 0, 0, True
    for w in runs:
        m = w.metrics(trace)
        _report(w, m, trace)
        prefix = "" if len(runs) == 1 else f"{w.name}."
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted += w.attempted()
        failed += w.failed()
        complete = complete and bool(m)
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
