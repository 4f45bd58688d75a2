"""Smoke test of the benchmark itself, at the tiny size.

Run with `python3 -m pytest perfbench/test_smoke.py` or
`python3 perfbench/test_smoke.py`. It checks that every workload runs clean
and reports exactly the metrics BENCHMARK.json names, and that a
deliberately corrupted expected value is caught as a failed operation.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload, trace=0, expected_dir=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    if expected_dir:
        cmd += ["--expected-dir", str(expected_dir)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _corrupt(workload: str, data: dict) -> None:
    """Change one recorded value that every tiny run checks."""
    if workload == "verify-all":
        data["verify cyc"]["rows"][0][2] += " (corrupted)"
    elif workload == "weyl-tables":
        fake = data["fake:G2"]
        label = sorted(fake)[0]
        fake[label][0] = str(int(fake[label][0]) + 1)
    else:
        data["sgn:E6"]["factored"] += " (corrupted)"


def test_workloads_run_clean_with_the_declared_metrics():
    for w in WORKLOADS:
        out = _run(w)
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, (w, out)
        assert set(out["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}, w
        assert all(m["value"] > 0 for m in out["metrics"].values()), (w, out["metrics"])


def test_traced_run_reports_every_layer_metric():
    out = _run("weyl-tables", trace=1)
    assert out["correct"], out
    assert set(out["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    assert out["metrics"]["groups.irreps"]["value"] > 0


def test_corrupted_expected_value_counts_as_failed():
    work = ROOT / ".perfbench-work" / "smoke-expected"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(HERE / "expected", work)
    try:
        for w in WORKLOADS:
            path = work / f"{w}.json"
            data = json.loads(path.read_text())
            _corrupt(w, data)
            path.write_text(json.dumps(data))
            out = _run(w, expected_dir=work)
            # the samples completed (so they have metrics) and the check failed
            assert out["metrics"] and out["failed"] > 0 and not out["correct"], (w, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")
