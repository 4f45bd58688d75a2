"""Record the expected outputs the benchmark checks against.

Usage: python3 perfbench/record.py

Runs every operation any seed can ask for, at both sizes, with the ellq in
../src, and writes expected/<workload>.json. Run it only at a commit whose
outputs are known to be right: the files are the reference for every later
run, and a change that alters an output on purpose records them again.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def _all_ops(workload: str) -> list[str]:
    """Every operation name of `workload` whose output is recorded."""
    names = []
    for size in workloads.SIZES.values():
        if workload == "verify-all":
            names.append(f"verify {size['suite']}")
        elif workload == "weyl-tables":
            names += [f"{kind}:{g}" for g in size["groups"]
                      for kind in ("table", "fake", "efd")]
        else:
            for n in size["partition_sizes"]:
                names += [f"{family}:{workloads.lam_name(lam)}"
                          for lam in workloads.partitions(n) for family in ("B", "D")]
            names += [f"sgn:{name}" for name in size["sgn"]]
    return names


def record(workload: str) -> dict:
    out = {}
    for name in _all_ops(workload):
        value = workloads.build_op(name, {})()
        if name.startswith("verify "):
            reports = json.loads(value["stdout"])["reports"]
            value = {"exit": value["exit"],
                     "rows": [[r[k] for k in checks.VERIFY_FIELDS] for r in reports]}
        out[name] = value
    return out


def main() -> int:
    for workload in workloads.WORKLOADS:
        path = HERE / "expected" / f"{workload}.json"
        with open(path, "w") as f:
            json.dump(record(workload), f, indent=0, sort_keys=True)
            f.write("\n")
        print(f"wrote {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
