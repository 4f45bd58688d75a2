"""The benchmark's tracer (perfbench/spans.py) still finds what it wraps in
ellq, so a traced run does not break when ellq renames or drops a function.
The files under perfbench/ are only read."""
import importlib
import importlib.util
import sys
from pathlib import Path

from ellq.elliptic import independence_check
from ellq.weylgrp import GroupSpec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no __pycache__ there
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
    return module


def test_span_targets_resolve():
    """Every (module, owner, attribute) that a traced verify-all sample wraps
    is a callable of ellq, and the sizes of the independence span, which
    import from ellq only when they run, still compute."""
    for module in _load("workloads").MODULES["verify-all"]:
        importlib.import_module(module)
    targets = _load("spans")._targets()
    assert {t[0] for t in targets} >= {"ellq.cli", "ellq.report", "ellq.affine"}
    for module, owner, attr, *_ in targets:
        holder = getattr(sys.modules[module], owner) if owner else sys.modules[module]
        assert callable(getattr(holder, attr)), (module, owner, attr)
    [sizes] = [t[4] for t in targets if t[2] == "independence_check"]
    spec = GroupSpec("B", 3)
    # the elliptic char polys of B3 are (q + 1)(q^2 - q + 1), (q + 1)(q^2 + 1)
    # and (q + 1)^3: their lcm has degree 7
    assert sizes(independence_check(spec), None, spec) == {"group": "B3", "width": 8,
                                                             "deficit": 0}
