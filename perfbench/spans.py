"""Spans around ellq's layer boundaries, recorded from outside the package.

`Tracer.install` replaces the public functions and methods listed in
`_targets` with wrappers that record a span per call: name, start, end,
parent span, run id and sizes. A function bound into other modules with
`from ... import` is replaced under every name that refers to it, and an
`lru_cache`d function is wrapped outside its cache, so a cache hit is a
short span and no cache is filled or cleared. `layer_metrics` turns the
spans of one run into self times and counts.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import weakref
from collections import defaultdict

FOURIER_GAMMAS = ("Z2", "Z2^2", "Z2^3", "S3", "S4", "S5")
SUITES = ("cyc", "fourier", "g2-formal", "sp4", "g2-affine", "independence",
          "appendix-g2")
LAYERS = ("cli", "report", "weylgrp", "groups", "elliptic", "exactq", "fourier",
          "unipotent", "affine")

# span names whose self time is a metric of its own, as "<name>_s"
TIMED = ("weylgrp.build_group", "groups.conjugacy_classes", "weylgrp.classes",
         "groups.character_table",
         "weylgrp.irrep_labels", "weylgrp.fake_degree",
         "elliptic.elliptic_fake_degree", "elliptic.independence_check",
         "elliptic.closed_form", "exactq.factored", "fourier.m_set",
         "fourier.fourier_matrix", "cli.main")

# (metric, span name, size key, how sizes combine)
COUNTS = (
    ("weylgrp.elements", "weylgrp.build_group", "elements", sum),
    ("weylgrp.classes", "weylgrp.classes", "classes", sum),
    ("groups.irreps", "groups.character_table", "irreps", sum),
    ("weylgrp.fake_degree_calls", "weylgrp.fake_degree", "calls", sum),
    ("elliptic.elliptic_fake_degree_calls", "elliptic.elliptic_fake_degree", "calls", sum),
    ("elliptic.closed_form_calls", "elliptic.closed_form", "calls", sum),
    ("elliptic.rank_width", "elliptic.independence_check", "width", sum),
    ("elliptic.rank_deficit", "elliptic.independence_check", "deficit", sum),
    ("exactq.factored_calls", "exactq.factored", "calls", sum),
    ("exactq.max_degree", "exactq.factored", "degree", max),
    ("fourier.pairs", "fourier.fourier_matrix", "pairs", sum),
)


def gamma_metric(gamma: str) -> str:
    return f"fourier.fourier_matrix.{gamma.replace('^', '_')}_s"


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = [f"{s}_s" for s in TIMED]
    names += [gamma_metric(g) for g in FOURIER_GAMMAS]
    names += [f"report.{s}_s" for s in SUITES]
    names += [f"layer.{layer}_s" for layer in LAYERS] + ["bench.unattributed_s"]
    names += [c[0] for c in COUNTS] + ["trace.spans", "trace.overhead_s"]
    return names


class Tracer:
    """The spans of one traced sample, kept in memory until `write`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.enabled = True
        self._stack: list[int] = []

    def open(self, name: str) -> dict:
        rec = {"run": self.run_id, "id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None, "sizes": {}}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        return rec

    def current(self):
        """Id of the innermost open span, or None."""
        return self._stack[-1] if self._stack else None

    def close(self, rec: dict) -> None:
        rec["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, sizes=None, before=None, record=None):
        """fn with a span per call, or per call for which `record(*args)` is
        true. `name` is a string or a function of the call's arguments;
        `sizes(result, state, *args)` runs after the span has closed, with
        tracing off, where state is `before(*args)`."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled or (record and not record(*args)):
                return fn(*args, **kwargs)
            state = before(*args) if before else None
            rec = tracer.open(name if isinstance(name, str) else name(*args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if sizes:
                tracer.enabled = False
                try:
                    rec["sizes"] = sizes(result, state, *args)
                finally:
                    tracer.enabled = True
            return result

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def install(self) -> None:
        """Wrap every target; ellq's modules must already be imported."""
        for module, owner, attr, name, sizes, before, *record in _targets():
            holder = getattr(sys.modules[module], owner) if owner else sys.modules[module]
            raw = getattr(holder, attr)
            wrapped = self.wrap(raw, name, sizes, before, *record)
            if owner:
                setattr(holder, attr, wrapped)
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("ellq"):
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            setattr(mod, key, wrapped)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")


def _targets():
    """(module, class or None, attribute, span name, sizes, before[, record])."""
    build_cache = sys.modules["ellq.weylgrp"].build_group
    seen_classes, seen_groups = weakref.WeakSet(), weakref.WeakSet()

    def calls(*_):
        return {"calls": 1}

    def first(seen):
        def before(obj, *_):
            new = obj not in seen
            seen.add(obj)
            return new
        return before

    def built(W, misses, *_):
        if build_cache.cache_info().misses > misses:
            return {"group": str(W.spec), "elements": W.order}
        return {}

    def independence(rep, _state, spec):
        from ellq.exactq import QPolynomial, poly_gcd
        W = build_cache(spec)
        lcm = QPolynomial.one()
        for i in W.elliptic_classes():
            cp = W.classes()[i].char_poly
            lcm = lcm * (cp // poly_gcd(lcm, cp))
        return {"group": str(spec), "width": lcm.degree + 1,
                "deficit": rep.n_elliptic - rep.rank}

    def matrix(block, misses, gamma):
        out = {"gamma": gamma}
        if sys.modules["ellq.fourier"].fourier_matrix.cache_info().misses > misses:
            out["pairs"] = len(block.pairs)
        return out

    targets = [
        ("ellq.weylgrp", None, "build_group", "weylgrp.build_group", built,
         lambda *_: build_cache.cache_info().misses),
        ("ellq.weylgrp", "WeylGroupData", "classes", "weylgrp.classes",
         lambda r, new, *_: {"classes": len(r)} if new else {}, first(seen_classes)),
        ("ellq.weylgrp", "WeylGroupData", "irrep_labels", "weylgrp.irrep_labels",
         None, None),
        # memoized per group and called again by every class_of lookup, so
        # only the first call of each group, which computes, gets a span
        ("ellq.groups", "FiniteGroup", "conjugacy_classes", "groups.conjugacy_classes",
         None, None, first(seen_groups)),
        ("ellq.groups", "FiniteGroup", "character_table", "groups.character_table",
         lambda t, *_: {"irreps": t.n_irreps}, None),
        ("ellq.weylgrp", None, "fake_degree_values", "weylgrp.fake_degree", calls, None),
        ("ellq.elliptic", None, "elliptic_fake_degree", "elliptic.elliptic_fake_degree",
         calls, None),
        ("ellq.elliptic", None, "independence_check", "elliptic.independence_check",
         independence, None),
        ("ellq.elliptic", None, "bn_fake_closed", "elliptic.closed_form", calls, None),
        ("ellq.elliptic", None, "dn_fake_closed", "elliptic.closed_form", calls, None),
        ("ellq.exactq", "RationalFunction", "factored", "exactq.factored",
         lambda _r, _s, f, *__: {"calls": 1, "degree": max(f.num.degree, f.den.degree)},
         None),
        ("ellq.fourier", None, "m_set", "fourier.m_set", None, None),
        ("ellq.fourier", None, "fourier_matrix", "fourier.fourier_matrix", matrix,
         lambda *_: sys.modules["ellq.fourier"].fourier_matrix.cache_info().misses),
        ("ellq.report", None, "run_verify", lambda suite: f"report.{suite}", None, None),
        ("ellq.cli", None, "main", "cli.main", None, None),
    ]
    # the unipotent and affine layers: every public function, and the
    # methods of the affine datum
    for module in ("ellq.unipotent", "ellq.affine"):
        for attr, value in vars(sys.modules.get(module, object)).items():
            if (inspect.isfunction(value) and value.__module__ == module
                    and not attr.startswith("_")):
                targets.append((module, None, attr, f"{module[5:]}.{attr}", None, None))
    if "ellq.affine" in sys.modules:
        for attr, value in vars(sys.modules["ellq.affine"].AffineDatum).items():
            if inspect.isfunction(value) and not attr.startswith("_"):
                targets.append(("ellq.affine", "AffineDatum", attr, f"affine.{attr}",
                                None, None))
    # a module the workload never imported has nothing to wrap
    return [t for t in targets if t[0] in sys.modules]


def layer_metrics(spans: list[dict], ticks: list, scale) -> dict:
    """Per-layer metrics of one run's spans: self times (a span's duration
    less its direct children's), inclusive time per verify suite, and
    counts. A reference-kernel tick is taken out of the span that was
    innermost when it fired, and times pass through `scale`. Operation
    spans ("bench.op") hold what no layer span covers."""
    own_ticks = defaultdict(float)
    for span_id, wall in ticks:
        if span_id is not None:
            own_ticks[span_id] += wall
    children = defaultdict(float)
    subtree_ticks = dict(own_ticks)
    # a span opens after its parent, so walking backwards finishes every
    # span's subtree before its parent's
    for s in reversed(spans):
        if s["parent"] is not None:
            children[s["parent"]] += s["end"] - s["start"]
            subtree_ticks[s["parent"]] = (subtree_ticks.get(s["parent"], 0.0)
                                          + subtree_ticks.get(s["id"], 0.0))
    out = {name: 0 for name in metric_names()}
    for s in spans:
        name, duration = s["name"], s["end"] - s["start"]
        self_s = scale(duration - children[s["id"]] - own_ticks[s["id"]])
        if name in TIMED:
            out[f"{name}_s"] += self_s
        if name == "fourier.fourier_matrix":
            out[gamma_metric(s["sizes"]["gamma"])] += self_s
        if f"{name}_s" in out and name.startswith("report."):
            out[f"{name}_s"] += scale(duration - subtree_ticks.get(s["id"], 0.0))
        layer = name.split(".")[0]
        if name == "bench.op":
            out["bench.unattributed_s"] += self_s
        elif layer in LAYERS:
            out[f"layer.{layer}_s"] += self_s
    for metric, span, key, combine in COUNTS:
        values = [s["sizes"][key] for s in spans if s["name"] == span and key in s["sizes"]]
        out[metric] = combine(values) if values else 0
    out["trace.spans"] = len(spans)
    return out
