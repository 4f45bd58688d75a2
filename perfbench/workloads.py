"""The benchmark's workloads: inputs made from a seed, and the operations one
sample runs on them.

`make_inputs` and `op_names` run in the driver and never import ellq.
`build_op` runs in a fresh child, after the modules in `MODULES` are
imported; each operation is one call a user of ellq would make, and returns
what ellq would print for it, as plain JSON data.
"""
from __future__ import annotations

import contextlib
import io
import random

WORKLOADS = ("verify-all", "weyl-tables", "closed-forms")

# The ellq modules a workload uses. The child imports them before set-up
# ends; imports that ellq itself defers (sympy on the first Dixon table)
# stay inside the operation that triggers them.
MODULES = {
    "verify-all": ("ellq.cli", "ellq.report", "ellq.affine", "ellq.elliptic",
                   "ellq.fixtures", "ellq.fourier", "ellq.unipotent",
                   "ellq.weylgrp"),
    "weyl-tables": ("ellq.elliptic", "ellq.weylgrp"),
    "closed-forms": ("ellq.elliptic", "ellq.weylgrp"),
}

# "full" is what the benchmark measures; "tiny" is for the smoke test.
SIZES = {
    "full": {
        "suite": "all",
        "groups": ("F4", "A6", "D5", "B5"),
        "virtual": 3,
        "partition_sizes": (8, 9, 10),
        "strata": 15,
        "sgn": ("E6", "E7", "E8"),
    },
    "tiny": {
        "suite": "cyc",
        "groups": ("G2", "A3", "B3", "D4"),
        "virtual": 2,
        "partition_sizes": (4, 5),
        "strata": 3,
        "sgn": ("E6",),
    },
}

VIRTUAL_TERMS = 3          # irreducibles in one seeded virtual character
VIRTUAL_COEFFS = (-3, -2, -1, 1, 2, 3)


# ---------------------------------------------------------------------------
# inputs (driver side)


def partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n, largest parts first."""
    out = []

    def gen(rest, top, prefix):
        if rest == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(rest, top), 0, -1):
            gen(rest - part, part, prefix + [part])

    gen(n, n, [])
    return out


def hook_sum(lam) -> int:
    """Sum of the hook lengths: n + n(lam) + n(lam'), the degree that sets
    the cost of the closed forms."""
    conj = [sum(1 for x in lam if x > j) for j in range(lam[0])] if lam else []
    return (sum(lam) + sum(i * x for i, x in enumerate(lam))
            + sum(j * x for j, x in enumerate(conj)))


def partition_sample(rng: random.Random, sizes, strata: int) -> list[tuple[int, ...]]:
    """The one-row partition of the largest size, which is the costliest
    closed form, plus one partition drawn from each of `strata` cost strata
    of the remaining pool. Stratifying by hook sum keeps the work of a
    sample nearly the same from seed to seed."""
    anchor = (max(sizes),)
    pool = sorted((p for n in sizes for p in partitions(n) if p != anchor),
                  key=lambda p: (hook_sum(p), p))
    picks = [rng.choice(pool[len(pool) * k // strata:len(pool) * (k + 1) // strata])
             for k in range(strata)]
    rng.shuffle(picks)
    return [anchor] + picks


def make_inputs(workload: str, seed: int, size: str, expected: dict) -> dict:
    """The generated inputs of one run; the same seed gives the same inputs.
    Virtual characters are drawn over the irreducible labels recorded in
    `expected`, so the driver needs no group to draw them."""
    rng = random.Random(f"{workload}/{seed}")
    s = SIZES[size]
    if workload == "verify-all":
        return {"suite": s["suite"]}
    if workload == "weyl-tables":
        virtual = {}
        for g in s["groups"]:
            labels = sorted(expected[f"fake:{g}"])
            virtual[g] = [[[lab, rng.choice(VIRTUAL_COEFFS)]
                           for lab in rng.sample(labels, VIRTUAL_TERMS)]
                          for _ in range(s["virtual"])]
        return {"groups": list(s["groups"]), "virtual": virtual}
    if workload == "closed-forms":
        lams = partition_sample(rng, s["partition_sizes"], s["strata"])
        return {"partitions": [list(p) for p in lams], "sgn": list(s["sgn"])}
    raise ValueError(f"unknown workload {workload!r}")


def lam_name(lam) -> str:
    return ",".join(str(x) for x in lam)


# ---------------------------------------------------------------------------
# operations (child side)


def op_names(workload: str, inputs: dict) -> list[str]:
    """The operations of one sample, in run order."""
    if workload == "verify-all":
        return [f"verify {inputs['suite']}"]
    if workload == "weyl-tables":
        return [f"{kind}:{g}" for g in inputs["groups"]
                for kind in ("table", "fake", "efd", "virtual")]
    if workload == "closed-forms":
        return ([f"{family}:{lam_name(lam)}" for lam in inputs["partitions"]
                 for family in ("B", "D")]
                + [f"sgn:{name}" for name in inputs["sgn"]])
    raise ValueError(f"unknown workload {workload!r}")


def build_op(name: str, inputs: dict):
    """The function that performs operation `name`; it returns the output."""
    if name.startswith("verify "):
        return _verify_op(name[len("verify "):])
    kind, _, arg = name.partition(":")
    if kind in ("B", "D"):
        return _closed_op(kind, tuple(int(x) for x in arg.split(",")))
    if kind == "virtual":
        return _virtual_op(arg, inputs["virtual"][arg])
    return {"table": _table_op, "fake": _fake_op, "efd": _efd_op,
            "sgn": _sgn_op}[kind](arg)


def _verify_op(suite):
    from ellq import cli

    def op():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["--json", "verify", suite])
        return {"exit": code, "stdout": out.getvalue()}
    return op


def _group(name):
    from ellq import weylgrp
    return weylgrp.build_group(weylgrp.GroupSpec.parse(name))


def _table_op(name):
    def op():
        W = _group(name)
        table = W.character_table()
        labels = W.irrep_labels()
        classes = W.classes()
        return {"group": str(W.spec), "order": W.order, "labels": labels,
                "classes": [c.rep_str() for c in classes],
                "class_keys": [[c.size, c.order, c.char_poly.to_json()] for c in classes],
                "values": table.values}
    return op


def _fake_op(name):
    from ellq import weylgrp

    def op():
        W = _group(name)
        return {lab: weylgrp.fake_degree(W, lab).to_json() for lab in W.irrep_labels()}
    return op


def _efd_op(name):
    from ellq import elliptic

    def op():
        W = _group(name)
        out = {}
        for lab in W.irrep_labels():
            f = elliptic.elliptic_fake_degree(W, W.irrep_values(lab))
            out[lab] = {"value": f.to_json(), "factored": f.factored()}
        return out
    return op


def _virtual_op(name, chars):
    from ellq import elliptic, weylgrp

    def op():
        W = _group(name)
        labels = W.irrep_labels()
        out = []
        for terms in chars:
            coords = [0] * len(labels)
            for lab, c in terms:
                coords[labels.index(lab)] = c
            chi = elliptic.VirtualCharacter.from_coords(W, coords)
            out.append({"fake": weylgrp.fake_degree_values(W, chi.values).to_json(),
                        "efd": elliptic.elliptic_fake_degree(W, chi.values).to_json()})
        return out
    return op


def _closed_op(family, lam):
    from ellq import elliptic

    def op():
        fn = elliptic.bn_fake_closed if family == "B" else elliptic.dn_fake_closed
        f = fn(lam)
        return {"value": f.to_json(), "factored": f.factored()}
    return op


def _sgn_op(name):
    from ellq import elliptic, weylgrp

    def op():
        f = elliptic.sgn_fake_degree(weylgrp.exceptional_exponents(name))
        return {"value": f.to_json(), "factored": f.factored()}
    return op
