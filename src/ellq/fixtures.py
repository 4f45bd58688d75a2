"""Published reference tables: sign-character denominators, elliptic fake
degree numerators, and the printed formal-degree and transform values that the
verification suites compare against.

The large numerator tables live in a JSON data file shipped with the package;
a --fixtures directory can override it.  Everything else is embedded so the
command-line tool works with no external files.
"""
from __future__ import annotations

import functools
import json
import os
from collections import Counter
from fractions import Fraction
from importlib import resources
from math import prod
from typing import Mapping, Optional

from .exactq import QPolynomial, RF_ZERO, RationalFunction, cyclotomic_quotient


_FIXTURES_FILE: Optional[str] = None


def set_fixtures_dir(path: Optional[str]) -> None:
    """Read the tables from path/appendix_tables.json from now on, or from the
    packaged file if path is None; a missing file is a ValueError.  The
    tables read are kept until the source changes."""
    global _FIXTURES_FILE
    file = os.path.join(path, "appendix_tables.json") if path else None
    if file and not os.path.isfile(file):
        raise ValueError(f"fixtures file {file} not found")
    if file != _FIXTURES_FILE:
        _FIXTURES_FILE = file
        _appendix_raw.cache_clear()


@functools.lru_cache(maxsize=None)
def _appendix_raw() -> dict:
    """The tables file, once its shape is the one the readers below expect:
    else a ValueError naming the file and the first key out of shape."""
    source = resources.files("ellq.data").joinpath("appendix_tables.json")
    file = _FIXTURES_FILE or str(source)
    try:
        with (open(file) if _FIXTURES_FILE else source.open()) as fh:
            raw = json.load(fh)
    except ValueError as e:  # not JSON, or not text
        raise ValueError(f"fixtures file {file}: {e}") from e

    def need(ok: bool, key: str) -> None:
        if not ok:
            raise ValueError(f"fixtures file {file}: {key} is missing or out of shape")

    def exponents(d) -> bool:
        return isinstance(d, dict) and all(
            k.isdecimal() and int(k) > 0 and type(e) is int for k, e in d.items())
    if not isinstance(raw, dict):
        raise ValueError(f"fixtures file {file}: not a JSON object")
    for key, entry in (("cyc", dict), ("aux", list), ("tables", list)):
        need(isinstance(raw.get(key), dict)
             and all(isinstance(v, entry) for v in raw[key].values()), key)
    for group, d in raw["cyc"].items():
        need(exponents(d), f"cyc.{group}")
    for name, coeffs in raw["aux"].items():
        need(all(type(c) is int for c in coeffs), f"aux.{name}")
    for group, rows in raw["tables"].items():
        for i, r in enumerate(rows):
            row = f"tables.{group}[{i}]"
            need(isinstance(r, dict) and {"orbit", "phi", "N"} <= r.keys()
                 and isinstance(r["N"], dict), row)
            N = {"scalar": 1, "aux": [], **r["N"]}
            need(exponents(N.get("phi")), f"{row}.N.phi")
            for k in ("qpow", "sign", "scalar"):
                need(type(N.get(k)) is int, f"{row}.N.{k}")
            need(isinstance(N["aux"], list) and all(
                isinstance(a, str) and a in raw["aux"] for a in N["aux"]), f"{row}.N.aux")
    for group in ("G2", "F4", "E6", "E7", "E8"):
        for key in ("cyc", "tables"):
            need(group in raw[key], f"{key}.{group}")
    return raw


def cyc_table() -> dict[str, dict[int, int]]:
    """Published cyclotomic denominators of the sign-character fake degree."""
    raw = _appendix_raw()["cyc"]
    return {g: {int(k): v for k, v in d.items()} for g, d in raw.items()}


def fake_degree_from_table(group: str, orbit: str, phi: Optional[str] = None,
                           den: Optional[Mapping[int, int]] = None) -> RationalFunction:
    """(q-1)^l N / den for the first row of group's published table with this
    orbit (and phi, if given); den {n: e}, for prod Phi_n^e, defaults to the
    published cyc(W).  N = sign * scalar * q^qpow * prod Phi_n^phi[n] * prod aux
    is not expanded: cyclotomic_quotient takes it, the aux product as residual."""
    from .weylgrp import EXPONENTS
    raw = _appendix_raw()
    N = next((r["N"] for r in raw["tables"][group]
              if r["orbit"] == orbit and phi in (None, r["phi"])), None)
    if N is None:
        raise KeyError(f"no row ({orbit}, {phi}) in the {group} table")
    exps = Counter({int(k): e for k, e in N["phi"].items()})
    exps[1] += len(EXPONENTS[group])
    exps.subtract(cyc_table()[group] if den is None else den)
    residual = prod((QPolynomial(raw["aux"][ref]) for ref in N.get("aux", [])),
                    start=QPolynomial.one())
    return cyclotomic_quotient(exps, N["qpow"], N["sign"] * N.get("scalar", 1), residual)


# ---------------------------------------------------------------------------
# printed formal-degree values used by the verification suites


def g2_formal_table_printed() -> list[tuple[tuple[str, str], RationalFunction]]:
    """The eight published formal degrees of the subregular packet of G2,
    exactly as printed (the g2 rows differ from every computed pipeline)."""
    a = cyclotomic_quotient({1: 2, 2: -2, 3: -1}, 1)  # q (1-q)^2 / (Phi2^2 Phi3)
    b = cyclotomic_quotient({1: 2, 2: -1, 6: -1}, 1)  # as printed: a single Phi2
    c = cyclotomic_quotient({1: 2, 3: -1, 6: -1}, 1)
    return [
        (("1", "1"), a * Fraction(1, 6)),
        (("1", "r"), a * Fraction(1, 3)),
        (("1", "eps"), a * Fraction(1, 6)),
        (("g2", "1"), b * Fraction(1, 2)),
        (("g2", "eps"), b * Fraction(1, 2)),
        (("g3", "1"), c * Fraction(1, 3)),
        (("g3", "chi1"), c * Fraction(1, 3)),
        (("g3", "chi2"), c * Fraction(1, 3)),
    ]


def sp4_formal_table_printed() -> list[tuple[tuple[str, str], RationalFunction]]:
    x = cyclotomic_quotient({1: 2, 2: -2, 4: -1}, 1, Fraction(1, 2))
    return [
        (("1", "1"), RF_ZERO),
        (("1", "eps"), RF_ZERO),
        (("tau", "1"), x),
        (("tau", "eps"), x),
    ]


def ft_z2_printed() -> list[list[Fraction]]:
    h = Fraction(1, 2)
    return [[h, h, h, h], [h, h, -h, -h], [h, -h, h, -h], [h, -h, -h, h]]
