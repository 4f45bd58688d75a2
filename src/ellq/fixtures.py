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
from fractions import Fraction
from importlib import resources
from typing import Optional

from .exactq import QPolynomial, RationalFunction, RF_Q, cyclotomic_quotient


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
    if not isinstance(raw, dict):
        raise ValueError(f"fixtures file {file}: not a JSON object")
    for key, entry in (("cyc", dict), ("aux", list), ("tables", list)):
        need(isinstance(raw.get(key), dict)
             and all(isinstance(v, entry) for v in raw[key].values()), key)
    for group, rows in raw["tables"].items():
        need(all(isinstance(r, dict) and {"orbit", "phi", "N"} <= r.keys()
                 and isinstance(r["N"], dict) and isinstance(r["N"].get("phi"), dict)
                 and isinstance(r["N"].get("aux", []), list) for r in rows),
             f"tables.{group}")
    return raw


def cyc_table() -> dict[str, dict[int, int]]:
    """Published cyclotomic denominators of the sign-character fake degree."""
    raw = _appendix_raw()["cyc"]
    return {g: {int(k): v for k, v in d.items()} for g, d in raw.items()}


def expand_numerator(entry: dict) -> QPolynomial:
    """sign * scalar * q^qpow * prod Phi_n^mult * prod aux."""
    aux = _appendix_raw()["aux"]
    phi = {int(k): e for k, e in entry["phi"].items()}
    p = cyclotomic_quotient(phi, entry["qpow"], entry["sign"] * entry.get("scalar", 1)).num
    for ref in entry.get("aux", []):
        p = p * QPolynomial(aux[ref])
    return p


def numerator_table(group: str) -> list[dict]:
    """Rows of the published fake-degree numerator table for one group:
    {orbit, phi, N (encoded), poly (expanded)}."""
    rows = []
    for r in _appendix_raw()["tables"][group]:
        rows.append({"orbit": r["orbit"], "phi": r["phi"], "N": r["N"],
                     "poly": expand_numerator(r["N"])})
    return rows


def fake_degree_from_table(group: str, orbit: str, phi: str) -> RationalFunction:
    """(q-1)^l N / cyc(W) for a row of the published table."""
    from .weylgrp import EXPONENTS
    l = len(EXPONENTS[group])
    den = cyclotomic_quotient(cyc_table()[group]).num
    for row in numerator_table(group):
        if row["orbit"] == orbit and row["phi"] == phi:
            num = (RF_Q - 1).num ** l * row["poly"]
            return RationalFunction(num, den)
    raise KeyError(f"no row ({orbit}, {phi}) in the {group} table")


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
    zero = RationalFunction(QPolynomial.zero())
    return [
        (("1", "1"), zero),
        (("1", "eps"), zero),
        (("tau", "1"), x),
        (("tau", "eps"), x),
    ]


def ft_z2_printed() -> list[list[Fraction]]:
    h = Fraction(1, 2)
    return [[h, h, h, h], [h, h, -h, -h], [h, -h, h, -h], [h, -h, -h, h]]
