"""Partition combinatorics, the one Murnaghan-Nakayama recursion (for the
W(B_n) bipartition characters; S_n is its case gamma = ()), one class-size
formula for S_n and W(B_n), the hook-content series, and the two-row
symbols attached to distinguished unipotent classes in types B/C/D.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from typing import NamedTuple

from .exactq import RationalFunction, RF_ONE

Partition = tuple[int, ...]


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, in reverse-lexicographic order."""
    if n == 0:
        return [()]
    result = []

    def gen(remaining, maxpart, prefix):
        if remaining == 0:
            result.append(tuple(prefix))
            return
        for part in range(min(remaining, maxpart), 0, -1):
            gen(remaining - part, part, prefix + [part])

    gen(n, n, [])
    return result


def transpose(p: Partition) -> Partition:
    if not p:
        return ()
    return tuple(sum(1 for x in p if x > i) for i in range(p[0]))


def cells(p: Partition):
    """Young-diagram cells (i, j), 1-indexed, row i of length p[i-1]."""
    for i, row in enumerate(p, start=1):
        for j in range(1, row + 1):
            yield (i, j)


def hook_lengths(p: Partition) -> list[tuple[tuple[int, int], int]]:
    """Hook length per cell: arm + leg + 1."""
    t = transpose(p)
    return [((i, j), (p[i - 1] - j) + (t[j - 1] - i) + 1) for (i, j) in cells(p)]


def contents(p: Partition) -> list[tuple[tuple[int, int], int]]:
    """Content c(i,j) = j - i per cell."""
    return [((i, j), j - i) for (i, j) in cells(p)]


def n_invariant(p: Partition) -> int:
    """n(p) = sum over rows of (i-1) * p_i."""
    return sum((i - 1) * x for i, x in enumerate(p, start=1))


def g_poly(p: Partition, t: RationalFunction, s: RationalFunction) -> RationalFunction:
    """Hook-content series t^{n(p)} prod(1 + s t^c) / prod(1 - t^h) at exact (t, s),
    for t a rational constant or +-q^k, so that each 1 - t^h is q^k prod Phi_n."""
    num = t ** n_invariant(p)
    for _, c in contents(p):
        num = num * (RF_ONE + s * t ** c)
    den = RF_ONE
    for _, h in hook_lengths(p):
        factor = RF_ONE - t ** h
        if factor.is_zero():
            raise ZeroDivisionError(f"pole of the hook series at t^{h} = 1")
        den = den * factor
    return num / den


@functools.lru_cache(maxsize=None)
def border_strips(lam: Partition, r: int) -> tuple[tuple[Partition, int], ...]:
    """(lam less the strip, (-1)^height) for each border strip of size r.

    In the beta-number formulation, removing a border strip of size r is
    beta_i -> beta_i - r, keeping the beta's distinct and nonnegative; the
    strip height is the number of beta's jumped over."""
    k = len(lam)
    beta = [lam[i] + (k - 1 - i) for i in range(k)]
    bset = set(beta)
    out = []
    for i in range(k):
        nb = beta[i] - r
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for b in beta if nb < b < beta[i])
        new_beta = sorted((bset - {beta[i]}) | {nb}, reverse=True)
        new_lam = tuple(b - (k - 1 - j) for j, b in enumerate(new_beta))
        out.append((tuple(x for x in new_lam if x > 0), -1 if height % 2 else 1))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def mn_bipartition(lam: Partition, gamma: Partition, cycles: tuple) -> int:
    """The W(B_n)-irreducible lam x gamma at the signed cycles (r, e), e = +-1,
    by the hyperoctahedral Murnaghan-Nakayama rule (Geck-Pfeiffer 5.5): one
    cycle at a time, each border strip of size r taken from lam, plus e times
    each taken from gamma, signed by (-1)^height."""
    if not cycles:
        return int(not lam and not gamma)
    (r, e), rest = cycles[0], cycles[1:]
    return (sum(s * mn_bipartition(new, gamma, rest) for new, s in border_strips(lam, r))
            + e * sum(s * mn_bipartition(lam, new, rest) for new, s in border_strips(gamma, r)))


def mn_character(lam: Partition, alpha: Partition) -> int:
    """Irreducible S_n character chi^lam at cycle type alpha (Murnaghan-Nakayama):
    the bipartition lam x () at the positive cycles alpha.

    >>> mn_character((2, 1), (3,))
    -1
    """
    if sum(lam) != sum(alpha):
        raise ValueError(f"size mismatch: |{lam}| != |{alpha}|")
    return mn_bipartition(tuple(lam), (), tuple((r, 1) for r in alpha))


def conjugacy_class_size_sn(*types: Partition, k: int = 1) -> int:
    """k^n n!/prod (kr)^m m! over the parts r, of multiplicity m, of types: the
    S_n class of cycle type alpha, or with k = 2 the W(B_n) class of (pos, neg)."""
    n = sum(map(sum, types))
    return k ** n * math.factorial(n) // math.prod(
        (k * r) ** m * math.factorial(m) for t in types for r, m in Counter(t).items())


# ---------------------------------------------------------------------------
# Distinguished unipotent classes and their two-row symbols


def distinguished_partitions(kind: str, n: int) -> list[Partition]:
    """Jordan types of distinguished unipotent classes in the rank-n dual group.

    C: distinct even parts summing to 2n; B: distinct odd parts summing to
    2n+1; D: distinct odd parts summing to 2n, evenly many of them.
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    if kind == "C":
        total, parity, even_count = 2 * n, 0, None
    elif kind == "B":
        total, parity, even_count = 2 * n + 1, 1, None
    elif kind == "D":
        total, parity, even_count = 2 * n, 1, True
    else:
        raise ValueError(f"unknown kind {kind!r}")
    out = []
    for p in partitions_of(total):
        if len(set(p)) != len(p):
            continue
        if any(x % 2 != parity for x in p):
            continue
        if even_count and len(p) % 2 != 0:
            continue
        out.append(p)
    return out


class SSymbol(NamedTuple("SSymbol", [("top", tuple), ("bottom", tuple)])):
    """Two strictly increasing rows sharing the entry multiset {a_j + (j-1)}."""

    def __new__(cls, top: tuple[int, ...], bottom: tuple[int, ...]):
        for row in (top, bottom):
            if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
                raise ValueError(f"row not strictly increasing: {row}")
        return super().__new__(cls, top, bottom)

    def entries(self) -> tuple[int, ...]:
        return tuple(sorted(self.top + self.bottom))

    def row_of(self, entry: int) -> int:
        if entry in self.top:
            return 0
        if entry in self.bottom:
            return 1
        raise ValueError(f"{entry} not in symbol")

    def to_json(self) -> dict:
        return {"top": list(self.top), "bottom": list(self.bottom)}


def _a_sequence(kind: str, u: Partition) -> list[int]:
    """Increasing a_j with parts 2a_j (C) or 2a_j+1 (B/D); C padded to odd length."""
    parts = sorted(u)
    if kind == "C":
        if any(x % 2 or x <= 0 for x in parts):
            raise ValueError(f"{u} is not a distinct-even-part partition")
        a = [x // 2 for x in parts]
        if len(a) % 2 == 0:
            if a and a[0] == 0:
                raise ValueError("padding would duplicate a zero part")
            a = [0] + a
    elif kind in ("B", "D"):
        if any(x % 2 == 0 or x <= 0 for x in parts):
            raise ValueError(f"{u} is not a distinct-odd-part partition")
        a = [(x - 1) // 2 for x in parts]
        if kind == "D" and len(a) % 2 != 0:
            raise ValueError(f"type D requires evenly many parts: {u}")
        if kind == "B" and len(a) % 2 != 1:
            raise ValueError(f"type B partition sums to an odd number; got {u}")
    else:
        raise ValueError(f"unknown kind {kind!r}")
    if len(set(a)) != len(a):
        raise ValueError(f"parts not distinct: {u}")
    return a


def triv_symbol(kind: str, u: Partition) -> SSymbol:
    """Symbol of the trivial component-group representation.

    Odd positions j go to the top row, even to the bottom; entries a_j + (j-1).
    Type B mirrors the type-C construction (the part count is odd without
    padding).
    """
    a = _a_sequence(kind, u)
    entries = [a[j] + j for j in range(len(a))]
    top = tuple(entries[j] for j in range(0, len(a), 2))
    bottom = tuple(entries[j] for j in range(1, len(a), 2))
    return SSymbol(top, bottom)


def symbol_positions(kind: str, u: Partition) -> list[int]:
    """Entry a_j + (j-1) for each position j (0-based), increasing."""
    a = _a_sequence(kind, u)
    return [a[j] + j for j in range(len(a))]


ComponentRep = tuple[int, ...]  # 0 = trivial, 1 = sign, one slot per position


def symbol_to_component_rep(kind: str, u: Partition, sym: SSymbol) -> ComponentRep:
    """Position-wise trivial/sign flags of a symbol relative to the trivial one."""
    triv = triv_symbol(kind, u)
    if sym.entries() != triv.entries():
        raise ValueError("incompatible symbols: entry multisets differ")
    if len(sym.top) != len(triv.top) or len(sym.bottom) != len(triv.bottom):
        raise ValueError("incompatible symbols: row shapes differ")
    out = []
    for e in symbol_positions(kind, u):
        out.append(0 if sym.row_of(e) == triv.row_of(e) else 1)
    return tuple(out)


def component_rep_to_symbol(kind: str, u: Partition, rep: ComponentRep) -> SSymbol:
    """Inverse of symbol_to_component_rep; requires strictly increasing rows."""
    triv = triv_symbol(kind, u)
    entries = symbol_positions(kind, u)
    if len(rep) != len(entries):
        raise ValueError("component representation has the wrong length")
    top, bottom = [], []
    for e, flag in zip(entries, rep):
        row = triv.row_of(e) ^ flag
        (top if row == 0 else bottom).append(e)
    return SSymbol(tuple(top), tuple(bottom))


def adjacent_flip_symbols(kind: str, u: Partition) -> list[tuple[SSymbol, ComponentRep]]:
    """Symbols obtained from the trivial one by swapping two consecutive
    entries between opposite rows; their component flags are sign-sign at
    adjacent slots."""
    entries = symbol_positions(kind, u)
    m = len(entries)
    out = []
    for j in range(m - 1):
        rep = tuple(1 if k in (j, j + 1) else 0 for k in range(m))
        out.append((component_rep_to_symbol(kind, u, rep), rep))
    return out


def separates_component_group(kind: str, u: Partition) -> bool:
    """Whether the adjacent-flip representations separate the quotient of
    (Z/2)^m by the diagonal (brute force over all group elements)."""
    reps = [rep for _, rep in adjacent_flip_symbols(kind, u)]
    m = len(symbol_positions(kind, u))

    def values(x):
        return tuple((-1) ** (x[j] + x[j + 1]) for rep in reps for j in [rep.index(1)])

    by_value: dict[tuple, tuple] = {}
    for x in itertools.product((0, 1), repeat=m):
        xc = min(x, tuple(1 - b for b in x))  # class mod the diagonal
        v = values(x)
        if by_value.setdefault(v, xc) != xc:
            return False
    return True
