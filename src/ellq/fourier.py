"""The nonabelian Fourier transform attached to a small finite group, family
data for the realized Weyl groups (the families of more than one member; every
other irreducible is a family of its own), the pairing on the parameter set
X(W), and generic degrees.

Supported small groups: trivial, Z2^k (k <= 4), S3, S4, S5, as permutation
groups whose elements are `bytes` (`groups.permutation_group`).  Each pair in
M(Gamma) is a conjugacy class representative together with an irreducible
character of its centralizer; all arithmetic is exact, with cyclotomic
character values collapsing to rationals in the final matrices.
"""
from __future__ import annotations

import functools
from collections import Counter
from fractions import Fraction
from math import prod
from typing import NamedTuple, Sequence, Union

from .cyclo import CycNum, ring_reduce, ring_sum, ring_terms
from .exactq import RF_ONE, RF_ZERO, RationalFunction
from .groups import CharacterTable, ConjClass, FiniteGroup, gram_mismatch, permutation_group
from .weylgrp import (ProductWeyl, WeylGroupData, fake_degree_values, h_class_function,
                      induce_class_function, parabolic_subgroup)

SUPPORTED_GAMMAS = ("trivial", "Z2", "Z2^2", "Z2^3", "Z2^4", "S3", "S4", "S5")


@functools.lru_cache(maxsize=None)
def small_group(name: str) -> FiniteGroup:
    """Gamma as a permutation group.  An element's key is its bytes of
    images, which sort as their tuple's repr on at most 10 points: it picks
    the class representatives and the class order, and so the labels of
    M(Gamma)."""
    if name not in SUPPORTED_GAMMAS:
        raise ValueError(f"unsupported group {name!r}")
    if name.startswith("Z2"):  # Z2^k: the transpositions (2i, 2i+1)
        n = 2 * (1 if name == "Z2" else int(name[3]))
        swaps = range(0, n, 2)
    else:  # trivial, or S_n: the adjacent transpositions (i, i+1)
        n = 1 if name == "trivial" else int(name[1])
        swaps = range(n - 1)
    gens = [[*range(i), i + 1, i, *range(i + 2, n)] for i in swaps]
    return permutation_group(gens, n, key=None)


class MPair(NamedTuple):
    x_class: int   # conjugacy class index in Gamma
    char_index: int  # row of the centralizer's character table
    label: tuple[str, str]

    def __str__(self):
        return f"({self.label[0]},{self.label[1]})"


class FourierBlock:
    """Entries are Fractions when rational; exact real cyclotomic numbers
    otherwise (this happens for S5, whose 5- and 6-cycle pairs produce real
    quadratic irrationalities).  `scaled` is N = scale * matrix in integers,
    as the build made it: an int for a rational entry, and for an irrational
    one its power-basis coordinates as pairs (k, c) of Z[Z/conductor]."""

    def __init__(self, gamma_name: str, pairs: list[MPair], matrix: list[list],
                 conductor: int, scaled: list[list], scale: int):
        self.gamma_name = gamma_name
        self.pairs = pairs
        self.matrix = matrix
        self.conductor = conductor
        self.scaled = scaled
        self.scale = scale
        self._positions = {p.label: i for i, p in enumerate(pairs)}

    def index(self, label: tuple[str, str]) -> int:
        try:
            return self._positions[tuple(label)]
        except KeyError:
            raise KeyError(f"no pair {label} in M({self.gamma_name})") from None

    def entry(self, a, b):
        return self.matrix[self.index(a)][self.index(b)]

    def is_rational(self) -> bool:
        return all(isinstance(v, Fraction) for row in self.matrix for v in row)


def _x_labels(gamma: FiniteGroup) -> list[str]:
    labels = []
    counts: dict[int, int] = {}
    for c in gamma.conjugacy_classes():
        if c.rep == gamma.identity:
            labels.append("1")
            continue
        counts[c.order] = counts.get(c.order, 0) + 1
        suffix = "'" * (counts[c.order] - 1)
        base = "tau" if gamma.order == 2 else f"g{c.order}"
        labels.append(base + suffix)
    return labels


def _char_labels(table: CharacterTable) -> list[str]:
    labels = []
    n_eps = 0
    n_chi = 0
    two_dims = sum(1 for row in table.values if row[0] == 2)
    for i, row in enumerate(table.values):
        if all(isinstance(v, int) and v == 1 for v in row):
            labels.append("1")
        elif row[0] == 1 and all(isinstance(v, int) and v in (1, -1) for v in row):
            n_eps += 1
            labels.append("eps" + "'" * (n_eps - 1))
        elif row[0] == 2 and two_dims == 1:
            labels.append("r")
        else:
            n_chi += 1
            labels.append(f"chi{n_chi}")
    return labels


@functools.lru_cache(maxsize=None)
def _centralizers(gamma_name: str) -> tuple[list[ConjClass], list[FiniteGroup],
                                            list[CharacterTable]]:
    """The classes of Gamma, the centralizer of each class representative,
    and the character table of each centralizer, asked once per distinct
    group: the centralizer of a central element is Gamma itself."""
    gamma = small_group(gamma_name)
    classes = gamma.conjugacy_classes()
    cents = [gamma if c.size == 1 else gamma.centralizer(c.rep) for c in classes]
    table = gamma.character_table()
    return classes, cents, [table if cent is gamma else cent.character_table()
                            for cent in cents]


@functools.lru_cache(maxsize=None)
def m_set(gamma_name: str) -> list[MPair]:
    """Gamma-orbits of pairs (x, irreducible character of the centralizer)."""
    xl = _x_labels(small_group(gamma_name))
    _, _, tables = _centralizers(gamma_name)
    return [MPair(i, a, (xl[i], cl))
            for i, table in enumerate(tables)
            for a, cl in enumerate(_char_labels(table))]


@functools.lru_cache(maxsize=None)
def fourier_matrix(gamma_name: str) -> FourierBlock:
    """{(x,sigma),(y,tau)} = (1/|C(x)||C(y)|) sum over g with x g y g^-1 = g y g^-1 x
    of sigma(g y g^-1) conj(tau(g^-1 x g)); exact and rational except for the
    5- and 6-cycle pairs of S5.

    The summand depends on g only through the class of u = g y g^-1 in C(x)
    and the class of v = g^-1 x g in C(y).  Both conjugates are listed once
    per class of Gamma; for each pair of classes x <= y one pass over them
    counts the class pairs (u, v), u in C(x) being one lookup in the class
    map of C(x) that also gives its class.  Every entry of that sub-block is
        sum over (u, v) of count(u, v) sigma(u) conj(tau(v)) / |C(x)||C(y)|:
    an int sum when sigma and tau are rational, else summed in the integer
    group ring Z[Z/m] of the exponent m of Gamma and reduced mod Phi_m once.
    Next to M the build keeps N = D M, D = |Gamma|^2, in integers, and
    `_check_block` checks N."""
    gamma = small_group(gamma_name)
    pairs = m_set(gamma_name)
    classes, cents, tables = _centralizers(gamma_name)
    m = gamma.exponent()
    d = gamma.order ** 2
    ints = [[row if all(type(v) is int for v in row) else None for row in t.values]
            for t in tables]
    terms = [[[ring_terms(v, m) for v in row] for row in t.values] for t in tables]
    members = [[a for a, p in enumerate(pairs) if p.x_class == i]
               for i in range(len(classes))]
    n = len(pairs)
    matrix = [[Fraction(0)] * n for _ in range(n)]
    scaled = [[0] * n for _ in range(n)]
    # g y g^-1 and g^-1 x g for every g, per class representative
    by_g = gamma.conjugator(gamma.elements)
    by_g_inv = gamma.conjugator(map(gamma.inv, gamma.elements))
    conj = [(by_g(c.rep), by_g_inv(c.rep)) for c in classes]
    for i, cx in enumerate(cents):
        cx_of = cx._class_of
        for j in range(i, len(classes)):
            cy_of = cents[j]._class_of
            counts = Counter((cu, cy_of[v]) for u, v in zip(conj[j][0], conj[i][1])
                             if (cu := cx_of.get(u)) is not None).items()
            den = cx.order * cents[j].order
            scale = d // den
            shared: dict[int, Fraction] = {}  # one Fraction per value
            for a in members[i]:
                sa, ta = ints[i][pairs[a].char_index], terms[i][pairs[a].char_index]
                for b in members[j]:
                    if b < a:
                        continue
                    sb, tb = ints[j][pairs[b].char_index], terms[j][pairs[b].char_index]
                    if sa and sb:
                        t = sum(c * sa[u] * sb[v] for (u, v), c in counts)
                    else:
                        total = ring_sum(((c, ta[u], tb[v]) for (u, v), c in counts), m)
                        coords = ring_reduce(total.items(), m)
                        t = coords[0]
                        if any(coords[1:]):
                            matrix[a][b] = matrix[b][a] = CycNum(
                                m, {k: Fraction(c, den) for k, c in total.items() if c})
                            scaled[a][b] = scaled[b][a] = tuple(
                                (k, c * scale) for k, c in enumerate(coords) if c)
                            continue
                    if t not in shared:
                        shared[t] = Fraction(t, den)
                    matrix[a][b] = matrix[b][a] = shared[t]  # real symmetric
                    scaled[a][b] = scaled[b][a] = t * scale
    block = FourierBlock(gamma_name, pairs, matrix, m, scaled, d)
    _check_block(block)
    return block


def _check_block(block: FourierBlock) -> None:
    """Exact symmetry, realness, and the involution property M^2 = 1, checked
    on the integer matrix N = D M of the build: N N = D^2 I.  N symmetric
    makes column j row j, and N real makes conjugation leave each entry's
    reduction as it is, so N N is the Gram matrix of the rows of N
    (`groups.gram_mismatch`, which checks every character table too)."""
    rows, d, m = block.scaled, block.scale, block.conductor
    n = len(rows)
    for i, row in enumerate(rows):
        for j in range(i + 1, n):
            a, b = row[j], rows[j][i]
            if a != b and (type(a) is type(b) is int or ring_reduce(ring_terms(a, m), m)
                           != ring_reduce(ring_terms(b, m), m)):
                raise RuntimeError("Fourier matrix not symmetric")
        for v in row:
            if type(v) is tuple and ring_reduce(((-k % m, c) for k, c in v), m) \
                    != ring_reduce(v, m):
                raise RuntimeError("Fourier matrix not real")
    if gram_mismatch(rows, [1] * n, d * d, m) is not None:
        raise RuntimeError("Fourier matrix not an involution")


def special_column_entry(gamma_name: str, y_pair, rho1_pair) -> Fraction:
    """{(y,rho),(1,rho')} = rho(1) rho'(y) / |C(y)| (column with identity x-part)."""
    gamma = small_group(gamma_name)
    block_pairs = {p.label: p for p in m_set(gamma_name)}
    py = block_pairs[tuple(y_pair)]
    p1 = block_pairs[tuple(rho1_pair)]
    classes, cents, tables = _centralizers(gamma_name)
    if classes[p1.x_class].rep != gamma.identity:
        raise ValueError("second argument must have identity group element")
    rho_dim = tables[py.x_class].values[py.char_index][0]
    rho_prime_at_y = tables[p1.x_class].values[p1.char_index][py.x_class]
    return Fraction(rho_dim) * Fraction(rho_prime_at_y) / cents[py.x_class].order


# ---------------------------------------------------------------------------
# families


class Family(NamedTuple):
    members: list[str]                # irreducible labels of W
    gamma: str                        # small group name; "trivial" if singleton
    embedding: dict[str, tuple[str, str]]  # member -> pair label in M(gamma)


def _singleton(label: str) -> Family:
    return Family([label], "trivial", {label: ("1", "1")})


# the families of more than one member, as (Gamma, member -> pair label in
# M(Gamma)), for the groups where not every family is a singleton; every
# other irreducible is a family of its own.  Validated downstream by the
# printed transform matrices and the unipotent degree identities
_FIXED_FAMILIES = {
    "G2": [
        ("S3", {
            "phi(2,1)": ("1", "1"),
            "phi(2,2)": ("g2", "1"),
            "phi(1,3)'": ("g3", "1"),
            "phi(1,3)''": ("1", "r"),
        }),
    ],
    "B2": [
        ("Z2", {
            "[1]x[1]": ("1", "1"),
            "[]x[2]": ("1", "eps"),
            "[1, 1]x[]": ("tau", "1"),
        }),
    ],
    "B1": [],
}


def families_for(W: Union[WeylGroupData, ProductWeyl]) -> list[Family]:
    """Family partition of Irr(W).  Type A and products of type A's are all
    singletons; G2 and B1/B2 list their families of more than one member,
    after the singletons of every other irreducible in irrep_labels() order."""
    if isinstance(W, ProductWeyl):
        factor_fams = [families_for(f) for f in W.factors]
        if any(len(f.members) > 1 for fams in factor_fams for f in fams):
            raise NotImplementedError("product families only for singleton factors")
        return [_singleton(lab) for lab in W.irrep_labels()]
    spec = W.spec
    if spec.family == "A":
        return [_singleton(lab) for lab in W.irrep_labels()]
    key = str(spec)
    if key not in _FIXED_FAMILIES:
        raise NotImplementedError(f"no family data for {key}")
    labels = W.irrep_labels()
    typed = [mb for _, emb in _FIXED_FAMILIES[key] for mb in emb]
    if len(set(typed)) < len(typed) or not set(typed) <= set(labels):
        raise RuntimeError(f"family data does not partition Irr({key})")
    return ([_singleton(lab) for lab in labels if lab not in typed]
            + [Family(list(emb), gamma, dict(emb)) for gamma, emb in _FIXED_FAMILIES[key]])


@functools.lru_cache(maxsize=None)
def ef_matrix(W: Union[WeylGroupData, ProductWeyl]) -> tuple[tuple[Fraction, ...], ...]:
    """Matrix of the transform on the span of Irr(W): block per family,
    zero across families.  Built once per group object and kept."""
    labels = W.irrep_labels()
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    e = [[Fraction(0)] * n for _ in range(n)]
    for fam in families_for(W):
        if fam.gamma == "trivial":
            i = index[fam.members[0]]
            e[i][i] = Fraction(1)
            continue
        block = fourier_matrix(fam.gamma)
        for a in fam.members:
            for b in fam.members:
                e[index[a]][index[b]] = block.entry(fam.embedding[a], fam.embedding[b])
    return tuple(map(tuple, e))


def ef_map(W, coords: Sequence[Fraction]) -> list[Fraction]:
    """Image of a virtual character (coordinates over Irr) under the transform."""
    e = ef_matrix(W)
    n = len(e)
    if len(coords) != n:
        raise ValueError(f"a virtual character has {n} coordinates, one per "
                         f"irreducible, not {len(coords)}")
    return [sum(e[i][j] * Fraction(coords[j]) for j in range(n)) for i in range(n)]


class XWPairing(NamedTuple):
    labels: list[str]              # "family_index:(x,sigma)"
    matrix: list[list[Fraction]]


def block_diagonal(blocks: Sequence[Sequence[Sequence]]) -> list[list[Fraction]]:
    """The square matrix with the given square blocks down its diagonal and
    zero elsewhere."""
    n = sum(map(len, blocks))
    out = []
    for block in blocks:
        at = len(out)
        out.extend([Fraction(0)] * at + list(row) + [Fraction(0)] * (n - at - len(row))
                   for row in block)
    return out


def xw_pairing(W) -> XWPairing:
    """Pairing on the full parameter set X(W): one complete M(Gamma) block per
    family, zero across blocks; squares to the identity."""
    labels = []
    blocks = []
    for fi, fam in enumerate(families_for(W)):
        block = fourier_matrix(fam.gamma)
        blocks.append(block.matrix)
        labels.extend(f"F{fi}:{p}" for p in block.pairs)
    return XWPairing(labels, block_diagonal(blocks))


# ---------------------------------------------------------------------------
# generic degrees


def generic_degree(W: Union[WeylGroupData, ProductWeyl], label) -> RationalFunction:
    """d(q) = sum over family members of {delta, delta'} f_{delta'}(q)."""
    if isinstance(W, ProductWeyl):
        if isinstance(label, str):
            label = label.split(" (x) ")
        return prod(map(generic_degree, W.factors, label), start=RF_ONE)
    for fam in families_for(W):
        if label in fam.members:
            break
    else:
        raise KeyError(f"unknown irreducible {label}")
    if fam.gamma == "trivial":
        return RationalFunction(fake_degree_values(W, W.irrep_values(label)))
    block = fourier_matrix(fam.gamma)
    entries = ((o, block.entry(fam.embedding[label], fam.embedding[o])) for o in fam.members)
    return sum((RationalFunction(fake_degree_values(W, W.irrep_values(o))) * c
                for o, c in entries if c), RF_ZERO)


def plancherel_sum(W: Union[WeylGroupData, ProductWeyl]) -> RationalFunction:
    """sum over irreducibles of d_delta(q) * dim(delta); equals P(q)."""
    return sum((generic_degree(W, lab) * W.irrep_values(lab)[0] for lab in W.irrep_labels()),
               RF_ZERO)


# ---------------------------------------------------------------------------
# compatibility with induction


def ef_induction_check(W: WeylGroupData, gen_indices: Sequence[int]) -> bool:
    """Whether the transform commutes with induction from the parabolic
    subgroup on the given simple generators.  The parabolic factors here are
    symmetric groups or sign groups, whose own transform is the identity, so
    the check is that induced characters are fixed."""
    H = parabolic_subgroup(W, list(gen_indices))
    table = W.character_table()
    for row in H.character_table().values:
        coords = table.decompose(induce_class_function(W, H, h_class_function(H, row)))
        if ef_map(W, coords) != coords:
            return False
    return True
