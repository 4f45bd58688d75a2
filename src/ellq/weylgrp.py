"""Concrete finite Weyl groups: signed permutations for the classical types,
integer matrices on the root lattice for G2 and F4.

Provides conjugacy classes with characteristic polynomials det(1 - q w) on the
reflection representation, elliptic flags, labeled exact character tables,
fake degrees, and induction from subgroups.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .combinat import mn_character, partitions_of
from .exactq import QPolynomial, RationalFunction, RF_ONE, RF_Q, class_sum
from .groups import FiniteGroup, GroupTooLargeError

DEFAULT_BOUND = 50000


@dataclass(frozen=True)
class GroupSpec:
    family: str  # 'A', 'B', 'D', 'G2', 'F4'
    rank: int

    def __post_init__(self):
        if self.family not in ("A", "B", "D", "G2", "F4"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "G2" and self.rank != 2:
            raise ValueError("G2 has rank 2")
        if self.family == "F4" and self.rank != 4:
            raise ValueError("F4 has rank 4")
        if self.family == "D" and self.rank < 2:
            raise ValueError("D requires rank >= 2")
        if self.rank < 1:
            raise ValueError("rank must be positive")

    @staticmethod
    def parse(s: str) -> "GroupSpec":
        s = s.strip()
        if s in ("G2", "F4"):
            return GroupSpec(s, int(s[1]))
        if not s[1:].isdigit():
            raise ValueError(f"group type {s!r} is not a family and a rank, e.g. B5")
        return GroupSpec(s[0].upper(), int(s[1:]))

    def __str__(self):
        if self.family in ("G2", "F4"):
            return self.family
        return f"{self.family}{self.rank}"


EXPONENTS = {
    "G2": (1, 5),
    "F4": (1, 5, 7, 11),
    "E6": (1, 4, 5, 7, 8, 11),
    "E7": (1, 5, 7, 9, 11, 13, 17),
    "E8": (1, 7, 11, 13, 17, 19, 23, 29),
}


def exponents_of(spec: GroupSpec) -> tuple[int, ...]:
    if spec.family == "A":
        return tuple(range(1, spec.rank + 1))
    if spec.family == "B":
        return tuple(range(1, 2 * spec.rank, 2))
    if spec.family == "D":
        return tuple(sorted(list(range(1, 2 * spec.rank - 2, 2)) + [spec.rank - 1]))
    return EXPONENTS[spec.family]


def exceptional_exponents(name: str) -> tuple[int, ...]:
    """Exponent data for the exceptional types, including unrealized E6-E8."""
    return EXPONENTS[name]


def poincare_polynomial(exponents: Sequence[int]) -> QPolynomial:
    """P(q) = prod (q^{m+1} - 1)/(q - 1)."""
    p = QPolynomial.one()
    qm1 = QPolynomial.of(-1, 1)
    for m in exponents:
        p = p * (QPolynomial.qpow_minus_one(m + 1) // qm1)
    return p


def group_order_from_exponents(exponents: Sequence[int]) -> int:
    out = 1
    for m in exponents:
        out *= m + 1
    return out


# ---------------------------------------------------------------------------
# signed permutations (types A, B, D)
#
# w is a tuple with w[i-1] = signed image of i; e_i -> sign * e_{|w[i-1]|}.


def sp_mult(w, v):
    return tuple(w[x - 1] if x > 0 else -w[-x - 1] for x in v)


def sp_inv(w):
    out = [0] * len(w)
    for i, x in enumerate(w):
        if x > 0:
            out[x - 1] = i + 1
        else:
            out[-x - 1] = -(i + 1)
    return tuple(out)


def sp_identity(n):
    return tuple(range(1, n + 1))


def signed_cycle_type(w) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(positive cycle lengths, negative cycle lengths), each sorted decreasing."""
    n = len(w)
    seen = [False] * n
    pos, neg = [], []
    for i in range(n):
        if seen[i]:
            continue
        length, sign, j = 0, 1, i
        while not seen[j]:
            seen[j] = True
            x = w[j]
            if x < 0:
                sign = -sign
            j = abs(x) - 1
            length += 1
        (pos if sign > 0 else neg).append(length)
    return tuple(sorted(pos, reverse=True)), tuple(sorted(neg, reverse=True))


def char_poly_signed(w, family: str) -> QPolynomial:
    """det(1 - q w) on the reflection representation."""
    pos, neg = signed_cycle_type(w)
    p = QPolynomial.one()
    for r in pos:
        p = p * QPolynomial((1,) + (0,) * (r - 1) + (-1,))  # 1 - q^r
    for r in neg:
        p = p * QPolynomial((1,) + (0,) * (r - 1) + (1,))  # 1 + q^r
    if family == "A":
        p = p // QPolynomial.of(1, -1)  # remove the trivial summand
    return p


def bipartition_value(lam, gamma, pos, neg) -> int:
    """Character of the W(B_n)-irreducible lam x gamma at signed cycle type."""
    parts = [(r, 1) for r in pos] + [(r, -1) for r in neg]
    nl, ng = sum(lam), sum(gamma)
    total = 0
    for assign in itertools.product((0, 1), repeat=len(parts)):
        to_x = tuple(sorted((parts[i][0] for i in range(len(parts)) if assign[i] == 0),
                            reverse=True))
        if sum(to_x) != nl:
            continue
        to_y = tuple(sorted((parts[i][0] for i in range(len(parts)) if assign[i] == 1),
                            reverse=True))
        sign = 1
        for i in range(len(parts)):
            if assign[i] == 1 and parts[i][1] < 0:
                sign = -sign
        total += sign * mn_character(tuple(lam), to_x) * mn_character(tuple(gamma), to_y)
    return total


# ---------------------------------------------------------------------------
# exceptional groups as integer matrices on the root lattice

CARTAN_PAIRING = {
    # P[i][j] = <alpha_i, alpha_j^vee>; G2: alpha1 short, alpha2 long
    "G2": ((2, -1), (-3, 2)),
    # F4 (Bourbaki): alpha1, alpha2 long; alpha3, alpha4 short
    "F4": ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2)),
}

GRAM = {
    "G2": ((2, -3), (-3, 6)),
    "F4": ((4, -2, 0, 0), (-2, 4, -2, 0), (0, -2, 2, -1), (0, 0, -1, 2)),
}


def mat_mult(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def simple_reflection_matrix(family: str, j: int):
    """Matrix of s_j on root coordinates: alpha_i -> alpha_i - P[i][j] alpha_j."""
    p = CARTAN_PAIRING[family]
    n = len(p)
    rows = []
    for r in range(n):
        row = []
        for c in range(n):
            v = 1 if r == c else 0
            if r == j:
                v -= p[c][j]
            row.append(v)
        rows.append(tuple(row))
    return tuple(rows)


def char_poly_matrix(m) -> QPolynomial:
    """det(1 - q M) by Laplace expansion (rank <= 4)."""
    n = len(m)
    entries = [[QPolynomial.of(1 if i == j else 0) - QPolynomial.of(0, m[i][j])
                for j in range(n)] for i in range(n)]
    return _poly_det(entries)


def _poly_det(rows) -> QPolynomial:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = QPolynomial.zero()
    for j in range(n):
        if rows[0][j].is_zero():
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = rows[0][j] * _poly_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def mat_inverse(m):
    """Inverse of a finite-order integer matrix: the power just before the
    order closes up."""
    ident = mat_identity(len(m))
    prev, x = ident, m
    while x != ident:
        prev, x = x, mat_mult(x, m)
    return prev


# ---------------------------------------------------------------------------


@dataclass
class WeylClassInfo:
    rep: object
    size: int
    order: int
    char_poly: QPolynomial
    elliptic: bool
    signed_type: Optional[tuple] = None  # (pos, neg) for B/D; cycle type for A

    def rep_str(self) -> str:
        return str(list(self.rep) if isinstance(self.rep, tuple) and not isinstance(self.rep[0], tuple) else [list(r) for r in self.rep])


class WeylGroupData:
    """A realized Weyl group together with its reflection-representation data."""

    def __init__(self, spec: GroupSpec, group: FiniteGroup, char_poly_fn):
        self.spec = spec
        self.group = group
        self.rank = spec.rank
        self._char_poly_fn = char_poly_fn
        self._classes: Optional[list[WeylClassInfo]] = None
        self._table = None
        self._labels: Optional[list[str]] = None
        self.exponents = exponents_of(spec)
        self.poincare = poincare_polynomial(self.exponents)

    @property
    def order(self) -> int:
        return self.group.order

    def classes(self) -> list[WeylClassInfo]:
        if self._classes is None:
            out = []
            for c in self.group.conjugacy_classes():
                cp = self._char_poly_fn(c.rep)
                stype = None
                if self.spec.family in ("A", "B", "D"):
                    stype = signed_cycle_type(c.rep)
                out.append(WeylClassInfo(
                    rep=c.rep, size=c.size, order=c.order, char_poly=cp,
                    elliptic=(cp.evaluate(Fraction(1)) != 0), signed_type=stype))
            self._classes = out
        return self._classes

    def elliptic_classes(self) -> list[int]:
        return [i for i, c in enumerate(self.classes()) if c.elliptic]

    def character_table(self):
        if self._table is None:
            self._table = self.group.character_table()
            for row in self._table.values:
                if not all(isinstance(v, int) for v in row):
                    raise RuntimeError("Weyl group character table must be rational")
        return self._table

    # -- irreducible labels ---------------------------------------------------

    def irrep_labels(self) -> list[str]:
        if self._labels is None:
            self._labels = self._compute_labels()
        return self._labels

    def irrep_index(self, label: str) -> int:
        return self.irrep_labels().index(label)

    def irrep_values(self, label: str) -> list[int]:
        return self.character_table().values[self.irrep_index(label)]

    def _compute_labels(self) -> list[str]:
        table = self.character_table()
        fam = self.spec.family
        if fam == "A":
            return self._labels_a(table)
        if fam == "B":
            return self._labels_b(table)
        if fam == "D":
            return self._labels_d(table)
        if fam == "G2":
            return self._labels_g2(table)
        return self._labels_generic(table)

    def _labels_a(self, table):
        n = self.rank + 1
        want = {}
        for lam in partitions_of(n):
            key = tuple(mn_character(lam, c.signed_type[0]) for c in self.classes())
            want[key] = f"{list(lam)}"
        return self._match_labels(table, want)

    def _labels_b(self, table):
        n = self.rank
        want = {}
        for total_l in range(n + 1):
            for lam in partitions_of(total_l):
                for gam in partitions_of(n - total_l):
                    key = tuple(bipartition_value(lam, gam, c.signed_type[0], c.signed_type[1])
                                for c in self.classes())
                    want[key] = f"{list(lam)}x{list(gam)}"
        return self._match_labels(table, want)

    def _labels_d(self, table):
        n = self.rank
        rows = [tuple(r) for r in table.values]
        labels: dict[int, str] = {}
        used = set()
        for total_l in range(n + 1):
            for lam in partitions_of(total_l):
                for gam in partitions_of(n - total_l):
                    if (gam, lam) < (lam, gam):
                        continue
                    vals = tuple(bipartition_value(lam, gam, c.signed_type[0], c.signed_type[1])
                                 for c in self.classes())
                    if lam != gam:
                        for i, r in enumerate(rows):
                            if i not in used and r == vals:
                                labels[i] = f"{list(lam)}x{list(gam)}"
                                used.add(i)
                                break
                    else:
                        # the restriction splits; its two constituents have
                        # half the dimension and sum to the restricted values
                        halves = [i for i, r in enumerate(rows)
                                  if i not in used and r[0] * 2 == vals[0]]
                        pair = [(i, j) for i in halves for j in halves if i < j
                                and all(rows[i][k] + rows[j][k] == vals[k]
                                        for k in range(len(vals)))]
                        if pair:
                            i, j = pair[0]
                            labels[i] = f"{list(lam)}x{list(gam)}+"
                            labels[j] = f"{list(lam)}x{list(gam)}-"
                            used.add(i)
                            used.add(j)
        if len(labels) != len(rows):
            raise RuntimeError("failed to label all D-type irreducibles")
        return [labels[i] for i in range(len(rows))]

    def _labels_g2(self, table):
        # phi(d,b): dimension and b-invariant; the two linear b=3 characters are
        # separated by their value on the short-root reflection class (the class
        # of the first generator): phi(1,3)' is +1 there, phi(1,3)'' is -1.
        short_class = self.group.class_of(self.group.generators[0])
        labels = []
        for row in table.values:
            d = row[0]
            b = fake_degree_values(self, list(row)).low_degree()
            name = f"phi({d},{b})"
            if (d, b) == (1, 3):
                name += "'" if row[short_class] == 1 else "''"
            labels.append(name)
        return labels

    def _labels_generic(self, table):
        by_key: dict[tuple, list[int]] = {}
        for i, row in enumerate(table.values):
            b = fake_degree_values(self, list(row)).low_degree()
            by_key.setdefault((row[0], b), []).append(i)
        labels = [""] * len(table.values)
        for (d, b), idxs in by_key.items():
            if len(idxs) == 1:
                labels[idxs[0]] = f"phi({d},{b})"
            else:
                idxs.sort(key=lambda i: table.values[i])
                for k, i in enumerate(idxs):
                    labels[i] = f"phi({d},{b})" + "'" * (k + 1)
        return labels

    def _match_labels(self, table, want: dict[tuple, str]) -> list[str]:
        labels = []
        for row in table.values:
            key = tuple(row)
            if key not in want:
                raise RuntimeError(f"unmatched character row {row}")
            labels.append(want[key])
        return labels

    # -- class functions -------------------------------------------------------

    def class_function_bipartition(self, lam, gam) -> list[int]:
        """Values of lam x gam (type B; restriction for type D) on the classes."""
        return [bipartition_value(lam, gam, c.signed_type[0], c.signed_type[1])
                for c in self.classes()]

    def sign_values(self) -> list[int]:
        """det_E(w) per class: the sign character."""
        out = []
        for c in self.classes():
            cp = c.char_poly
            # det(1 - q w) has leading coefficient (-q)^l det(w)
            lead = cp.leading
            detw = lead if cp.degree % 2 == 0 else -lead
            out.append(int(detw))
        return out

    def trivial_values(self) -> list[int]:
        return [1] * len(self.classes())

    def length_polynomial(self) -> QPolynomial:
        """Sum over w of q^length(w); requires length tracking."""
        if self.group.lengths is None:
            raise ValueError("group was built without length tracking")
        counts: dict[int, int] = {}
        for v in self.group.lengths.values():
            counts[v] = counts.get(v, 0) + 1
        return QPolynomial(counts.get(i, 0) for i in range(max(counts) + 1))


@functools.lru_cache(maxsize=None)
def build_group(spec: GroupSpec, bound: int = DEFAULT_BOUND) -> WeylGroupData:
    """Realize the Weyl group; raises GroupTooLargeError above the bound."""
    fam, n = spec.family, spec.rank
    if fam == "A":
        npts = n + 1
        gens = []
        for i in range(1, npts):
            e = list(range(1, npts + 1))
            e[i - 1], e[i] = e[i], e[i - 1]
            gens.append(tuple(e))
        grp = FiniteGroup.generate(gens, sp_mult, sp_inv, sp_identity(npts),
                                   bound=bound, track_lengths=True)
        return WeylGroupData(spec, grp, lambda w: char_poly_signed(w, "A"))
    if fam in ("B", "D"):
        gens = []
        for i in range(1, n):
            e = list(range(1, n + 1))
            e[i - 1], e[i] = e[i], e[i - 1]
            gens.append(tuple(e))
        if fam == "B":
            e = list(range(1, n + 1))
            e[n - 1] = -n
            gens.append(tuple(e))
        else:
            e = list(range(1, n + 1))
            e[n - 2], e[n - 1] = -n, -(n - 1)
            gens.append(tuple(e))
        grp = FiniteGroup.generate(gens, sp_mult, sp_inv, sp_identity(n),
                                   bound=bound, track_lengths=True)
        return WeylGroupData(spec, grp, lambda w: char_poly_signed(w, fam))
    # exceptional
    gens = [simple_reflection_matrix(fam, j) for j in range(spec.rank)]
    grp = FiniteGroup.generate(gens, mat_mult, mat_inverse,
                               mat_identity(spec.rank), bound=bound,
                               track_lengths=True)
    gram = GRAM[fam]
    for g in gens:
        if _transpose_b_m(g, gram) != gram:
            raise RuntimeError("generator does not preserve the invariant form")
    return WeylGroupData(spec, grp, char_poly_matrix)


def _transpose_b_m(m, b):
    n = len(m)
    mt = tuple(tuple(m[j][i] for j in range(n)) for i in range(n))
    return mat_mult(mt, mat_mult(b, m))


# ---------------------------------------------------------------------------
# fake degrees


def fake_degree_values(W: WeylGroupData, values: Sequence) -> QPolynomial:
    """f(q) = (1-q)^l P(q) (1/|W|) sum |C| chi(C) / det(1 - q C)."""
    pref = RationalFunction((RF_ONE - RF_Q).num ** W.rank * W.poincare)
    total = class_sum((v * c.size, c.char_poly) for c, v in zip(W.classes(), values))
    return (pref * total * Fraction(1, W.order)).as_polynomial()


def fake_degree(W: WeylGroupData, label: str) -> QPolynomial:
    return fake_degree_values(W, W.irrep_values(label))


# ---------------------------------------------------------------------------
# subgroups, induction, restriction


def parabolic_subgroup(W: WeylGroupData, gen_indices: Sequence[int]) -> FiniteGroup:
    gens = [W.group.generators[i] for i in gen_indices]
    if not gens:
        return FiniteGroup([W.group.identity], W.group.mult, W.group.inv,
                           W.group.identity, generators=[])
    return W.group.subgroup(gens)


def induce_class_function(W: WeylGroupData, H: FiniteGroup, h_values) -> list[Fraction]:
    """Induced class function; h_values maps each element of H to its value."""
    out = []
    for c in W.classes():
        total = Fraction(0)
        w = c.rep
        for g in W.group.elements:
            x = W.group.mult(W.group.mult(W.group.inv(g), w), g)
            if x in h_values:
                total += Fraction(h_values[x])
        out.append(total / H.order)
    return out


def h_class_function(H: FiniteGroup, values_per_class) -> dict:
    """Expand per-class values on a subgroup into an element -> value map."""
    out = {}
    for c, v in zip(H.conjugacy_classes(), values_per_class):
        for x in c.elements:
            out[x] = v
    return out


def restrict_class_function(W: WeylGroupData, values, H: FiniteGroup) -> list:
    """Restrict a class function on W (values per W-class) to H (per H-class)."""
    return [values[W.group.class_of(c.rep)] for c in H.conjugacy_classes()]


# ---------------------------------------------------------------------------
# products of Weyl groups (for parahoric subgroups W_J)


class ProductWeyl:
    """A product of realized Weyl groups, with tensor character table."""

    def __init__(self, specs: Sequence[GroupSpec]):
        self.specs = tuple(specs)
        self.factors = [build_group(s) for s in specs]
        self.rank = sum(f.rank for f in self.factors)
        self.exponents = tuple(sorted(m for f in self.factors for m in f.exponents))
        self.poincare = poincare_polynomial(self.exponents)
        self._classes = None

    @property
    def order(self) -> int:
        out = 1
        for f in self.factors:
            out *= f.order
        return out

    def classes(self):
        """Product classes: tuples of factor class indices."""
        if self._classes is not None:
            return self._classes
        index_lists = [range(len(f.classes())) for f in self.factors]
        out = []
        for combo in itertools.product(*index_lists):
            size = 1
            cp = QPolynomial.one()
            elliptic = True
            order = 1
            for f, i in zip(self.factors, combo):
                c = f.classes()[i]
                size *= c.size
                cp = cp * c.char_poly
                elliptic = elliptic and c.elliptic
                order = math.lcm(order, c.order)
            out.append(WeylClassInfo(rep=combo, size=size, order=order,
                                     char_poly=cp, elliptic=elliptic))
        self._classes = out
        return out

    def irrep_labels(self) -> list[str]:
        lists = [f.irrep_labels() for f in self.factors]
        return [" (x) ".join(combo) for combo in itertools.product(*lists)]

    def irrep_values(self, label_combo) -> list[int]:
        if isinstance(label_combo, str):
            label_combo = label_combo.split(" (x) ")
        rows = [f.irrep_values(lab) for f, lab in zip(self.factors, label_combo)]
        out = []
        for combo in itertools.product(*[range(len(f.classes())) for f in self.factors]):
            v = 1
            for row, i in zip(rows, combo):
                v *= row[i]
            out.append(v)
        return out

    def fake_degree(self, label_combo) -> QPolynomial:
        if isinstance(label_combo, str):
            label_combo = label_combo.split(" (x) ")
        p = QPolynomial.one()
        for f, lab in zip(self.factors, label_combo):
            p = p * fake_degree_values(f, f.irrep_values(lab))
        return p
