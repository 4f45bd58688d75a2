"""Concrete finite Weyl groups, each enumerated as a `groups.permutation_group`:
the classical types as signed permutations, that is permutations of the 2n
points +-e_i, and G2 and F4 as permutations of the roots of their Cartan
matrices (`rootsystem`, which also gives the dual root data of `unipotent`),
whose integer matrices on the root lattice are built only for det(1 - q w)
and for display.  Classes are ordered by bytes: `signed_key` on 2n points,
and on the roots `RootSystem.key`, which sorts as the repr of the matrix.

Provides conjugacy classes, each with det(1 - q w) on the reflection
representation kept as a sign and its Phi-exponents (closed form from the
signed cycle type for A, B and D; for G2 and F4, det(1 - q M) is the
Hessenberg charpoly of `groups` mod 2^127 - 1, lifted exactly, and factored
once), elliptic flags, labeled exact character tables, fake degrees, and
induction from subgroups.  Every class sum against 1/det(1 - q w) reads the
integer columns prod Phi_n^top_n / det(1 - q w) of `columns`, with no
polynomial division.  The classes and the labelled character tables of types
A, B and D come in closed form from their signed cycle types (the
hyperoctahedral Murnaghan-Nakayama rule of Geck-Pfeiffer 5.5, whose case
gamma = () gives type A, and the split restrictions to D_n of Geck-Pfeiffer
5.6), checked by the orthogonality relations; Dixon's algorithm on the
enumerated group serves G2 and F4 only.  The elements of A, B and D are
enumerated only when a class lookup or a subgroup needs them, and the
enumerated classes are then checked against the closed form.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .combinat import conjugacy_class_size_sn, mn_bipartition, mn_character, partitions_of
from .exactq import (CYCLOTOMIC_BOUND, RANK_PRIMES, QPolynomial, cyclotomic, cyclotomic_quotient,
                     exact_div, factor_cyclotomic, one_minus_qpow_exponents, phi_product)
from .groups import (DEFAULT_BOUND, CharacterTable, FiniteGroup, GroupTooLargeError,
                     _charpoly_mod, _verify_table, permutation_group, row_order, sort_classes)


class GroupSpec(NamedTuple("GroupSpec", [("family", str), ("rank", int)])):
    """family 'A', 'B', 'D', 'G2' or 'F4', and rank; checked when made."""

    def __new__(cls, family: str, rank: int):
        if family not in ("A", "B", "D", "G2", "F4"):
            raise ValueError(f"unknown family {family!r}")
        if family == "G2" and rank != 2:
            raise ValueError("G2 has rank 2")
        if family == "F4" and rank != 4:
            raise ValueError("F4 has rank 4")
        if family == "D" and rank < 2:
            raise ValueError("D requires rank >= 2")
        if rank < 1:
            raise ValueError("rank must be positive")
        return super().__new__(cls, family, rank)

    @staticmethod
    def parse(s: str) -> "GroupSpec":
        s = s.strip()
        u = s.upper()
        if u in ("G2", "F4"):
            return GroupSpec(u, int(u[1]))
        if u in ("E6", "E7", "E8"):
            raise ValueError(f"type {u} is supported by efd only")
        ranks = {"E": "takes rank 6, 7 or 8", "F": "has rank 4", "G": "has rank 2"}
        digits = s[1:].isascii() and s[1:].isdigit()
        if u[:1] in ranks and digits:
            raise ValueError(f"type {u} does not exist: {u[0]} {ranks[u[0]]}")
        if not digits:
            raise ValueError(f"group type {s!r} is not a family and a rank, e.g. B5")
        return GroupSpec(u[0], int(s[1:]))

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
    """EXPONENTS[name]; no module of ellq calls it, but the closed-forms
    workload of perfbench/workloads.py does, so it stays until that reads
    EXPONENTS."""
    return EXPONENTS[name]


def poincare_phi(exponents: Sequence[int]) -> dict[int, int]:
    """The Phi-exponents of P(q) = prod (1 - q^{m+1})/(1 - q): the Phi_d,
    1 < d | m+1."""
    ks = Counter(m + 1 for m in exponents)
    ks[1] -= len(exponents)
    return one_minus_qpow_exponents(ks)[0]


def poincare_polynomial(exponents: Sequence[int]) -> QPolynomial:
    """P(q) = prod (q^{m+1} - 1)/(q - 1)."""
    return cyclotomic_quotient(poincare_phi(exponents)).num


def group_order_from_exponents(exponents: Sequence[int]) -> int:
    return math.prod(m + 1 for m in exponents)


# ---------------------------------------------------------------------------
# signed permutations (types A, B, D) as permutations of 2n points: point i-1
# is e_i and point n+i-1 is -e_i.  The class representatives and the class
# order use `signed_key`; the cycle type and the display use the signed tuple
# w, whose w[i-1] is the signed image of i.


def signed_perm(w) -> bytes:
    """The group element (bytes on 2n points) of the signed tuple w."""
    n = len(w)
    pos = [x - 1 if x > 0 else n - x - 1 for x in w]
    return bytes(pos + [(k + n) % (2 * n) for k in pos])


def signed_tuple(b: bytes) -> tuple:
    """The signed tuple of the group element b."""
    n = len(b) // 2
    return tuple(k + 1 if k < n else n - k - 1 for k in b[:n])


def signed_key(b: bytes) -> bytes:
    """The images of the -e_i under the group element b: byte j - 1 for the
    entry -j and n + j - 1 for +j, so the keys sort as the signed tuples do
    entry by entry in the order -1 < -2 < ... < -n < 1 < ... < n."""
    return b[len(b) // 2:]


def signed_cycle_type(w) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(positive cycle lengths, negative cycle lengths), each sorted decreasing."""
    w = signed_tuple(w)
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


def signed_type_det(pos, neg, family: str) -> tuple[int, dict[int, int]]:
    """(sign, phi) with det(1 - q w) = sign prod Phi_n^phi[n] on the reflection
    representation, for w of signed cycle type (pos, neg): 1 - q^r for each
    positive cycle and (1 - q^{2r})/(1 - q^r) for each negative one, with type
    A's trivial summand 1 - q divided out."""
    ks = Counter(pos)
    ks.update(2 * r for r in neg)
    ks.subtract(neg)
    ks[1] -= family == "A"
    phi, _, sign = one_minus_qpow_exponents(ks)
    return sign, phi


def bipartition_value(lam, gamma, pos, neg) -> int:
    """Character of the W(B_n)-irreducible lam x gamma at signed cycle type,
    by the hyperoctahedral Murnaghan-Nakayama rule (Geck-Pfeiffer 5.5)."""
    return mn_bipartition(tuple(lam), tuple(gamma), signed_cycles(pos, neg))


def signed_cycles(pos, neg) -> tuple:
    """The signed cycles (r, 1) and (r, -1) of a signed cycle type, as mn_bipartition takes them."""
    return tuple((r, 1) for r in pos) + tuple((r, -1) for r in neg)


# ---------------------------------------------------------------------------
# root systems from their Cartan matrices.  W(G2) and W(F4) act on their roots
# (as in CHEVIE, Geck et al. 1996): w is stored as bytes, w[i] the index of
# w(root i), so a product is one bytes.translate and the matrix of w is read
# off its images of the simple roots.  The same roots are the dual root data
# of `unipotent`.

CARTAN_PAIRING = {
    # P[i][j] = <alpha_i, alpha_j^vee>; G2: alpha1 short, alpha2 long
    "G2": ((2, -1), (-3, 2)),
    # F4 (Bourbaki): alpha1, alpha2 long; alpha3, alpha4 short
    "F4": ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2)),
    # C2 = Sp(4): alpha1 = e1 - e2 short, alpha2 = 2 e2 long
    "C2": ((2, -1), (-2, 2)),
    "A1": ((2,),),
}


class _RootData(NamedTuple):
    rank: int
    roots: tuple[tuple[int, ...], ...]
    generators: tuple[tuple[int, ...], ...]
    highest: tuple[int, ...]
    center_order: int


class RootSystem(_RootData):
    """A root system built by `rootsystem`: the roots in simple-root
    coordinates with the simple roots first, the simple reflections as
    permutations of the roots (for `groups.permutation_group`), the highest
    root theta, whose coordinates are the marks m_j, and the order of the
    center, det P.  As a dual root datum a coweight v is written in
    fundamental-coweight coordinates v_j = <alpha_j, v>, so it pairs with a
    root by dot product."""

    @property
    def positive_count(self) -> int:
        return len(self.roots) // 2

    def pair(self, root, v) -> Fraction:
        return sum(Fraction(a) * Fraction(b) for a, b in zip(root, v))

    def matrix(self, w: bytes):
        """The matrix of w on root coordinates: column j is w(alpha_j)."""
        return tuple(zip(*(self.roots[k] for k in w[:self.rank])))

    @functools.cached_property
    def _key_tables(self) -> tuple[bytes, ...]:
        """Per coordinate i, the translate table from a root's index to the
        rank of its coordinate i as repr sorts it: -1 < -2 < ... < -9 < 0 < 1
        < ... < 9, an order that holds for single digits only."""
        if any(abs(x) > 9 for r in self.roots for x in r):
            raise RuntimeError("a root coordinate has more than one digit, "
                               "so the byte key would not sort as the matrix repr")
        pad = bytes(256 - len(self.roots))
        return tuple(bytes(9 + x if x >= 0 else -1 - x for x in coords) + pad
                     for coords in zip(*self.roots))

    def key(self, w: bytes) -> bytes:
        """Bytes that sort as repr(self.matrix(w)): row i of the matrix, the
        coordinates i of the w(alpha_j), one byte per entry."""
        head = w[:self.rank]
        return b"".join([head.translate(t) for t in self._key_tables])


def rootsystem(cartan, exponents) -> RootSystem:
    """The roots of the Cartan matrix P[i][j] = <alpha_i, alpha_j^vee>, closed
    under the simple reflections and checked against the exponents of the
    intended type, which a mistyped entry changes: |roots| = 2 sum m_i, and
    1 + the sum of the marks = max m_i + 1, the Coxeter number.  Raises
    RuntimeError when either fails."""
    n, count = len(cartan), 2 * sum(exponents)
    roots = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    index = {r: i for i, r in enumerate(roots)}
    for r in roots:  # the loop also visits the roots appended on the way
        for j in range(n):
            image = _reflect(cartan, j, r)
            if image not in index:
                if len(roots) == count:  # an infinite or a larger root system
                    raise RuntimeError(f"more than {count} roots, twice the sum of "
                                       f"the exponents {tuple(exponents)}")
                index[image] = len(roots)
                roots.append(image)
    if len(roots) != count:
        raise RuntimeError(f"{len(roots)} roots, not twice the sum of the "
                           f"exponents {tuple(exponents)}")
    highest = max(roots, key=sum)
    if 1 + sum(highest) != max(exponents) + 1:
        raise RuntimeError(f"highest root {highest} gives Coxeter number "
                           f"{1 + sum(highest)}, not {max(exponents) + 1}")
    return RootSystem(
        n, tuple(roots),
        tuple(tuple(index[_reflect(cartan, j, r)] for r in roots) for j in range(n)),
        highest, (-1) ** n * char_poly_matrix(cartan).coeff(n))


def _reflect(cartan, j, r):
    """s_j(r) = r - <r, alpha_j^vee> alpha_j in simple-root coordinates."""
    c = sum(x * row[j] for x, row in zip(r, cartan))
    return r[:j] + (r[j] - c,) + r[j + 1:]


def char_poly_matrix(m) -> QPolynomial:
    """det(1 - q M) of an integer matrix M: det(x - M) modulo p = 2^127 - 1
    (`groups._charpoly_mod`), reversed, each coefficient lifted centred.  The
    coefficient of q^k is a sum of k x k minors, so prod_i (1 + sum_j |m_ij|)
    bounds them all: ArithmeticError unless it is below p/2."""
    p = RANK_PRIMES[1]
    if 2 * math.prod(1 + sum(map(abs, row)) for row in m) >= p:
        raise ArithmeticError("det(1 - qM) is not bounded below p/2 for p = 2^127 - 1")
    return QPolynomial([x if 2 * x < p else x - p for x in reversed(_charpoly_mod(m, p))])


# ---------------------------------------------------------------------------


class WeylClassInfo:
    def __init__(self, rep, size: int, order: int, sign: int, phi: dict[int, int],
                 signed_type: Optional[tuple] = None, matrix: Optional[tuple] = None):
        self.rep = rep
        self.size = size
        self.order = order
        self.sign = sign  # det(1 - q w) = sign prod Phi_n^phi[n]
        self.phi = phi
        self.signed_type = signed_type  # (pos, neg) for B/D; cycle type for A
        self.matrix = matrix  # of rep on root coordinates, for G2 and F4

    @functools.cached_property
    def det1(self) -> int:  # det(1 - w), nonzero iff elliptic
        return self.sign * math.prod(sum(cyclotomic(n).coeffs) ** e for n, e in self.phi.items())

    @functools.cached_property
    def char_poly(self) -> QPolynomial:
        return QPolynomial(phi_product([self.sign], self.phi))

    @property
    def elliptic(self) -> bool:
        return self.det1 != 0

    def rep_str(self) -> str:
        return str(list(signed_tuple(self.rep)) if self.matrix is None
                   else [list(r) for r in self.matrix])


def matrix_class(c, m) -> WeylClassInfo:
    """The class c of the integer matrix m, with det(1 - q m) factored once into
    the Phi_n with n dividing the order of m; RuntimeError unless +-prod Phi_n."""
    f = factor_cyclotomic(char_poly_matrix(m), {n for n in range(1, CYCLOTOMIC_BOUND + 1)
                                                if c.order % n})
    if f.q_power or not f.remainder.is_one() or abs(f.scalar) != 1:
        raise RuntimeError(f"det(1 - qw) = {f} of {m}, not +-prod Phi_n, n | {c.order}")
    return WeylClassInfo(c.rep, c.size, c.order, int(f.scalar), f.factors, matrix=m)


def columns(classes: Sequence[WeylClassInfo], top: dict[int, int]) -> list[list[int]]:
    """Column C = sign_C prod Phi_n^(top_n - e_{C,n}), that is prod Phi_n^top_n
    / det(1 - q w_C), of each class C; ArithmeticError when one is no polynomial."""
    return [phi_product([c.sign], {n: top.get(n, 0) - c.phi.get(n, 0) for n in {*top, *c.phi}})
            for c in classes]


# ---------------------------------------------------------------------------
# closed-form classes of types A, B and D (Carter 1972; Geck-Pfeiffer 3.4)


def closed_form_classes(spec: GroupSpec) -> list[WeylClassInfo]:
    """The classes of W(A_{n-1}), W(B_n) or W(D_n) from their signed cycle
    types, in the order FiniteGroup.conjugacy_classes gives, with no group
    enumerated.  D's types with only even positive cycles split in two."""
    fam, n, k = spec.family, spec.rank, 2
    if fam == "A":
        n, k = n + 1, 1
        types = [(lam, ()) for lam in partitions_of(n)]
    else:
        types = [(pos, neg) for j in range(n + 1) for pos in partitions_of(n - j)
                 for neg in partitions_of(j) if fam == "B" or len(neg) % 2 == 0]
    out = []
    for pos, neg in types:
        size = conjugacy_class_size_sn(pos, neg, k=k)
        split = fam == "D" and not neg and all(r % 2 == 0 for r in pos)
        if split:
            size //= 2
        for half in ((0, 1) if split else (None,)):
            rep = signed_perm(_least_element(n, pos, neg, fam != "A", half))
            out.append(WeylClassInfo(rep, size, math.lcm(*pos, *(2 * r for r in neg)),
                                     *signed_type_det(pos, neg, fam), (pos, neg)))
    return sort_classes(out, signed_key)


def _least_element(n, pos, neg, signed, half):
    """The (signed) permutation of type (pos, neg), and of D-half `half` unless
    that is None, that is least entry by entry in the order
    -1 < -2 < ... < -n < 1 < ... < n, that of `signed_key`.

    Call a cycle of length r and sign s natural when s = (-1)^r; in type A
    every cycle is.  Natural cycles come first, shortest first, the others
    follow, longest first.  Each cycle takes the next points a, ..., a+r-1 as
    w(a+j-1) = -(a+j) for j < r and closes with w(a+r-1) = -a if natural, +a
    otherwise; type A has every entry positive.  Negating the last two
    entries moves a split D type to its other half."""
    cycles = [(r, 1) for r in pos] + [(r, -1) for r in neg]
    natural = sorted(r for r, s in cycles if not signed or s == (-1) ** r)
    other = sorted((r for r, s in cycles if signed and s != (-1) ** r), reverse=True)
    t = -1 if signed else 1
    w = []
    for r, close in [(r, t) for r in natural] + [(r, 1) for r in other]:
        a = len(w) + 1
        w += [t * (a + j) for j in range(1, r)] + [close * a]
    if half is not None and _half(w) != half:
        w[-2:] = [-w[-2], -w[-1]]
    return tuple(w)


def _half(w) -> int:
    """Which D_n-class of a split type holds w: the parity of the -1 entries of
    the diagonal d with d w d unsigned, walked from each cycle's least point."""
    seen, minus = set(), 0
    for start in range(1, len(w) + 1):
        d, i = 1, start
        while i not in seen:
            seen.add(i)
            minus += d < 0
            d, i = d * (1 if w[i - 1] > 0 else -1), abs(w[i - 1])
    return minus % 2


def _split_difference(lam, c: WeylClassInfo) -> int:
    """chi+ - chi- at the class c, for the halves of lam x lam restricted to
    W(D_n): (-1)^half 2^l(mu) chi^lam(mu) on a split class of type (2mu, ()),
    0 elsewhere (Geck-Pfeiffer 5.6)."""
    pos, neg = c.signed_type
    if neg or any(r % 2 for r in pos):
        return 0
    half = _half(signed_tuple(c.rep))
    return (-1) ** half * 2 ** len(pos) * mn_character(lam, tuple(r // 2 for r in pos))


class WeylGroupData:
    """A Weyl group with its reflection-representation data (`roots` for G2
    and F4); `group` enumerates."""

    def __init__(self, spec: GroupSpec, generate, roots: Optional[RootSystem]):
        self.spec = spec
        self.rank = spec.rank
        self._generate = generate
        self._group: Optional[FiniteGroup] = None
        self.roots = roots
        self._classes: Optional[list[WeylClassInfo]] = None
        self._table: Optional[CharacterTable] = None
        self._labels: Optional[list[str]] = None
        self._index: dict[str, int] = {}
        self.exponents = exponents_of(spec)
        self.order = group_order_from_exponents(self.exponents)

    @property
    def group(self) -> FiniteGroup:
        if self._group is None:
            grp = self._generate()
            if self.spec.family in ("A", "B", "D"):
                # enumeration is the independent second route to the classes
                key = [(c.rep, c.size, c.order) for c in grp.conjugacy_classes()]
                if key != [(c.rep, c.size, c.order) for c in self.classes()]:
                    raise RuntimeError(f"classes of {self.spec} disagree with the closed form")
            self._group = grp
        return self._group

    def classes(self) -> list[WeylClassInfo]:
        if self._classes is None:
            if self.spec.family in ("A", "B", "D"):
                self._classes = closed_form_classes(self.spec)
            else:
                self._classes = [matrix_class(c, self.roots.matrix(c.rep))
                                 for c in self.group.conjugacy_classes()]
        return self._classes

    def elliptic_classes(self) -> list[int]:
        return [i for i, c in enumerate(self.classes()) if c.elliptic]

    def check_length(self, values: Sequence, what: str = "a class function") -> Sequence:
        """values, checked to have one entry per class (so one per irreducible)."""
        n = len(self.classes())
        if len(values) != n:
            raise ValueError(f"{what} of {self.spec} has {n} values, not {len(values)}")
        return values

    @functools.cached_property
    def fake_columns(self) -> list[list[int]]:
        """|C| prod (1 - q^{d_i}) / det(1 - q w_C) for each class C, a polynomial
        (Springer 1974), built from the Phi-exponents by `columns`."""
        top, _, sign = one_minus_qpow_exponents(Counter(m + 1 for m in self.exponents))
        return [[sign * c.size * a for a in col]
                for c, col in zip(self.classes(), columns(self.classes(), top))]

    @functools.cached_property
    def elliptic_columns(self) -> tuple[list[int], dict[int, int], list[list[int]]]:
        """(the elliptic classes, D, their columns by `columns`): D_n is the
        largest exponent e_{C,n} of Phi_n in an elliptic det(1 - q w_C)."""
        ell = self.elliptic_classes()
        classes = [self.classes()[i] for i in ell]
        top = {n: max(c.phi.get(n, 0) for c in classes)
               for n in set().union(*(c.phi for c in classes))}
        return ell, top, columns(classes, top)

    def character_table(self) -> CharacterTable:
        if self._table is None:
            if self.spec.family in ("A", "B", "D"):
                rows = self._closed_form_rows()
                order = row_order([row for _, row in rows])
                self._table = CharacterTable(self.order, self.classes(),
                                             [rows[i][1] for i in order], conductor=1)
                _verify_table(self._table)
                labels = [rows[i][0] for i in order]
                # of the two halves of a split restriction, "+" sorts first
                self._set_labels([lab + ("+" if labels.index(lab) == k else "-")
                                  if labels.count(lab) == 2 else lab
                                  for k, lab in enumerate(labels)])
            else:
                self._table = self.group.character_table()
        return self._table

    def _closed_form_rows(self) -> list[tuple[str, list[int]]]:
        """(label, values) of the irreducibles of type A, B or D, unordered;
        the two halves of a split D-restriction share their label."""
        classes = self.classes()
        if self.spec.family == "A":
            return [(str(list(lam)), [mn_character(lam, c.signed_type[0]) for c in classes])
                    for lam in partitions_of(self.rank + 1)]
        n, rows = self.rank, []
        for lam, gam in ((lam, gam) for k in range(n + 1) for lam in partitions_of(k)
                         for gam in partitions_of(n - k)):
            if self.spec.family == "D" and (gam, lam) < (lam, gam):
                continue  # lam x gam and gam x lam restrict alike
            label, res = f"{list(lam)}x{list(gam)}", self.class_function_bipartition(lam, gam)
            if self.spec.family == "B" or lam != gam:
                rows.append((label, res))
                continue
            # the restriction splits as chi+ + chi-
            diff = [_split_difference(lam, c) for c in classes]
            rows += [(label, [(r + d) // 2 for r, d in zip(res, diff)]),
                     (label, [(r - d) // 2 for r, d in zip(res, diff)])]
        mn_bipartition.cache_clear()  # the memo serves one table at a time
        return rows

    # -- irreducible labels ---------------------------------------------------

    def irrep_labels(self) -> list[str]:
        if self._labels is None:
            table = self.character_table()  # which labels A, B and D itself
            if self._labels is None:
                self._set_labels(self._labels_g2(table) if self.spec.family == "G2"
                                 else self._labels_generic(table))
        return self._labels

    def _set_labels(self, labels: list[str]) -> None:
        self._labels = labels
        self._index = {lab: i for i, lab in enumerate(labels)}

    def irrep_index(self, label: str) -> int:
        self.irrep_labels()
        if label not in self._index:
            raise ValueError(f"{self.spec} has no irreducible labelled {label!r}")
        return self._index[label]

    def irrep_values(self, label: str) -> list[int]:
        return self.character_table().values[self.irrep_index(label)]

    def _labels_g2(self, table):
        # phi(d,b): dimension and b-invariant; the two linear b=3 characters are
        # separated by their value on the short-root reflection class (the class
        # of the first generator): phi(1,3)' is +1 there, phi(1,3)'' is -1.
        short_class = self.group.class_of(self.group.generators[0])
        labels = []
        for row in table.values:
            d = row[0]
            b = b_invariant(self, row)
            name = f"phi({d},{b})"
            if (d, b) == (1, 3):
                name += "'" if row[short_class] == 1 else "''"
            labels.append(name)
        return labels

    def _labels_generic(self, table):
        by_key: dict[tuple, list[int]] = {}
        for i, row in enumerate(table.values):
            b = b_invariant(self, row)
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

    # -- class functions -------------------------------------------------------

    @functools.cached_property
    def _signed_cycles(self) -> list[tuple]:
        return [signed_cycles(*c.signed_type) for c in self.classes()]

    def class_function_bipartition(self, lam, gam) -> list[int]:
        """Values of lam x gam (type B; restriction for type D) on the classes."""
        lam, gam = tuple(lam), tuple(gam)
        return [mn_bipartition(lam, gam, cycles) for cycles in self._signed_cycles]

    def sign_values(self) -> list[int]:
        """det_E(w) per class: the sign character.  det(1 - q w), of degree l,
        has leading coefficient (-1)^l det(w), and each Phi_n is monic."""
        return [(-1) ** self.rank * c.sign for c in self.classes()]

    def trivial_values(self) -> list[int]:
        return [1] * len(self.classes())

    def length_polynomial(self) -> QPolynomial:
        """Sum over w of q^length(w)."""
        counts: dict[int, int] = {}
        for v in self.group.lengths.values():
            counts[v] = counts.get(v, 0) + 1
        return QPolynomial(counts.get(i, 0) for i in range(max(counts) + 1))


@functools.lru_cache(maxsize=None)
def build_group(spec: GroupSpec) -> WeylGroupData:
    """The Weyl group, to be enumerated on demand; raises GroupTooLargeError
    when its order exceeds the enumeration bound."""
    if group_order_from_exponents(exponents_of(spec)) > DEFAULT_BOUND:
        raise GroupTooLargeError(f"group exceeds enumeration bound {DEFAULT_BOUND}")
    fam, n = spec.family, spec.rank
    if fam in ("G2", "F4"):
        phi = rootsystem(CARTAN_PAIRING[fam], EXPONENTS[fam])
        return WeylGroupData(spec, functools.partial(
            permutation_group, phi.generators, len(phi.roots), key=phi.key), phi)
    npts = n + 1 if fam == "A" else n
    gens = []
    for i in range(1, npts):
        e = list(range(1, npts + 1))
        e[i - 1], e[i] = e[i], e[i - 1]
        gens.append(e)
    if fam != "A":
        e = list(range(1, n + 1))
        if fam == "B":
            e[n - 1] = -n
        else:
            e[n - 2], e[n - 1] = -n, -(n - 1)
        gens.append(e)
    return WeylGroupData(spec, functools.partial(
        permutation_group, [signed_perm(g) for g in gens], 2 * npts, key=signed_key), None)


# ---------------------------------------------------------------------------
# fake degrees


def fake_degree_values(W: WeylGroupData, values: Sequence) -> QPolynomial:
    """f(q) = (1-q)^l P(q) (1/|W|) sum |C| chi(C) / det(1 - q C).

    (1-q)^l P(q) is prod (1 - q^{d_i}), so f is sum chi(C) W.fake_columns[C]
    / |W|: integer sums and one exact division per coefficient."""
    values = W.check_length(values)
    return QPolynomial(exact_div(sum(map(operator.mul, values, col)), W.order)
                       for col in zip(*W.fake_columns, strict=True))


def b_invariant(W: WeylGroupData, values: Sequence) -> int:
    """The lowest degree of fake_degree_values(W, values), -1 for zero: the
    first k with sum chi(C) W.fake_columns[C][k] nonzero, so no division."""
    values = W.check_length(values)
    return next((k for k, col in enumerate(zip(*W.fake_columns, strict=True))
                 if sum(map(operator.mul, values, col))), -1)


def fake_degree(W: WeylGroupData, label: str) -> QPolynomial:
    return fake_degree_values(W, W.irrep_values(label))


# ---------------------------------------------------------------------------
# subgroups, induction, restriction


def parabolic_subgroup(W: WeylGroupData, gen_indices: Sequence[int]) -> FiniteGroup:
    return W.group.subgroup([W.group.generators[i] for i in gen_indices])


def induce_class_function(W: WeylGroupData, H: FiniteGroup, h_values) -> list[Fraction]:
    """Induced class function; h_values maps each element of H to its value.
    By Frobenius, Ind f(C) = |W| / (|H| |C|) times the sum of f over the
    elements of H in C."""
    sums = [Fraction(0)] * len(W.classes())
    for x, v in h_values.items():
        sums[W.group.class_of(x)] += Fraction(v)
    return [total * W.order / (H.order * c.size) for total, c in zip(sums, W.classes())]


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
        self.factors = [build_group(s) for s in specs]
        self.rank = sum(f.rank for f in self.factors)
        self.exponents = tuple(sorted(m for f in self.factors for m in f.exponents))
        self._classes = None

    @property
    def order(self) -> int:
        return math.prod(f.order for f in self.factors)

    def classes(self):
        """Product classes: tuples of factor class indices."""
        if self._classes is not None:
            return self._classes
        index_lists = [range(len(f.classes())) for f in self.factors]
        out = []
        for combo in itertools.product(*index_lists):
            cs = [f.classes()[i] for f, i in zip(self.factors, combo)]
            out.append(WeylClassInfo(
                rep=combo, size=math.prod(c.size for c in cs),
                order=math.lcm(*(c.order for c in cs)), sign=math.prod(c.sign for c in cs),
                phi=sum((Counter(c.phi) for c in cs), Counter())))
        self._classes = out
        return out

    def irrep_labels(self) -> list[str]:
        lists = [f.irrep_labels() for f in self.factors]
        return [" (x) ".join(combo) for combo in itertools.product(*lists)]

    def irrep_values(self, label_combo) -> list[int]:
        if isinstance(label_combo, str):
            label_combo = label_combo.split(" (x) ")
        rows = [f.irrep_values(lab) for f, lab in zip(self.factors, label_combo)]
        return [math.prod(row[i] for row, i in zip(rows, combo))
                for combo in itertools.product(*[range(len(f.classes())) for f in self.factors])]
