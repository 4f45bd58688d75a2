"""Affine Weyl group elliptic theory.

Every elliptic conjugacy class of the affine Weyl group meets exactly one
maximal proper parahoric subgroup W_J (one per deleted node of the affine
diagram), in a single elliptic W_J-class; the elliptic measure of that class
is |C_J|/|W_J|.  The parahoric types are closed forms: every one is A_n for
affine A_n, deleting node j of affine C_n leaves B_j x B_{n-j} (B1 = A1, rank
0 dropped), and affine G2 gives G2, A1 x A1 and A2.  On top of this: the
class function nu built from generic degrees, formal degrees as elliptic
integrals, elliptic fake degrees of fixture modules, and the restriction of
the family transform to elliptic-class delta functions.
"""
from __future__ import annotations

import functools
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Optional, Sequence, Union

from .exactq import QPolynomial, RF_ZERO, RationalFunction, cyclotomic_quotient, rref
from .elliptic import VirtualCharacter, elliptic_fake_degree
from .fourier import block_diagonal, ef_map, fourier_matrix, generic_degree
from .weylgrp import (GroupSpec, ProductWeyl, WeylGroupData, build_group, poincare_phi)


def parahoric_types(base: str) -> tuple[str, list[tuple[GroupSpec, ...]]]:
    """The name of affine `base` and, for each node j = 0..n of its diagram
    (node 0 the affine one), the factors of the parahoric that deleting j
    leaves.  Affine C_n is 0 => 1 - ... - (n-1) <= n and affine G2 the chain
    0 - 1 - 2 with bond orders 3 and 6.  B1 = C1 = A1 and B2 = C2; B_n for
    n >= 3 has a diagram of its own, which is not realised."""
    base = base.strip().upper()
    if base == "G2":
        return "G2", [(GroupSpec("G2", 2),), (GroupSpec("A", 1),) * 2, (GroupSpec("A", 2),)]
    family, rank = base[:1], base[1:]
    if family not in ("A", "B", "C"):
        raise NotImplementedError(f"no affine diagram for {base!r}")
    if not (rank.isascii() and rank.isdigit()) or int(rank) < 1:
        raise ValueError(f"affine {base}: the rank must be a positive integer")
    n = int(rank)
    if family == "A" or n == 1:
        return f"A{n}", [(GroupSpec("A", n),)] * (n + 1)
    if family == "B" and n >= 3:
        raise NotImplementedError(f"affine {base} differs from affine C{n} "
                                  "and is not realised")
    # node j leaves B_j x B_{n-j}, with B1 = A1 and a factor of rank 0 dropped
    return f"C{n}", [tuple(sorted((GroupSpec("B" if k > 1 else "A", k) for k in (j, n - j) if k),
                                  key=str)) for j in range(n + 1)]


class MaximalParahoric(NamedTuple):
    deleted_node: int
    specs: tuple[GroupSpec, ...]
    weyl: Union[WeylGroupData, ProductWeyl]

    def type_str(self) -> str:
        return " x ".join(str(s) for s in self.specs)


class AffineDatum:
    """Affine Weyl group data for a simply-connected base (trivial Omega)."""

    def __init__(self, base: str):
        self.base = base
        self.name, self._types = parahoric_types(base)
        self.rank = len(self._types) - 1
        self._parahorics = None
        self._classes = None
        self._nu = None

    def maximal_parahorics(self) -> list[MaximalParahoric]:
        if self._parahorics is None:
            self._parahorics = [MaximalParahoric(j, specs, _parahoric_weyl(specs))
                                for j, specs in enumerate(self._types)]
        return self._parahorics

    def elliptic_classes(self) -> list["AffineEllipticClass"]:
        """Disjoint union over maximal parahorics of their elliptic classes."""
        if self._classes is not None:
            return self._classes
        out = []
        for pi, p in enumerate(self.maximal_parahorics()):
            for ci, c in enumerate(p.weyl.classes()):
                if not c.elliptic:
                    continue
                out.append(AffineEllipticClass(
                    parahoric_index=pi, class_index=ci, char_poly=c.char_poly,
                    size=c.size, mu=Fraction(c.size, p.weyl.order)))
        self._classes = out
        return out

    def nu_values(self) -> list[RationalFunction]:
        """nu(C_J) = (-1)^l sum_delta delta(C_J) d_delta(q) / P_J(q) on the
        elliptic classes."""
        if self._nu is not None:
            return self._nu
        sign = (-1) ** self.rank
        on_parahoric = [_nu_on_parahoric(p.weyl) for p in self.maximal_parahorics()]
        self._nu = [on_parahoric[cls.parahoric_index][cls.class_index] * sign
                    for cls in self.elliptic_classes()]
        return self._nu

    def formal_degree(self, v_values: Sequence[RationalFunction]) -> RationalFunction:
        """<v, nu>^el over the affine group: sum v(C) nu(C) mu_el(C)."""
        nus = self.nu_values()
        return sum((nu * v * cls.mu for cls, v, nu in zip(self._checked(v_values), v_values, nus)),
                   RF_ZERO)

    def elliptic_inner(self, u_values, v_values) -> Fraction:
        """Integral of u*v against the elliptic measure."""
        total = Fraction(0)
        for cls, a, b in zip(self._checked(u_values, v_values), u_values, v_values):
            total += Fraction(a) * Fraction(b) * cls.mu
        return total

    def _checked(self, *functions) -> list["AffineEllipticClass"]:
        """The elliptic classes, once each function has one value per class."""
        classes = self.elliptic_classes()
        for values in functions:
            if len(values) != len(classes):
                raise ValueError(f"an elliptic class function of affine "
                                 f"{self.name} has {len(classes)} values, "
                                 f"not {len(values)}")
        return classes


class AffineEllipticClass(NamedTuple):
    parahoric_index: int
    class_index: int
    char_poly: QPolynomial
    size: int
    mu: Fraction


@functools.lru_cache(maxsize=None)
def _parahoric_weyl(specs: tuple[GroupSpec, ...]) -> Union[WeylGroupData, ProductWeyl]:
    """One group object per parahoric type, so that per-group caches
    (`fourier.ef_matrix`) serve every affine datum."""
    return build_group(specs[0]) if len(specs) == 1 else ProductWeyl(specs)


def _nu_on_parahoric(weyl) -> list[RationalFunction]:
    """sum_delta delta(C) d_delta(q)/P(q) for every class C of W_J.  The
    generic degrees are polynomials (as_polynomial raises otherwise), so
    each class sums one polynomial and divides it by P(q) once."""
    degrees = [(generic_degree(weyl, lab).as_polynomial(), weyl.irrep_values(lab))
               for lab in weyl.irrep_labels()]
    inverse_p = {n: -e for n, e in poincare_phi(weyl.exponents).items()}
    return [cyclotomic_quotient(inverse_p, num=sum(
        (d * row[i] for d, row in degrees if row[i]), QPolynomial.zero()))
        for i in range(len(weyl.classes()))]


# ---------------------------------------------------------------------------
# the elliptic restriction of the family transform


def ef_elliptic_on_parahoric(weyl) -> list[list[Fraction]]:
    """Matrix of (project to elliptic support) o EF on the delta functions of
    the elliptic classes of W_J: column C is the transform (`ef_map`) of the
    delta function of C, written over Irr, read on the elliptic classes."""
    classes = weyl.classes()
    ell = [i for i, c in enumerate(classes) if c.elliptic]
    rows = [weyl.irrep_values(lab) for lab in weyl.irrep_labels()]
    columns = []
    for c in ell:
        image = ef_map(weyl, [Fraction(classes[c].size * row[c], weyl.order) for row in rows])
        columns.append([sum(x * row[c2] for x, row in zip(image, rows)) for c2 in ell])
    return [list(r) for r in zip(*columns)]


def ef_affine_elliptic_in_basis(datum: AffineDatum,
                                basis_values: list[list]) -> list[list[Fraction]]:
    """Matrix V^-1 D V of the affine elliptic transform in a given basis of
    class functions (rows of basis_values = values on the elliptic classes,
    columns of V): D is the block-diagonal transform on all affine elliptic
    delta functions, and one elimination of the rows [V | D V] gives V^-1 D V."""
    blocks = [ef_elliptic_on_parahoric(p.weyl) for p in datum.maximal_parahorics()]
    n, covered = len(datum.elliptic_classes()), sum(map(len, blocks))
    if covered != n:
        raise RuntimeError(f"the parahoric blocks cover {covered} elliptic classes, not {n}")
    if len(basis_values) != n:
        raise ValueError("basis has the wrong size")
    cols = [[Fraction(x) for x in b] for b in basis_values]
    reduced = rref([[col[k] for col in cols] + [sum(map(mul, row, col)) for col in cols]
                    for k, row in enumerate(block_diagonal(blocks))])[0]
    # V is invertible exactly when its n columns all hold pivots
    if any(row[k] != 1 for k, row in enumerate(reduced)):
        raise ValueError("degenerate basis")
    return [row[n:] for row in reduced]


# ---------------------------------------------------------------------------
# the G2 fixture: discrete-series basis of the affine elliptic space


class AffineModuleFixture(NamedTuple):
    """A basis vector of the affine elliptic space: values on the elliptic
    classes (in published order), plus its isolated-point decomposition."""
    name: str
    values: tuple[int, ...]           # on classes in published order
    springer: Optional[tuple[str, str]]  # (orbit, phi) of its appendix row when s=1
    restriction: dict[str, int]       # W-irreducible coordinates of the s=1 part


# published order: the three elliptic classes of the finite group (by
# descending element order: Coxeter, its square, the longest element), then
# the A1xA1 vertex class, then the A2 vertex class
G2_CLASS_SIGNATURE = [
    (0, "q^2 - q + 1"),
    (0, "q^2 + q + 1"),
    (0, "q^2 + 2q + 1"),
    (1, "q^2 + 2q + 1"),
    (2, "q^2 + q + 1"),
]

G2_MU_EL = [Fraction(1, 6), Fraction(1, 6), Fraction(1, 12), Fraction(1, 4), Fraction(1, 3)]

G2_BASIS = [
    AffineModuleFixture("v1", (1, 1, 1, 1, 1), ("G2", "1"), {"phi(1,6)": 1}),
    AffineModuleFixture("v2", (2, 0, -1, -1, 0), ("G2(a1)", "(3)"),
                        {"phi(1,6)": 1, "phi(2,1)": 1}),
    AffineModuleFixture("v3", (-1, 1, -1, -1, 1), ("G2(a1)", "(21)"), {"phi(1,3)''": 1}),
    AffineModuleFixture("v4", (0, 2, 0, 0, -1), None, {}),
    AffineModuleFixture("v5", (0, 0, 3, -1, 0), None, {}),
]

# printed matrices (published order); the affine 5x5 entry at (v3, v4) is
# printed as +1/3 but conjugating the printed 3x3 by the printed character
# table forces the symmetric value -1/3; see the verification report
G2_EF_J0_PRINTED = [
    [Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)],
    [Fraction(1, 2), Fraction(1, 2), Fraction(0)],
    [Fraction(2, 3), Fraction(0), Fraction(1, 3)],
]

G2_EF_AFFINE_PRINTED = [
    [Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0)],
    [Fraction(0), Fraction(1, 6), Fraction(1, 3), Fraction(1, 3), Fraction(1, 2)],
    [Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1, 3), Fraction(0)],
    [Fraction(0), Fraction(1, 3), Fraction(-1, 3), Fraction(2, 3), Fraction(0)],
    [Fraction(0), Fraction(1, 2), Fraction(0), Fraction(0), Fraction(1, 2)],
]

# correspondence of the basis with the parameter set (identity block for the
# Steinberg family, then pairs in M(S3)); fixes the expected transform matrix
G2_BASIS_PAIRS = [None, ("1", "1"), ("1", "r"), ("g3", "1"), ("g2", "1")]


def g2_class_alignment(datum: AffineDatum) -> list[int]:
    """Index into datum.elliptic_classes() for each published-order class."""
    classes = datum.elliptic_classes()
    out = []
    for pj, cp in G2_CLASS_SIGNATURE:
        matches = [i for i, c in enumerate(classes)
                   if c.parahoric_index == pj and str(c.char_poly) == cp]
        if len(matches) != 1:
            raise RuntimeError(f"ambiguous class signature {(pj, cp)}")
        out.append(matches[0])
    return out


def _computed_order(datum: AffineDatum, rows: Sequence[Sequence]) -> list[list]:
    """Rows of values on the classes in published order, each moved to the
    computed order."""
    align = g2_class_alignment(datum)
    out = [[0] * len(datum.elliptic_classes()) for _ in rows]
    for row, values in zip(out, rows):
        for value, cls_idx in zip(values, align):
            row[cls_idx] = value
    return out


def g2_basis_values_canonical(datum: AffineDatum) -> list[list[int]]:
    """Values of v1..v5 on the computed class order."""
    return _computed_order(datum, [v.values for v in G2_BASIS])


def g2_mu_canonical(datum: AffineDatum) -> list[Fraction]:
    return _computed_order(datum, [G2_MU_EL])[0]


def affine_elliptic_fake(fix: AffineModuleFixture, base: GroupSpec) -> RationalFunction:
    """Elliptic fake degree of the module: zero unless the isolated point is
    the identity, and then the finite elliptic fake degree of the restriction."""
    if fix.springer is None:
        return RF_ZERO
    W = build_group(base)
    coords = [0] * len(W.classes())
    for lab, c in fix.restriction.items():
        coords[W.irrep_index(lab)] = c
    return elliptic_fake_degree(W, VirtualCharacter.from_coords(W, coords).values)


def g2_ef_affine_published_order() -> list[list[Fraction]]:
    """The affine elliptic transform of G2 in the basis v1..v5."""
    datum = AffineDatum("G2")
    basis = g2_basis_values_canonical(datum)
    return ef_affine_elliptic_in_basis(datum, basis)


def g2_ef_j0_published_order() -> list[list[Fraction]]:
    """The finite-parahoric block in the published class order."""
    datum = AffineDatum("G2")
    block = ef_elliptic_on_parahoric(datum.maximal_parahorics()[0].weyl)
    # the classes of J0 lead the affine list, so their indices index its block
    pub = g2_class_alignment(datum)[:3]
    return [[block[i][j] for j in pub] for i in pub]


def g2_conjectured_transform() -> list[list[Fraction]]:
    """The submatrix of the parameter-set transform predicted to equal the
    affine elliptic transform in the basis v1..v5."""
    block, pairs = fourier_matrix("S3"), G2_BASIS_PAIRS[1:]
    return block_diagonal([[[Fraction(1)]], [[block.entry(a, b) for b in pairs] for a in pairs]])
