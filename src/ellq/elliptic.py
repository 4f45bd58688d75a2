"""The elliptic pairing on virtual characters, elliptic fake degrees
(definitional and closed-form), elliptic bases for types B/D, linear
independence of the functions 1/det(1-qw) over elliptic classes, and the
cyclotomic denominators of the sign character's fake degree.

The closed forms (hook-content in types B/D, the sign character of G2-E8)
are products of factors 1 - q^k = -prod_{d|k} Phi_d (k > 0), q^k prod_{d|-k}
Phi_d (k < 0): they are built from their Phi-exponents
(`exactq.one_minus_qpow_exponents`), with no gcd.
"""
from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence

from .combinat import contents, hook_lengths, n_invariant, transpose
from .exactq import (CYCLOTOMIC_BOUND, QPolynomial, RationalFunction, cyclotomic_quotient,
                     integer_rank, one_minus_qpow_exponents, phi_sum)
from .weylgrp import (GroupSpec, WeylGroupData, build_group,
                      h_class_function, induce_class_function,
                      parabolic_subgroup)


class VirtualCharacter:
    """A virtual character, as exact values on the conjugacy classes.

    Coordinates over the irreducibles are accepted too and converted through
    the character table.
    """

    def __init__(self, group: WeylGroupData, values: list):
        self.group = group
        self.values = group.check_length(values)

    @staticmethod
    def from_coords(W: WeylGroupData, coords: Sequence) -> "VirtualCharacter":
        table = W.character_table()
        W.check_length(coords, "coordinates on the irreducibles")
        vals = [sum(c * table.values[i][j] for i, c in enumerate(coords))
                for j in range(len(coords))]
        return VirtualCharacter(W, vals)

    def __add__(self, other):
        _same_group(self, other, "a sum")
        return VirtualCharacter(self.group, [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other):
        _same_group(self, other, "a difference")
        return VirtualCharacter(self.group, [a - b for a, b in zip(self.values, other.values)])


def elliptic_pairing(W: WeylGroupData, f: Sequence, g: Sequence) -> Fraction:
    """<f, g>^el = (1/|W|) sum_w f(w) g(w) det(1 - w)."""
    total = sum(c.size * a * b * c.det1
                for c, a, b in zip(W.classes(), W.check_length(f), W.check_length(g))
                if c.elliptic)
    return Fraction(total, W.order)


def _same_group(x: VirtualCharacter, y: VirtualCharacter, what: str) -> None:
    if x.group.spec != y.group.spec:
        raise ValueError(f"{what} requires characters of the same group, "
                         f"not {x.group.spec} and {y.group.spec}")


def elliptic_pairing_chars(x: VirtualCharacter, y: VirtualCharacter) -> Fraction:
    _same_group(x, y, "elliptic pairing")
    return elliptic_pairing(x.group, x.values, y.values)


def sq_pairing(W: WeylGroupData, values: Sequence) -> RationalFunction:
    """<chi, 1/det(1 - q .)>^el = (1/|W|) sum_w chi(w) det(1 - w)/det(1 - q w),
    summed over the elliptic classes by _elliptic_sum (det(1 - w) is 0 off
    them) from the columns of W.elliptic_columns."""
    return _elliptic_sum(W, values, -W.rank)


def elliptic_fake_degree(W: WeylGroupData, values: Sequence) -> RationalFunction:
    """F = ((q-1)^l / |W|) sum_w chi(w) det(1 - w)/det(1 - q w), summed over
    the elliptic classes by _elliptic_sum."""
    return _elliptic_sum(W, values, 0)


def _elliptic_sum(W: WeylGroupData, values: Sequence, phi1: int) -> RationalFunction:
    """Phi_1^(l + phi1) / |W| times the sum over the elliptic classes C of
    chi(C) |C| det(1 - w_C) / det(1 - q w_C), that is sum chi(C) |C| det(1 - w_C)
    column C over prod Phi_n^D_n (W.elliptic_columns), reduced by one
    cyclotomic_quotient."""
    ell, top, cols = W.elliptic_columns
    values = W.check_length(values)
    chi = [values[i] * W.classes()[i].size * W.classes()[i].det1 for i in ell]
    num = QPolynomial(sum(map(mul, chi, col)) for col in zip(*cols, strict=True))
    phi = {1: W.rank + phi1, **{n: -d for n, d in top.items()}}
    return cyclotomic_quotient(phi, scalar=Fraction(1, W.order), num=num)


def sgn_fake_degree(exponents: Sequence[int]) -> RationalFunction:
    """Closed form (1-q)^l prod (1 - q^m)/(1 - q^{m+1})."""
    ks = Counter(exponents)
    ks[1] += len(exponents)
    ks.subtract(m + 1 for m in exponents)
    return cyclotomic_quotient(*one_minus_qpow_exponents(ks))


def cyc_denominator(exponents: Sequence[int]) -> dict[int, int]:
    """Cyclotomic factorisation {n: mult} of the reduced denominator of the
    sign character's elliptic fake degree, read from its Phi-exponents."""
    fac = sgn_fake_degree(exponents).cyclotomic_factors()[1]
    if not fac.remainder.is_one() or fac.q_power:
        raise ValueError(f"denominator {fac} is not a product of Phi_n, "
                         f"n <= {CYCLOTOMIC_BOUND}")
    return fac.factors


def _bn_exponents(lam) -> tuple[dict[int, int], int, int]:
    """(q-1)^n q^{2n(lam)} prod (1 - q^{2c+1}) / (1 - q^{2h}) over the cells,
    as the arguments of cyclotomic_quotient."""
    n = sum(lam)
    ks = Counter({1: n})
    ks.update(2 * c + 1 for _, c in contents(lam))
    ks.subtract(2 * h for _, h in hook_lengths(lam))
    return one_minus_qpow_exponents(ks, 2 * n_invariant(lam), (-1) ** n)


def bn_fake_closed(lam) -> RationalFunction:
    """(q-1)^n q^{2n(lam)} prod (1 - q^{2c+1}) / (1 - q^{2h}) over the cells."""
    return cyclotomic_quotient(*_bn_exponents(tuple(lam)))


def dn_fake_closed(lam) -> RationalFunction:
    """Type D closed form via the two type-B values, F_lam + (-1)^n F_lam^t,
    summed from their Phi-exponents by phi_sum."""
    lam = tuple(lam)
    n = sum(lam)
    if n < 2:
        raise ValueError("type D needs n >= 2")
    (phi1, k1, s1), (phi2, k2, s2) = _bn_exponents(lam), _bn_exponents(transpose(lam))
    one = QPolynomial.one()
    return phi_sum((one, k1, s1, phi1), (one, k2, s2 * (-1) ** n, phi2))


def hook_content_pairing(W: WeylGroupData, lam) -> RationalFunction:
    """<lam x empty, S_q E>^el over W(B_n): the fake degree without (q-1)^n."""
    return sq_pairing(W, W.class_function_bipartition(tuple(lam), ()))


# ---------------------------------------------------------------------------
# linear independence of 1/det(1 - q w) over elliptic classes


class IndependenceReport(NamedTuple):
    spec: GroupSpec
    n_elliptic: int
    rank: int
    independent: bool
    coincident_pairs: list[tuple[int, int, str]]  # class indices + shared char poly
    # integer dependencies sum_i c_i / charpoly_i = 0, as (coefficients, types)
    dependencies: list[tuple[tuple, tuple]]

    def dependency_strings(self) -> list[str]:
        """Each dependency written "c/det(1-q w_t) + ...", zero terms left out."""
        return [" + ".join(f"{c}/det(1-q w_{t})" for c, t in zip(combo, types) if c)
                for combo, types in self.dependencies]


def independence_check(spec: GroupSpec) -> IndependenceReport:
    """Exact rank of {1/det(1-qw)} over elliptic classes.  Each function is
    put over the common prod Phi_n^D_n of W.elliptic_columns and its
    numerator's coefficients ranked by integer_rank, which certifies the rank
    and gives, when the functions are dependent, explicit integer kernel
    vectors.  Also reports coincident characteristic polynomials."""
    W = build_group(spec)
    ell, _, cols = W.elliptic_columns
    classes = [W.classes()[i] for i in ell]
    n = len(classes)
    rank, kernel = integer_rank(cols)
    types = tuple(str(c.signed_type or c.char_poly) for c in classes)
    pairs = []
    for a in range(n):
        for b in range(a + 1, n):
            # an elliptic det(1 - qw) has sign 1, as Phi_n(0) = 1 for n >= 2
            if classes[a].phi == classes[b].phi:
                pairs.append((ell[a], ell[b], str(classes[a].char_poly)))
    return IndependenceReport(spec, n, rank, rank == n, pairs, [(vec, types) for vec in kernel])


# ---------------------------------------------------------------------------
# radical of the elliptic pairing


class RadicalReport(NamedTuple):
    spec: GroupSpec
    gram_rank: int
    n_elliptic: int
    induced_in_radical: bool


def radical_check(W: WeylGroupData) -> RadicalReport:
    """(a) characters induced from proper parabolic subgroups pair to zero with
    everything; (b) the elliptic Gram on the irreducibles, scaled by |W| to
    integers, has rank equal to the number of elliptic classes."""
    table = W.character_table()
    rank = integer_rank([[int(W.order * elliptic_pairing(W, a, b)) for b in table.values]
                         for a in table.values])[0]
    ok = True
    n_gens = len(W.group.generators)
    for size in range(n_gens):
        for subset in itertools.combinations(range(n_gens), size):
            H = parabolic_subgroup(W, subset)
            h_table = H.character_table()
            for row in h_table.values:
                hv = h_class_function(H, row)
                ind = induce_class_function(W, H, hv)
                for irr in table.values:
                    if elliptic_pairing(W, ind, irr) != 0:
                        ok = False
    return RadicalReport(W.spec, rank, len(W.elliptic_classes()), ok)
