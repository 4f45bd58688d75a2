"""Dual-group elliptic parameters and formal degrees.

The q-part of a formal degree is the product over all roots
q^nu * prod'(e_a(s') - 1) / prod'(q e_a(s') - 1), with s' twisting the
semisimple part by the sl2 cocharacter of the unipotent part; zero factors
are dropped.  With q = u^2 every factor is a scalar in Q(zeta_m), a power of
u and a product of u - rho over roots of unity rho; the roots are counted
with sign, so cancellation is exact, and the result is checked to lie in
Q(q): the surviving roots must form whole Galois orbits, the scalars must
be rational and no odd power of u may remain.

The conjecture engine evaluates the transform-side prediction: a Fourier
block against the vector of elliptic fake degrees supported on the
identity-component entries.
"""
from __future__ import annotations

import functools
import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .cyclo import CycNum
from .elliptic import sgn_fake_degree
from .exactq import RF_ZERO, RationalFunction, cyclotomic_quotient, rref
from .fourier import _char_labels, _x_labels, fourier_matrix, small_group
from .weylgrp import CARTAN_PAIRING, EXPONENTS, GroupSpec, RootSystem, exponents_of, rootsystem


# the dual root data, in simple-root coordinates; s and h are coweights in
# fundamental-coweight coordinates (`weylgrp.RootSystem`)
G2_DATUM = rootsystem(CARTAN_PAIRING["G2"], EXPONENTS["G2"])
SP4_DATUM = rootsystem(CARTAN_PAIRING["C2"], exponents_of(GroupSpec("B", 2)))
SL2_DATUM = rootsystem(CARTAN_PAIRING["A1"], exponents_of(GroupSpec("A", 1)))


def solve_marks(datum: RootSystem, subsystem: Sequence[tuple[int, ...]]) -> tuple[Fraction, ...]:
    """The cocharacter h of the principal sl2 of a full-rank subsystem, in
    fundamental-coweight coordinates: gamma(h) = 2 on the given simple roots
    of the subsystem."""
    _, rank, inverse = rref(subsystem)
    if len(subsystem) != datum.rank or rank != datum.rank:
        raise ValueError("subsystem must have full rank")
    return tuple(2 * sum(row) for row in inverse)


class EllipticParameter(NamedTuple):
    """One elliptic pair (s, u): the semisimple part as a rational functional
    (root-of-unity exponents), the unipotent part through its sl2 weights."""
    datum: RootSystem
    s: tuple[Fraction, ...]
    h: tuple[Fraction, ...]
    name: str = ""

    def root_data(self):
        """Per root: (exponent of e_alpha(s) as Fraction mod 1, weight alpha(h))."""
        out = []
        for r in self.datum.roots:
            k = self.datum.pair(r, self.s) % 1
            w = self.datum.pair(r, self.h)
            if w.denominator != 1:
                raise ValueError(f"non-integral sl2 weight {w} on root {r}")
            out.append((k, int(w)))
        return out

    def centralizer_roots(self):
        return [r for r in self.datum.roots if self.datum.pair(r, self.s) % 1 == 0]

    def is_elliptic(self) -> bool:
        """u distinguished in Z(s): the 0- and 2-eigenspaces of ad(h) on
        Lie Z(s) have equal dimension."""
        roots = self.centralizer_roots()
        g0 = sum(1 for r in roots if self.datum.pair(r, self.h) == 0) + self.datum.rank
        g2 = sum(1 for r in roots if self.datum.pair(r, self.h) == 2)
        return g0 == g2


class MxResult(NamedTuple):
    value: RationalFunction          # |m_x|, normalized positive at q -> infinity
    raw_sign: int                    # sign before normalization
    dropped_num: int
    dropped_den: int
    elliptic: bool


def _factor_roots(k: Fraction, w: int, m: int):
    """zeta^k u^w - 1 as (scalar in Q(zeta_m), power of u, roots): the roots
    are the exponents rho in Q/Z of the |w| solutions of u^|w| = zeta^(-+k),
    and the factor is scalar * u^power * prod (u - e(rho))."""
    zk = CycNum.zeta_pow(m, int(k * m))
    n = abs(w)
    if w > 0:
        return zk, 0, [(j - k) / n % 1 for j in range(n)]
    if w < 0:
        return CycNum.rational(m, -1), w, [(j + k) / n % 1 for j in range(n)]
    return zk - CycNum.rational(m, 1), 0, []


def _poly_in_q(scalar: CycNum, power: int, phi: dict[int, int]) -> tuple[Fraction, int, dict]:
    """scalar * u^power * prod Phi_N(u)^e as (scalar, q-power, Phi-exponents) in
    q = u^2, by Phi_N(u) Phi_2N(u) = Phi_N(q) for odd N, Phi_N(u) = Phi_{N/2}(q)
    for 4 | N; it lies in Q(q) exactly when power is even and e_N = e_2N, N odd."""
    c = scalar.as_rational()
    if power % 2 or any(e != phi.get(n * 2 if n % 2 else n // 2, 0)
                        for n, e in phi.items() if n % 4):
        raise ValueError("odd power of u survives; value is not in Q(q)")
    return c, power // 2, {n if n % 2 else n // 2: e for n, e in phi.items() if n % 4 != 2}


def m_x(param: EllipticParameter) -> MxResult:
    """Theorem-side product formula for the q-part of the formal degree.

    Each factor splits by `_factor_roots`.  Its roots are counted +1 in the
    numerator and -1 in the denominator, so common roots cancel; what is left
    must be whole Galois orbits, each primitive N-th orbit a power of Phi_N."""
    data = param.root_data()
    m = math.lcm(*(k.denominator for k, _ in data))
    scalar = {1: CycNum.rational(m, 1), -1: CycNum.rational(m, 1)}
    power = 2 * param.datum.positive_count
    roots: Counter = Counter()
    dropped_num = dropped_den = 0
    for k, w in data:
        factors = []
        if k == 0 and w == 0:
            dropped_num += 1
        else:
            factors.append((w, 1))
        if k == 0 and w == -2:
            dropped_den += 1
        else:
            factors.append((w + 2, -1))
        for wt, side in factors:
            c, sh, rhos = _factor_roots(k, wt, m)
            scalar[side] = scalar[side] * c
            power += side * sh
            for rho in rhos:
                roots[rho] += side
    phi = {}
    for n in {rho.denominator for rho, e in roots.items() if e}:
        orbit = {roots[Fraction(j, n)] for j in range(n) if math.gcd(j, n) == 1}
        if len(orbit) != 1:
            raise ValueError(f"roots of unity of order {n} are not whole Galois orbits")
        phi[n] = orbit.pop()
    c1, k1, num = _poly_in_q(scalar[1], max(power, 0), {n: e for n, e in phi.items() if e > 0})
    c2, k2, den = _poly_in_q(scalar[-1], max(-power, 0), {n: -e for n, e in phi.items() if e < 0})
    rf = cyclotomic_quotient({**num, **{n: -e for n, e in den.items()}}, k1 - k2, c1 / c2)
    sign = rf.sign_at_infinity()
    return MxResult(abs(rf), sign, dropped_num, dropped_den, param.is_elliptic())


# ---------------------------------------------------------------------------
# conjecture engine


class UnipotentFixture(NamedTuple):
    """A distinguished (or quasi-distinguished) unipotent orbit with its
    component group, parameter packets, and fake-degree data."""
    name: str
    datum: RootSystem
    gamma: str                            # component group of u
    fake_values: dict[tuple[str, str], RationalFunction]  # Springer-type entries (1, phi)
    s_nodes: dict[str, Optional[int]]     # gamma-class label -> node j of s (None: s = 1)
    diagram: Optional[tuple[int, ...]] = None  # weighted Dynkin diagram of a non-regular u

    def parameter(self, s_label: str) -> EllipticParameter:
        """s = e_j/m_j at node j of the extended Dynkin diagram, with u
        principal in the pseudo-Levi Z(s), whose simple roots are the simple
        roots but alpha_j, and -theta; at s = 1, u is regular or has the
        weighted Dynkin diagram `diagram` as h."""
        datum, j, name = self.datum, self.s_nodes[s_label], f"{self.name}:{s_label}"
        n = datum.rank
        simple = datum.roots[:n]
        if j is None:
            return EllipticParameter(datum, (Fraction(0),) * n,
                                     self.diagram or solve_marks(datum, simple), name)
        s = tuple(Fraction(int(i == j), datum.highest[j]) for i in range(n))
        levi = simple[:j] + simple[j + 1:] + (tuple(-x for x in datum.highest),)
        return EllipticParameter(datum, s, solve_marks(datum, levi), name)


def conjecture_rhs(fix: UnipotentFixture, entry: tuple[str, str]) -> RationalFunction:
    """(1/|Z|) sum over (y',rho') of {(y,rho),(y',rho')} F(y',rho'), with F
    supported on the Springer-type entries of `fake_values`."""
    block = fourier_matrix(fix.gamma)
    terms = [(f, block.entry(tuple(entry), other)) for other, f in fix.fake_values.items()]
    if not all(isinstance(c, Fraction) for _, c in terms):
        raise RuntimeError("irrational transform entry in a fixture block")
    return sum((f * c for f, c in terms if c), RF_ZERO) * Fraction(1, fix.datum.center_order)


def _phi_values_at(fix: UnipotentFixture, s_label: str) -> dict[str, Fraction]:
    """phi(s) for the Springer-type entries (1, phi) of the fixture."""
    gamma = small_group(fix.gamma)
    table = gamma.character_table()
    j = _x_labels(gamma).index(s_label)
    labels = _char_labels(table)
    return {phi: Fraction(table.values[labels.index(phi)][j])
            for x, phi in fix.fake_values if x == "1"}


def centralizer_order_in_gamma(fix: UnipotentFixture, s_label: str) -> int:
    """|Z_Gamma(s)| = |Gamma| / |class of s|, by orbit-stabilizer."""
    gamma = small_group(fix.gamma)
    return gamma.order // gamma.conjugacy_classes()[_x_labels(gamma).index(s_label)].size


def conj_equiv(fix: UnipotentFixture, s_label: str, phi_dim: int) -> RationalFunction:
    """(1-q)^l phi(1) / (|A(su)| |Z|) < H(B_u)^s, 1/det(1-q .) >^el."""
    a_su = centralizer_order_in_gamma(fix, s_label)
    return q_part_prediction(fix, s_label) * Fraction(phi_dim, a_su * fix.datum.center_order)


def q_part_prediction(fix: UnipotentFixture, s_label: str) -> RationalFunction:
    """(1-q)^l < H(B_u)^s, 1/det(1-q .) >^el, the predicted q-part.  With
    H(B_u)^s = sum_phi phi(s) H(B_u)^phi and F(1, phi) the elliptic fake
    degree of H(B_u)^phi, this is (-1)^l sum_phi phi(s) F(1, phi)."""
    phis = _phi_values_at(fix, s_label)
    if not phis:
        raise ValueError(f"fixture {fix.name} has no Springer-type entry (1, phi)")
    total = sum(fix.fake_values[("1", phi)] * v for phi, v in phis.items())
    return total * (-1) ** fix.datum.rank


# ---------------------------------------------------------------------------
# fixtures


@functools.lru_cache(maxsize=None)
def g2_a1_fixture() -> UnipotentFixture:
    """The subregular orbit of G2: component group S3, three packets."""
    f_triv = cyclotomic_quotient({1: 2, 2: -2, 6: -1}, 1)               # Springer-type (3)
    f_refl = cyclotomic_quotient({1: 2, 2: -2, 3: -1, 6: -1}, 2, -1)    # Springer-type (21)
    return UnipotentFixture(
        name="g2-a1",
        datum=G2_DATUM,
        gamma="S3",
        fake_values={("1", "1"): f_triv, ("1", "r"): f_refl},
        # s of order 2 at the long node (A1 x A1~), of order 3 at the short (A2)
        s_nodes={"1": None, "g2": 1, "g3": 0},
        diagram=(0, 2),
    )


@functools.lru_cache(maxsize=None)
def g2_regular_fixture() -> UnipotentFixture:
    f_sgn = sgn_fake_degree(exponents_of(GroupSpec("G2", 2)))
    return UnipotentFixture(
        name="g2-reg",
        datum=G2_DATUM,
        gamma="trivial",
        fake_values={("1", "1"): f_sgn},
        s_nodes={"1": None},
    )


@functools.lru_cache(maxsize=None)
def sp4_22_fixture() -> UnipotentFixture:
    """u = (2,2) in Sp(4): quasi-distinguished, component group Z/2."""
    x = cyclotomic_quotient({1: 2, 2: -2, 4: -1}, 1)
    return UnipotentFixture(
        name="sp4-22",
        datum=SP4_DATUM,
        gamma="Z2",
        fake_values={("1", "1"): x, ("1", "eps"): -x},
        s_nodes={"1": None, "tau": 0},  # tau: Z(s) = Sp(2) x Sp(2)
        diagram=(0, 2),
    )


@functools.lru_cache(maxsize=None)
def sp4_regular_fixture() -> UnipotentFixture:
    f_sgn = sgn_fake_degree(exponents_of(GroupSpec("B", 2)))
    return UnipotentFixture(
        name="sp4-4",
        datum=SP4_DATUM,
        gamma="Z2",
        fake_values={("1", "1"): f_sgn},
        s_nodes={"1": None},
    )


@functools.lru_cache(maxsize=None)
def sl2_regular_fixture() -> UnipotentFixture:
    return UnipotentFixture(
        name="a1-reg",
        datum=SL2_DATUM,
        gamma="trivial",
        fake_values={},
        s_nodes={"1": None},
    )


FIXTURES = {
    "g2-a1": g2_a1_fixture,
    "g2-reg": g2_regular_fixture,
    "sp4-22": sp4_22_fixture,
    "sp4-4": sp4_regular_fixture,
    "a1-reg": sl2_regular_fixture,
}


def mx_for(fixture_name: str, s_label: str = "1") -> MxResult:
    fix = FIXTURES[fixture_name]()
    return m_x(fix.parameter(s_label))
