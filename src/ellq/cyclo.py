"""Exact arithmetic in cyclotomic fields Q(zeta_m).

The hot paths (the orthogonality check of a character table, the Fourier
blocks and their check) work in the integer group ring Z[Z/m]: an element
is a sparse sequence of pairs (k, c), meaning sum c zeta_m^k with int c.
`ring_reduce` takes one to its coordinates in the power basis of
Q(zeta_m), ints again since Phi_m is monic; it is the only reduction
modulo Phi_m.  `CycNum` keeps such an element, with rational
coefficients, for values that stay irrational.

Only the ring operations are provided: character values and Fourier
entries never divide.  Formal degrees need no polynomials over Q(zeta_m)
either; `unipotent.m_x` works with the roots of its factors.
"""
from __future__ import annotations

import functools
from fractions import Fraction

from .exactq import cyclotomic


@functools.lru_cache(maxsize=None)
def _phi_coeffs(m: int) -> tuple[int, ...]:
    return cyclotomic(m).coeffs


@functools.lru_cache(maxsize=None)
def _zeta_power_basis(m: int, k: int) -> tuple[int, ...]:
    """Coordinates of zeta_m^k in the power basis 1, zeta, ..., zeta^(phi(m)-1):
    ints, as Phi_m is monic."""
    phi = _phi_coeffs(m)
    d = len(phi) - 1
    k %= m
    if k < d:
        return tuple(int(i == k) for i in range(d))
    # zeta^d = -(phi_0 + phi_1 zeta + ... + phi_{d-1} zeta^{d-1}), then recurse
    prev = _zeta_power_basis(m, k - 1)
    return tuple(a - prev[-1] * b for a, b in zip((0, *prev[:-1]), phi))


@functools.lru_cache(maxsize=None)
def _sparse_power_basis(m: int) -> list[list[tuple[int, int]]]:
    """For each k < m, the nonzero coordinates (i, b) of zeta_m^k."""
    return [[(i, b) for i, b in enumerate(_zeta_power_basis(m, k)) if b] for k in range(m)]


def ring_reduce(terms, m: int) -> list:
    """Power-basis coordinates of the element sum c zeta_m^k of Z[Z/m] (or
    Q[Z/m]) given by the pairs (k, c) in `terms`."""
    basis = _sparse_power_basis(m)
    out = [0] * (len(_phi_coeffs(m)) - 1)
    for k, c in terms:
        if c:
            for i, b in basis[k % m]:
                out[i] += c * b
    return out


def ring_sum(products, m: int) -> dict[int, int]:
    """sum c a conj(b) over the triples (c, a, b) of an int and two elements
    of Z[Z/m], unreduced as {k: coefficient}: each Fourier entry, and each
    pair of rows of a Gram check (`groups.gram_mismatch`) that is not all int."""
    total: dict[int, int] = {}
    for c, a, b in products:
        for ka, ca in a:
            for kb, cb in b:
                k = (ka - kb) % m
                total[k] = total.get(k, 0) + c * ca * cb
    return total


def ring_terms(v, m: int) -> tuple:
    """An int or a CycNum of conductor dividing m as pairs (k, c) of Z[Z/m];
    pairs already are such an element and come back as they are."""
    if type(v) is tuple:
        return v
    if type(v) is int:
        return ((0, v),) if v else ()
    return tuple((k * (m // v.m) % m, c) for k, c in v.c.items() if c)


class CycNum:
    """An element of Q(zeta_m), held unreduced as sum of c_k * zeta_m^k."""

    __slots__ = ("m", "c")

    def __init__(self, m: int, c: dict[int, Fraction] | None = None):
        self.m = m
        self.c = c or {}

    @staticmethod
    def zero(m: int) -> "CycNum":
        return CycNum(m)

    @staticmethod
    def rational(m: int, x) -> "CycNum":
        x = Fraction(x)
        return CycNum(m, {0: x} if x else {})

    @staticmethod
    def zeta_pow(m: int, k: int, coeff=1) -> "CycNum":
        coeff = Fraction(coeff)
        return CycNum(m, {k % m: coeff} if coeff else {})

    def _check_conductor(self, other: "CycNum") -> None:
        if self.m != other.m:
            raise ValueError(f"CycNum conductors differ: {self.m} and {other.m}")

    def __add__(self, other: "CycNum") -> "CycNum":
        self._check_conductor(other)
        out = dict(self.c)
        for k, v in other.c.items():
            nv = out.get(k, Fraction(0)) + v
            if nv:
                out[k] = nv
            elif k in out:
                del out[k]
        return CycNum(self.m, out)

    def __neg__(self) -> "CycNum":
        return CycNum(self.m, {k: -v for k, v in self.c.items()})

    def __sub__(self, other: "CycNum") -> "CycNum":
        return self + (-other)

    def __mul__(self, other) -> "CycNum":
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            if f == 0:
                return CycNum(self.m)
            return CycNum(self.m, {k: v * f for k, v in self.c.items()})
        self._check_conductor(other)
        out: dict[int, Fraction] = {}
        m = self.m
        for k1, v1 in self.c.items():
            for k2, v2 in other.c.items():
                k = (k1 + k2) % m
                nv = out.get(k, Fraction(0)) + v1 * v2
                if nv:
                    out[k] = nv
                elif k in out:
                    del out[k]
        return CycNum(m, out)

    __rmul__ = __mul__

    def conj(self) -> "CycNum":
        """Complex conjugation zeta -> zeta^(-1)."""
        return CycNum(self.m, {(-k) % self.m: v for k, v in self.c.items()})

    def reduced(self) -> tuple[Fraction, ...]:
        """Coordinates in the power basis of Q(zeta_m)."""
        return tuple(map(Fraction, ring_reduce(self.c.items(), self.m)))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.reduced())

    def as_rational(self) -> Fraction:
        red = self.reduced()
        if any(v != 0 for v in red[1:]):
            raise ValueError(f"not rational: {self}")
        return red[0] if red else Fraction(0)

    def is_rational(self) -> bool:
        red = self.reduced()
        return all(v == 0 for v in red[1:])

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CycNum.rational(self.m, other)
        if not isinstance(other, CycNum):
            return NotImplemented
        return self.m == other.m and self.reduced() == other.reduced()

    def __hash__(self):
        red = self.reduced()
        if any(red[1:]):
            return hash((self.m, red))
        return hash(red[0] if red else 0)  # a rational hashes as the value it equals

    def __repr__(self):
        terms = [f"{v}*z{self.m}^{k}" for k, v in sorted(self.c.items())]
        return "CycNum(" + (" + ".join(terms) if terms else "0") + ")"
