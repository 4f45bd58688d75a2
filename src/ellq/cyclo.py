"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements are stored as sparse integer-exponent dictionaries over the group
ring Q[Z/m] and reduced modulo Phi_m on demand.  This keeps products of
character values (which are single roots of unity times rationals, most of
the time) cheap inside the long Fourier-transform sums.

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
def _zeta_power_basis(m: int, k: int) -> tuple[Fraction, ...]:
    """Coordinates of zeta_m^k in the power basis 1, zeta, ..., zeta^(phi(m)-1)."""
    phi = _phi_coeffs(m)
    d = len(phi) - 1
    k %= m
    if k < d:
        out = [Fraction(0)] * d
        out[k] = Fraction(1)
        return tuple(out)
    # zeta^d = -(phi_0 + phi_1 zeta + ... + phi_{d-1} zeta^{d-1}), then recurse
    prev = _zeta_power_basis(m, k - 1)
    shifted = [Fraction(0)] + list(prev[:-1])
    top = prev[-1]
    if top != 0:
        for i in range(d):
            shifted[i] -= top * phi[i]
    return tuple(shifted)


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
        d = len(_phi_coeffs(self.m)) - 1
        out = [Fraction(0)] * d
        for k, v in self.c.items():
            if v == 0:
                continue
            basis = _zeta_power_basis(self.m, k)
            for i in range(d):
                if basis[i]:
                    out[i] += v * basis[i]
        return tuple(out)

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
        return hash((self.m, self.reduced()))

    def __repr__(self):
        terms = [f"{v}*z{self.m}^{k}" for k, v in sorted(self.c.items())]
        return "CycNum(" + (" + ".join(terms) if terms else "0") + ")"
