"""Exact arithmetic in the indeterminate q, and the exact linear algebra
built on it.

Polynomials are dense tuples of coefficients, constant term first.  A
coefficient is a Python ``int`` whenever it is integral and a
``fractions.Fraction`` only when its denominator exceeds 1; every scalar
division goes through ``exact_div``, so no coefficient is ever a float.
A rational function has one form, its Phi-form: a residual numerator,
prime to q and to the denominator, times scalar * q^k * prod Phi_n^e_n
(exponents of either sign).  No other denominator arises: closed forms are
collected as exponent maps, and every class sum over a Weyl group is an
integer numerator over a known product of Phi_n (det(1 - qw) divides
prod (1 - q^{d_i}); Springer 1974, Invent. Math. 25).  So a denominator
that is not q^k prod Phi_n is refused, n of any size (B_16 has Phi_32).
``cyclotomic_quotient`` builds every value: it strips the Phi_n of the
denominator from the numerator, so the two come out coprime with no gcd.
``one_minus_qpow_exponents`` turns products of factors 1 - q^k into
exponent maps.  A product adds the maps, a power scales them, an inverse
negates them, and ``phi_sum`` factors out what its terms share (per Phi_n
the least exponent, and the least q-power) and expands only the rest.
``poly_gcd`` serves none of this; it stays as the reference that the tests
reduce against, and perfbench imports it.  Cyclotomic factorisation, for
display, is read from the map and strips Phi_1, ..., Phi_30 (as far as the
E8 tables go) from the residual only.  Every Phi_n is stripped by
``strip_phi``, on coefficient lists: an integer screen at q = 2, then an
exact test mod q^n - 1, and only then a division.  The screen reads deg
Phi_n and Phi_n(2) from q^n - 1 = prod Phi_d over d | n, so Phi_n is
expanded only once a screen passes.  ``phi_product`` multiplies every
product of Phi_n into a coefficient list from its sparse steps q^d - 1.

``rref`` is the one Gauss-Jordan elimination over Q, for inverses and
linear solves.  Ranks come from ``integer_rank``: the rank modulo a prime,
met by integer kernel vectors checked over Z.
"""
from __future__ import annotations

import functools
from collections import Counter
from fractions import Fraction
from itertools import accumulate, zip_longest
from math import gcd, isqrt, lcm
from operator import mul, sub
from typing import AbstractSet, Iterable, Mapping, NamedTuple, Sequence, Union

Scalar = Union[int, Fraction]

CYCLOTOMIC_BOUND = 30


def _frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _norm(c) -> Scalar:
    """c as an int when integral, else as a Fraction."""
    if type(c) is not int:
        c = c if type(c) is Fraction else Fraction(c)
        if c.denominator == 1:
            return c.numerator
    return c


def exact_div(a: Scalar, b: Scalar) -> Scalar:
    """a / b exactly: an int when the quotient is integral, else a Fraction."""
    if type(a) is int and type(b) is int:
        quo, rem = divmod(a, b)
        return Fraction(a, b) if rem else quo
    return _norm(_frac(a) / b)


class QPolynomial:
    """A polynomial in q over the rationals.

    >>> QPolynomial.of(1, -2, 1)
    QPolynomial('q^2 - 2q + 1')
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar]):
        cs = [c if type(c) is int else _norm(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Scalar, ...] = tuple(cs)

    @staticmethod
    def of(*coeffs: Scalar) -> "QPolynomial":
        return QPolynomial(coeffs)

    @staticmethod
    def zero() -> "QPolynomial":
        return QPolynomial(())

    @staticmethod
    def one() -> "QPolynomial":
        return QPolynomial((1,))

    @staticmethod
    def q() -> "QPolynomial":
        return QPolynomial((0, 1))

    @staticmethod
    def monomial(n: int, c: Scalar = 1) -> "QPolynomial":
        return QPolynomial((0,) * n + (c,))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    @property
    def leading(self) -> Scalar:
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    def coeff(self, n: int) -> Scalar:
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        return 0

    def low_degree(self) -> int:
        """Smallest degree with nonzero coefficient; -1 for zero."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return -1

    def monic(self) -> "QPolynomial":
        if self.is_zero() or self.leading == 1:
            return self
        lc = self.leading
        return QPolynomial(exact_div(c, lc) for c in self.coeffs)

    def shift(self, n: int) -> "QPolynomial":
        """Multiply by q^n (n >= 0)."""
        if self.is_zero():
            return self
        return QPolynomial((0,) * n + self.coeffs)

    def __add__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPolynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "QPolynomial":
        return QPolynomial(-c for c in self.coeffs)

    def __sub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce_poly(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return QPolynomial.zero()
            return QPolynomial(c * other for c in self.coeffs)
        if not isinstance(other, QPolynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return QPolynomial.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            for j, d in enumerate(other.coeffs):
                if d != 0:
                    out[i + j] += c * d
        return QPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QPolynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = QPolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "QPolynomial"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dv = other.coeffs
        dlead = dv[-1]
        dq = len(dv) - 1
        quot = [0] * max(len(rem) - dq, 0)
        for i in range(len(rem) - 1, dq - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            f = c if dlead == 1 else exact_div(c, dlead)
            quot[i - dq] = f
            for j, d in enumerate(dv):
                rem[i - dq + j] -= f * d
        return QPolynomial(quot), QPolynomial(rem)

    def __floordiv__(self, other: "QPolynomial") -> "QPolynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "QPolynomial") -> "QPolynomial":
        return divmod(self, other)[1]

    def divides(self, other: "QPolynomial") -> bool:
        return divmod(other, self)[1].is_zero()

    def evaluate(self, x):
        """Evaluate at x; x may be a Fraction, int, or RationalFunction."""
        result = 0
        for c in reversed(self.coeffs):
            result = result * x + c
        if isinstance(result, int):
            return Fraction(result)
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QPolynomial((other,))
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        if len(self.coeffs) > 1:
            return hash(self.coeffs)
        return hash(self.coeff(0))  # a constant hashes as the scalar it equals

    def __repr__(self):
        return f"QPolynomial('{self}')"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = " + " if (c > 0 and parts) else (" - " if parts else ("-" if c < 0 else ""))
            a = abs(c)
            if i == 0:
                term = str(a)
            else:
                var = "q" if i == 1 else f"q^{i}"
                term = var if a == 1 else f"{a}{var}"
            parts.append(sign + term)
        return "".join(parts)

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    @staticmethod
    def from_json(data: list[str]) -> "QPolynomial":
        return QPolynomial(Fraction(s) for s in data)


def _coerce_poly(x) -> QPolynomial:
    if isinstance(x, QPolynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return QPolynomial((x,))
    return NotImplemented


def poly_gcd(a: QPolynomial, b: QPolynomial) -> QPolynomial:
    """Monic gcd over the rationals: Euclid's algorithm on the pseudo-
    remainders lc(b)^(deg a - deg b + 1) a mod b, each scaled to a primitive
    integer polynomial, so that the division steps stay in the integers."""
    while not b.is_zero():
        r = (a * b.leading ** max(a.degree - b.degree + 1, 0) % b).coeffs
        den = lcm(*(c.denominator for c in r))
        r = [int(c * den) for c in r]
        g = gcd(*r)
        a, b = b, QPolynomial(c // g for c in r)
    return a.monic()


def phi_product(a: Sequence, phi: Mapping[int, int]) -> list:
    """Coefficients of the polynomial with coefficients a times prod
    Phi_n^phi[n], n >= 1, exponents of either sign; ArithmeticError when the
    product is no polynomial.  It is taken over its steps q^d - 1
    (`_qpow_steps`): every step of positive exponent is multiplied in first,
    as a shift and a subtraction; the rest are then divided out exactly,
    from the top."""
    a, steps = list(a), _qpow_steps(phi)
    for d, e in enumerate(steps):
        for _ in range(e):
            a = list(map(sub, [0] * d + a, a + [0] * d))
    for d, e in enumerate(steps):
        for _ in range(-e):
            for c in range(d):
                a[c::d] = reversed(list(accumulate(reversed(a[c::d]))))
            if any(a[:d]):
                raise ArithmeticError(f"q^{d} - 1 does not divide the product")
            a = a[d:]
    return a


def _qpow_steps(phi: Mapping[int, int]) -> list[int]:
    """The exponents e with prod Phi_n^phi[n] = prod (q^d - 1)^e[d]: each
    Phi_n, largest n first, becomes (q^n - 1) / prod Phi_d over d | n, d < n."""
    steps = [phi.get(n, 0) for n in range(max(phi, default=0) + 1)]
    for d in range(len(steps) // 2, 0, -1):
        steps[d] -= sum(steps[2 * d::d])
    return steps


def one_minus_qpow_exponents(ks: Mapping[int, int], qpow: int = 0,
                             scalar: int = 1) -> tuple[dict[int, int], int, int]:
    """scalar q^qpow prod (1 - q^k)^ks[k] over nonzero k, as its nonzero
    Phi-exponents, q-power and sign (the arguments of cyclotomic_quotient)."""
    phi: dict[int, int] = {}
    for k, e in ks.items():
        if k > 0 and e % 2:
            scalar = -scalar
        qpow += min(k, 0) * e
        phi.update({d: phi.get(d, 0) + e for d in range(1, abs(k) + 1) if k % d == 0})
    return {d: e for d, e in phi.items() if e}, qpow, scalar


@functools.lru_cache(maxsize=None)
def cyclotomic(n: int) -> QPolynomial:
    """The n-th cyclotomic polynomial Phi_n, monic of degree phi(n).

    >>> str(cyclotomic(6))
    'q^2 - q + 1'
    """
    if n < 1:
        raise ValueError("cyclotomic index must be >= 1")
    return QPolynomial(phi_product([1], {n: 1}))


class CyclotomicFactorization(NamedTuple):
    """scalar * q^q_power * prod Phi_n^mult * remainder, reconstructing the input."""

    scalar: Fraction
    q_power: int
    factors: dict[int, int]
    remainder: QPolynomial

    def __str__(self):
        return _render_cyclotomic(self.scalar, self, "(q+1)", " * ")


def _render_cyclotomic(scalar: Scalar, f: CyclotomicFactorization,
                       phi2: str, sep: str) -> str:
    """scalar, q^k, Phi_n^m and [remainder], joined by sep; the scalar is
    left out when it is 1 and something else is printed.  phi2 spells Phi_2."""
    parts = []
    if f.q_power == 1:
        parts.append("q")
    elif f.q_power > 1:
        parts.append(f"q^{f.q_power}")
    for n in sorted(f.factors):
        m = f.factors[n]
        base = "(q-1)" if n == 1 else (phi2 if n == 2 else f"Phi{n}")
        parts.append(base if m == 1 else f"{base}^{m}")
    if not f.remainder.is_one():
        parts.append(f"[{f.remainder}]")
    if scalar != 1 or not parts:
        parts.insert(0, str(scalar))
    return sep.join(parts)


def factor_cyclotomic(p: QPolynomial, skip: AbstractSet[int] = frozenset(),
                      indices: Iterable[int] = range(1, CYCLOTOMIC_BOUND + 1)
                      ) -> CyclotomicFactorization:
    """Exact factorisation by stripping Phi_n, n in indices (`strip_phi`);
    the Phi_n with n in skip are known not to divide p and are not tried."""
    if p.is_zero():
        raise ValueError("zero input")
    v = p.low_degree()
    cs, factors = list(p.coeffs[v:]), {}
    for n in indices:
        if n not in skip and _phi_screen(n)[0] < len(cs):
            cs, k = strip_phi(cs, n)
            if k:
                factors[n] = k
    p = QPolynomial(cs)
    return CyclotomicFactorization(Fraction(p.leading), v, factors, p.monic())


@functools.lru_cache(maxsize=None)
def _phi_indices(d: int) -> tuple[int, ...]:
    """Every n with deg Phi_n = phi(n) <= d, ascending, built prime by prime:
    phi(p^a) = p^(a-1) (p - 1), so only primes p <= d + 1 divide such n."""
    found = [(1, 1)]
    for p in range(2, d + 2):
        if all(p % r for r in range(2, isqrt(p) + 1)):
            for n, t in list(found):
                n, t = n * p, t * (p - 1)
                while t <= d:
                    found.append((n, t))
                    n, t = n * p, t * p
    return tuple(sorted(n for n, t in found if t <= d))


@functools.lru_cache(maxsize=None)
def _phi_screen(n: int) -> tuple[int, int]:
    """deg Phi_n and Phi_n(2), with no expansion: q^n - 1 is the product of
    the Phi_d over d | n, so both come from the proper divisors' values."""
    deg, at2 = n, (1 << n) - 1
    for d in range(1, n // 2 + 1):
        if n % d == 0:
            e, v = _phi_screen(d)
            deg, at2 = deg - e, at2 // v
    return deg, at2


@functools.lru_cache(maxsize=None)
def _phi_low(n: int) -> list:
    """The nonzero (j, c) of Phi_n below its top."""
    return [(j, c) for j, c in enumerate(cyclotomic(n).coeffs[:-1]) if c]


def strip_phi(p: list, n: int, limit: int = -1) -> tuple[list, int]:
    """(p / Phi_n^k, k) for the largest k (at most limit, if limit >= 0) with
    Phi_n^k dividing the nonzero coefficient list p, ints or Fractions.  Each
    try screens in integers: Phi_n is monic, so it divides p only if Phi_n(2)
    divides d p(2), d clearing p's denominators (Gauss's lemma; 0 passes).
    The exact test follows: p folded mod q^n - 1 into n sums is 0 mod Phi_n.
    Only then is p divided by Phi_n, and the remainder checked.  The screen
    needs only deg Phi_n and Phi_n(2) (`_phi_screen`); Phi_n is expanded
    (`_phi_low`) only once a screen passes."""
    deg, at2 = _phi_screen(n)
    k = 0
    while k != limit and len(p) > deg:
        val = functools.reduce(lambda v, c: v + v + c, reversed(p), 0)
        if type(val) is not int:
            val *= lcm(*(c.denominator for c in p))
        if val % at2:
            break
        low = _phi_low(n)
        if any(_divide_phi([sum(p[j::n]) for j in range(n)], deg, low)[:deg]):
            break
        p = _divide_phi(list(p), deg, low)
        if any(p[:deg]):
            raise ArithmeticError(f"Phi_{n} passed the fold test but leaves a remainder")
        p, k = p[deg:], k + 1
    return p, k


def _divide_phi(a: list, deg: int, low) -> list:
    """a divided in place by the monic Phi_n of degree deg whose terms below
    the top are low (`_phi_low`): a[deg:] becomes the quotient and a[:deg]
    the remainder."""
    for i in range(len(a) - 1, deg - 1, -1):
        for j, c in low:
            a[i - deg + j] -= a[i] * c
    return a


class RationalFunction:
    """Element of Q(q) whose denominator is q^k prod Phi_n^e_n: num and den
    coprime, den monic, and ``phi_form`` = (residual, qpow, scalar, phi) the
    same value as residual * scalar * q^qpow * prod Phi_n^phi[n].  A
    polynomial num has the form (num / q^v, v, 1, {}).  The constructor
    refuses a den that is not q^k prod Phi_n (see `inverse`)."""

    __slots__ = ("num", "den", "phi_form")

    def __init__(self, num: QPolynomial, den: QPolynomial = QPolynomial.one()):
        if den.is_one():
            v = max(num.low_degree(), 0)
            self.num, self.den, self.phi_form = num, den, (QPolynomial(num.coeffs[v:]), v, 1, {})
            return
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        value = RationalFunction(num) * RationalFunction(den).inverse()
        self.num, self.den, self.phi_form = value.num, value.den, value.phi_form

    @staticmethod
    def of(num, den=1) -> "RationalFunction":
        return RationalFunction(_coerce_poly(num), _coerce_poly(den))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def as_polynomial(self) -> QPolynomial:
        if not self.den.is_one():
            raise ValueError(f"not a polynomial: {self}")
        return self.num

    def __add__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return other if self.is_zero() else self
        return phi_sum(self.phi_form, other.phi_form)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce_rf(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)) and other:
            residual, qpow, scalar, phi = self.phi_form
            return _canonical(self.num * other, self.den, (residual, qpow, scalar * other, phi))
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        (ra, ka, sa, pa), (rb, kb, sb, pb) = self.phi_form, other.phi_form
        phi = {n: pa.get(n, 0) + pb.get(n, 0) for n in pa.keys() | pb.keys()}
        return cyclotomic_quotient(phi, ka + kb, sa * sb, ra * rb)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce_rf(other) / self

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            return self.inverse() ** -n
        residual, qpow, scalar, phi = self.phi_form
        return cyclotomic_quotient({m: e * n for m, e in phi.items() if e * n}, qpow * n,
                                   scalar ** n, residual ** n)

    def inverse(self) -> "RationalFunction":
        """1 / self: the residual, as it becomes the denominator, is factored
        over every Phi_n that fits (`_phi_indices`), and the exponent map is
        negated; ValueError when the residual is no product of Phi_n."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        residual, qpow, scalar, phi = self.phi_form
        f = factor_cyclotomic(residual, {n for n, e in phi.items() if e < 0},
                              _phi_indices(residual.degree))
        if not f.remainder.is_one():
            raise ValueError(f"denominator has the factor {f.remainder}, "
                             f"which is no product of q and Phi_n")
        inv = {n: -phi.get(n, 0) - f.factors.get(n, 0) for n in phi.keys() | f.factors.keys()}
        return cyclotomic_quotient(inv, -qpow - f.q_power, exact_div(1, scalar * f.scalar))

    def evaluate(self, x: Scalar) -> Fraction:
        x = _frac(x)
        d = self.den.evaluate(x)
        if d == 0:
            raise ZeroDivisionError(f"evaluation at a pole: q = {x}")
        return self.num.evaluate(x) / d

    def sign_at_infinity(self) -> int:
        """Sign of the value for large real q (0 for the zero function)."""
        if self.is_zero():
            return 0
        return 1 if self.num.leading > 0 else -1

    def __abs__(self) -> "RationalFunction":
        return -self if self.sign_at_infinity() < 0 else self

    def __eq__(self, other) -> bool:
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self.den.is_one():
            return hash(self.num)  # a polynomial hashes as the QPolynomial it equals
        return hash((self.num.coeffs, self.den.coeffs))

    def __repr__(self):
        return f"RationalFunction('{self}')"

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def cyclotomic_factors(self) -> tuple[CyclotomicFactorization, CyclotomicFactorization]:
        """The factorisations of the numerator and of the denominator (nonzero
        values only), read from the Phi-exponents.  Phi_n are stripped only
        from the residual numerator, and none of those of the denominator, to
        which it is prime; any Phi_n past CYCLOTOMIC_BOUND joins the
        remainder, as factor_cyclotomic would leave it."""
        residual, qpow, scalar, phi = self.phi_form
        res = factor_cyclotomic(residual, {n for n, e in phi.items() if e < 0})

        def side(sign, factors, remainder, c):
            small, big = Counter(factors), Counter()
            for n, e in phi.items():
                if sign * e > 0:
                    (small if n <= CYCLOTOMIC_BOUND else big)[n] += sign * e
            return CyclotomicFactorization(c, max(sign * qpow, 0), dict(small),
                                           QPolynomial(phi_product(remainder.coeffs, big)))
        return (side(1, res.factors, res.remainder, res.scalar * scalar),
                side(-1, {}, QPolynomial.one(), Fraction(1)))

    def factored(self) -> str:
        """Cyclotomically factored rendering, e.g. '(q-1)^2 * Phi5 / (Phi2^2 Phi3 Phi6)'."""
        if self.is_zero():
            return "0"
        numf, denf = self.cyclotomic_factors()
        if self.den.is_one():
            return str(numf)
        scalar = exact_div(numf.scalar, denf.scalar)
        return (f"{_render_cyclotomic(scalar, numf, 'Phi2', ' * ')}"
                f" / ({_render_cyclotomic(1, denf, 'Phi2', ' ')})")

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @staticmethod
    def from_json(data: dict) -> "RationalFunction":
        return RationalFunction(QPolynomial.from_json(data["num"]), QPolynomial.from_json(data["den"]))


def _coerce_rf(x):
    if isinstance(x, RationalFunction):
        return x
    x = _coerce_poly(x)
    return x if x is NotImplemented else RationalFunction(x)


RF_ZERO = RationalFunction(QPolynomial.zero())
RF_ONE = RationalFunction(QPolynomial.one())
RF_Q = RationalFunction(QPolynomial.q())


def cyclotomic_quotient(phi: Mapping[int, int], qpow: int = 0, scalar: Scalar = 1,
                        num: QPolynomial = QPolynomial.one()) -> RationalFunction:
    """num * scalar * q^qpow * prod Phi_n^phi[n] for a nonzero scalar,
    exponents of either sign.

    q and the Phi_n are monic, irreducible and pairwise coprime.  Each
    factor of the denominator (a negative exponent) is cancelled against
    num for as long as it divides num and its exponent lasts, so what is
    left of num is prime to what is left of the denominator: the result is
    canonical as built, with no gcd.  The result keeps that residual, made
    integral, and the exponents as its phi_form."""
    if num.is_zero():
        return _canonical(num, QPolynomial.one(), (num, 0, 1, {}))
    v, d = num.low_degree(), lcm(*(c.denominator for c in num.coeffs))
    cs, qpow, phi = list(num.coeffs[v:]), qpow + v, dict(phi)
    if d > 1:
        cs, scalar = [int(c * d) for c in cs], Fraction(scalar, d)
    for n, e in phi.items():
        if e < 0:
            cs, k = strip_phi(cs, n, -e)
            phi[n] = e + k
    def part(sign, a):
        return [0] * max(sign * qpow, 0) + phi_product(
            a, {n: sign * e for n, e in phi.items() if sign * e > 0})
    return _canonical(QPolynomial(c * scalar for c in part(1, cs)), QPolynomial(part(-1, [1])),
                      (QPolynomial(cs), qpow, scalar, phi))


def _canonical(num: QPolynomial, den: QPolynomial, phi_form) -> RationalFunction:
    """num / den, already coprime with den monic, with the given phi_form."""
    out = RationalFunction.__new__(RationalFunction)
    out.num, out.den, out.phi_form = num, den, phi_form
    return out


def phi_sum(*forms) -> RationalFunction:
    """The sum of the values given as phi_forms (residual, qpow, scalar, phi),
    reduced once.  What the terms share, for each n the least exponent of
    Phi_n over the terms (0 where a term has none) and the least q-power, is
    factored out; only the rest of each term is expanded and summed.  The
    negative part of the shared map is the exponent-wise largest
    denominator, and its positive part stays in the result's map."""
    common = {n: min(phi.get(n, 0) for *_, phi in forms)
              for n in set().union(*(phi for *_, phi in forms))}
    common = {n: e for n, e in common.items() if e}
    qcommon = min(f[1] for f in forms)
    scale = lcm(*(f[2].denominator for f in forms))
    num = QPolynomial.zero()
    for r, k, c, phi in forms:
        up = {**phi, **{n: phi.get(n, 0) - e for n, e in common.items()}}
        num = num + QPolynomial(phi_product(r.coeffs, up)).shift(k - qcommon) * int(c * scale)
    return cyclotomic_quotient(common, qcommon, Fraction(1, scale) if scale > 1 else 1, num)


def rref(rows: Sequence[Sequence[Scalar]]
         ) -> tuple[list[list[Fraction]], int, list[list[Fraction]]]:
    """Gauss-Jordan elimination over Q: (R, rank, T) with T * rows = R.

    R is the reduced row echelon form of rows and T is invertible; for a
    square matrix of full rank T is the inverse, and otherwise the rows of T
    from index rank on span the left kernel.  Each pivot is the first
    nonzero entry of its column at or below the current row."""
    n = len(rows)
    width = len(rows[0]) if rows else 0
    aug = [[_frac(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    rank = 0
    for col in range(width):
        piv = next((r for r in range(rank, n) if aug[r][col] != 0), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = aug[rank][col]
        aug[rank] = [x / inv for x in aug[rank]]
        for r in range(n):
            f = aug[r][col]
            if r != rank and f != 0:
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[rank])]
        rank += 1
    return [row[:width] for row in aug], rank, [row[width:] for row in aug]


def rref_mod(rows, ncols, p):
    """Gauss-Jordan elimination over F_p on the first ncols columns of a copy
    of rows; returns the reduced rows and the pivot columns."""
    m = [row[:] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((row for row in range(r, len(m)) if m[row][col] % p), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][col], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for row in range(len(m)):
            if row != r and m[row][col] % p:
                f = m[row][col]
                m[row] = [(x - f * y) % p for x, y in zip(m[row], m[r])]
        pivots.append(col)
    return m, pivots


def nullspace_mod(rows, ncols, p):
    """Basis of the kernel over F_p of the matrix rows (ncols columns): one
    vector per free column of its elimination, 1 there, 0 at the other free
    columns, in ascending order of the free column."""
    m, pivots = rref_mod(rows, ncols, p)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-m[i][fc]) % p
        basis.append(v)
    return basis


# Mersenne primes, tried in turn until one certifies a rank
RANK_PRIMES = (2 ** 61 - 1, 2 ** 127 - 1, 2 ** 521 - 1)


def _rational_lift(a: int, p: int) -> Fraction:
    """r/s = a mod p with |r| <= sqrt(p/2), by the half-extended Euclidean
    algorithm (rational reconstruction)."""
    r0, r1, s0, s1 = p, a % p, 0, 1
    while 2 * r1 * r1 > p:
        quo = r0 // r1
        r0, r1, s0, s1 = r1, r0 - quo * r1, s1, s0 - quo * s1
    return Fraction(r1, s1)


def integer_rank(columns: Sequence[Sequence[int]]) -> tuple[int, list[tuple[int, ...]]]:
    """(rank, kernel) over Q of integer vectors, certified from both sides.

    The pivots of an elimination mod p bound the rank from below.  Each free
    column f has a kernel vector mod p (`nullspace_mod`) with 1 at f and 0 at
    the other free columns; lifted to Q by rational reconstruction, cleared of denominators
    and checked exactly over Z, these independent vectors bound it from
    above.  So the kernel is the reduced basis: vector f ends at f with a
    positive entry, and its entries are coprime.  A failed check marks an
    unlucky prime: the next of RANK_PRIMES is tried, and RuntimeError is
    raised after the last."""
    rows = list(zip_longest(*columns, fillvalue=0))
    n = len(columns)
    for p in RANK_PRIMES:
        kernel = []
        for v in nullspace_mod([[x % p for x in row] for row in rows], n, p):
            lifts = [_rational_lift(x, p) for x in v]
            den = lcm(*(x.denominator for x in lifts))
            vec = tuple(int(x * den) for x in lifts)
            if any(sum(map(mul, vec, row)) for row in rows):
                break
            kernel.append(vec)
        else:
            return n - len(kernel), kernel
    raise RuntimeError(f"rank of {n} integer vectors not certified modulo any of "
                       f"{len(RANK_PRIMES)} primes")
