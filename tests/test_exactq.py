import functools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ellq
from ellq import exactq
from ellq.cyclo import CycNum
from ellq.exactq import (QPolynomial, RationalFunction, RF_ONE, RF_Q,
                         cyclotomic, cyclotomic_quotient, factor_cyclotomic,
                         integer_rank, nullspace_mod, phi_product, poly_gcd, rref,
                         rref_mod)


# -- references: the gcd reduction and the trial-division rendering --

def _gcd_reduce(num, den):
    """num / den reduced by poly_gcd, den monic: the canonical form that every
    rational function must reach, computed with no Phi-form."""
    if num.is_zero():
        return num, QPolynomial.one()
    g = poly_gcd(num, den) * den.leading  # so that den // g is monic
    return num // g, den // g


def _gcd_json(num, den):
    return {"num": num.to_json(), "den": den.to_json()}


def _trial_factored(num, den):
    """The rendering of num / den with both sides trial-divided by every
    Phi_n, n <= 30 (`factor_cyclotomic`): the reference for factored(),
    which reads the factors off the Phi-form."""
    if num.is_zero():
        return "0"
    numf, denf = factor_cyclotomic(num), factor_cyclotomic(den)
    if den.is_one():
        return str(numf)
    scalar = exactq.exact_div(numf.scalar, denf.scalar)
    return (f"{exactq._render_cyclotomic(scalar, numf, 'Phi2', ' * ')}"
            f" / ({exactq._render_cyclotomic(1, denf, 'Phi2', ' ')})")


@functools.lru_cache(maxsize=None)
def _phi_at_most(d):
    """Every n with phi(n) <= d, from a totient sieve up to 2 d^2 + 1, as
    phi(n) >= sqrt(n / 2)."""
    top = 2 * d * d + 2
    phi = list(range(top))
    for p in range(2, top):
        if phi[p] == p:
            for m in range(p, top, p):
                phi[m] -= phi[m] // p
    return [n for n in range(1, top) if phi[n] <= d]


def _is_phi_product(p):
    """Whether the nonzero p is c q^k prod Phi_n^e_n, by QPolynomial division
    (`_divmod_strip`) by every Phi_n of degree phi(n) <= deg p."""
    p = QPolynomial(p.coeffs[p.low_degree():])
    for n in _phi_at_most(p.degree):
        p = _divmod_strip(p, n)[0]
    return p.degree == 0


def test_cyclotomic_small():
    assert str(cyclotomic(1)) == "q - 1"
    assert str(cyclotomic(2)) == "q + 1"
    assert str(cyclotomic(6)) == "q^2 - q + 1"
    with pytest.raises(ValueError):
        cyclotomic(0)


def test_cyclotomic_divides_qn_minus_one():
    for n in range(1, 31):
        assert cyclotomic(n).divides(QPolynomial.monomial(n) - 1)


def test_cyclotomic_degree_is_totient():
    import math
    for n in range(1, 31):
        phi = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert cyclotomic(n).degree == phi
        assert cyclotomic(n).leading == 1


def test_factor_q6_minus_one():
    f = factor_cyclotomic(QPolynomial.monomial(6) - 1)
    assert f.factors == {1: 1, 2: 1, 3: 1, 6: 1}
    assert f.scalar == 1 and f.q_power == 0 and f.remainder.is_one()


def test_factor_edge_cases():
    f = factor_cyclotomic(QPolynomial.of(1, 1))
    assert f.factors == {2: 1} and f.remainder.is_one()
    f = factor_cyclotomic(QPolynomial.of(2, 0, 1))  # q^2 + 2: no cyclotomic roots
    assert f.factors == {} and f.remainder == QPolynomial.of(2, 0, 1)
    with pytest.raises(ValueError):
        factor_cyclotomic(QPolynomial.zero())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 30), st.integers(1, 2)), max_size=4),
       st.integers(0, 3),
       st.fractions(min_value=Fraction(-5), max_value=Fraction(5)).filter(lambda x: x != 0))
def test_factorization_reconstructs(factors, qpow, scalar):
    p = QPolynomial.monomial(qpow, scalar)
    for n, m in factors:
        p = p * cyclotomic(n) ** m
    f = factor_cyclotomic(p)
    assert cyclotomic_quotient(f.factors, f.q_power, f.scalar).num * f.remainder == p


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(st.integers(1, 30), st.integers(-2, 2), max_size=4),
       st.integers(-3, 3),
       st.fractions(min_value=Fraction(-5), max_value=Fraction(5)).filter(lambda x: x != 0),
       st.integers(1, 30))
def test_cyclotomic_quotient_matches_gcd_constructor(phi, k, c, common):
    """The builder skips the gcd; RationalFunction reaches the same canonical
    form from a numerator and denominator with a common factor and scale."""
    num = QPolynomial.monomial(max(k, 0), c)
    den = QPolynomial.monomial(max(-k, 0))
    for n, e in phi.items():
        if e > 0:
            num = num * cyclotomic(n) ** e
        else:
            den = den * cyclotomic(n) ** -e
    extra = cyclotomic(common) * 3
    want = RationalFunction(num * extra, den * extra)
    got = cyclotomic_quotient(phi, k, c)
    assert got == want
    assert got.to_json() == want.to_json() == _gcd_json(*_gcd_reduce(num * extra, den * extra))


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(1, 30), st.integers(-3, 3), max_size=4),
       st.integers(-3, 3),
       st.fractions(min_value=Fraction(-5), max_value=Fraction(5)).filter(lambda x: x != 0),
       st.lists(st.integers(-4, 4), min_size=1, max_size=4).filter(any),
       st.integers(0, 3), st.data())
def test_cyclotomic_quotient_reduces_a_numerator_like_gcd(phi, k, c, base, v, data):
    """A numerator sharing some of the denominator's factors (q and Phi_n) is
    reduced by trial division to the canonical form the gcd reaches."""
    num = QPolynomial.monomial(v) * QPolynomial(base)
    for n in sorted(phi):
        num = num * cyclotomic(n) ** data.draw(st.integers(0, 3), label=f"Phi{n}")
    top = num * QPolynomial.monomial(max(k, 0), c)
    den = QPolynomial.monomial(max(-k, 0))
    for n, e in phi.items():
        if e > 0:
            top = top * cyclotomic(n) ** e
        else:
            den = den * cyclotomic(n) ** -e
    want = RationalFunction(top, den)
    got = cyclotomic_quotient(phi, k, c, num)
    assert (got.num, got.den) == (want.num, want.den) == _gcd_reduce(top, den)
    assert got.to_json() == want.to_json()
    assert cyclotomic_quotient(phi, k, c, QPolynomial.zero()).is_zero()


_NONZERO = st.fractions(min_value=Fraction(-5), max_value=Fraction(5)).filter(lambda x: x != 0)


@st.composite
def _phi_denominators(draw):
    """c q^k prod Phi_n^e_n, n from Phi_1 to Phi_12 and Phi_31, e <= 2."""
    den = QPolynomial.monomial(draw(st.integers(0, 2)), draw(_NONZERO))
    for n, e in draw(st.dictionaries(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12, 31]),
                                     st.integers(1, 2), max_size=3)).items():
        den = den * _ref_cyclotomic(n) ** e
    return den


@st.composite
def _phi_operands(draw):
    """Zero, a polynomial from the constructor, or a cyclotomic_quotient
    value whose numerator shares some Phi_n with its exponent map."""
    kind = draw(st.sampled_from(["zero", "polynomial", "quotient"]))
    if kind == "zero":
        return RationalFunction(QPolynomial.zero())
    num = QPolynomial.monomial(draw(st.integers(0, 2)), draw(_NONZERO)) * QPolynomial(
        draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(any)))
    if kind == "polynomial":
        return RationalFunction(num)
    phi = draw(st.dictionaries(st.sampled_from([1, 2, 3, 4, 6, 12, 31]), st.integers(-2, 2),
                               max_size=3))
    for n in sorted(phi):
        num = num * cyclotomic(n) ** draw(st.integers(0, 2), label=f"Phi{n}")
    return cyclotomic_quotient(phi, draw(st.integers(-2, 2)), draw(_NONZERO), num)


@settings(max_examples=100, deadline=None)
@given(_phi_operands(), _phi_operands(), st.one_of(st.integers(-3, 3), _NONZERO))
def test_phi_arithmetic_matches_gcd_route(a, b, c):
    """+, -, * and scalar multiples of values in Phi-exponent form stay in it:
    each result is what the gcd reaches from the cross-multiplied numerator
    and denominator, and prints as trial division prints it."""
    cases = [(a + b, a.num * b.den + b.num * a.den, a.den * b.den),
             (a - b, a.num * b.den - b.num * a.den, a.den * b.den),
             (a * b, a.num * b.num, a.den * b.den),
             (a * c, a.num * c, a.den), (c * a, a.num * c, a.den),
             (-a, -a.num, a.den)]
    for got, num, den in cases:
        want = _gcd_reduce(num, den)
        assert (got.num, got.den) == want
        residual, qpow, scalar, exponents = got.phi_form
        assert cyclotomic_quotient(exponents, qpow, scalar, residual) == got
        assert got.factored() == _trial_factored(*want)


@settings(max_examples=100, deadline=None)
@given(_phi_operands(), _phi_operands(), st.integers(0, 3))
def test_phi_division_and_powers_invert(a, b, n):
    """/ and negative powers negate the divisor's map and factor only its
    residual: they undo * and positive powers whenever that residual is
    c q^k prod Phi_n (Phi_31 included), and refuse it otherwise; ** n is
    n-fold *."""
    assert b ** n == functools.reduce(lambda x, y: x * y, [b] * n, RF_ONE)
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a / b
        return
    if not _is_phi_product(b.phi_form[0]):
        for refused in (b.inverse, lambda: a / b, lambda: b ** -1):
            with pytest.raises(ValueError):
                refused()
        return
    assert (a / b) * b == a
    assert b ** -2 * b ** 2 == RF_ONE
    assert b.inverse() * b == RF_ONE


def test_denominators_that_are_no_phi_product_are_refused():
    """The constructor and from_json refuse q^2 + q + 2 as a denominator,
    alone or next to q, Phi_3 and Phi_31; inverse, / and ** -1 refuse a
    value whose residual numerator is such a polynomial."""
    odd = QPolynomial.of(2, 1, 1)
    for bad in (odd, odd * cyclotomic(3) * QPolynomial.q(), odd * cyclotomic(31)):
        with pytest.raises(ValueError, match="no product of q and Phi_n$"):
            RationalFunction(QPolynomial.one(), bad)
        with pytest.raises(ValueError):
            RationalFunction.from_json({"num": ["1"], "den": bad.to_json()})
        value = cyclotomic_quotient({3: -1}, 1, 2, bad)
        for refused in (value.inverse, lambda: RF_ONE / value, lambda: value ** -1,
                        lambda: 1 / value):
            with pytest.raises(ValueError):
                refused()
    # Phi_31 in the map is no residual: its inverse is the polynomial Phi_31
    assert cyclotomic_quotient({31: -1}).inverse() == RationalFunction(cyclotomic(31))


def test_phi_n_past_30_in_a_denominator_is_accepted():
    """Every Phi_n whose degree fits is tried in a denominator, not only
    n <= 30: the type B and D closed forms hold larger n (1 - q^32 leaves
    Phi_32 under the B_16 fake degree), and their JSON must read back."""
    from ellq.elliptic import bn_fake_closed, dn_fake_closed
    big = cyclotomic(31) * cyclotomic(32) * cyclotomic(40) ** 2 * QPolynomial.q()
    r = RationalFunction(QPolynomial.of(1, 1), big * 3)
    assert r.phi_form[1:] == (-1, Fraction(1, 3), {31: -1, 32: -1, 40: -2})
    assert r.inverse() == RationalFunction(big * 3, QPolynomial.of(1, 1))
    assert RationalFunction.from_json(r.to_json()) == r
    for v in (bn_fake_closed((16,)), bn_fake_closed((20, 20)), dn_fake_closed((15, 2))):
        assert any(n > 30 for n, e in v.phi_form[3].items() if e < 0)
        assert RationalFunction.from_json(v.to_json()) == v
        assert RationalFunction(v.num, v.den) == v
        assert v / v == RF_ONE


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=1, max_size=6),
       st.lists(st.integers(-4, 4), min_size=1, max_size=6), _phi_denominators())
def test_rational_function_canonical(a, b, phi_den):
    """Over a Phi-product denominator, and over it times an arbitrary b: the
    constructor reaches the gcd-reduced form, and refuses a b that is no
    Phi-product (and a zero b)."""
    pa = QPolynomial(a)
    for pb in (phi_den, phi_den * QPolynomial(b)):
        if pb.is_zero():
            with pytest.raises(ZeroDivisionError):
                RationalFunction(pa, pb)
            continue
        if not _is_phi_product(pb):
            with pytest.raises(ValueError, match="no product of q and Phi_n$"):
                RationalFunction(pa, pb)
            continue
        r = RationalFunction(pa, pb)
        assert (r.num, r.den) == _gcd_reduce(pa, pb)
        assert r.den.leading == 1
        assert poly_gcd(r.num, r.den).degree <= 0 or r.num.is_zero()
        # re-reducing is a fixed point
        again = RationalFunction(r.num, r.den)
        assert again == r


def test_evaluation_and_field_ops():
    r = RationalFunction.of(QPolynomial.of(1, -1), QPolynomial.of(1, 1))
    assert r.evaluate(2) == Fraction(-1, 3)
    assert r * r.inverse() == RF_ONE
    with pytest.raises(ZeroDivisionError):
        r.evaluate(-1)
    with pytest.raises(ZeroDivisionError):
        r / RationalFunction(QPolynomial.zero())


def test_cancellation():
    # (1 - q^2)/(1 - q) reduces to q + 1 by polynomial division
    r = RationalFunction(QPolynomial.of(1, 0, -1), QPolynomial.of(1, -1))
    assert r == RF_Q + 1


def test_json_round_trip():
    p = QPolynomial.of(Fraction(1, 2), -3, 0, 7)
    assert QPolynomial.from_json(p.to_json()) == p
    r = RationalFunction(p, QPolynomial.of(1, 2, 1))
    assert RationalFunction.from_json(r.to_json()) == r


def test_equal_exact_values_hash_equal():
    """Values that compare equal hash equal, so a set or a dict keeps one of
    them: a constant polynomial and its scalar, a polynomial and the rational
    function it is, a rational cyclotomic number and its value."""
    p = QPolynomial.of(1, 2)
    pairs = [(QPolynomial.of(3), 3), (QPolynomial.of(Fraction(1, 2)), Fraction(1, 2)),
             (QPolynomial.zero(), 0), (RF_ONE, 1), (RationalFunction(p), p),
             (RationalFunction(QPolynomial.zero()), 0),
             (RationalFunction.of(QPolynomial.of(2, 2), QPolynomial.of(1, 1)), 2),
             (CycNum.rational(4, 2), 2), (CycNum.rational(3, Fraction(-1, 3)), Fraction(-1, 3)),
             (CycNum.zero(5), 0), (CycNum.zeta_pow(4, 2), -1)]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1, (a, b)
    assert len({RationalFunction(p), p, RationalFunction.of(p, 2) * 2}) == 1


def test_rref_rank_inverse_and_left_kernel():
    F = Fraction
    reduced, rank, transform = rref([[2, 1], [1, 1]])
    assert rank == 2
    assert reduced == [[1, 0], [0, 1]]
    assert transform == [[1, -1], [-1, 2]]
    # row 1 is twice row 0; the pivot of column 1 is found in row 2
    a = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    reduced, rank, transform = rref(a)
    assert rank == 2
    assert reduced == [[1, 0, 1], [0, 1, 1], [0, 0, 0]]
    assert transform == [[0, 0, 1], [F(1, 2), 0, F(-1, 2)], [-2, 1, 0]]
    assert [sum(t * row[j] for t, row in zip(transform[2], a)) for j in range(3)] == [0, 0, 0]
    assert rref([]) == ([], 0, [])


def _is_relation(vec, columns):
    return all(sum(c * x for c, x in zip(vec, row)) == 0 for row in zip(*columns))


# columns B C: k random base vectors of length m, each column an integer
# combination of them, so every column past the first k is a planted dependency
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda m: st.integers(1, 4).flatmap(lambda k: st.tuples(
    st.lists(st.lists(st.integers(-5, 5), min_size=m, max_size=m), min_size=k, max_size=k),
    st.lists(st.lists(st.integers(-5, 5), min_size=k, max_size=k), min_size=0, max_size=8)))))
def test_integer_rank_against_rref(data):
    base, coeffs = data
    columns = [[sum(c * b[r] for c, b in zip(cs, base)) for r in range(len(base[0]))]
               for cs in coeffs]
    rank, kernel = integer_rank(columns)
    assert rank == (rref([list(row) for row in zip(*columns)])[1] if columns else 0)
    assert len(kernel) == len(columns) - rank
    free = [max(i for i, c in enumerate(vec) if c) for vec in kernel]
    assert free == sorted(set(free))
    for vec, f in zip(kernel, free):
        assert _is_relation(vec, columns)
        assert vec[f] > 0 and math.gcd(*vec) == 1
        # reduced: zero at every other free column
        assert all(vec[g] == 0 for g in free if g != f)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 7, 73]), st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(st.integers(-80, 80), min_size=n, max_size=n), max_size=5))),
    st.booleans())
def test_nullspace_mod_is_the_reduced_kernel(p, shape, zero):
    ncols, rows = shape
    if zero:
        rows = [[0] * ncols for _ in rows]
    _, pivots = rref_mod(rows, ncols, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = nullspace_mod(rows, ncols, p)
    assert len(basis) == ncols - len(pivots)
    for v, f in zip(basis, free):
        assert len(v) == ncols and all(0 <= x < p for x in v)
        assert all(sum(x * y for x, y in zip(row, v)) % p == 0 for row in rows)
        # 1 at its own free column, 0 at the others
        assert [v[g] for g in free] == [int(g == f) for g in free]


def test_integer_rank_of_nothing_and_of_zero_columns():
    assert integer_rank([]) == (0, [])
    assert integer_rank([[0, 0], [0, 0]]) == (0, [(1, 0), (0, 1)])
    assert integer_rank([[3, 6], [2, 4]]) == (1, [(-2, 3)])


@pytest.mark.parametrize("columns", [
    [[1, 0], [0, 5]],  # 5 divides an entry: column 1 vanishes mod 5
    [[1, 2], [3, 11]],  # 5 divides the 2x2 minor
])
def test_integer_rank_retries_an_unlucky_prime(monkeypatch, columns):
    monkeypatch.setattr(exactq, "RANK_PRIMES", (5,))
    with pytest.raises(RuntimeError, match="not certified"):
        integer_rank(columns)
    monkeypatch.setattr(exactq, "RANK_PRIMES", (5, 2 ** 61 - 1))
    assert integer_rank(columns) == (2, [])


def test_integer_rank_rejects_a_corrupted_kernel_vector(monkeypatch):
    lift = exactq._rational_lift
    monkeypatch.setattr(exactq, "_rational_lift", lambda a, p: lift(a, p) + 1)
    with pytest.raises(RuntimeError, match="not certified"):
        integer_rank([[1, 2], [2, 4]])


def test_integer_rank_lifts_past_the_first_prime():
    # the kernel entries exceed sqrt(p/2) for p = 2^61 - 1
    big = 10 ** 12 + 39
    rank, kernel = integer_rank([[1, 0], [0, 1], [big, big + 1]])
    assert rank == 2 and kernel == [(-big, -big - 1, 1)]
    rank, kernel = integer_rank([[big, 0], [0, big + 1], [1, 1]])
    assert rank == 2 and kernel == [(-big - 1, -big, big * (big + 1))]


def test_factored_rendering():
    f = (RF_Q - 1) ** 2 * cyclotomic(5) / (RationalFunction(cyclotomic(2)) ** 2
                                           * cyclotomic(3) * cyclotomic(6))
    assert f.factored() == "(q-1)^2 * Phi5 / (Phi2^2 Phi3 Phi6)"


# -- the sparse Phi-product builder and the carried factorisation --

@functools.lru_cache(maxsize=None)
def _ref_cyclotomic(n):
    """Phi_n as q^n - 1 divided by every Phi_d, d a proper divisor of n."""
    p = QPolynomial.monomial(n) - 1
    for d in range(1, n):
        if n % d == 0:
            p, r = divmod(p, _ref_cyclotomic(d))
            assert r.is_zero()
    return p


def test_phi_product_matches_division_loop():
    for n in range(1, 61):
        assert QPolynomial(phi_product([1], {n: 1})) == _ref_cyclotomic(n), n
        assert cyclotomic(n) == _ref_cyclotomic(n), n
    want = _ref_cyclotomic(1) ** 3 * _ref_cyclotomic(12) ** 2 * _ref_cyclotomic(30)
    assert QPolynomial(phi_product([1], {1: 3, 12: 2, 30: 1})) == want
    assert phi_product([1], {}) == [1]


def test_phi_product_division_by_a_non_divisor_raises():
    assert QPolynomial(phi_product([1], {6: 1, 3: 1, 2: 1, 1: 1})) == QPolynomial.monomial(6) - 1
    for phi in ({1: -1}, {2: 1, 1: -1}, {6: 1, 3: -1}, {30: 2, 15: -1}):
        with pytest.raises(ArithmeticError):
            phi_product([1], phi)


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(st.integers(1, 40), st.integers(-2, 2), max_size=4),
       st.integers(-3, 3),
       st.fractions(min_value=Fraction(-5), max_value=Fraction(5)).filter(lambda x: x != 0),
       st.lists(st.integers(-4, 4), min_size=1, max_size=4).filter(any),
       st.integers(0, 2), st.data())
def test_carried_rendering_matches_trial_division(phi, k, c, base, v, data):
    """factored() read from the Phi-exponents, with the residual numerator
    trial-divided, prints what trial division of the whole gcd-reduced value
    prints.  The residual shares some Phi_n with the map, on either side,
    and Phi_n past 30 fall into the remainders of the rendering; the
    constructor reaches the same value, such Phi_n included."""
    num = QPolynomial.monomial(v) * QPolynomial(base)
    for n in sorted(phi):
        num = num * _ref_cyclotomic(n) ** data.draw(st.integers(0, 2), label=f"Phi{n}")
    top = num * QPolynomial.monomial(max(k, 0), c)
    den = QPolynomial.monomial(max(-k, 0))
    for n, e in phi.items():
        if e > 0:
            top = top * _ref_cyclotomic(n) ** e
        else:
            den = den * _ref_cyclotomic(n) ** -e
    got = cyclotomic_quotient(phi, k, c, num)
    assert got.factored() == _trial_factored(*_gcd_reduce(top, den))
    assert RationalFunction(top, den) == got


# -- the integer-first coefficient kernel against an all-Fraction reference --

def _ref(p):
    return [Fraction(c) for c in p.coeffs]


def _ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _ref_add(a, b):
    n = max(len(a), len(b))
    return _ref_trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                     for i in range(n))


def _ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_trim(out)


def _ref_divmod(a, b):
    rem, quot = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - len(b), -1, -1):
        f = rem[i + len(b) - 1] / b[-1]
        quot[i] = f
        for j, y in enumerate(b):
            rem[i + j] -= f * y
    return _ref_trim(quot), _ref_trim(rem)


def _ref_monic(a):
    return [c / a[-1] for c in a] if a else a


def _ref_gcd(a, b):
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    return _ref_monic(a)


def _canonical(p):
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in p.coeffs)


_coeff = st.one_of(st.integers(-6, 6),
                   st.integers(-6, 6).map(Fraction),
                   st.fractions(min_value=-6, max_value=6, max_denominator=4))
_poly = st.lists(_coeff, max_size=6).map(QPolynomial)


@settings(max_examples=150, deadline=None)
@given(_poly, _poly, _phi_denominators())
def test_integer_kernel_matches_fraction_reference(p, d, phi_den):
    a, b = _ref(p), _ref(d)
    results = [p, d, p + d, p - d, p * d, p.monic(), poly_gcd(p, d)]
    assert _ref(p + d) == _ref_add(a, b)
    assert _ref(p - d) == _ref_add(a, [-c for c in b])
    assert _ref(p * d) == _ref_mul(a, b)
    assert _ref(p.monic()) == _ref_monic(a)
    assert _ref(poly_gcd(p, d)) == _ref_gcd(a, b)
    if not d.is_zero():
        quo, rem = divmod(p, d)
        assert (_ref(quo), _ref(rem)) == _ref_divmod(a, b)
        results += [quo, rem]
    # the constructor over a Phi-product denominator, and over an arbitrary d
    for den_poly in (phi_den, phi_den * d):
        if den_poly.is_zero():
            continue
        if not _is_phi_product(den_poly):
            with pytest.raises(ValueError):
                RationalFunction(p, den_poly)
            continue
        r = RationalFunction(p, den_poly)
        g = _ref_gcd(a, _ref(den_poly))
        num, den = _ref_divmod(a, g)[0], _ref_divmod(_ref(den_poly), g)[0]
        assert _ref(r.num) == ([c / den[-1] for c in num] if num else [])
        assert _ref(r.den) == (_ref_monic(den) if num else [1])
        results += [r.num, r.den]
    assert all(_canonical(x) for x in results)


def test_integer_kernel_pinned_cases():
    F = Fraction
    half = QPolynomial.of(1, 2).monic()
    assert half.coeffs == (F(1, 2), 1) and type(half.coeffs[1]) is int
    r = RationalFunction.of(1, 2)
    assert r.num.coeffs == (F(1, 2),) and r.den.coeffs == (1,)
    assert type(QPolynomial.of(F(4, 2), 0, F(-3, 1)).coeffs[0]) is int
    # a non-integral scalar survives factoring, over 1 and over a denominator
    assert RationalFunction.of(QPolynomial.of(1, 1), 2).factored() == "1/2 * (q+1)"
    x = RationalFunction(QPolynomial.of(1, 1), QPolynomial.of(0, 2) * cyclotomic(3))
    assert x.factored() == "1/2 * Phi2 / (q Phi3)"
    assert factor_cyclotomic(QPolynomial.of(3, 3)).scalar == F(3)
    assert type(factor_cyclotomic(QPolynomial.of(3, 3)).scalar) is Fraction



# -- strip_phi: the one Phi_n-stripping route, against QPolynomial division --

def _divmod_strip(p, n, limit=-1):
    """(p / Phi_n^k, k) by repeated QPolynomial division, the reference."""
    k = 0
    while k != limit and cyclotomic(n).degree <= p.degree:
        quo, rem = divmod(p, cyclotomic(n))
        if not rem.is_zero():
            break
        p, k = quo, k + 1
    return p, k


_STRIP_COEFFS = st.one_of(st.integers(-9, 9),
                          st.fractions(min_value=-5, max_value=5, max_denominator=12))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 30), k=st.integers(0, 3),
       r=st.lists(_STRIP_COEFFS, min_size=1, max_size=8).filter(any),
       root_at_two=st.booleans(), extra=st.integers(1, 30), limit=st.integers(-1, 4))
def test_strip_phi_matches_divmod(n, k, r, root_at_two, extra, limit):
    """Inputs r Phi_n^k, with r an integer or Fraction polynomial; a factor
    q - 2 of r makes the screen value d p(2) zero, so only the exact test can
    refuse Phi_n, and a factor Phi_extra tests a near miss."""
    r = QPolynomial(r) * (QPolynomial.of(-2, 1) if root_at_two else 1)
    p = r * cyclotomic(extra) * cyclotomic(n) ** k
    want_q, want_k = _divmod_strip(p, n, limit)
    got, got_k = exactq.strip_phi(list(p.coeffs), n, limit)
    assert (QPolynomial(got), got_k) == (want_q, want_k)
    assert got_k >= (k if limit < 0 else min(k, limit))


def test_strip_phi_screen_value_zero_passes():
    # (q - 2) Phi_3 vanishes at 2, so d p(2) = 0 passes the screen for every n
    p = QPolynomial.of(-2, 1) * cyclotomic(3)
    assert exactq.strip_phi(list(p.coeffs), 3) == ([-2, 1], 1)
    assert exactq.strip_phi(list(p.coeffs), 6) == (list(p.coeffs), 0)
    # a Fraction multiple of Phi_4 ** 2: the screen clears the denominators
    p = cyclotomic(4) ** 2 * Fraction(3, 7)
    assert exactq.strip_phi(list(p.coeffs), 4) == ([Fraction(3, 7)], 2)


def test_quotients_and_factorisations_use_no_polynomial_division(monkeypatch):
    """cyclotomic_quotient and factor_cyclotomic strip every Phi_n with
    strip_phi, so QPolynomial.__divmod__ may raise throughout."""
    from ellq.elliptic import elliptic_fake_degree, sq_pairing
    from ellq.weylgrp import GroupSpec, build_group
    W = build_group.__wrapped__(GroupSpec("F4", 4))
    table = W.character_table()

    def refuse(*_):
        raise AssertionError("QPolynomial.__divmod__ called")
    monkeypatch.setattr(QPolynomial, "__divmod__", refuse)
    num = QPolynomial(phi_product([1], {1: 2, 3: 1, 12: 2})) * QPolynomial.of(Fraction(1, 3), 2)
    residual, _, _, exps = cyclotomic_quotient({3: -2, 12: -1, 5: -1}, 1, 2, num).phi_form
    assert exps == {3: -1, 12: 0, 5: -1}
    assert residual == QPolynomial(phi_product([1], {1: 2, 12: 1})) * QPolynomial.of(1, 6)
    f = factor_cyclotomic(num.shift(2))
    assert (f.q_power, f.factors, f.scalar) == (2, {1: 2, 3: 1, 12: 2}, 2)
    for row in table.values:
        for g in (elliptic_fake_degree(W, row), sq_pairing(W, row)):
            g.factored()


# -- sums of Phi-forms, and Phi_n expanded only when it may divide --

_SUM_INDICES = [1, 2, 3, 4, 5, 6, 12, 31]


@st.composite
def _phi_sum_terms(draw):
    """Two or three phi_forms (residual, qpow, scalar, phi) with a shared
    exponent map of either sign, exponents of their own, q-powers of either
    sign around a shared offset, and, on request, a last term cancelling the
    first, so that the sum is zero."""
    shared = draw(st.dictionaries(st.sampled_from(_SUM_INDICES), st.integers(-3, 3),
                                  max_size=4))
    qbase = draw(st.integers(-3, 3))
    terms = []
    for _ in range(draw(st.integers(2, 3))):
        own = draw(st.dictionaries(st.sampled_from(_SUM_INDICES), st.integers(-2, 2),
                                   max_size=3))
        phi = {n: shared.get(n, 0) + own.get(n, 0) for n in shared.keys() | own.keys()}
        base = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(lambda b: b[0]))
        terms.append((QPolynomial(base), qbase + draw(st.integers(0, 2)), draw(_NONZERO),
                      {n: e for n, e in phi.items() if e}))
    if draw(st.booleans()):
        r, k, c, phi = terms[0]
        terms[-1] = (r, k, -c, phi)
    return terms


def _gcd_value(r, k, c, phi):
    """A phi_form as a numerator and a denominator, for `_gcd_reduce`."""
    num = r * QPolynomial.monomial(max(k, 0), c)
    den = QPolynomial.monomial(max(-k, 0))
    for n, e in phi.items():
        if e > 0:
            num = num * _ref_cyclotomic(n) ** e
        else:
            den = den * _ref_cyclotomic(n) ** -e
    return num, den


@settings(max_examples=150, deadline=None)
@given(_phi_sum_terms())
def test_phi_sum_matches_gcd_route(terms):
    """phi_sum, which expands only what its terms do not share, reaches the
    value, the JSON and the rendering that the gcd and trial division reach
    from the cross-multiplied numerators and denominators."""
    n1, d1 = _gcd_value(*terms[0])
    for term in terms[1:]:
        n2, d2 = _gcd_value(*term)
        n1, d1 = _gcd_reduce(n1 * d2 + n2 * d1, d1 * d2)
    got = exactq.phi_sum(*terms)
    assert (got.num, got.den) == (n1, d1)
    assert got.to_json() == _gcd_json(n1, d1)
    assert got.factored() == _trial_factored(n1, d1)
    residual, qpow, scalar, exponents = got.phi_form
    assert cyclotomic_quotient(exponents, qpow, scalar, residual) == got


def test_phi_sum_keeps_the_shared_factors_in_its_map():
    # q^2 Phi_3^2 Phi_5 / Phi_4 + q^3 Phi_3 / Phi_4^2 = q^2 Phi_3 (Phi_3 Phi_4 Phi_5 + q) / Phi_4^2
    terms = [(QPolynomial.one(), 2, 1, {3: 2, 5: 1, 4: -1}),
             (QPolynomial.one(), 3, 1, {3: 1, 4: -2})]
    got = exactq.phi_sum(*terms)
    residual, qpow, scalar, exponents = got.phi_form
    assert (qpow, scalar, exponents) == (2, 1, {3: 1, 4: -2})
    assert residual == _ref_cyclotomic(3) * _ref_cyclotomic(4) * _ref_cyclotomic(5) + RF_Q.num


def test_phi_screen_reads_degree_and_value_at_two():
    for n in range(1, 61):
        assert exactq._phi_screen(n) == (cyclotomic(n).degree, cyclotomic(n).evaluate(2)), n


_COLD_PROBE = """
import json
import ellq
from ellq import exactq
from ellq.elliptic import bn_fake_closed, dn_fake_closed
expanded, tried = [], []
cyclotomic, strip_phi = exactq.cyclotomic, exactq.strip_phi
def cyclotomic_probe(n):
    expanded.append(n)
    return cyclotomic(n)
def strip_phi_probe(p, n, limit=-1):
    tried.append(([str(c) for c in p], n))
    return strip_phi(p, n, limit)
exactq.cyclotomic, exactq.strip_phi = cyclotomic_probe, strip_phi_probe
%s.factored()
print(json.dumps({"expanded": expanded, "tried": tried}))
"""


def _cold_probe(expr):
    """The n of every cyclotomic(n) call and the arguments (p, n) of every
    strip_phi call made by expr.factored() in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ellq.__file__))}
    out = subprocess.run([sys.executable, "-c", _COLD_PROBE % expr], env=env,
                         capture_output=True, text=True, check=True)
    data = json.loads(out.stdout)
    return data["expanded"], [([Fraction(c) for c in p], n) for p, n in data["tried"]]


def test_cold_bn_closed_form_expands_no_cyclotomic():
    expanded, _ = _cold_probe("bn_fake_closed((10,))")
    assert expanded == []


def test_cold_dn_closed_form_expands_only_the_phi_that_pass_the_screen():
    """Phi_n is expanded only for the n of a strip_phi call whose integer
    screen passes: d p(2) divisible by Phi_n(2), p longer than Phi_n."""
    expanded, tried = _cold_probe("dn_fake_closed((5, 3, 2))")

    def screen_passes(p, n):
        d = math.lcm(*(c.denominator for c in p))
        val = sum(c * d * 2 ** j for j, c in enumerate(p))
        phi = _ref_cyclotomic(n)
        return len(p) > phi.degree and val % phi.evaluate(2) == 0
    passed = {n for p, n in tried if screen_passes(p, n)}
    assert set(expanded) == passed
    assert passed and {n for _, n in tried} - passed
