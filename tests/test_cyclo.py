import random

import pytest

from ellq.cyclo import CycNum, _zeta_power_basis, ring_reduce, ring_sum, ring_terms
from ellq.exactq import QPolynomial, cyclotomic

DIVISORS_OF_60 = [m for m in range(1, 61) if 60 % m == 0]


def _remainder(terms, m):
    """sum c x^k mod Phi_m by exactq's polynomial division, padded to phi(m)
    coordinates."""
    poly = QPolynomial.zero()
    for k, c in terms:
        poly = poly + QPolynomial.monomial(k, c)
    phi = cyclotomic(m)
    rem = list((poly % phi).coeffs)
    return rem + [0] * (phi.degree - len(rem))


@pytest.mark.parametrize("m", DIVISORS_OF_60)
def test_zeta_power_basis_is_the_integer_remainder_of_x_to_the_k(m):
    for k in range(m):
        coords = _zeta_power_basis(m, k)
        assert all(type(c) is int for c in coords)
        assert list(coords) == _remainder([(k, 1)], m)


@pytest.mark.parametrize("m", DIVISORS_OF_60)
def test_ring_reduce_matches_division_and_cycnum(m):
    rng = random.Random(m)
    for _ in range(20):
        terms = [(rng.randrange(3 * m), rng.randint(-9, 9))
                 for _ in range(rng.randint(0, 8))]
        coords = ring_reduce(terms, m)
        assert all(type(c) is int for c in coords)
        assert coords == _remainder([(k % m, c) for k, c in terms], m)
        num = CycNum.zero(m)
        for k, c in terms:
            num = num + CycNum.zeta_pow(m, k, c)
        assert list(num.reduced()) == coords


def _random_element(rng, m):
    """Pairs (k, c) of Z[Z/m], k possibly repeated, and the CycNum they sum to."""
    terms = [(rng.randrange(m), rng.randint(-9, 9)) for _ in range(rng.randint(0, 5))]
    num = CycNum.zero(m)
    for k, c in terms:
        num = num + CycNum.zeta_pow(m, k, c)
    return terms, num


@pytest.mark.parametrize("m", DIVISORS_OF_60)
def test_ring_sum_is_the_hermitian_pairing(m):
    # sum c a conj(b), reduced, against CycNum's product with the conjugate
    rng = random.Random(100 + m)
    for _ in range(20):
        triples, ref = [], CycNum.zero(m)
        for _ in range(rng.randint(0, 4)):
            c = rng.randint(-5, 5)
            (a, x), (b, y) = _random_element(rng, m), _random_element(rng, m)
            triples.append((c, a, b))
            ref = ref + x * y.conj() * c
        assert ring_reduce(ring_sum(triples, m).items(), m) == list(ref.reduced())


def test_ring_terms_lifts_to_the_larger_conductor():
    assert ring_terms(0, 60) == ()
    assert ring_terms(-3, 60) == ((0, -3),)
    assert ring_terms(((7, 2),), 60) == ((7, 2),)
    assert ring_terms(CycNum(5, {1: 2, 4: 0, 3: -1}), 60) == ((12, 2), (36, -1))
    assert ring_reduce(ring_terms(CycNum.zeta_pow(4, 1), 12), 12) == \
        ring_reduce([(3, 1)], 12)
