import functools
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import ellq
from ellq.combinat import partitions_of, transpose
from ellq.elliptic import (VirtualCharacter, bn_fake_closed, cyc_denominator,
                           dn_fake_closed, elliptic_fake_degree,
                           elliptic_pairing, elliptic_pairing_chars,
                           hook_content_pairing, independence_check,
                           radical_check, sgn_fake_degree, sq_pairing)
from ellq.combinat import g_poly
from ellq.exactq import (QPolynomial, RationalFunction, RF_ONE, RF_Q,
                         cyclotomic, poly_gcd, rref)
from ellq.weylgrp import (EXPONENTS, GroupSpec, WeylGroupData, build_group,
                          h_class_function, induce_class_function,
                          parabolic_subgroup, poincare_polynomial)


def phi(n):
    return RationalFunction(cyclotomic(n))


def test_pairing_s2():
    W = build_group(GroupSpec("A", 1))
    sgn = W.sign_values()
    triv = W.trivial_values()
    assert elliptic_pairing(W, sgn, sgn) == 1
    assert elliptic_pairing(W, triv, sgn) == -1


def test_pairing_group_mismatch():
    a = VirtualCharacter(build_group(GroupSpec("A", 1)), [1, 1])
    b = VirtualCharacter(build_group(GroupSpec("B", 2)), [1] * 5)
    with pytest.raises(ValueError):
        elliptic_pairing_chars(a, b)
    with pytest.raises(ValueError, match="same group, not A1 and B2"):
        a + b
    with pytest.raises(ValueError, match="same group, not B2 and A1"):
        b - a


def test_bn_gram_orthonormal():
    for n in range(1, 6):
        W = build_group(GroupSpec("B", n))
        ps = partitions_of(n)
        vv = [W.class_function_bipartition(l, ()) for l in ps]
        for i in range(len(ps)):
            for j in range(len(ps)):
                assert elliptic_pairing(W, vv[i], vv[j]) == (1 if i == j else 0)


def test_dn_gram():
    for n in range(2, 7):
        W = build_group(GroupSpec("D", n))
        reps = [l for l in partitions_of(n) if l <= transpose(l)]
        for i, l in enumerate(reps):
            for j, m in enumerate(reps):
                g = elliptic_pairing(W, W.class_function_bipartition(l, ()),
                                     W.class_function_bipartition(m, ()))
                if n % 2 == 0:
                    want = 0 if i != j else (2 if l == transpose(l) else 1)
                else:
                    if l == transpose(l) or m == transpose(m):
                        want = 0
                    else:
                        want = 1 if i == j else 0
                assert g == want, (n, l, m, g)


def test_sign_twist_identity():
    for spec in [GroupSpec("A", 2), GroupSpec("B", 2), GroupSpec("B", 3),
                 GroupSpec("G2", 2), GroupSpec("D", 3)]:
        W = build_group(spec)
        tab = W.character_table()
        sgn = W.sign_values()
        l = W.rank
        for r1 in tab.values:
            twisted = [a * b for a, b in zip(r1, sgn)]
            for r2 in tab.values:
                assert elliptic_pairing(W, twisted, r2) == \
                    (-1) ** l * elliptic_pairing(W, r1, r2)


def test_a1_sign_fake_degree():
    W = build_group(GroupSpec("A", 1))
    f = elliptic_fake_degree(W, W.sign_values())
    assert f == (RF_ONE - RF_Q) ** 2 / (RF_ONE - RF_Q ** 2)


def test_b1_trivial_fake_degree():
    W = build_group(GroupSpec("B", 1))
    assert elliptic_fake_degree(W, W.trivial_values()) == (RF_Q - 1) / (RF_Q + 1)


def test_g2_sign_fake_degree():
    W = build_group(GroupSpec("G2", 2))
    f = elliptic_fake_degree(W, W.sign_values())
    assert f == (RF_Q - 1) ** 2 * phi(5) / (phi(2) ** 2 * phi(3) * phi(6))
    assert f == sgn_fake_degree(W.exponents)


def test_sgn_closed_form_type_a():
    for n in range(2, 9):
        f = sgn_fake_degree(tuple(range(1, n)))
        assert f == (RF_ONE - RF_Q) ** n / (RF_ONE - RF_Q ** n)


def test_sgn_closed_trivial_group():
    assert sgn_fake_degree(()) == RF_ONE


def test_cyc_denominators():
    assert cyc_denominator(EXPONENTS["G2"]) == {2: 2, 3: 1, 6: 1}
    assert cyc_denominator(EXPONENTS["E8"])[30] == 1


def test_closed_form_factored_divides_no_polynomial(monkeypatch):
    """bn_fake_closed carries its Phi-exponents, so factored() trial-divides
    only its residual numerator, a constant."""
    import ellq.exactq
    f = bn_fake_closed((10,))
    want = RationalFunction(f.num, f.den).factored()
    degrees = []

    def counting(p, *args, inner=ellq.exactq.factor_cyclotomic):
        degrees.append(p.degree)
        return inner(p, *args)
    monkeypatch.setattr(ellq.exactq, "factor_cyclotomic", counting)
    assert f.factored() == want
    assert degrees and max(degrees) <= 0


def test_factored_skips_the_phi_n_of_the_denominator(monkeypatch):
    """cyclotomic_quotient left the residual prime to every Phi_n of the
    denominator, so factored() does not try them: trying all of Phi_1 to
    Phi_30 that fit the residual's degree took 19 tries here."""
    import ellq.exactq
    f = dn_fake_closed((5, 3, 2))
    want = RationalFunction(f.num, f.den).factored()
    tried = []

    def recording(p, n, *args, inner=ellq.exactq.strip_phi):
        tried.append(n)
        return inner(p, n, *args)
    monkeypatch.setattr(ellq.exactq, "strip_phi", recording)
    assert f.factored() == want
    denominator = {n for n, e in f.phi_form[3].items() if e < 0}
    assert tried and not denominator & set(tried)
    assert len(tried) < 19


def test_bn_closed_examples():
    assert bn_fake_closed((1,)) == (RF_Q - 1) / (RF_Q + 1)
    assert bn_fake_closed((1, 1)) == -RF_Q * (RF_Q - 1) ** 2 / (phi(2) ** 2 * phi(4))
    assert bn_fake_closed((2,)) == (RF_Q - 1) ** 2 * phi(3) / (phi(2) ** 2 * phi(4))


def test_bn_closed_against_hook_series():
    for n in range(1, 8):
        for lam in partitions_of(n):
            want = (RF_Q - 1) ** n * g_poly(lam, RF_Q ** 2, -RF_Q)
            assert bn_fake_closed(lam) == want, lam


def test_class_functions_of_wrong_length_are_refused():
    W = build_group(GroupSpec("B", 3))
    sgn = W.sign_values()
    with pytest.raises(ValueError, match="has 10 values, not 2"):
        elliptic_fake_degree(W, [1, 1])
    with pytest.raises(ValueError, match="has 10 values, not 9"):
        elliptic_pairing(W, sgn, sgn[:-1])
    with pytest.raises(ValueError, match="has 10 values, not 9"):
        elliptic_pairing(W, sgn[1:], sgn)
    with pytest.raises(ValueError, match="has 10 values, not 3"):
        VirtualCharacter.from_coords(W, [1, 0, 0])
    with pytest.raises(ValueError, match="has 10 values, not 4"):
        VirtualCharacter(W, [1] * 4)


def test_closed_forms_need_no_gcd():
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ellq.__file__))}
    code = (
        "import ellq.exactq as exactq\n"
        "def refuse(*args):\n"
        "    raise AssertionError('poly_gcd called')\n"
        "exactq.poly_gcd = refuse\n"
        "from ellq.combinat import partitions_of\n"
        "from ellq.elliptic import (bn_fake_closed, cyc_denominator, dn_fake_closed,\n"
        "                           sgn_fake_degree)\n"
        "from ellq.weylgrp import EXPONENTS\n"
        "for lam in partitions_of(8):\n"
        "    bn_fake_closed(lam)\n"
        "    dn_fake_closed(lam)\n"
        "for name in ('G2', 'F4', 'E6', 'E7', 'E8'):\n"
        "    sgn_fake_degree(EXPONENTS[name])\n"
        "    cyc_denominator(EXPONENTS[name])\n"
        "from ellq.elliptic import elliptic_fake_degree\n"
        "from ellq.weylgrp import GroupSpec, build_group, fake_degree\n"
        "for t in ('A6', 'B5', 'D5', 'G2', 'F4'):\n"
        "    W = build_group(GroupSpec.parse(t))\n"
        "    for lab in W.irrep_labels():\n"
        "        fake_degree(W, lab)\n"
        "        elliptic_fake_degree(W, W.irrep_values(lab))\n"
        "print('ok')\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "ok"


def test_dn_closed_examples():
    assert dn_fake_closed((2,)) == (RF_Q - 1) ** 2 / phi(2) ** 2
    assert dn_fake_closed((2,)) == ((1 - RF_Q) / (1 + RF_Q)) ** 2
    # self-transpose partition, odd size: antisymmetry gives zero
    assert dn_fake_closed((2, 1)).is_zero()


def test_closed_vs_definitional_small():
    for n in range(1, 5):
        W = build_group(GroupSpec("B", n))
        for lam in partitions_of(n):
            defn = elliptic_fake_degree(W, W.class_function_bipartition(lam, ()))
            assert defn == bn_fake_closed(lam)
    for n in range(2, 5):
        W = build_group(GroupSpec("D", n))
        for lam in partitions_of(n):
            defn = elliptic_fake_degree(W, W.class_function_bipartition(lam, ()))
            assert defn == dn_fake_closed(lam)


def test_hook_content_bridge():
    for n in range(1, 6):
        W = build_group(GroupSpec("B", n))
        for lam in partitions_of(n):
            assert hook_content_pairing(W, lam) == g_poly(lam, RF_Q ** 2, -RF_Q)


def test_fake_degree_depends_only_on_elliptic_part():
    # adding an induced character leaves the elliptic fake degree unchanged
    W = build_group(GroupSpec("B", 2))
    H = parabolic_subgroup(W, [0])
    htab = H.character_table()
    base = W.class_function_bipartition((2,), ())
    f0 = elliptic_fake_degree(W, base)
    for hrow in htab.values:
        ind = induce_class_function(W, H, h_class_function(H, hrow))
        shifted = [a + 3 * b for a, b in zip(base, ind)]
        assert elliptic_fake_degree(W, shifted) == f0


def test_independence_small():
    rep = independence_check(GroupSpec("B", 4))
    assert rep.independent and rep.rank == 5
    rep = independence_check(GroupSpec("D", 6))
    assert rep.independent and rep.rank == 6
    rep = independence_check(GroupSpec("A", 4))
    assert rep.independent and rep.n_elliptic == 1


def test_independence_b5_dependency():
    # an exact integer dependency exists; the published independence claim
    # fails for this group (see the decisions notes)
    rep = independence_check(GroupSpec("B", 5))
    assert not rep.independent
    assert rep.rank == 6 and rep.n_elliptic == 7
    assert len(rep.dependencies) == 1
    combo, _ = rep.dependencies[0]
    # verify the certificate directly: sum c_i / det(1 - q w_i) = 0
    W = build_group(GroupSpec("B", 5))
    total = RationalFunction(QPolynomial.zero())
    for c, i in zip(combo, W.elliptic_classes()):
        total = total + RationalFunction(QPolynomial.of(c)) \
            / RationalFunction(W.classes()[i].char_poly)
    assert total.is_zero()


# The Fraction route independence_check took before its rank was certified
# modulo a prime: the functions put over the lcm of the char polys, and the
# rows of their numerators row-reduced over Q, the left kernel read off the
# transform and scaled by the lcm of its denominators.
def independence_by_rref(spec):
    W = build_group(spec)
    charpolys = [W.classes()[i].char_poly for i in W.elliptic_classes()]
    lcm = functools.reduce(lambda a, b: a * (b // poly_gcd(a, b)), charpolys, QPolynomial.one())
    rows = [[num.coeff(i) for i in range(lcm.degree + 1)]
            for num in (lcm // cp for cp in charpolys)]
    _, rank, transform = rref(rows)
    return rank, [tuple(int(c * math.lcm(*(x.denominator for x in combo))) for c in combo)
                  for combo in transform[rank:]]


@pytest.mark.parametrize("spec", [*(f"B{n}" for n in range(1, 7)), *(f"D{n}" for n in range(2, 7)),
                                  *(f"A{n}" for n in range(1, 8)), "G2", "F4"])
def test_independence_matches_the_fraction_route(spec):
    spec = GroupSpec.parse(spec)
    rep = independence_check(spec)
    assert (rep.rank, [vec for vec, _ in rep.dependencies]) == independence_by_rref(spec)


def test_independence_past_the_enumeration_bound(monkeypatch):
    """B7-B10 and D7-D10 on their closed-form classes, with the bound kept:
    W is built without the refusal, and never enumerated."""
    import ellq.elliptic
    monkeypatch.setattr(ellq.elliptic, "build_group", lambda spec: WeylGroupData(spec, None, None))
    ranks = {"B7": (12, 15), "B8": (16, 22), "B9": (19, 30), "B10": (25, 42),
             "D7": (7, 7), "D8": (12, 12), "D9": (13, 14), "D10": (20, 22)}
    for name, expect in ranks.items():
        rep = independence_check(GroupSpec.parse(name))
        assert (rep.rank, rep.n_elliptic) == expect, name
        assert len(rep.dependencies) == rep.n_elliptic - rep.rank
    # D9's one dependency, the first in type D
    [(vec, types)] = independence_check(GroupSpec("D", 9)).dependencies
    assert {t: c for c, t in zip(vec, types) if c} == {
        "((), (4, 1, 1, 1, 1, 1))": 1, "((), (2, 2, 2, 1, 1, 1))": 2,
        "((), (3, 2, 1, 1, 1, 1))": -3, "((), (3, 2, 2, 2))": 1,
        "((), (4, 2, 2, 1))": -3, "((), (4, 3, 1, 1))": 2}


def test_f4_coincident_pair():
    rep = independence_check(GroupSpec("F4", 4))
    assert rep.n_elliptic == 9
    assert len(rep.coincident_pairs) == 1
    assert rep.coincident_pairs[0][2] == str(QPolynomial.of(1, 1, 0, 1, 1))


def test_radical_b2_g2():
    r = radical_check(build_group(GroupSpec("B", 2)))
    assert r.gram_rank == 2 == r.n_elliptic and r.induced_in_radical
    r = radical_check(build_group(GroupSpec("G2", 2)))
    assert r.gram_rank == 3 == r.n_elliptic and r.induced_in_radical


def test_radical_b3():
    r = radical_check(build_group(GroupSpec("B", 3)))
    assert r.gram_rank == 3 == r.n_elliptic and r.induced_in_radical


def test_elliptic_frobenius_d3_in_b3():
    # the defining reflection representation is shared, so the elliptic
    # pairing satisfies reciprocity for the index-two reflection subgroup
    import random
    from ellq.weylgrp import signed_cycle_type
    rng = random.Random(7)
    B = build_group(GroupSpec("B", 3))
    e = [1, -3, -2]
    H = B.group.subgroup([B.group.generators[0], B.group.generators[1], ellq.weylgrp.signed_perm(e)])
    assert H.order == 24
    htab = H.character_table()
    btab = B.character_table()

    def elliptic_pairing_h(f, g):
        total = Fraction(0)
        for c, a, b in zip(H.conjugacy_classes(), f, g):
            # det(1 - w) = prod (1 - 1^r) (1 + 1^r) over the positive and negative cycles
            pos, neg = signed_cycle_type(c.rep)
            det1 = 0 if pos else 2 ** len(neg)
            total += Fraction(c.size) * Fraction(a) * Fraction(b) * det1
        return total / H.order

    for _ in range(100):
        i = rng.randrange(len(htab.values))
        j = rng.randrange(len(btab.values))
        hrow = htab.values[i]
        brow = btab.values[j]
        ind = induce_class_function(B, H, h_class_function(H, hrow))
        lhs = elliptic_pairing(B, ind, brow)
        res = [brow[B.group.class_of(c.rep)] for c in H.conjugacy_classes()]
        rhs = elliptic_pairing_h(hrow, res)
        assert lhs == rhs


# -- the elliptic sums read only the elliptic classes --

def _class_kernel_route(W, values, phi1):
    """sum chi(C) det(1 - w_C) K_C Phi_1^phi1 / ((-1)^l |W| P(q)) over every
    class, K_C = |C| prod (1 - q^{d_i}) / det(1 - q w_C) by polynomial
    division, reduced by gcd: the full class-kernel route that the elliptic
    columns replace."""
    top = QPolynomial.one()
    for m in W.exponents:
        top = top * (QPolynomial.one() - QPolynomial.monomial(m + 1))
    num = QPolynomial.zero()
    for v, c in zip(values, W.classes()):
        kernel, rem = divmod(top, c.char_poly)
        assert rem.is_zero()
        num = num + kernel * (v * c.det1 * c.size)
    den = poincare_polynomial(W.exponents) * ((-1) ** W.rank * W.order)
    q1 = QPolynomial.of(-1, 1)
    return RationalFunction(num * q1 ** max(phi1, 0), den * q1 ** max(-phi1, 0))


_ELLIPTIC_SPECS = ([GroupSpec("G2", 2), GroupSpec("F4", 4)]
                   + [GroupSpec("A", n) for n in range(1, 7)]
                   + [GroupSpec("B", n) for n in range(2, 6)]
                   + [GroupSpec("D", n) for n in (4, 5)])


@pytest.mark.parametrize("spec", _ELLIPTIC_SPECS, ids=str)
def test_elliptic_sums_match_the_class_kernel_route(spec):
    W = build_group(spec)
    for row in W.character_table().values:
        for fn, phi1 in ((elliptic_fake_degree, 0), (sq_pairing, -W.rank)):
            got, want = fn(W, row), _class_kernel_route(W, row, phi1)
            assert got.to_json() == want.to_json(), (spec, row, fn.__name__)
            assert got.factored() == want.factored(), (spec, row, fn.__name__)


def test_elliptic_sum_reads_only_the_elliptic_classes():
    W = build_group(GroupSpec("B", 4))
    row = W.character_table().values[3]
    ell = set(W.elliptic_classes())
    poisoned = [v if i in ell else object() for i, v in enumerate(row)]
    assert elliptic_fake_degree(W, poisoned) == elliptic_fake_degree(W, row)
    assert sq_pairing(W, poisoned) == sq_pairing(W, row)


_TAMPER_FACTORS = """
import sys
from ellq import weylgrp
from ellq.exactq import QPolynomial
from ellq.weylgrp import GroupSpec, build_group
tamper = QPolynomial.from_json(sys.argv[1:])
untampered = weylgrp.char_poly_matrix
weylgrp.char_poly_matrix = lambda m: untampered(m) * tamper
build_group(GroupSpec("G2", 2)).classes()
"""


def test_matrix_classes_refuse_a_det_not_plus_minus_prod_phi_under_python_o():
    """The factorisation check of each G2 or F4 det(1 - qw) is a raise, not an
    assert: python -O still refuses a scalar 2, a power of q, a Phi_n with n
    not dividing the element order (Phi_3 at the identity) and a remainder."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ellq.__file__))}
    for tamper in (["2"], ["0", "1"], ["1", "1", "1"], ["1", "2"]):
        out = subprocess.run([sys.executable, "-O", "-c", _TAMPER_FACTORS, *tamper], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 1, tamper
        assert "RuntimeError: det(1 - qw) = " in out.stderr, tamper
        assert "not +-prod Phi_n, n | 1" in out.stderr, tamper
