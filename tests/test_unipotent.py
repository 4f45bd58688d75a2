from fractions import Fraction
from types import SimpleNamespace

import pytest

from ellq.elliptic import elliptic_fake_degree, sgn_fake_degree, sq_pairing
from ellq.exactq import QPolynomial, RationalFunction, RF_Q, cyclotomic
from ellq.fourier import SUPPORTED_GAMMAS, _char_labels, _x_labels, small_group
from ellq.groups import permutation_group
from ellq.unipotent import (FIXTURES, G2_DATUM, SL2_DATUM, SP4_DATUM,
                            EllipticParameter, centralizer_order_in_gamma,
                            conj_equiv, conjecture_rhs, m_x, mx_for,
                            q_part_prediction, solve_marks)
from ellq.weylgrp import (CARTAN_PAIRING, EXPONENTS, GroupSpec, build_group, exponents_of,
                          rootsystem)


def phi(n):
    return RationalFunction(cyclotomic(n))


q = RF_Q


def test_root_data_sanity():
    assert G2_DATUM.positive_count == 6
    assert SP4_DATUM.positive_count == 4
    # e_alpha e_beta = e_{alpha+beta} on the semisimple part: linearity of the
    # pairing makes this automatic; spot check on G2
    import itertools
    v = (Fraction(1, 3), Fraction(1, 2))
    roots = set(G2_DATUM.roots)
    for a, b in itertools.product(G2_DATUM.roots, repeat=2):
        s = tuple(x + y for x, y in zip(a, b))
        if s in roots:
            assert (G2_DATUM.pair(a, v) + G2_DATUM.pair(b, v)) % 1 == G2_DATUM.pair(s, v) % 1


def test_marks_integrality_and_antisymmetry():
    for name, fixture in FIXTURES.items():
        fix = fixture()
        for s_label in fix.s_nodes:
            p = fix.parameter(s_label)
            data = p.root_data()
            # alpha(h) integral, and -alpha has the negated weight
            n = len(fix.datum.roots)
            for i, r in enumerate(fix.datum.roots):
                neg = tuple(-x for x in r)
                j = fix.datum.roots.index(neg)
                assert data[i][1] == -data[j][1]


def test_distinguished_equidimensionality():
    # dim g(0) = dim g(2) inside the centralizer subsystem for every fixture
    for name, fixture in FIXTURES.items():
        fix = fixture()
        for s_label in fix.s_nodes:
            p = fix.parameter(s_label)
            if name == "sp4-22" and s_label == "1":
                assert not p.is_elliptic()  # (2,2) alone is not distinguished
            else:
                assert p.is_elliptic(), (name, s_label)


def test_solve_marks_regular_g2():
    h = solve_marks(G2_DATUM, [(1, 0), (0, 1)])
    assert h == (Fraction(2), Fraction(2))


def test_mx_g2_subregular():
    r = mx_for("g2-a1", "1")
    assert r.value == q * (q - 1) ** 2 / (phi(2) ** 2 * phi(3))
    assert r.elliptic
    # two zero factors dropped upstairs (the two weight-zero roots), four
    # downstairs (weight -2 roots)
    assert (r.dropped_num, r.dropped_den) == (2, 4)


def test_mx_g2_regular():
    r = mx_for("g2-reg", "1")
    assert r.value == (q - 1) ** 2 * phi(5) / (phi(2) ** 2 * phi(3) * phi(6))


def test_mx_levi_cases():
    assert mx_for("g2-a1", "g2").value == q * (q - 1) ** 2 / (phi(2) ** 2 * phi(6))
    assert mx_for("g2-a1", "g3").value == q * (q - 1) ** 2 / (phi(3) * phi(6))


def test_mx_sl2():
    r = mx_for("a1-reg", "1")
    assert r.value == (q - 1) / (q + 1)
    assert r.raw_sign == -1  # positivity normalization flipped the sign


def test_mx_sp4():
    r = mx_for("sp4-22", "tau")
    assert r.value == 2 * q * (q - 1) ** 2 / (phi(2) ** 2 * phi(4))
    assert mx_for("sp4-4", "1").value == (q - 1) ** 2 * phi(3) / (phi(2) ** 2 * phi(4))


def test_mx_lands_in_q():
    # a parameter with cube roots of unity: the zeta parts must cancel exactly
    fix = FIXTURES["g2-a1"]()
    p = fix.parameter("g3")
    r = m_x(p)
    assert r.value.num.coeffs and r.value.den.coeffs


# s and h in fundamental-coweight coordinates; the root data are those of the
# euclidean s = 1/10, h = 0 and h = 1/2 of SL2
@pytest.mark.parametrize("h,data", [
    (Fraction(0), [(Fraction(1, 5), 0), (Fraction(4, 5), 0)]),
    (Fraction(1), [(Fraction(1, 5), 1), (Fraction(4, 5), -1)]),
], ids=["h0", "h1"])
def test_mx_rejects_a_value_outside_q(h, data):
    # alpha(s) = 1/5 on SL2: zeta_5 survives in the scalar or splits its Galois orbit
    p = EllipticParameter(SL2_DATUM, (Fraction(1, 5),), (h,))
    assert sorted(p.root_data()) == data
    with pytest.raises(ValueError):
        m_x(p)


def test_mx_rejects_a_split_galois_orbit():
    # both scalars are rational here, but the surviving cube roots of unity
    # are not a whole Galois orbit; euclidean s = (0, 1/6), h = (2, 2) on Sp4
    p = EllipticParameter(SP4_DATUM, (Fraction(-1, 6), Fraction(1, 3)),
                          (Fraction(0), Fraction(4)))
    assert sorted(p.root_data()) == [
        (Fraction(0), -4), (Fraction(0), 4), (Fraction(1, 6), 0), (Fraction(1, 6), 4),
        (Fraction(1, 3), 4), (Fraction(2, 3), -4), (Fraction(5, 6), -4), (Fraction(5, 6), 0)]
    with pytest.raises(ValueError, match="not whole Galois orbits"):
        m_x(p)


def test_mx_off_the_fixtures():
    # alpha(s) = 1/3, h = 0: q (zeta_3 - 1)(zeta_3^-1 - 1) / ((q zeta_3 - 1)(q zeta_3^-1 - 1))
    p = EllipticParameter(SL2_DATUM, (Fraction(1, 3),), (Fraction(0),))
    assert sorted(p.root_data()) == [(Fraction(1, 3), 0), (Fraction(2, 3), 0)]
    r = m_x(p)
    assert r.value == 3 * q / phi(3)
    assert r.raw_sign == 1


# the coweight of each fixture's s, typed in: order 2 at the long node of G2
# and at the short node of C2, order 3 at the short node of G2
FIXTURE_S = {("g2-a1", "g2"): (0, Fraction(1, 2)), ("g2-a1", "g3"): (Fraction(1, 3), 0),
             ("sp4-22", "tau"): (Fraction(1, 2), 0)}


def test_fixture_points_are_node_points():
    for name, fixture in FIXTURES.items():
        fix = fixture()
        theta = fix.datum.highest
        for s_label, j in fix.s_nodes.items():
            p = fix.parameter(s_label)
            if j is None:
                assert p.s == (0,) * fix.datum.rank
            else:
                assert p.s == FIXTURE_S[name, s_label]
                assert p.s[j] * theta[j] == 1
                # Z(s) is the pseudo-Levi of node j: its roots are those whose
                # alpha_j-coordinate is a multiple of the mark m_j
                assert p.centralizer_roots() == [r for r in fix.datum.roots
                                                 if r[j] % theta[j] == 0]


@pytest.mark.parametrize("family,order,classes", [("G2", 12, 6), ("F4", 1152, 25)])
def test_one_root_system_serves_both_sides(family, order, classes):
    phi = rootsystem(CARTAN_PAIRING[family], EXPONENTS[family])
    # the Weyl group side: W enumerated on the roots
    W = permutation_group(phi.generators, len(phi.roots))
    assert (W.order, len(W.conjugacy_classes())) == (order, classes)
    # the dual side: m_x of the regular parameter, s = 1, h = 2 rho^vee
    h = solve_marks(phi, phi.roots[:phi.rank])
    assert h == (2,) * phi.rank
    r = m_x(EllipticParameter(phi, (Fraction(0),) * phi.rank, h))
    assert r.elliptic
    assert r.value == sgn_fake_degree(EXPONENTS[family])


def test_conjecture_g2_identity_packet():
    fix = FIXTURES["g2-a1"]()
    a = q * (1 - q) ** 2 / (phi(2) ** 2 * phi(3))
    assert conjecture_rhs(fix, ("1", "1")) == a * Fraction(1, 6)
    assert conjecture_rhs(fix, ("1", "r")) == a * Fraction(1, 3)
    assert conjecture_rhs(fix, ("1", "eps")) == a * Fraction(1, 6)


def test_conjecture_g2_endoscopic_packets():
    fix = FIXTURES["g2-a1"]()
    c = q * (1 - q) ** 2 / (phi(3) * phi(6))
    for rho in ("1", "chi1", "chi2"):
        assert conjecture_rhs(fix, ("g3", rho)) == c * Fraction(1, 3)
    b = q * (1 - q) ** 2 / (phi(2) ** 2 * phi(6))
    for rho in ("1", "eps"):
        assert conjecture_rhs(fix, ("g2", rho)) == b * Fraction(1, 2)


def test_conjecture_fourier_dependence_through_dimension_only():
    # identity-component rows with the same character dimension coincide
    fix = FIXTURES["g2-a1"]()
    assert conjecture_rhs(fix, ("1", "1")) == conjecture_rhs(fix, ("1", "eps"))


def test_conjecture_sp4():
    fix = FIXTURES["sp4-22"]()
    zero = RationalFunction(QPolynomial.zero())
    assert conjecture_rhs(fix, ("1", "1")) == zero
    assert conjecture_rhs(fix, ("1", "eps")) == zero
    x = q * (1 - q) ** 2 / (phi(2) ** 2 * phi(4)) * Fraction(1, 2)
    assert conjecture_rhs(fix, ("tau", "1")) == x
    assert conjecture_rhs(fix, ("tau", "eps")) == x


def test_conj_equiv_matches_conjecture():
    fix = FIXTURES["g2-a1"]()
    assert conj_equiv(fix, "1", 1) == conjecture_rhs(fix, ("1", "1"))
    assert conj_equiv(fix, "1", 2) == conjecture_rhs(fix, ("1", "r"))
    assert conj_equiv(fix, "g2", 1) == conjecture_rhs(fix, ("g2", "1"))
    assert conj_equiv(fix, "g3", 1) == conjecture_rhs(fix, ("g3", "1"))
    sp = FIXTURES["sp4-22"]()
    assert conj_equiv(sp, "tau", 1) == conjecture_rhs(sp, ("tau", "1"))
    assert conj_equiv(sp, "1", 1).is_zero()


def test_q_part_predictions():
    fix = FIXTURES["g2-a1"]()
    assert q_part_prediction(fix, "1") == q * (1 - q) ** 2 / (phi(2) ** 2 * phi(3))
    assert q_part_prediction(fix, "g2") == q * (1 - q) ** 2 / (phi(2) ** 2 * phi(6))
    assert q_part_prediction(fix, "g3") == q * (1 - q) ** 2 / (phi(3) * phi(6))
    # both sides computed independently agree up to the sign convention
    sp = FIXTURES["sp4-22"]()
    assert abs(q_part_prediction(sp, "tau")) == mx_for("sp4-22", "tau").value
    reg = FIXTURES["sp4-4"]()
    assert abs(q_part_prediction(reg, "1")) == mx_for("sp4-4", "1").value


# The Springer modules H(B_u)^phi on the elliptic classes of the finite Weyl
# group, keyed by det(1 - q w): the values q_part_prediction once paired with
# 1/det(1 - q w) class by class.  G2: (3) -> phi(1,0) + phi(2,1), (21) -> the
# one-dimensional character with b = 3; Sp4 (2,2): +-[(1,1) x []], the signs
# matched to the printed fake degrees; the regular orbits give the sign.
SPRINGER_ELLIPTIC = {
    "g2-a1": (GroupSpec("G2", 2), {
        "1": {"q^2 - q + 1": 2, "q^2 + q + 1": 0, "q^2 + 2q + 1": -1},
        "r": {"q^2 - q + 1": -1, "q^2 + q + 1": 1, "q^2 + 2q + 1": -1}}),
    "g2-reg": (GroupSpec("G2", 2), {
        "1": {"q^2 - q + 1": 1, "q^2 + q + 1": 1, "q^2 + 2q + 1": 1}}),
    "sp4-22": (GroupSpec("B", 2), {
        "1": {"q^2 + 1": 1, "q^2 + 2q + 1": -1},
        "eps": {"q^2 + 1": -1, "q^2 + 2q + 1": 1}}),
    "sp4-4": (GroupSpec("B", 2), {"1": {"q^2 + 1": 1, "q^2 + 2q + 1": 1}}),
}


def _springer_values(W, by_charpoly):
    """A class function of W from its values on the elliptic classes, zero
    elsewhere; W(G2) and W(B2) have no two elliptic classes with one det(1 - q w)."""
    return [by_charpoly[str(c.char_poly)] if c.elliptic else 0 for c in W.classes()]


@pytest.mark.parametrize("name", sorted(SPRINGER_ELLIPTIC))
def test_fake_values_are_elliptic_fake_degrees_of_springer_modules(name):
    spec, springer = SPRINGER_ELLIPTIC[name]
    W, fix = build_group(spec), FIXTURES[name]()
    assert {x for x, _ in fix.fake_values} == {"1"}
    assert {phi for _, phi in fix.fake_values} == set(springer)
    assert sum(c.elliptic for c in W.classes()) == len(next(iter(springer.values())))
    for phi, by_charpoly in springer.items():
        assert elliptic_fake_degree(W, _springer_values(W, by_charpoly)) \
            == fix.fake_values[("1", phi)]


@pytest.mark.parametrize("name", sorted(SPRINGER_ELLIPTIC))
def test_q_part_prediction_matches_springer_pairing(name):
    # (1 - q)^l sq_pairing(W, sum_phi phi(s) H(B_u)^phi), class by class
    spec, springer = SPRINGER_ELLIPTIC[name]
    W, fix = build_group(spec), FIXTURES[name]()
    gamma = small_group(fix.gamma)
    table = gamma.character_table()
    rows = {lab: table.values[i] for i, lab in enumerate(_char_labels(table))}
    for j, s in enumerate(_x_labels(gamma)):
        values = [0] * len(W.classes())
        for phi, by_charpoly in springer.items():
            values = [a + rows[phi][j] * b
                      for a, b in zip(values, _springer_values(W, by_charpoly))]
        assert q_part_prediction(fix, s) == (1 - q) ** W.rank * sq_pairing(W, values)


def test_q_part_prediction_sign_in_odd_rank():
    # l = 1: with the sign character of W(A1), -1 on the reflection, as the
    # Springer-type entry, both routes give (q - 1)/(q + 1)
    W = build_group(GroupSpec("A", 1))
    values = [-1 if c.elliptic else 0 for c in W.classes()]
    sgn = sgn_fake_degree(exponents_of(GroupSpec("A", 1)))
    assert elliptic_fake_degree(W, values) == sgn
    fix = FIXTURES["a1-reg"]()._replace(fake_values={("1", "1"): sgn})
    assert q_part_prediction(fix, "1") == (1 - q) * sq_pairing(W, values) == (q - 1) / (q + 1)


def test_q_part_prediction_needs_a_springer_type_entry():
    fix = FIXTURES["a1-reg"]()
    assert fix.fake_values == {}
    with pytest.raises(ValueError, match="a1-reg"):
        q_part_prediction(fix, "1")


def test_packet_distinction():
    # distinct distinguished packets of Sp4 have distinct q-parts
    assert mx_for("sp4-4", "1").value != mx_for("sp4-22", "tau").value


def test_packet_common_q_part():
    # members of one packet share the q-part: the predicted values are
    # positive rational multiples of each other
    fix = FIXTURES["g2-a1"]()
    base = conjecture_rhs(fix, ("1", "1"))
    for rho, mult in (("r", 2), ("eps", 1)):
        assert conjecture_rhs(fix, ("1", rho)) == base * mult


@pytest.mark.parametrize("name", SUPPORTED_GAMMAS)
def test_centralizer_order_by_orbit_stabilizer(name):
    gamma = small_group(name)
    fix = SimpleNamespace(gamma=name)  # only the component group is read
    for label, c in zip(_x_labels(gamma), gamma.conjugacy_classes()):
        assert centralizer_order_in_gamma(fix, label) == len(gamma.centralizer(c.rep).elements)
