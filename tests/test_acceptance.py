"""Acceptance criteria, one test per numbered criterion, all exact.

Two published claims are provably wrong and are covered by strict xfail
tests with machine-checkable counter-certificates (see notes in the
repository's decision log):

* the linear independence of 1/det(1-qw) over elliptic classes fails for
  B5 and B6 (criterion 4's rank claim for those two groups);
* one entry of the printed affine 5x5 transform matrix contradicts the
  printed finite block and character table it is conjugated from
  (criterion 9's literal matrix comparison).

Everything else, including the mathematically meaningful parts of those two
criteria, passes exactly.
"""
import time
from fractions import Fraction

import pytest

from ellq.combinat import partitions_of, transpose
from ellq.exactq import (QPolynomial, RationalFunction, RF_ONE, RF_Q,
                         cyclotomic)
from ellq.weylgrp import GroupSpec, ProductWeyl, build_group, poincare_polynomial


def phi(n):
    return RationalFunction(cyclotomic(n))


q = RF_Q


def report(n, message):
    print(f"[criterion {n:>2}] PASS: {message}")


def test_criterion_01_cyc_table():
    t0 = time.monotonic()
    from ellq.elliptic import cyc_denominator
    from ellq.fixtures import cyc_table
    from ellq.weylgrp import EXPONENTS
    table = cyc_table()
    for name in ("G2", "F4", "E6", "E7", "E8"):
        assert cyc_denominator(EXPONENTS[name]) == table[name], name
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"criterion 1 must run in under a second, took {elapsed:.2f}s"
    report(1, f"cyc(W) denominators match for G2..E8 in {elapsed:.2f}s")


def test_criterion_02_closed_vs_definitional():
    t0 = time.monotonic()
    from ellq.elliptic import (bn_fake_closed, dn_fake_closed,
                               elliptic_fake_degree)
    for n in range(1, 6):
        W = build_group(GroupSpec("B", n))
        for lam in partitions_of(n):
            defn = elliptic_fake_degree(W, W.class_function_bipartition(lam, ()))
            assert defn == bn_fake_closed(lam), ("B", n, lam)
    for n in range(2, 7):
        W = build_group(GroupSpec("D", n))
        for lam in partitions_of(n):
            defn = elliptic_fake_degree(W, W.class_function_bipartition(lam, ()))
            assert defn == dn_fake_closed(lam), ("D", n, lam)
    for n in range(2, 9):
        W = build_group(GroupSpec("A", n - 1))
        f = elliptic_fake_degree(W, W.sign_values())
        assert f == (RF_ONE - q) ** n / (RF_ONE - q ** n), ("A", n)
    elapsed = time.monotonic() - t0
    assert elapsed < 120, f"criterion 2 exceeded two minutes: {elapsed:.1f}s"
    report(2, f"closed forms equal the definitional sums (B<=5, D<=6, A<=8) in {elapsed:.1f}s")


def test_criterion_03_gram_matrices():
    from ellq.elliptic import elliptic_pairing
    for n in range(1, 6):
        W = build_group(GroupSpec("B", n))
        vv = [W.class_function_bipartition(l, ()) for l in partitions_of(n)]
        for i in range(len(vv)):
            for j in range(len(vv)):
                assert elliptic_pairing(W, vv[i], vv[j]) == (1 if i == j else 0)
    for n in (2, 4, 6):
        W = build_group(GroupSpec("D", n))
        reps = [l for l in partitions_of(n) if l <= transpose(l)]
        for i, l in enumerate(reps):
            for j, m in enumerate(reps):
                g = elliptic_pairing(W, W.class_function_bipartition(l, ()),
                                     W.class_function_bipartition(m, ()))
                want = 0 if i != j else (2 if l == transpose(l) else 1)
                assert g == want, (n, l, m)
    report(3, "orthonormal basis for B_n (n<=5); diagonal 1/2 pattern for even D_n (n<=6)")


def test_criterion_04_independence_and_f4():
    from ellq.elliptic import independence_check
    rep = independence_check(GroupSpec("F4", 4))
    assert rep.n_elliptic == 9
    assert len(rep.coincident_pairs) == 1
    assert rep.coincident_pairs[0][2] == str(QPolynomial.of(1, 1, 0, 1, 1))
    results = {}
    for fam, rng in (("B", range(1, 7)), ("D", range(2, 7))):
        for n in rng:
            r = independence_check(GroupSpec(fam, n))
            results[f"{fam}{n}"] = r
    for key in ("B1", "B2", "B3", "B4", "D2", "D3", "D4", "D5", "D6"):
        assert results[key].independent, key
        assert results[key].rank == results[key].n_elliptic
    # B5 and B6 carry an exact integer dependency (see the xfail test below);
    # record the observed ranks so a change in behavior is caught
    assert (results["B5"].rank, results["B5"].n_elliptic) == (6, 7)
    assert (results["B6"].rank, results["B6"].n_elliptic) == (10, 11)
    report(4, "ranks equal the elliptic class counts except the documented "
              "B5/B6 dependencies; F4 shows exactly one coincident pair "
              "(q^3+1)(q+1) among 9 elliptic classes")


@pytest.mark.xfail(strict=True,
                   reason="published independence claim is false for B5/B6: "
                          "2/det(1-q w_(2,1,1,1)) - 3/det(1-q w_(3,1,1)) + "
                          "1/det(1-q w_(3,2)) = 0 is an exact integer "
                          "dependency (and its padded image in B6)")
def test_criterion_04_full_rank_claim_b5_b6():
    from ellq.elliptic import independence_check
    for n in (5, 6):
        rep = independence_check(GroupSpec("B", n))
        assert rep.rank == rep.n_elliptic, f"B{n}"


def test_criterion_05_fourier_matrices():
    t0 = time.monotonic()
    from ellq.fixtures import ft_z2_printed
    from ellq.fourier import fourier_matrix, m_set
    assert fourier_matrix("Z2").matrix == ft_z2_printed()
    assert len(m_set("S3")) == 8
    assert len(m_set("Z2")) == 4
    for name in ("S3", "S4", "S5", "Z2^2", "Z2^3"):
        fourier_matrix(name)  # symmetry, realness, involution checked exactly
    elapsed = time.monotonic() - t0
    assert elapsed < 5, f"criterion 5 exceeded five seconds: {elapsed:.1f}s"
    report(5, f"rank-one matrix matches print; S3/S4/S5/(Z2)^2/(Z2)^3 symmetric "
              f"involutions in {elapsed:.1f}s")


def test_criterion_06_g2_pipeline():
    t0 = time.monotonic()
    from ellq.fixtures import g2_formal_table_printed
    from ellq.report import DISCREPANCY, run_verify
    from ellq.unipotent import FIXTURES, conjecture_rhs, mx_for
    fix = FIXTURES["g2-a1"]()
    printed = dict((tuple(e), v) for e, v in g2_formal_table_printed())
    a = q * (1 - q) ** 2 / (phi(2) ** 2 * phi(3))
    c = q * (1 - q) ** 2 / (phi(3) * phi(6))
    for entry, coeff in [(("1", "1"), Fraction(1, 6)), (("1", "r"), Fraction(1, 3)),
                         (("1", "eps"), Fraction(1, 6))]:
        got = conjecture_rhs(fix, entry)
        assert got == a * coeff == printed[entry], entry
    for rho in ("1", "chi1", "chi2"):
        got = conjecture_rhs(fix, ("g3", rho))
        assert got == c * Fraction(1, 3) == printed[("g3", rho)]
    # the order-two packet: both pipelines produce Phi2^2, the print has Phi2
    computed = q * (1 - q) ** 2 / (2 * phi(2) ** 2 * phi(6))
    for rho in ("1", "eps"):
        got = conjecture_rhs(fix, ("g2", rho))
        assert got == computed
        assert got != printed[("g2", rho)]
    assert mx_for("g2-a1", "g2").value * Fraction(1, 2) == computed
    reports = run_verify("g2-formal")
    flagged = [r for r in reports if r.status == DISCREPANCY]
    assert {r.check_id for r in flagged} == {"g2-formal/(g2,1)", "g2-formal/(g2,eps)"}
    elapsed = time.monotonic() - t0
    assert elapsed < 5, f"criterion 6 exceeded five seconds: {elapsed:.1f}s"
    report(6, "identity and order-three packets match the published table; the "
              "order-two rows are reported as a discrepancy with the product "
              "formula agreeing with the transform side")


def test_criterion_07_sp4():
    from ellq.elliptic import bn_fake_closed
    from ellq.unipotent import FIXTURES, conjecture_rhs
    x = q * (1 - q) ** 2 / (phi(2) ** 2 * phi(4))
    closed = bn_fake_closed((1, 1))
    assert abs(closed) == x
    fix = FIXTURES["sp4-22"]()
    assert sorted(str(v) for v in fix.fake_values.values()) == \
        sorted([str(x), str(-x)])
    assert conjecture_rhs(fix, ("1", "1")).is_zero()
    assert conjecture_rhs(fix, ("1", "eps")).is_zero()
    assert conjecture_rhs(fix, ("tau", "1")) == x * Fraction(1, 2)
    assert conjecture_rhs(fix, ("tau", "eps")) == x * Fraction(1, 2)
    report(7, "Sp4 fake degrees recovered from the closed form; predictions are "
              "0, 0, and twice (1/2) q(1-q)^2/((1+q^2)(1+q)^2)")


def test_criterion_08_mx_subregular():
    from ellq.unipotent import mx_for
    r = mx_for("g2-a1", "1")
    assert r.value == q * (1 - q) ** 2 / (phi(2) ** 2 * phi(3))
    report(8, "product formula for the subregular identity packet equals "
              "q(1-q)^2/(Phi2^2 Phi3)")


def test_criterion_09_affine_g2():
    t0 = time.monotonic()
    from ellq.affine import (AffineDatum, G2_EF_AFFINE_PRINTED,
                             G2_EF_J0_PRINTED, g2_basis_values_canonical,
                             g2_conjectured_transform, g2_ef_affine_published_order,
                             g2_ef_j0_published_order, g2_mu_canonical)
    from ellq.report import DISCREPANCY, run_verify
    d = AffineDatum("G2")
    cls = d.elliptic_classes()
    assert len(cls) == 5
    assert [c.mu for c in cls] == g2_mu_canonical(d)
    assert sorted(c.mu for c in cls) == sorted(
        [Fraction(1, 6), Fraction(1, 6), Fraction(1, 12), Fraction(1, 4), Fraction(1, 3)])
    basis = g2_basis_values_canonical(d)
    for i in range(5):
        for j in range(5):
            assert d.elliptic_inner(basis[i], basis[j]) == (1 if i == j else 0)
    assert g2_ef_j0_published_order() == G2_EF_J0_PRINTED
    efa = g2_ef_affine_published_order()
    # the conjectured identity holds exactly: the matrix in the basis v1..v5
    # is the corresponding submatrix of the parameter-set transform
    assert efa == g2_conjectured_transform()
    diffs = [(i, j) for i in range(5) for j in range(5)
             if efa[i][j] != G2_EF_AFFINE_PRINTED[i][j]]
    assert diffs == [(2, 3)] and efa[2][3] == Fraction(-1, 3)
    reports = run_verify("g2-affine")
    assert any(r.status == DISCREPANCY and "ef-affine" in r.check_id for r in reports)
    assert not any(r.status == "FAIL" for r in reports)
    elapsed = time.monotonic() - t0
    assert elapsed < 10, f"criterion 9 exceeded ten seconds: {elapsed:.1f}s"
    report(9, "five classes with the published measures, orthonormal basis, "
              "printed finite block reproduced, and the 5x5 equals the "
              "transform submatrix; the single deviating printed entry is "
              "reported as a discrepancy")


@pytest.mark.xfail(strict=True,
                   reason="the published affine 5x5 has +1/3 at (v3,v4), but "
                          "conjugating the published finite block by the "
                          "published character table forces the symmetric "
                          "value -1/3 (which also matches the parameter-set "
                          "submatrix)")
def test_criterion_09_printed_matrix_verbatim():
    from ellq.affine import G2_EF_AFFINE_PRINTED, g2_ef_affine_published_order
    assert g2_ef_affine_published_order() == G2_EF_AFFINE_PRINTED


def test_criterion_10_generic_degrees():
    from ellq.affine import AffineDatum, g2_basis_values_canonical
    from ellq.fourier import generic_degree, plancherel_sum
    from ellq.unipotent import FIXTURES, conjecture_rhs
    groups = [build_group(GroupSpec("A", 1)),
              ProductWeyl([GroupSpec("A", 1), GroupSpec("A", 1)]),
              build_group(GroupSpec("A", 2)),
              build_group(GroupSpec("B", 2)),
              build_group(GroupSpec("G2", 2))]
    for W in groups:
        assert plancherel_sum(W) == RationalFunction(poincare_polynomial(W.exponents))
    assert generic_degree(build_group(GroupSpec("G2", 2)), "phi(1,6)") == q ** 6
    d = AffineDatum("G2")
    basis = g2_basis_values_canonical(d)
    fix = FIXTURES["g2-a1"]()
    # v2 pairs with the trivial member of the identity packet, v4 with the
    # order-three packet; the elliptic integral against nu reproduces both
    assert d.formal_degree(basis[1]) == \
        q * (1 - q) ** 2 / (6 * phi(2) ** 2 * phi(3)) == conjecture_rhs(fix, ("1", "1"))
    assert d.formal_degree(basis[3]) == \
        q * (1 - q) ** 2 / (3 * phi(3) * phi(6)) == conjecture_rhs(fix, ("g3", "1"))
    report(10, "Plancherel sums equal the Poincare polynomials for A1, A1xA1, "
               "A2, B2, G2; the affine integrals reproduce the published "
               "formal degrees")


def test_criterion_11_property_suites():
    t0 = time.monotonic()
    from ellq.combinat import (distinguished_partitions, g_poly, mn_character,
                               separates_component_group)
    from ellq.elliptic import elliptic_pairing, hook_content_pairing
    # exact character tables (orthogonality is verified at construction,
    # which raises on any failure) for every realized group in this suite
    specs = ([GroupSpec("A", n) for n in range(1, 6)]
             + [GroupSpec("B", n) for n in range(1, 5)]
             + [GroupSpec("D", n) for n in range(2, 5)]
             + [GroupSpec("G2", 2), GroupSpec("F4", 4)])
    for spec in specs:
        W = build_group(spec)
        tab = W.character_table()
        assert sum(d * d for d in tab.dims()) == W.order, spec
    # Murnaghan-Nakayama agreement with the tables, every entry, n <= 6
    for n in range(2, 7):
        W = build_group(GroupSpec("A", n - 1))
        for lab, row in zip(W.irrep_labels(), W.character_table().values):
            lam = tuple(eval(lab))
            for c, v in zip(W.classes(), row):
                assert mn_character(lam, c.signed_type[0]) == v
    # sign twist identity on all pairs of irreducibles
    for spec in [GroupSpec("A", 2), GroupSpec("B", 2), GroupSpec("B", 3),
                 GroupSpec("D", 3), GroupSpec("G2", 2)]:
        W = build_group(spec)
        sgn = W.sign_values()
        rows = W.character_table().values
        l = W.rank
        for r1 in rows:
            twisted = [x * s for x, s in zip(r1, sgn)]
            for r2 in rows:
                assert elliptic_pairing(W, twisted, r2) == \
                    (-1) ** l * elliptic_pairing(W, r1, r2)
    # hook-content bridge for n <= 5
    for n in range(1, 6):
        W = build_group(GroupSpec("B", n))
        for lam in partitions_of(n):
            assert hook_content_pairing(W, lam) == g_poly(lam, q ** 2, -q)
    # symbol separation in types C and D up to rank 8
    for kind in ("C", "D"):
        for n in range(1, 9):
            for u in distinguished_partitions(kind, n):
                assert separates_component_group(kind, u), (kind, u)
    elapsed = time.monotonic() - t0
    assert elapsed < 600, f"criterion 11 exceeded the suite bound: {elapsed:.1f}s"
    report(11, f"orthogonality, MN agreement, sign twist, hook-content bridge, "
               f"and symbol separation all hold exactly in {elapsed:.1f}s")
