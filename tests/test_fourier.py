import os
import subprocess
import sys
from fractions import Fraction

import pytest

import ellq
from ellq import fourier
from ellq.cyclo import CycNum, ring_terms
from ellq.exactq import RationalFunction, RF_ONE, RF_Q, cyclotomic
from ellq.fixtures import ft_z2_printed
from ellq.fourier import (SUPPORTED_GAMMAS, FourierBlock, _check_block, _x_labels,
                          ef_induction_check, ef_map, ef_matrix, families_for,
                          fourier_matrix, generic_degree, m_set, plancherel_sum,
                          small_group, special_column_entry, xw_pairing)
from ellq.weylgrp import GroupSpec, ProductWeyl, build_group, poincare_polynomial


def phi(n):
    return RationalFunction(cyclotomic(n))


def test_m_set_sizes():
    assert len(m_set("trivial")) == 1
    assert len(m_set("Z2")) == 4
    assert len(m_set("S3")) == 8
    assert len(m_set("S4")) == 21
    assert len(m_set("S5")) == 39
    assert len(m_set("Z2^2")) == 16
    assert len(m_set("Z2^3")) == 64
    assert len(m_set("Z2^4")) == 256


def _primed(base, count):
    return [base + "'" * i for i in range(count)]


# (representative as a tuple of images, size, element order) of each class of
# Gamma, the class labels and the labels of M(Gamma), recorded when Gamma's
# elements were tuples: the element key fixes all three.  Z2^k has 2^k
# central classes, each with the 2^k characters of Z2^k.
GAMMA_CLASSES = {
    "trivial": [((0,), 1, 1)],
    "Z2": [((0, 1), 1, 1), ((1, 0), 1, 2)],
    "Z2^2": [((0, 1, 2, 3), 1, 1), ((0, 1, 3, 2), 1, 2), ((1, 0, 2, 3), 1, 2),
             ((1, 0, 3, 2), 1, 2)],
    "Z2^3": [((0, 1, 2, 3, 4, 5), 1, 1), ((0, 1, 2, 3, 5, 4), 1, 2),
             ((0, 1, 3, 2, 4, 5), 1, 2), ((0, 1, 3, 2, 5, 4), 1, 2),
             ((1, 0, 2, 3, 4, 5), 1, 2), ((1, 0, 2, 3, 5, 4), 1, 2),
             ((1, 0, 3, 2, 4, 5), 1, 2), ((1, 0, 3, 2, 5, 4), 1, 2)],
    "Z2^4": [((0, 1, 2, 3, 4, 5, 6, 7), 1, 1), ((0, 1, 2, 3, 4, 5, 7, 6), 1, 2),
             ((0, 1, 2, 3, 5, 4, 6, 7), 1, 2), ((0, 1, 2, 3, 5, 4, 7, 6), 1, 2),
             ((0, 1, 3, 2, 4, 5, 6, 7), 1, 2), ((0, 1, 3, 2, 4, 5, 7, 6), 1, 2),
             ((0, 1, 3, 2, 5, 4, 6, 7), 1, 2), ((0, 1, 3, 2, 5, 4, 7, 6), 1, 2),
             ((1, 0, 2, 3, 4, 5, 6, 7), 1, 2), ((1, 0, 2, 3, 4, 5, 7, 6), 1, 2),
             ((1, 0, 2, 3, 5, 4, 6, 7), 1, 2), ((1, 0, 2, 3, 5, 4, 7, 6), 1, 2),
             ((1, 0, 3, 2, 4, 5, 6, 7), 1, 2), ((1, 0, 3, 2, 4, 5, 7, 6), 1, 2),
             ((1, 0, 3, 2, 5, 4, 6, 7), 1, 2), ((1, 0, 3, 2, 5, 4, 7, 6), 1, 2)],
    "S3": [((0, 1, 2), 1, 1), ((1, 2, 0), 2, 3), ((0, 2, 1), 3, 2)],
    "S4": [((0, 1, 2, 3), 1, 1), ((1, 0, 3, 2), 3, 2), ((0, 1, 3, 2), 6, 2),
           ((1, 2, 3, 0), 6, 4), ((0, 2, 3, 1), 8, 3)],
    "S5": [((0, 1, 2, 3, 4), 1, 1), ((0, 1, 2, 4, 3), 10, 2), ((0, 2, 1, 4, 3), 15, 2),
           ((0, 1, 3, 4, 2), 20, 3), ((1, 0, 3, 4, 2), 20, 6), ((1, 2, 3, 4, 0), 24, 5),
           ((0, 2, 3, 4, 1), 30, 4)],
}
X_LABELS = {
    "trivial": ["1"],
    "Z2": ["1", "tau"],
    "Z2^2": ["1", "g2", "g2'", "g2''"],
    "Z2^3": ["1"] + _primed("g2", 7),
    "Z2^4": ["1"] + _primed("g2", 15),
    "S3": ["1", "g3", "g2"],
    "S4": ["1", "g2", "g2'", "g4", "g3"],
    "S5": ["1", "g2", "g2'", "g3", "g6", "g5", "g4"],
}
M_SET_LABELS = {
    "trivial": [("1", "1")],
    "Z2": [("1", "1"), ("1", "eps"), ("tau", "1"), ("tau", "eps")],
    "Z2^2": [("1", "1"), ("1", "eps"), ("1", "eps'"), ("1", "eps''"), ("g2", "1"),
             ("g2", "eps"), ("g2", "eps'"), ("g2", "eps''"), ("g2'", "1"), ("g2'", "eps"),
             ("g2'", "eps'"), ("g2'", "eps''"), ("g2''", "1"), ("g2''", "eps"),
             ("g2''", "eps'"), ("g2''", "eps''")],
    "Z2^3": [(x, c) for x in ["1"] + _primed("g2", 7)
             for c in ["1"] + _primed("eps", 7)],
    "Z2^4": [(x, c) for x in ["1"] + _primed("g2", 15)
             for c in ["1"] + _primed("eps", 15)],
    "S3": [("1", "1"), ("1", "eps"), ("1", "r"), ("g3", "1"), ("g3", "chi1"), ("g3", "chi2"),
           ("g2", "1"), ("g2", "eps")],
    "S4": [("1", "1"), ("1", "eps"), ("1", "r"), ("1", "chi1"), ("1", "chi2"), ("g2", "1"),
           ("g2", "eps"), ("g2", "eps'"), ("g2", "eps''"), ("g2", "r"), ("g2'", "1"),
           ("g2'", "eps"), ("g2'", "eps'"), ("g2'", "eps''"), ("g4", "1"), ("g4", "chi1"),
           ("g4", "chi2"), ("g4", "eps"), ("g3", "1"), ("g3", "chi1"), ("g3", "chi2")],
    "S5": [("1", "1"), ("1", "eps"), ("1", "chi1"), ("1", "chi2"), ("1", "chi3"),
           ("1", "chi4"), ("1", "chi5"), ("g2", "1"), ("g2", "eps"), ("g2", "eps'"),
           ("g2", "eps''"), ("g2", "chi1"), ("g2", "chi2"), ("g2'", "1"), ("g2'", "eps"),
           ("g2'", "eps'"), ("g2'", "eps''"), ("g2'", "r"), ("g3", "1"), ("g3", "eps"),
           ("g3", "chi1"), ("g3", "chi2"), ("g3", "chi3"), ("g3", "chi4"), ("g6", "1"),
           ("g6", "eps"), ("g6", "chi1"), ("g6", "chi2"), ("g6", "chi3"), ("g6", "chi4"),
           ("g5", "1"), ("g5", "chi1"), ("g5", "chi2"), ("g5", "chi3"), ("g5", "chi4"),
           ("g4", "1"), ("g4", "chi1"), ("g4", "chi2"), ("g4", "eps")],
}


@pytest.mark.parametrize("name", SUPPORTED_GAMMAS)
def test_gamma_classes_and_labels_pinned(name):
    gamma = small_group(name)
    assert [(tuple(c.rep), c.size, c.order)
            for c in gamma.conjugacy_classes()] == GAMMA_CLASSES[name]
    assert _x_labels(gamma) == X_LABELS[name]
    assert [p.label for p in m_set(name)] == M_SET_LABELS[name]


def test_one_dixon_table_per_distinct_group():
    """Z2^3 is abelian, so every centralizer is Z2^3 itself: one table."""
    code = ("from ellq import groups\n"
            "calls = []\n"
            "dixon = groups._dixon_table\n"
            "groups._dixon_table = lambda g: calls.append(g) or dixon(g)\n"
            "from ellq.fourier import m_set\n"
            "assert len(m_set('Z2^3')) == 64\n"
            "print(len(calls))\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ellq.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "1"


def test_unsupported_group():
    with pytest.raises(ValueError):
        small_group("S6")


def test_z2_matrix_printed():
    assert fourier_matrix("Z2").matrix == ft_z2_printed()


def test_s3_entries():
    b = fourier_matrix("S3")
    assert b.entry(("1", "1"), ("1", "1")) == Fraction(1, 6)
    assert b.entry(("1", "1"), ("1", "r")) == Fraction(1, 3)
    assert b.entry(("g2", "1"), ("1", "r")) == 0
    assert b.entry(("g3", "1"), ("1", "r")) == Fraction(-1, 3)
    assert b.entry(("g2", "1"), ("g2", "1")) == Fraction(1, 2)
    assert b.entry(("g3", "1"), ("g3", "1")) == Fraction(2, 3)


def test_blocks_are_symmetric_involutions():
    # symmetry, realness and the involution property are asserted at
    # construction time; exercise every supported group
    for name in ("trivial", "Z2", "Z2^2", "Z2^3", "S3", "S4", "S5"):
        fourier_matrix(name)


def _lift(v, m) -> CycNum:
    if isinstance(v, CycNum):
        scale = m // v.m
        return CycNum(m, {(k * scale) % m: c for k, c in v.c.items()})
    return CycNum.rational(m, v)


def _definitional_entries(name, x_labels=None):
    """Reference route: the defining sum over every g in Gamma, one CycNum
    product per step, for each pair of pairs a <= b whose group elements are
    labelled in x_labels (all when None).  Returns {(a, b): entry}."""
    gamma = small_group(name)
    pairs = m_set(name)
    classes = gamma.conjugacy_classes()
    cents = [gamma.centralizer(c.rep) for c in classes]
    tables = [c.character_table() for c in cents]
    m = gamma.exponent()
    mult, inv = gamma.mult, gamma.inv
    chosen = [a for a, p in enumerate(pairs) if x_labels is None or p.label[0] in x_labels]
    out = {}
    for a in chosen:
        pa = pairs[a]
        x = classes[pa.x_class].rep
        cx, tx = cents[pa.x_class], tables[pa.x_class]
        for b in chosen:
            if b < a:
                continue
            pb = pairs[b]
            y = classes[pb.x_class].rep
            cy, ty = cents[pb.x_class], tables[pb.x_class]
            total = CycNum.zero(m)
            for g in gamma.elements:
                u = mult(mult(g, y), inv(g))
                if mult(x, u) != mult(u, x):
                    continue
                v = mult(mult(inv(g), x), g)
                sa = _lift(tx.values[pa.char_index][cx.class_of(u)], m)
                tb = _lift(ty.values[pb.char_index][cy.class_of(v)], m)
                total = total + sa * tb.conj()
            scale = Fraction(1, cx.order * cy.order)
            out[a, b] = total.as_rational() * scale if total.is_rational() else total * scale
    return out


@pytest.mark.parametrize("name,x_labels", [("S3", None), ("S4", None),
                                           ("S5", ("g5", "g6"))])
def test_entries_match_definitional_sum(name, x_labels):
    entries = _definitional_entries(name, x_labels)
    if name == "S5":
        assert len({a for a, _ in entries}) == 11
    block = fourier_matrix(name)
    for (a, b), ref in entries.items():
        for got in (block.matrix[a][b], block.matrix[b][a]):
            assert type(got) is type(ref)
            assert got == ref
            assert repr(got) == repr(ref)


@pytest.mark.parametrize("name", ["Z2", "Z2^2", "Z2^3"])
def test_abelian_entries_closed_form(name):
    # for abelian Gamma, C(x) = Gamma and {(x,sigma),(y,tau)} = sigma(y) tau(x) / |Gamma|
    # (the characters of Z2^k are real)
    gamma = small_group(name)
    classes = gamma.conjugacy_classes()
    cents = [gamma.centralizer(c.rep) for c in classes]
    tables = [c.character_table() for c in cents]
    block = fourier_matrix(name)
    for pa, row in zip(block.pairs, block.matrix):
        x = classes[pa.x_class].rep
        for pb, v in zip(block.pairs, row):
            y = classes[pb.x_class].rep
            sigma_y = tables[pa.x_class].values[pa.char_index][cents[pa.x_class].class_of(y)]
            tau_x = tables[pb.x_class].values[pb.char_index][cents[pb.x_class].class_of(x)]
            assert v == Fraction(sigma_y * tau_x, gamma.order)


def _tampered(name, *positions, add=1):
    """A copy of the block of Gamma with `add` (an int, or pairs (k, c) of
    Z[Z/m]) added at each position of the integer matrix N = D M, the
    matrix _check_block checks."""
    block = fourier_matrix(name)
    mat = [row[:] for row in block.scaled]
    for i, j in positions:
        v = mat[i][j]
        if type(v) is type(add) is int:
            mat[i][j] = v + add
        else:
            mat[i][j] = tuple(ring_terms(v, block.conductor) if type(v) is int else v) + (
                ring_terms(add, block.conductor) if type(add) is int else add)
    return FourierBlock(block.gamma_name, block.pairs, block.matrix, block.conductor, mat,
                        block.scale)


def test_check_block_rejects_asymmetric_s3():
    _check_block(_tampered("S3"))
    with pytest.raises(RuntimeError, match="not symmetric"):
        _check_block(_tampered("S3", (0, 1)))


def test_check_block_rejects_non_involution_s3():
    with pytest.raises(RuntimeError, match="not an involution"):
        _check_block(_tampered("S3", (0, 1), (1, 0)))


def _irrational_s5_entry():
    block = fourier_matrix("S5")
    return next((i, j) for i, row in enumerate(block.matrix)
                for j, v in enumerate(row) if i < j and isinstance(v, CycNum))


def test_check_block_rejects_non_involution_s5_irrational():
    i, j = _irrational_s5_entry()
    _check_block(_tampered("S5"))
    with pytest.raises(RuntimeError, match="not an involution"):
        _check_block(_tampered("S5", (i, j), (j, i)))


@pytest.mark.parametrize("k", [1, 12, 15, 20])
def test_check_block_rejects_non_real_s5_irrational(k):
    # the same zeta_60^k at (i, j) and (j, i) keeps N symmetric but not real
    i, j = _irrational_s5_entry()
    assert fourier_matrix("S5").conductor == 60
    with pytest.raises(RuntimeError, match="not real"):
        _check_block(_tampered("S5", (i, j), (j, i), add=((k, 1),)))


def test_check_block_compares_mixed_entries_in_the_field():
    # an irrational entry against an int, or against another irrational one
    i, j = _irrational_s5_entry()
    with pytest.raises(RuntimeError, match="not symmetric"):
        _check_block(_tampered("S5", (i, j), add=((12, 1),)))
    with pytest.raises(RuntimeError, match="not symmetric"):
        _check_block(_tampered("S3", (0, 1), add=((1, 1),)))
    with pytest.raises(RuntimeError, match="not real"):
        _check_block(_tampered("S3", (0, 1), (1, 0), add=((1, 1),)))
    # zeta_6 + zeta_6^5 = 1: the same value written two ways is symmetric
    block = _tampered("S3", (0, 1), add=((1, 1), (5, 1), (0, -1)))
    _check_block(block)


@pytest.mark.parametrize("width", [1, 2, 5, 8, 17, 30])
def test_check_block_slots_are_wide_enough(width):
    # N = D I + v v^T, v = (2^width, -1), has N N = D^2 I + u v v^T, u > 0:
    # not an involution, yet with slots of `width` bits every row of N N
    # packs to D^2 in its own slot
    d, big = 4, 1 << width
    n_mat = [[d + big * big, -big], [-big, d + 1]]
    square = [[sum(a * b for a, b in zip(row, col)) for col in zip(*n_mat)] for row in n_mat]
    assert square != [[d * d, 0], [0, d * d]]
    for p, row in enumerate(square):
        assert row[0] + (row[1] << width) == d * d << width * p
    z2 = fourier_matrix("Z2")
    block = FourierBlock(z2.gamma_name, z2.pairs, z2.matrix, z2.conductor, n_mat, d)
    with pytest.raises(RuntimeError, match="not an involution"):
        _check_block(block)


def test_check_block_reads_the_integer_matrix():
    # N = |Gamma|^2 M: ints where M is rational, reduced Z[Z/m] pairs elsewhere
    for name in ("S3", "S5", "Z2^3"):
        block = fourier_matrix(name)
        d = small_group(name).order ** 2
        assert block.scale == d
        for row, nrow in zip(block.matrix, block.scaled):
            for v, nv in zip(row, nrow):
                if isinstance(v, Fraction):
                    assert type(nv) is int and nv == v * d
                else:
                    assert [c for _, c in nv] and all(type(c) is int for _, c in nv)
                    assert CycNum(block.conductor, dict(nv)) == v * d


def test_block_index_lookup():
    block = fourier_matrix("S4")
    for i, p in enumerate(block.pairs):
        assert block.index(p.label) == i
        assert block.index(list(p.label)) == i
    with pytest.raises(KeyError, match="no pair"):
        block.index(("g7", "1"))


def test_s5_has_exact_irrational_entries():
    b = fourier_matrix("S5")
    assert not b.is_rational()
    irr = [(p1.label, p2.label) for p1, row in zip(b.pairs, b.matrix)
           for p2, v in zip(b.pairs, row) if not isinstance(v, Fraction)]
    # only pairs of order-5 and order-6 elements produce them
    assert irr and all(a[0] in ("g5", "g6") and b_[0] in ("g5", "g6")
                       for a, b_ in irr)


def test_special_column_formula():
    assert special_column_entry("S3", ("g3", "1"), ("1", "r")) == Fraction(-1, 3)
    assert special_column_entry("S3", ("g2", "1"), ("1", "1")) == Fraction(1, 2)
    b = fourier_matrix("S3")
    for p in b.pairs:
        for p1 in b.pairs:
            if p1.label[0] != "1":
                continue
            assert special_column_entry("S3", p.label, p1.label) == b.entry(p.label, p1.label)
    # {(1,sigma),(1,tau)} = dim sigma dim tau / |Gamma|
    assert b.entry(("1", "r"), ("1", "r")) == Fraction(4, 6)


def test_families_partition():
    g2 = build_group(GroupSpec("G2", 2))
    fams = families_for(g2)
    members = [m for f in fams for m in f.members]
    assert sorted(members) == sorted(g2.irrep_labels())
    assert {len(f.members) for f in fams} == {1, 4}
    b2 = build_group(GroupSpec("B", 2))
    fams = families_for(b2)
    assert {len(f.members) for f in fams} == {1, 3}
    a3 = build_group(GroupSpec("A", 3))
    assert all(len(f.members) == 1 for f in families_for(a3))
    for f in fams:
        assert list(f.embedding) == f.members


# the family partitions as (members, Gamma, embedding), in order: a reference
# typed apart from the family data, which holds only families of more than
# one member and derives the singletons
FAMILY_PARTITIONS = {
    ("G2", 2): [
        (["phi(1,0)"], "trivial", {"phi(1,0)": ("1", "1")}),
        (["phi(1,6)"], "trivial", {"phi(1,6)": ("1", "1")}),
        (["phi(2,1)", "phi(2,2)", "phi(1,3)'", "phi(1,3)''"], "S3",
         {"phi(2,1)": ("1", "1"), "phi(2,2)": ("g2", "1"), "phi(1,3)'": ("g3", "1"),
          "phi(1,3)''": ("1", "r")}),
    ],
    ("B", 1): [
        (["[1]x[]"], "trivial", {"[1]x[]": ("1", "1")}),
        (["[]x[1]"], "trivial", {"[]x[1]": ("1", "1")}),
    ],
    ("B", 2): [
        (["[2]x[]"], "trivial", {"[2]x[]": ("1", "1")}),
        (["[]x[1, 1]"], "trivial", {"[]x[1, 1]": ("1", "1")}),
        (["[1]x[1]", "[]x[2]", "[1, 1]x[]"], "Z2",
         {"[1]x[1]": ("1", "1"), "[]x[2]": ("1", "eps"), "[1, 1]x[]": ("tau", "1")}),
    ],
    ("A", 3): [([lab], "trivial", {lab: ("1", "1")})
               for lab in ("[4]", "[1, 1, 1, 1]", "[2, 2]", "[2, 1, 1]", "[3, 1]")],
}


def test_families_match_reference():
    for (family, rank), want in FAMILY_PARTITIONS.items():
        W = build_group(GroupSpec(family, rank))
        assert [tuple(f) for f in families_for(W)] == want
    a1a1 = ProductWeyl((GroupSpec("A", 1), GroupSpec("A", 1)))
    assert [tuple(f) for f in families_for(a1a1)] == [
        ([lab], "trivial", {lab: ("1", "1")})
        for lab in ("[2] (x) [2]", "[2] (x) [1, 1]", "[1, 1] (x) [2]", "[1, 1] (x) [1, 1]")]


@pytest.mark.parametrize("families", [
    # a member that is no irreducible of B2
    [("Z2", {"[1]x[1]": ("1", "1"), "[]x[2]": ("1", "eps"), "[1,1]x[]": ("tau", "1")})],
    # a member typed in two families
    [("Z2", {"[1]x[1]": ("1", "1"), "[]x[2]": ("1", "eps")}),
     ("Z2", {"[]x[2]": ("1", "1"), "[1, 1]x[]": ("1", "eps")})],
], ids=["misspelt", "twice"])
def test_family_data_must_partition_irr(monkeypatch, families):
    monkeypatch.setitem(fourier._FIXED_FAMILIES, "B2", families)
    with pytest.raises(RuntimeError, match=r"family data does not partition Irr\(B2\)"):
        families_for(build_group(GroupSpec("B", 2)))


def test_family_data_missing():
    with pytest.raises(NotImplementedError, match="no family data for B3"):
        families_for(build_group(GroupSpec("B", 3)))


def test_xw_pairing_g2():
    g2 = build_group(GroupSpec("G2", 2))
    xw = xw_pairing(g2)
    assert len(xw.labels) == 10
    n = len(xw.labels)
    for i in range(n):
        for j in range(n):
            s = sum(xw.matrix[i][k] * xw.matrix[k][j] for k in range(n))
            assert s == (1 if i == j else 0)


def test_xw_pairing_type_a_identity():
    a2 = build_group(GroupSpec("A", 2))
    xw = xw_pairing(a2)
    assert len(xw.labels) == 3
    assert all(xw.matrix[i][j] == (1 if i == j else 0)
               for i in range(3) for j in range(3))


def test_ef_map_singletons_fixed():
    g2 = build_group(GroupSpec("G2", 2))
    labels = g2.irrep_labels()
    i = labels.index("phi(1,0)")
    coords = [Fraction(0)] * len(labels)
    coords[i] = Fraction(1)
    assert ef_map(g2, coords) == coords


@pytest.mark.parametrize("coords", [[1, 0], [1] * 7])
def test_ef_map_refuses_coordinates_of_the_wrong_length(coords):
    with pytest.raises(ValueError, match=f"has 6 coordinates, one per irreducible, "
                                         f"not {len(coords)}"):
        ef_map(build_group(GroupSpec("G2", 2)), coords)


def test_ef_not_involutive_on_irreducibles():
    # the family block is a proper submatrix of the full transform, so the
    # restriction to spans of irreducible characters is not an involution
    g2 = build_group(GroupSpec("G2", 2))
    e = ef_matrix(g2)
    n = len(e)
    sq = [[sum(e[i][k] * e[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert sq != [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def test_generic_degrees_g2():
    g2 = build_group(GroupSpec("G2", 2))
    q = RF_Q
    assert generic_degree(g2, "phi(1,0)") == RF_ONE
    assert generic_degree(g2, "phi(1,6)") == q ** 6
    assert generic_degree(g2, "phi(2,1)") == q * phi(2) ** 2 * phi(3) / 6
    assert generic_degree(g2, "phi(2,2)") == q * phi(2) ** 2 * phi(6) / 2
    assert generic_degree(g2, "phi(1,3)'") == q * phi(3) * phi(6) / 3
    assert generic_degree(g2, "phi(1,3)''") == q * phi(3) * phi(6) / 3


def test_generic_degrees_b2():
    b2 = build_group(GroupSpec("B", 2))
    q = RF_Q
    assert generic_degree(b2, "[1]x[1]") == q * phi(2) ** 2 / 2
    assert generic_degree(b2, "[]x[2]") == q * phi(4) / 2
    assert generic_degree(b2, "[1, 1]x[]") == q * phi(4) / 2
    assert generic_degree(b2, "[2]x[]") == RF_ONE
    assert generic_degree(b2, "[]x[1, 1]") == q ** 4


def test_generic_degrees_a2_equal_fake():
    a2 = build_group(GroupSpec("A", 2))
    q = RF_Q
    degrees = sorted(str(generic_degree(a2, lab)) for lab in a2.irrep_labels())
    assert degrees == sorted([str(RF_ONE), str(q + q ** 2), str(q ** 3)])


def test_plancherel_identity():
    specs = [GroupSpec("A", 1), GroupSpec("A", 2), GroupSpec("B", 2),
             GroupSpec("G2", 2)]
    for spec in specs:
        W = build_group(spec)
        assert plancherel_sum(W) == RationalFunction(poincare_polynomial(W.exponents))
    P = ProductWeyl([GroupSpec("A", 1), GroupSpec("A", 1)])
    assert plancherel_sum(P) == RationalFunction(poincare_polynomial(P.exponents))


def test_induction_compatibility():
    g2 = build_group(GroupSpec("G2", 2))
    assert ef_induction_check(g2, [0])
    assert ef_induction_check(g2, [1])
    b2 = build_group(GroupSpec("B", 2))
    assert ef_induction_check(b2, [0])
    assert ef_induction_check(b2, [1])
    a2 = build_group(GroupSpec("A", 2))
    assert ef_induction_check(a2, [0])
    assert ef_induction_check(a2, [1])
