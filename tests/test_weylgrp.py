import functools
import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ellq
from ellq import weylgrp
from ellq.combinat import mn_bipartition, mn_character, partitions_of
from ellq.elliptic import elliptic_fake_degree
from ellq.exactq import RANK_PRIMES, QPolynomial, RationalFunction, phi_product, poly_gcd
from ellq.groups import FiniteGroup, GroupTooLargeError
from ellq.weylgrp import (EXPONENTS, GroupSpec, ProductWeyl, WeylGroupData, b_invariant, build_group,
                          char_poly_matrix, closed_form_classes,
                          fake_degree,
                          fake_degree_values, group_order_from_exponents,
                          h_class_function, induce_class_function,
                          parabolic_subgroup, poincare_polynomial,
                          restrict_class_function, rootsystem, signed_cycle_type,
                          signed_type_det)


def test_orders():
    assert build_group(GroupSpec("G2", 2)).order == 12
    assert build_group(GroupSpec("F4", 4)).order == 1152
    assert build_group(GroupSpec("B", 2)).order == 8
    assert build_group(GroupSpec("A", 3)).order == 24
    assert build_group(GroupSpec("D", 3)).order == 24


def test_enumeration_bound():
    with pytest.raises(GroupTooLargeError):
        build_group(GroupSpec("B", 7))


def _cycle_det(pos, neg, family) -> QPolynomial:
    """det(1 - qw) of a signed cycle type as the QPolynomial product of 1 - q^r
    per positive cycle and 1 + q^r per negative one; type A divides by 1 - q."""
    det = QPolynomial.one()
    for r in pos:
        det = det * (QPolynomial.one() - QPolynomial.monomial(r))
    for r in neg:
        det = det * (QPolynomial.one() + QPolynomial.monomial(r))
    if family == "A":
        det, rem = divmod(det, QPolynomial.of(1, -1))
        assert rem.is_zero()
    return det


CLASSICAL = ([GroupSpec("A", n) for n in range(1, 8)] + [GroupSpec("B", n) for n in range(1, 7)]
             + [GroupSpec("D", n) for n in range(2, 7)])


@pytest.mark.parametrize("spec", CLASSICAL, ids=str)
def test_closed_form_classes_match_enumeration(spec):
    model = closed_form_classes(spec)
    # an uncached group, so the enumeration is freed after the test
    grp = build_group.__wrapped__(spec).group
    enumerated = grp.conjugacy_classes()
    assert len(model) == len(enumerated)
    for c, e in zip(model, enumerated):
        cp = _cycle_det(*signed_cycle_type(e.rep), spec.family)
        assert (c.rep, c.size, c.order) == (e.rep, e.size, e.order)
        assert c.char_poly == cp
        assert c.det1 == cp.evaluate(Fraction(1))
        assert c.elliptic == (cp.evaluate(Fraction(1)) != 0)
        assert c.signed_type == signed_cycle_type(e.rep)
    by_type = {}
    for i, c in enumerate(model):
        by_type.setdefault(c.signed_type, []).append(i)
    for stype, idxs in by_type.items():
        split = (spec.family == "D" and not stype[1]
                 and all(r % 2 == 0 for r in stype[0]))
        assert len(idxs) == (2 if split else 1)
        if split:
            # the two halves are distinct classes of W(D_n)
            a, b = (model[i].rep for i in idxs)
            assert grp.class_of(a) != grp.class_of(b)


@pytest.mark.parametrize("spec", CLASSICAL, ids=str)
def test_closed_form_tables_match_dixon(spec):
    W = build_group(spec)
    # Dixon's algorithm on an uncached, enumerated group is the second route
    dixon = build_group.__wrapped__(spec).group.character_table()
    assert W.character_table().values == dixon.values
    if str(spec) == "D4":
        # the row order and the +/- convention of the split restrictions
        assert W.irrep_labels() == [
            "[]x[4]", "[]x[1, 1, 1, 1]", "[]x[2, 2]", "[1, 1]x[1, 1]+", "[2]x[2]+",
            "[1, 1]x[1, 1]-", "[2]x[2]-", "[]x[2, 1, 1]", "[]x[3, 1]", "[1]x[3]",
            "[1]x[1, 1, 1]", "[1, 1]x[2]", "[1]x[2, 1]"]


def _mat_mult(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def _mat_identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _reflection_matrix(cartan, j):
    """s_j on root coordinates, alpha_i -> alpha_i - P[i][j] alpha_j: the
    identity with row j replaced."""
    n = len(cartan)
    return tuple(tuple(int(r == c) - (cartan[c][j] if r == j else 0) for c in range(n))
                 for r in range(n))


def _mat_inverse(m):
    # the power just before the order of a finite-order matrix closes up
    ident = _mat_identity(len(m))
    prev, x = ident, m
    while x != ident:
        prev, x = x, _mat_mult(x, m)
    return prev


@pytest.mark.parametrize("spec,n_roots", [(GroupSpec("G2", 2), 12), (GroupSpec("F4", 4), 48)],
                         ids=str)
def test_root_permutations_match_matrix_enumeration(spec, n_roots):
    # the second route: the group enumerated as integer matrices on the root
    # lattice, classes ordered by the repr of those matrices
    gens = [_reflection_matrix(weylgrp.CARTAN_PAIRING[spec.family], j)
            for j in range(spec.rank)]
    model = WeylGroupData(spec, functools.partial(
        FiniteGroup.generate, gens, _mat_mult, _mat_inverse, _mat_identity(spec.rank)),
        SimpleNamespace(matrix=lambda m: m))
    W = build_group.__wrapped__(spec)
    grp = W.group
    assert model.group.pad is None  # the tuple matrices take the generic products
    assert len(grp.identity) == n_roots
    for s in grp.generators:
        assert s != grp.identity and grp.mult(s, s) == grp.identity
    assert len(W.classes()) == len(model.classes())
    for c, e in zip(W.classes(), model.classes()):
        assert c.matrix == e.rep == W.roots.matrix(c.rep)
        assert (c.size, c.order, c.char_poly) == (e.size, e.order, e.char_poly)
        assert c.rep_str() == e.rep_str()
    assert W.character_table().values == model.character_table().values
    assert W.irrep_labels() == model.irrep_labels()


@pytest.mark.parametrize("family", ["G2", "F4"])
def test_root_key_sorts_as_the_matrix_repr(family):
    # the pinned class representatives and class order of G2 and F4 were
    # chosen by repr(matrix); the byte key must order every element alike
    W = build_group.__wrapped__(GroupSpec(family, int(family[1])))
    elements = W.group.elements
    assert all(type(W.roots.key(w)) is bytes for w in elements[:3])
    assert (sorted(elements, key=W.roots.key)
            == sorted(elements, key=lambda w: repr(W.roots.matrix(w))))


def test_root_key_refuses_a_two_digit_coordinate():
    # the byte ranks hold for single-digit coordinates only
    phi = weylgrp.RootSystem(1, ((1,), (10,)), ((1, 0),), (10,), 1)
    with pytest.raises(RuntimeError, match="more than one digit"):
        phi.key(bytes([0, 1]))
    assert phi.matrix(bytes([1, 0])) == ((10,),)


def test_f4_needs_no_matrix_product():
    W = build_group.__wrapped__(GroupSpec("F4", 4))
    # the roots are closed by reflecting coordinates, and the group is built
    # from root permutations, so the module has no matrix product to call
    assert not any(hasattr(weylgrp, f) for f in ("mat_mult", "_mat_vec", "_transpose_b_m"))
    assert W.group.order == 1152
    assert len(W.classes()) == 25
    assert len(W.character_table().values) == 25
    assert len(W.irrep_labels()) == 25
    assert W.length_polynomial() == poincare_polynomial(W.exponents)


@pytest.mark.parametrize("name,exponents,roots,highest,center", [
    ("G2", (1, 5), 12, (3, 2), 1),
    ("F4", (1, 5, 7, 11), 48, (2, 3, 4, 2), 1),
    ("C2", (1, 3), 8, (2, 1), 2),
    ("A1", (1,), 2, (1,), 2),
])
def test_rootsystem(name, exponents, roots, highest, center):
    phi = rootsystem(weylgrp.CARTAN_PAIRING[name], exponents)
    n = phi.rank
    assert phi.roots[:n] == tuple(tuple(int(i == j) for i in range(n)) for j in range(n))
    assert (len(phi.roots), phi.positive_count) == (roots, roots // 2)
    assert (phi.highest, phi.center_order) == (highest, center)
    assert {tuple(-x for x in r) for r in phi.roots} == set(phi.roots)
    for j, g in enumerate(phi.generators):
        # s_j swaps alpha_j and -alpha_j and is an involution
        assert phi.roots[g[j]] == tuple(-int(i == j) for i in range(n))
        assert [g[k] for k in g] == list(range(len(phi.roots)))


def test_rootsystem_rejects_a_mistyped_cartan_matrix():
    f4 = [list(row) for row in weylgrp.CARTAN_PAIRING["F4"]]
    f4[1][2] = -1  # -2 -> -1 turns F4 into A4, whose 20 roots are its own l * h
    with pytest.raises(RuntimeError, match="20 roots"):
        rootsystem(tuple(map(tuple, f4)), weylgrp.EXPONENTS["F4"])
    # 0 for -1 in G2 leaves a matrix of no finite type: the closure stops
    g2 = ((2, 0), (-3, 2))
    with pytest.raises(RuntimeError, match="more than 12 roots"):
        rootsystem(g2, weylgrp.EXPONENTS["G2"])
    # B3 x A1 typed for A4 has A4's 20 roots, but its highest root
    # (1, 2, 2, 0) gives Coxeter number 6, not 5
    b3a1 = ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, 0), (0, 0, 0, 2))
    with pytest.raises(RuntimeError, match="Coxeter number 6, not 5"):
        rootsystem(b3a1, (1, 2, 3, 4))


def test_closed_form_classes_rank_8():
    # no enumeration: |W(B_8)| is above the bound
    p = {n: len(partitions_of(n)) for n in range(9)}
    bipartitions = sum(p[k] * p[8 - k] for k in range(9))
    even_neg = sum(p[8 - k] * sum(1 for lam in partitions_of(k) if len(lam) % 2 == 0)
                   for k in range(9))
    b8, b12 = 2 ** 8 * math.factorial(8), 2 ** 12 * math.factorial(12)
    for spec, count, order in [(GroupSpec("B", 8), bipartitions, b8),
                               (GroupSpec("D", 8), even_neg + p[4], b8 // 2),
                               (GroupSpec("A", 8), len(partitions_of(9)), math.factorial(9)),
                               (GroupSpec("B", 12), 1165, b12),
                               (GroupSpec("D", 12), 599, b12 // 2),
                               (GroupSpec("A", 11), 77, math.factorial(12))]:
        classes = closed_form_classes(spec)
        assert len(classes) == count
        assert sum(c.size for c in classes) == order
        for c in classes:
            assert signed_cycle_type(c.rep) == c.signed_type


def _searched_least_element(n, pos, neg, signed, half, key):
    """Reference: the (signed) permutation of type (pos, neg), and of D-half
    `half` unless that is None, found by a depth-first search over positions
    that tries values in `key` order, so least entry by entry in that order."""
    want = Counter([(r, 1) for r in pos] + [(r, -1) for r in neg])
    values = sorted((v for v in range(-n, n + 1) if v and (signed or v > 0)), key=key)
    w, taken = [0] * n, [False] * (n + 1)

    def feasible(k):
        # the map i -> |w[i-1]| on 1..k: open paths from each point without a
        # preimage, closed cycles through the rest
        paths, closed, seen = [], Counter(), set()
        for p in range(1, n + 1):
            if not taken[p]:
                path = [p]
                while path[-1] <= k:
                    path.append(abs(w[path[-1] - 1]))
                seen.update(path)
                paths.append(len(path))
        for p in range(1, k + 1):
            length, sign = 0, 1
            while p not in seen:
                seen.add(p)
                length, sign, p = length + 1, sign * (1 if w[p - 1] > 0 else -1), abs(w[p - 1])
            if length:
                closed[length, sign] += 1
        if closed - want:
            return False
        # the signs of cycles not yet closed are free
        rest = sorted((want - closed).elements())
        return _packable(tuple(sorted(paths, reverse=True)), tuple(r for r, _ in rest))

    def search(k):
        if k == n:
            return half is None or weylgrp._half(w) == half
        for v in values:
            if not taken[abs(v)]:
                w[k], taken[abs(v)] = v, True
                if feasible(k + 1) and search(k + 1):
                    return True
                taken[abs(v)] = False
        return False

    assert search(0)
    return tuple(w)


@functools.lru_cache(maxsize=None)
def _packable(paths, cycles) -> bool:
    """Can paths of these lengths be joined into cycles of these lengths?"""
    if not paths:
        return not cycles
    p, rest = paths[0], paths[1:]
    return any(_packable(rest, tuple(sorted(
        x for x in cycles[:i] + (c - p,) + cycles[i + 1:] if x)))
        for i, c in enumerate(cycles) if c >= p and c not in cycles[:i])


def _least_element_cases(top):
    """(n, pos, neg, signed, half) for every type of A, B and D on n <= top
    points, with both halves of each split D type."""
    for n in range(1, top + 1):
        yield from ((n, lam, (), False, None) for lam in partitions_of(n))
        for j in range(n + 1):
            for pos, neg in itertools.product(partitions_of(n - j), partitions_of(j)):
                yield n, pos, neg, True, None
                if n > 1 and not neg and all(r % 2 == 0 for r in pos):
                    yield from ((n, pos, neg, True, half) for half in (0, 1))


@pytest.mark.parametrize("top, key", [(9, str), (11, lambda v: (v > 0, abs(v)))],
                         ids=["str-order", "negatives-first"])
def test_least_element_matches_search(top, key):
    # the order -1 < ... < -n < 1 < ... < n is str order for n <= 9 only
    cases = list(_least_element_cases(top))
    assert len(cases) == {9: 851, 11: 2196}[top]
    for case in cases:
        assert weylgrp._least_element(*case) == _searched_least_element(*case, key), case


def test_class_data_needs_no_enumeration():
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ellq.__file__))}
    code = (
        "from ellq.groups import FiniteGroup, GroupTooLargeError\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('enumerated')\n"
        "FiniteGroup.generate = staticmethod(refuse)\n"
        "from ellq.elliptic import bn_fake_closed, elliptic_fake_degree, independence_check\n"
        "from ellq.weylgrp import GroupSpec, build_group\n"
        "for t, counts in (('B6', (11, 10)), ('D6', (6, 6)), ('A7', (1, 1))):\n"
        "    r = independence_check(GroupSpec.parse(t))\n"
        "    assert (r.n_elliptic, r.rank) == counts, t\n"
        "W = build_group(GroupSpec('B', 5))\n"
        "for lam in ((5,), (3, 2), (2, 1, 1, 1)):\n"
        "    values = W.class_function_bipartition(lam, ())\n"
        "    assert elliptic_fake_degree(W, values) == bn_fake_closed(lam)\n"
        "from ellq.weylgrp import fake_degree\n"
        "for t in ('B5', 'D5', 'A6'):\n"
        "    W = build_group(GroupSpec.parse(t))\n"
        "    assert len(W.character_table().values) == len(W.classes())\n"
        "    for lab in W.irrep_labels():\n"
        "        assert fake_degree(W, lab).evaluate(1) == W.irrep_values(lab)[0]\n"
        "for t in ('B7', 'A8'):\n"
        "    try:\n"
        "        build_group(GroupSpec.parse(t))\n"
        "    except GroupTooLargeError as e:\n"
        "        assert str(e) == 'group exceeds enumeration bound 50000'\n"
        "    else:\n"
        "        raise AssertionError(t)\n"
        "print('ok')\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "ok"


def test_class_equation():
    for spec in [GroupSpec("B", 3), GroupSpec("D", 4), GroupSpec("G2", 2),
                 GroupSpec("F4", 4)]:
        W = build_group(spec)
        assert sum(c.size for c in W.classes()) == W.order
        for c in W.classes():
            assert W.order % c.size == 0


def test_f4_elliptic():
    W = build_group(GroupSpec("F4", 4))
    ell = W.elliptic_classes()
    assert len(ell) == 9
    target = QPolynomial.of(1, 0, 0, 1) * QPolynomial.of(1, 1)
    coincident = [i for i in ell if W.classes()[i].char_poly == target]
    assert len(coincident) == 2


def test_sn_one_elliptic_class():
    for n in range(2, 8):
        W = build_group(GroupSpec("A", n - 1))
        ell = W.elliptic_classes()
        assert len(ell) == 1
        import math
        assert W.classes()[ell[0]].size == math.factorial(n - 1)


def test_charpoly_palindromy():
    # det(1 - q w^{-1}) q^l = +- det(1 - q w)
    for spec in [GroupSpec("B", 3), GroupSpec("G2", 2), GroupSpec("A", 3)]:
        W = build_group(spec)
        for c in W.classes():
            cp = c.char_poly
            winv = W.group.inv(c.rep)
            cpi = (char_poly_matrix(W.roots.matrix(winv)) if W.roots
                   else _cycle_det(*signed_cycle_type(winv), spec.family))
            rev = QPolynomial(list(reversed([cp.coeff(i) for i in range(cp.degree + 1)])))
            assert rev == cpi or rev == -cpi


def test_elliptic_iff_no_fixed_vector():
    for spec in [GroupSpec("B", 4), GroupSpec("D", 4), GroupSpec("F4", 4)]:
        W = build_group(spec)
        for c in W.classes():
            assert c.elliptic == (c.char_poly.evaluate(Fraction(1)) != 0)


def test_exponents_and_poincare():
    for spec in [GroupSpec("A", 4), GroupSpec("B", 4), GroupSpec("D", 4),
                 GroupSpec("G2", 2), GroupSpec("F4", 4)]:
        W = build_group(spec)
        assert group_order_from_exponents(W.exponents) == W.order
        assert poincare_polynomial(W.exponents).evaluate(1) == W.order
    for name, order in [("E6", 51840), ("E7", 2903040), ("E8", 696729600)]:
        assert group_order_from_exponents(EXPONENTS[name]) == order


def test_poincare_equals_length_enumeration():
    for spec in [GroupSpec("G2", 2), GroupSpec("B", 3)]:
        W = build_group(spec)
        assert W.length_polynomial() == poincare_polynomial(W.exponents)


def test_character_table_s3():
    W = build_group(GroupSpec("A", 2))
    rows = {tuple(r) for r in W.character_table().values}
    assert rows == {(1, 1, 1), (1, 1, -1), (2, -1, 0)}


def test_character_table_b1():
    W = build_group(GroupSpec("B", 1))
    assert sorted(map(tuple, W.character_table().values)) == [(1, -1), (1, 1)]


def test_g2_dimensions():
    W = build_group(GroupSpec("G2", 2))
    assert sorted(W.character_table().dims()) == [1, 1, 1, 1, 2, 2]


def test_table_orthogonality_and_integrality():
    # verified at construction; re-check dimensions sum rule here
    for spec in [GroupSpec("A", 4), GroupSpec("B", 3), GroupSpec("D", 4),
                 GroupSpec("G2", 2), GroupSpec("F4", 4)]:
        W = build_group(spec)
        tab = W.character_table()
        assert sum(d * d for d in tab.dims()) == W.order
        assert all(isinstance(v, int) for row in tab.values for v in row)


def test_mn_agreement_with_tables():
    for n in range(2, 7):
        W = build_group(GroupSpec("A", n - 1))
        labels = W.irrep_labels()
        tab = W.character_table()
        for lab, row in zip(labels, tab.values):
            lam = tuple(eval(lab))
            for c, v in zip(W.classes(), row):
                assert mn_character(lam, c.signed_type[0]) == v


def test_b5_table_on_demand():
    # the table engine scales past the groups the acceptance suite needs
    W = build_group(GroupSpec("B", 5))
    tab = W.character_table()
    assert len(tab.values) == 36
    assert len(set(W.irrep_labels())) == 36


# the loop over all 2^{#cycles} ways of sending the signed cycles to lam or
# gamma that bipartition_value ran before the hyperoctahedral
# Murnaghan-Nakayama rule, kept as the reference


def bipartition_value_by_assignment(lam, gamma, pos, neg) -> int:
    parts = [(r, 1) for r in pos] + [(r, -1) for r in neg]
    total = 0
    for assign in itertools.product((0, 1), repeat=len(parts)):
        to_x = tuple(sorted((r for (r, _), a in zip(parts, assign) if a == 0), reverse=True))
        if sum(to_x) != sum(lam):
            continue
        to_y = tuple(sorted((r for (r, _), a in zip(parts, assign) if a == 1), reverse=True))
        sign = math.prod(e for (_, e), a in zip(parts, assign) if a == 1)
        total += sign * mn_character(tuple(lam), to_x) * mn_character(tuple(gamma), to_y)
    return total


def _bipartitions(n):
    return [(lam, gam) for k in range(n + 1) for lam in partitions_of(k)
            for gam in partitions_of(n - k)]


@pytest.mark.parametrize("n", range(1, 8))
def test_bipartition_rule_matches_assignment_loop(n):
    bips = _bipartitions(n)  # the signed cycle types of B_n are these pairs too
    for lam, gam in bips:
        for pos, neg in bips:
            assert (weylgrp.bipartition_value(lam, gam, pos, neg)
                    == bipartition_value_by_assignment(lam, gam, pos, neg)), (lam, gam, pos, neg)


def test_bipartition_rule_matches_assignment_loop_b8_sample():
    import random
    bips = _bipartitions(8)
    rng = random.Random(8)
    for _ in range(3000):
        (lam, gam), (pos, neg) = rng.choice(bips), rng.choice(bips)
        assert (weylgrp.bipartition_value(lam, gam, pos, neg)
                == bipartition_value_by_assignment(lam, gam, pos, neg)), (lam, gam, pos, neg)


@pytest.mark.parametrize("n", range(2, 8))
def test_d_restrictions_match_assignment_loop(n):
    # closed-form classes only, so D7 needs no enumeration bound lifted
    W = WeylGroupData(GroupSpec("D", n), None, None)
    for lam, gam in _bipartitions(n):
        values = W.class_function_bipartition(lam, gam)
        assert values == [bipartition_value_by_assignment(lam, gam, *c.signed_type)
                          for c in W.classes()], (lam, gam)
        # lam x gam and gam x lam restrict alike
        assert values == W.class_function_bipartition(gam, lam)


def test_bipartition_memo_serves_one_table():
    W = build_group.__wrapped__(GroupSpec("B", 4))
    W.character_table()
    assert mn_bipartition.cache_info().currsize == 0


def test_bipartition_labels_b2():
    W = build_group(GroupSpec("B", 2))
    assert set(W.irrep_labels()) == {"[2]x[]", "[]x[1, 1]", "[]x[2]",
                                     "[1, 1]x[]", "[1]x[1]"}
    # trivial is [n] x [], sign is [] x [1^n]
    triv = W.irrep_values("[2]x[]")
    assert all(v == 1 for v in triv)
    sgn = W.irrep_values("[]x[1, 1]")
    assert sgn == W.sign_values()


def test_d_labels_cover_split_pairs():
    W = build_group(GroupSpec("D", 4))
    labels = W.irrep_labels()
    assert len(labels) == len(set(labels)) == len(W.character_table().values)
    # two self-paired bipartitions ((2) and (1,1)) each split into two rows
    assert sum(1 for lab in labels if lab.endswith("+") or lab.endswith("-")) == 4


def test_fake_degrees_g2():
    W = build_group(GroupSpec("G2", 2))
    assert fake_degree(W, "phi(1,0)") == QPolynomial.one()
    assert fake_degree(W, "phi(1,6)") == QPolynomial.monomial(6)
    assert fake_degree(W, "phi(2,1)") == QPolynomial.of(0, 1, 0, 0, 0, 1)
    assert fake_degree(W, "phi(2,2)") == QPolynomial.of(0, 0, 1, 0, 1)


def test_fake_degree_sign_is_q_to_npos():
    for spec, npos in [(GroupSpec("G2", 2), 6), (GroupSpec("B", 3), 9),
                       (GroupSpec("A", 3), 6)]:
        W = build_group(spec)
        assert fake_degree_values(W, W.sign_values()) == QPolynomial.monomial(npos)


def test_fake_degree_sum_rule():
    # sum over irreducibles of dim * fake degree = Poincare polynomial
    for spec in [GroupSpec("A", 3), GroupSpec("B", 3), GroupSpec("G2", 2)]:
        W = build_group(spec)
        tab = W.character_table()
        total = QPolynomial.zero()
        for row in tab.values:
            total = total + row[0] * fake_degree_values(W, row)
        assert total == poincare_polynomial(W.exponents)


def test_b_invariant_is_the_lowest_degree_of_the_fake_degree():
    # the labels read b from the first nonzero column sum, with no division
    for t in ("G2", "F4", "A5", "B5", "D5"):
        W = build_group(GroupSpec.parse(t))
        for lab in W.irrep_labels():
            b = fake_degree(W, lab).low_degree()
            assert b_invariant(W, W.irrep_values(lab)) == b >= 0, (t, lab)
        assert b_invariant(W, [0] * len(W.classes())) == -1
        with pytest.raises(ValueError, match="values"):
            b_invariant(W, [1])


def test_fake_degree_at_one_is_dimension():
    W = build_group(GroupSpec("B", 3))
    for lab in W.irrep_labels():
        f = fake_degree(W, lab)
        assert f.evaluate(1) == W.irrep_values(lab)[0]


# The gcd route the class kernel replaced, kept as the second route: terms
# sharing a denominator merged, put over the lcm of the det(1 - qw), and
# reduced by the RationalFunction constructor.
def _gcd_class_sum(terms):
    merged = {}
    for c, d in terms:
        if c:
            merged[d] = merged.get(d, 0) + c
    lcm = functools.reduce(lambda a, b: a * (b // poly_gcd(a, b)), merged, QPolynomial.one())
    num = QPolynomial.zero()
    for d, c in merged.items():
        num = num + (lcm // d) * c
    return RationalFunction(num, lcm)


def _gcd_fake_degree(W, values):
    total = _gcd_class_sum((v * c.size, c.char_poly) for c, v in zip(W.classes(), values))
    pref = RationalFunction((QPolynomial.one() - QPolynomial.q()) ** W.rank
                            * poincare_polynomial(W.exponents))
    return (pref * total * Fraction(1, W.order)).as_polynomial()


def _gcd_elliptic_fake_degree(W, values):
    total = _gcd_class_sum((v * c.det1 * c.size, c.char_poly)
                           for c, v in zip(W.classes(), values) if c.elliptic)
    return RationalFunction((QPolynomial.q() - 1) ** W.rank) * total * Fraction(1, W.order)


@pytest.mark.parametrize("spec", CLASSICAL + [GroupSpec("G2", 2), GroupSpec("F4", 4)], ids=str)
def test_class_kernel_matches_gcd_route(spec):
    W = build_group(spec)
    for row in W.character_table().values:
        assert fake_degree_values(W, row) == _gcd_fake_degree(W, row)
        assert elliptic_fake_degree(W, row) == _gcd_elliptic_fake_degree(W, row)


_KERNEL_GROUPS = [GroupSpec("G2", 2), GroupSpec("B", 3), GroupSpec("D", 4)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_KERNEL_GROUPS), st.data())
def test_class_kernel_matches_gcd_route_on_class_functions(spec, data):
    W = build_group(spec)
    values = data.draw(st.lists(st.integers(-5, 5), min_size=len(W.classes()),
                                max_size=len(W.classes())))
    assert fake_degree_values(W, values) == _gcd_fake_degree(W, values)
    assert elliptic_fake_degree(W, values) == _gcd_elliptic_fake_degree(W, values)


@pytest.mark.parametrize("spec", _KERNEL_GROUPS, ids=str)
def test_class_kernel_clears_each_class(spec):
    W = build_group(spec)
    top = QPolynomial.one()
    for m in W.exponents:
        top = top * (QPolynomial.one() - QPolynomial.monomial(m + 1))
    kernel = W.fake_columns
    assert len(kernel) == len(W.classes())
    for k, c in zip(kernel, W.classes()):
        assert QPolynomial(k) * c.char_poly == top * c.size


def test_class_function_of_wrong_length_is_refused():
    W = build_group(GroupSpec("B", 3))
    with pytest.raises(ValueError, match="has 10 values, not 1"):
        fake_degree_values(W, [1])
    for n in (11, 3):
        with pytest.raises(ValueError, match=f"has 10 values, not {n}"):
            W.character_table().decompose([1] * n)


def test_induction_from_trivial_subgroup():
    W = build_group(GroupSpec("B", 2))
    H = parabolic_subgroup(W, [])
    ind = induce_class_function(W, H, {W.group.identity: 1})
    # regular character: |W| at the identity, zero elsewhere
    for c, v in zip(W.classes(), ind):
        assert v == (W.order if c.rep == W.group.identity else 0)


def test_frobenius_reciprocity_parabolic():
    W = build_group(GroupSpec("B", 3))
    tab = W.character_table()
    H = parabolic_subgroup(W, [0, 1])
    htab = H.character_table()
    for hrow in htab.values:
        ind = induce_class_function(W, H, h_class_function(H, hrow))
        for wrow in tab.values:
            lhs = tab.inner_product(ind, wrow)
            res = restrict_class_function(W, list(wrow), H)
            rhs = htab.inner_product(hrow, res)
            assert lhs == rhs


def test_induction_d_to_b():
    # Ind_{D_n}^{B_n}(lam x [] restricted) = lam x [] + [] x lam for n = 2, 3
    for n in (2, 3):
        B = build_group(GroupSpec("B", n))
        gens = list(range(n - 1))  # transpositions generate S_n inside B_n
        # D_n inside B_n: transpositions plus the double sign flip
        e = list(range(1, n + 1))
        e[n - 2], e[n - 1] = -n, -(n - 1)
        H = B.group.subgroup([B.group.generators[i] for i in gens] + [weylgrp.signed_perm(e)])
        assert H.order == B.order // 2
        for lam in partitions_of(n):
            vals = {}
            for c in H.conjugacy_classes():
                from ellq.weylgrp import bipartition_value, signed_cycle_type
                for x in c.elements:
                    pos, neg = signed_cycle_type(x)
                    vals[x] = bipartition_value(lam, (), pos, neg)
            ind = induce_class_function(B, H, vals)
            expect = [a + b for a, b in zip(B.class_function_bipartition(lam, ()),
                                            B.class_function_bipartition((), lam))]
            assert ind == [Fraction(x) for x in expect], (n, lam)


def _induced_by_definition(W, H, h_values):
    """Ind f(w) = (1/|H|) sum over g in W of f(g^-1 w g), f zero off its keys."""
    grp = W.group
    return [Fraction(sum(h_values.get(grp.mult(grp.mult(grp.inv(g), c.rep), g), 0)
                         for g in grp.elements), H.order) for c in W.classes()]


@pytest.mark.parametrize("name", ["G2", "B3"])
def test_induction_matches_the_definition(name):
    W = build_group(GroupSpec.parse(name))
    n = len(W.group.generators)
    for subset in itertools.chain.from_iterable(
            itertools.combinations(range(n), k) for k in range(n + 1)):
        H = parabolic_subgroup(W, subset)
        functions = [h_class_function(H, row) for row in H.character_table().values]
        # the length in W, in general no class function of H
        functions.append({x: W.group.lengths[x] for x in H.elements})
        for h_values in functions:
            assert (induce_class_function(W, H, h_values)
                    == _induced_by_definition(W, H, h_values)), subset


@pytest.mark.parametrize("name", ["B5", "D5", "A6"])
def test_enumerated_classes_build_no_signed_tuple(name, monkeypatch):
    # the class step keys each element by signed_key, its bytes
    def refuse(b):
        raise AssertionError("a signed tuple was built")
    monkeypatch.setattr(weylgrp, "signed_tuple", refuse)
    W = build_group.__wrapped__(GroupSpec.parse(name))
    assert len(W.group.conjugacy_classes()) == len(W.classes())


def test_product_weyl():
    P = ProductWeyl([GroupSpec("A", 1), GroupSpec("A", 1)])
    assert P.order == 4 and P.rank == 2
    assert poincare_polynomial(P.exponents) == QPolynomial([1, 2, 1])
    cls = P.classes()
    assert sum(c.size for c in cls) == 4
    assert sum(1 for c in cls if c.elliptic) == 1
    labels = P.irrep_labels()
    assert len(labels) == 4
    for lab in labels:
        vals = P.irrep_values(lab)
        assert vals[0] == 1


# -- det(1 - qw) in integers, against QPolynomial references --

def _poly_det(rows) -> QPolynomial:
    """Determinant of a matrix of polynomials by Laplace expansion along the
    first row: the reference for the integer Faddeev-LeVerrier route."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = QPolynomial.zero()
    for j in range(n):
        if rows[0][j].is_zero():
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = rows[0][j] * _poly_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def _laplace_char_poly(m) -> QPolynomial:
    n = len(m)
    return _poly_det([[QPolynomial.of(int(i == j), -m[i][j]) for j in range(n)]
                      for i in range(n)])


@pytest.mark.parametrize("spec", [GroupSpec("G2", 2), GroupSpec("F4", 4)], ids=str)
def test_char_poly_matrix_matches_laplace(spec):
    W = build_group(spec)
    for c in W.classes():
        assert c.char_poly == char_poly_matrix(c.matrix) == _laplace_char_poly(c.matrix)
        assert c.det1 == _laplace_char_poly(c.matrix).evaluate(Fraction(1))
        assert QPolynomial(phi_product([c.sign], c.phi)) == c.char_poly


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_char_poly_matrix_matches_laplace_on_integer_matrices(m):
    assert char_poly_matrix(m) == _laplace_char_poly(m)


def test_char_poly_matrix_lifts_below_half_the_prime_and_refuses_from_there():
    # prod_i (1 + sum_j |m_ij|) bounds every coefficient of det(1 - qM); the
    # centred lift mod p = 2^127 - 1 is exact while it is below p/2
    p = RANK_PRIMES[1]
    a = (p - 3) // 2
    for m in ([[a]], [[-a]], [[2 ** 64 - 2, 0], [0, 2 ** 62 - 1]], [[0, a], [0, 0]]):
        assert 2 * math.prod(1 + sum(map(abs, row)) for row in m) < p
        assert char_poly_matrix(m) == _laplace_char_poly(m), m
    # diag(2^64 - 1, 2^62 - 1) has the coefficient (2^64 - 1)(2^62 - 1) > p/2 at q^2
    for m in ([[a + 1]], [[-a - 1]], [[2 ** 64 - 1, 0], [0, 2 ** 62 - 1]], [[0, a + 1], [0, 0]]):
        assert 2 * math.prod(1 + sum(map(abs, row)) for row in m) >= p
        with pytest.raises(ArithmeticError):
            char_poly_matrix(m)


def test_center_order_is_the_determinant_of_the_cartan_pairing():
    exponents = {**weylgrp.EXPONENTS, "C2": (1, 3), "A1": (1,)}
    for name, cartan in weylgrp.CARTAN_PAIRING.items():
        want = _poly_det([[QPolynomial.of(x) for x in row] for row in cartan]).coeff(0)
        assert rootsystem(cartan, exponents[name]).center_order == want, name
    assert [rootsystem(c, exponents[k]).center_order
            for k, c in weylgrp.CARTAN_PAIRING.items()] == [1, 1, 2, 2]


def _signed_types(n):
    return [(pos, neg) for j in range(n + 1) for pos in partitions_of(n - j)
            for neg in partitions_of(j)]


def test_signed_char_polys_match_polynomial_products():
    """The Phi-exponents of det(1 - qw) against the QPolynomial product of
    1 - q^r and 1 + q^r, for every signed type with n <= 8; type A divides by
    1 - q."""
    for n in range(1, 9):
        for pos, neg in _signed_types(n):
            for family in ("B", "D") + (("A",) if not neg else ()):
                sign, phi = signed_type_det(pos, neg, family)
                assert all(e > 0 for e in phi.values()), (pos, neg, family)
                want = _cycle_det(pos, neg, family)
                assert QPolynomial(phi_product([sign], phi)) == want, (pos, neg, family)


def test_signed_char_poly_type_a_checks_its_last_prefix_sum():
    # (1 + q) / (1 - q) is no polynomial: dividing by q - 1, the running sum from the top ends at 2, not 0
    with pytest.raises(ArithmeticError, match="q\\^1 - 1 does not divide"):
        phi_product([1], signed_type_det((), (1,), "A")[1])
