import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import ellq
from ellq.cyclo import CycNum
from ellq.exactq import nullspace_mod
from ellq.groups import (FiniteGroup, _charpoly_mod, _class_matrix, _dixon_prime,
                         _mat_vecs, _roots_mod, _verify_table,
                         isprime, permutation_group, primitive_root)
from ellq.fourier import SUPPORTED_GAMMAS, _centralizers, small_group
from ellq.weylgrp import (GroupSpec, build_group, parabolic_subgroup, signed_key, signed_perm,
                          signed_tuple)


def test_character_table_imports_no_sympy():
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ellq.__file__))}
    code = ("import sys\n"
            "from ellq.weylgrp import GroupSpec, build_group\n"
            "assert len(build_group(GroupSpec('B', 3)).character_table().values) == 10\n"
            "print('sympy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_isprime_matches_sieve():
    n = 10_000
    sieve = [True] * n
    sieve[0] = sieve[1] = False
    for i in range(2, 100):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(range(i * i, n, i))
    assert [k for k in range(n) if isprime(k)] == [k for k in range(n) if sieve[k]]


def test_smallest_primitive_roots():
    assert [primitive_root(p) for p in (7, 23, 41, 71)] == [3, 5, 6, 7]


def test_mod_p_nullspace():
    p = 7
    # rank 2 over F_7: row 3 = row 1 + row 2
    a = [[1, 2, 3], [0, 1, 4], [1, 3, 0]]
    (v,) = nullspace_mod(a, 3, p)
    assert v == [5, 3, 1]
    assert all(sum(x * y for x, y in zip(row, v)) % p == 0 for row in a)


def _poly_mul_mod(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def test_roots_mod_are_distinct_and_ascending():
    # (x - 1)(x - 3)^2(x^2 + 1) over F_13, where 5^2 = 8^2 = -1
    p = 13
    f = [1]
    for g in ([-1, 1], [-3, 1], [-3, 1], [1, 0, 1]):
        f = _poly_mul_mod(f, g, p)
    assert _roots_mod(f, p) == [1, 3, 5, 8]
    # -1 is not a square mod 7, and a nonzero constant has no roots
    assert _roots_mod([1, 0, 1], 7) == []
    assert _roots_mod([1], 7) == []


def _with_entry(table, i, j, value):
    """A copy of the table with values[i][j] replaced."""
    values = [list(row) for row in table.values]
    values[i][j] = value
    return table._replace(values=values)


def test_verify_table_rejects_a_changed_integer_entry():
    from ellq.weylgrp import GroupSpec, build_group
    table = build_group(GroupSpec("B", 3)).character_table()
    assert all(type(v) is int for row in table.values for v in row)
    _verify_table(_with_entry(table, 2, 3, table.values[2][3]))
    with pytest.raises(RuntimeError, match="row orthogonality"):
        _verify_table(_with_entry(table, 2, 3, table.values[2][3] + 1))


def test_verify_table_rejects_a_changed_irrational_entry():
    from ellq.fourier import _centralizers
    # the centralizer of a 5-cycle in S5 is Z5, whose characters are irrational
    table = next(t for t in _centralizers("S5")[2]
                 if any(isinstance(v, CycNum) for row in t.values for v in row))
    i, j = next((i, j) for i, row in enumerate(table.values)
                for j, v in enumerate(row) if isinstance(v, CycNum))
    v = table.values[i][j]
    _verify_table(_with_entry(table, i, j, v))
    with pytest.raises(RuntimeError, match=rf"row orthogonality fails for rows "
                                           rf"(\d+,{i}|{i},\d+)$"):
        _verify_table(_with_entry(table, i, j, v + CycNum.rational(v.m, 1)))


@pytest.mark.parametrize("name", ["B5", "S5"])
def test_verify_table_rejects_each_changed_entry_of_a_rational_table(name):
    grp = small_group(name) if name in SUPPORTED_GAMMAS else build_group(GroupSpec.parse(name)).group
    table = grp.character_table()
    assert all(type(v) is int for row in table.values for v in row)
    _verify_table(table)
    # a change of 1 in row i alters <chi_i, chi_i> by |C| (2 chi_i(C) + 1), never 0
    for i in range(1, len(table.values)):
        for j, v in enumerate(table.values[i]):
            with pytest.raises(RuntimeError, match=rf"row orthogonality fails for rows "
                                                   rf"(\d+,{i}|{i},\d+)$"):
                _verify_table(_with_entry(table, i, j, v + 1))


def _tables_with_centralizers(name):
    """The Dixon tables of a group and of the centralizer of each class
    representative, every group freshly built."""
    if name in SUPPORTED_GAMMAS:
        grp = small_group.__wrapped__(name)
    else:
        grp = build_group.__wrapped__(GroupSpec.parse(name)).group
    return [grp.character_table()] + [grp.centralizer(c.rep).character_table()
                                      for c in grp.conjugacy_classes()[1:]]


@pytest.mark.parametrize("name", ["G2", "F4", *SUPPORTED_GAMMAS])
def test_dixon_rational_values_are_plain_ints(name):
    tables = _tables_with_centralizers(name)
    assert all(type(v) is int for row in tables[0].values for v in row)
    for table in tables[1:]:
        for row in table.values:
            for v in row:
                assert type(v) is int or (isinstance(v, CycNum) and not v.is_rational())


@pytest.mark.parametrize("name", ["G2", "F4"])
def test_dixon_builds_no_cycnum_for_a_weyl_group(monkeypatch, name):
    import ellq.groups

    def refuse(*args):
        raise AssertionError("a CycNum was built for a rational value")
    monkeypatch.setattr(ellq.groups, "CycNum", refuse)
    grp = build_group.__wrapped__(GroupSpec(name, int(name[1]))).group
    assert len(grp.character_table().values) == {"G2": 6, "F4": 25}[name]


def test_z5_centralizer_keeps_its_cyclotomic_values():
    # recorded before rational values were lifted as centred integers
    gamma = small_group.__wrapped__("S5")
    table = gamma.centralizer(bytes((1, 2, 3, 4, 0))).character_table()
    exponents = [[4, 3, 2, 1], [3, 1, 4, 2], [2, 4, 1, 3], [1, 2, 3, 4]]
    assert table.values[0] == [1] * 5
    for row, ks in zip(table.values[1:], exponents):
        assert row[0] == 1
        assert [(v.m, v.c) for v in row[1:]] == [(5, {k: 1}) for k in ks]


def _cyclic_centralizers():
    """(n, centralizer) for every cyclic centralizer of order 3, 4 or 6 of a
    class representative in S3, S4 and S5."""
    out = []
    for name in ("S3", "S4", "S5"):
        gamma = small_group.__wrapped__(name)
        for c in gamma.conjugacy_classes():
            cent = gamma.centralizer(c.rep)
            if cent.order in (3, 4, 6) and any(cent.element_order(h) == cent.order
                                               for h in cent.elements):
                out.append((cent.order, cent))
    return out


def test_cyclic_centralizer_tables_match_the_closed_form():
    # chi_a(g^b) = zeta_n^(ab) for a generator g of Z_n: a second route to
    # Dixon's irrational values, row by row as sets
    found = _cyclic_centralizers()
    assert sorted(n for n, _ in found) == [3, 3, 4, 4, 6, 6]
    for n, cent in found:
        g = next(h for h in cent.elements if cent.element_order(h) == n)
        power, h = {}, cent.identity
        for b in range(n):
            power[h] = b
            h = cent.mult(h, g)
        table = cent.character_table()
        exps = [power[c.rep] for c in table.classes]

        def coords(v):
            return (v if isinstance(v, CycNum) else CycNum.rational(n, v)).reduced()
        dixon = {tuple(coords(v) for v in row) for row in table.values}
        closed = {tuple(CycNum.zeta_pow(n, a * b).reduced() for b in exps)
                  for a in range(n)}
        assert len(dixon) == n
        assert dixon == closed
        assert any(isinstance(v, CycNum) for row in table.values for v in row)


def test_verify_table_rejects_rational_values_lifted_off_by_one():
    table = build_group(GroupSpec("F4", 4)).character_table()
    _verify_table(table)
    for shift in (1, -1):
        values = [table.values[0]] + [[row[0]] + [v + shift for v in row[1:]]
                                      for row in table.values[1:]]
        with pytest.raises(RuntimeError, match="row orthogonality"):
            _verify_table(table._replace(values=values))


def test_cycnum_of_different_conductors_do_not_mix():
    a, b = CycNum.zeta_pow(4, 1), CycNum.zeta_pow(6, 1)
    with pytest.raises(ValueError, match="conductors differ: 4 and 6"):
        a + b
    with pytest.raises(ValueError, match="conductors differ: 4 and 6"):
        a * b


def test_charpoly_mod_at_any_prime():
    assert _charpoly_mod([[1, 2], [3, 4]], 5) == [3, 0, 1]  # q^2 - 5q - 2 mod 5
    # p <= n: (x - 1)^2 = x^2 + 1 mod 2
    assert _charpoly_mod([[1, 0], [0, 1]], 2) == [1, 0, 1]


def _mat_mul_mod(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def faddeev_leverrier_charpoly(a, p):
    """The characteristic polynomial mod p > n by the Faddeev-LeVerrier
    recursion, n matrix products: the route `_charpoly_mod` took before
    Hessenberg form, kept as a reference."""
    n = len(a)
    assert p > n
    coeffs = [0] * n + [1]
    mk = [row[:] for row in a]
    for k in range(1, n + 1):
        c = -sum(mk[i][i] for i in range(n)) * pow(k, -1, p) % p
        coeffs[n - k] = c
        if k < n:
            for i in range(n):
                mk[i][i] = (mk[i][i] + c) % p
            mk = _mat_mul_mod(a, mk, p)
    return coeffs


def _det_mod(a, p):
    """Determinant over F_p by Gaussian elimination."""
    a = [[x % p for x in row] for row in a]
    det = 1
    for c in range(len(a)):
        r = next((r for r in range(c, len(a)) if a[r][c]), None)
        if r is None:
            return 0
        if r != c:
            a[r], a[c] = a[c], a[r]
            det = -det
        det = det * a[c][c] % p
        inv = pow(a[c][c], -1, p)
        for r in range(c + 1, len(a)):
            u = a[r][c] * inv
            a[r] = [(x - u * y) % p for x, y in zip(a[r], a[c])]
    return det % p


def _check_charpoly(a, p):
    n = len(a)
    f = _charpoly_mod(a, p)
    assert len(f) == n + 1 and f[n] == 1 and all(0 <= c < p for c in f)
    if p > n:
        assert f == faddeev_leverrier_charpoly(a, p)
    # Cayley-Hamilton, by Horner's rule: f(A) = 0 mod p
    value = [[0] * n for _ in range(n)]
    for c in reversed(f):
        value = _mat_mul_mod(value, a, p)
        for i in range(n):
            value[i][i] = (value[i][i] + c) % p
    assert all(x == 0 for row in value for x in row)
    if n:
        assert f[n - 1] == -sum(a[i][i] for i in range(n)) % p
    assert f[0] == (-1) ** n * _det_mod(a, p) % p


# the zero matrix, triangular and block-diagonal matrices: columns that need
# no pivot during the Hessenberg reduction
@pytest.mark.parametrize("a", [
    [[0] * 5 for _ in range(5)],
    [[i + j if j >= i else 0 for j in range(6)] for i in range(6)],
    [[3, 1, 0, 0, 0], [2, 5, 0, 0, 0], [0, 0, 1, 4, 2], [0, 0, 6, 0, 1], [0, 0, 2, 2, 3]],
    [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
])
@pytest.mark.parametrize("p", [2, 3, 7, 73])
def test_charpoly_mod_on_columns_with_no_pivot(a, p):
    _check_charpoly(a, p)


@st.composite
def _matrices_mod_p(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 13, 73, 1009]))
    n = draw(st.integers(0, 9))
    a = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    shape = draw(st.sampled_from(["full", "sparse", "upper", "blocks", "zero"]))
    k = draw(st.integers(0, n))
    keep = {"full": lambda i, j: True, "sparse": lambda i, j: (i * 7 + j * 3) % 4 == 0,
            "upper": lambda i, j: j >= i, "blocks": lambda i, j: (i < k) == (j < k),
            "zero": lambda i, j: False}[shape]
    return [[x if keep(i, j) else 0 for j, x in enumerate(row)] for i, row in enumerate(a)], p


@settings(max_examples=200, deadline=None)
@given(_matrices_mod_p())
def test_charpoly_mod_matches_faddeev_leverrier_and_cayley_hamilton(ap):
    _check_charpoly(*ap)


def _class_matrix_by_inversion(group, classes, class_of, i, p):
    """A_i[j][k] = #{x in C_i : x^{-1} z_k in C_j} mod p, inverting each x:
    the route `_class_matrix` took before it read the inverse class."""
    a = [[0] * len(classes) for _ in classes]
    for x in classes[i].elements:
        for k, c in enumerate(classes):
            a[class_of[group.mult(group.inv(x), c.rep)]][k] += 1
    return [[v % p for v in row] for row in a]


def test_class_matrix_reads_the_inverse_class():
    non_real = []  # orders of the centralizers with a class C_i^{-1} != C_i
    for name in ("S3", "S4", "S5"):
        gamma = small_group.__wrapped__(name)
        for x in gamma.conjugacy_classes():
            cent = gamma.centralizer(x.rep)
            classes = cent.conjugacy_classes()
            class_of = cent._class_of
            p = _dixon_prime(cent.order, cent.exponent(), len(classes) + 1)
            inv_class = [class_of[cent.inv(c.rep)] for c in classes]
            if inv_class != list(range(len(classes))):
                non_real.append(cent.order)
            for i, istar in enumerate(inv_class):
                assert (_class_matrix(cent, classes, class_of, istar, p)
                        == _class_matrix_by_inversion(cent, classes, class_of, i, p))
    # Z3 in S3 and S4, Z4 in S4 and S5, Z5 and two Z6 = Z3 x Z2 in S5
    assert sorted(non_real) == [3, 3, 4, 4, 5, 6, 6]


def test_f4_split_builds_fourteen_class_matrices(monkeypatch):
    # the split takes the classes in ascending size; by descending size it
    # would build 9 matrices but make 21,000 products, against 6,875 here
    import ellq.groups
    calls = []
    class_matrix = ellq.groups._class_matrix
    monkeypatch.setattr(ellq.groups, "_class_matrix",
                        lambda group, classes, *rest: calls.append(rest[1]) or
                        class_matrix(group, classes, *rest))
    grp = build_group.__wrapped__(GroupSpec("F4", 4)).group
    assert len(grp.character_table().values) == 25
    assert len(calls) == 14
    assert sum(grp.conjugacy_classes()[istar].size * 25 for istar in calls) == 6875


def _diagonal(*values):
    """A stand-in for `_class_matrix` that returns diag(values) mod p."""
    return lambda group, classes, class_of, istar, p: [
        [v % p * (j == k) for k in range(len(values))] for j, v in enumerate(values)]


def _class_matrices(*stand_ins):
    """A stand-in for `_class_matrix` that asks each stand-in in turn."""
    calls = iter(stand_ins)
    return lambda *args: next(calls)(*args)


def _power_map_to_last_power(power_map):
    """`_power_map` with every power of g put in the class of g^(d-1)."""
    return lambda *args: [[row[-1]] * len(row) for row in power_map(*args)]


# S3 has 3 classes and p = 13: the identity, 3 transpositions, 2 3-cycles
@pytest.mark.parametrize("attr, stand_in, message", [
    # nothing splits
    ("_class_matrix", lambda: _diagonal(0, 0, 0), "eigenspace splitting failed"),
    # the span of e_0 and e_1, split off first, is not invariant under the ones matrix
    ("_class_matrix", lambda: _class_matrices(_diagonal(0, 0, 1), lambda *a: [[1] * 3] * 3),
     "eigenspace not invariant"),
    # the eigenvector of 0 is e_2
    ("_class_matrix", lambda: _diagonal(2, 1, 0), "vanishes at the identity class"),
    # the eigenvector of 0 is e_0, which gives chi(1)^2 = 6 mod 13: no square
    ("_class_matrix", lambda: _diagonal(0, 1, 2), "degree lift out of range"),
    # the sign character read as -1 at the identity power too: m_0 = -1
    ("_power_map", lambda: _power_map_to_last_power(ellq.groups._power_map),
     "multiplicity lift out of range"),
], ids=["split", "invariant", "identity", "degree", "multiplicity"])
def test_every_dixon_guard_fires(monkeypatch, attr, stand_in, message):
    monkeypatch.setattr(ellq.groups, attr, stand_in())
    with pytest.raises(RuntimeError, match=message):
        small_group.__wrapped__("S3").character_table()


@st.composite
def _matrix_and_vectors_mod_p(draw):
    p = draw(st.sampled_from([2, 13, 73, 2017]))
    rows, n, count = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(0, 4))
    vectors = st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
                       min_size=count, max_size=count)
    matrix = st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
                      min_size=rows, max_size=rows)
    return draw(matrix), draw(vectors), p


@settings(max_examples=100, deadline=None)
@given(_matrix_and_vectors_mod_p())
def test_packed_mat_vecs_match_plain_products(avp):
    a, vs, p = avp
    assert _mat_vecs(a, vs, p) == [tuple(sum(x * y for x, y in zip(row, v)) % p for row in a)
                                   for v in vs]


@pytest.mark.parametrize("name", SUPPORTED_GAMMAS)
def test_gamma_key_sorts_as_the_tuple_repr(name):
    # the class representatives and order of Gamma, so the labels of M(Gamma),
    # were chosen by repr(tuple(w)); the bytes themselves sort alike
    gamma = small_group(name)
    assert (sorted(gamma.elements, key=gamma.key)
            == sorted(gamma.elements, key=lambda w: repr(tuple(w))))


@given(st.permutations(range(40)), st.permutations(range(40)))
def test_permutation_product_and_inverse(a, b):
    group = permutation_group([], 40)
    assert group.mult(bytes(a), bytes(b)) == bytes(a[i] for i in b)
    assert group.mult(bytes(a), group.inv(bytes(a))) == group.identity == bytes(range(40))


def test_one_pass_orbits_equal_breadth_first_orbits():
    from ellq.fourier import small_group
    gamma = small_group("S5")
    assert gamma.generators
    flat = FiniteGroup(gamma.elements, gamma.mult, gamma.inv, gamma.identity,
                       key=gamma.key)
    assert not flat.generators

    def summary(group):
        return [(c.rep, c.size, c.order, set(c.elements))
                for c in group.conjugacy_classes()]
    assert summary(flat) == summary(gamma)


def test_character_table_is_kept_on_the_group():
    from ellq.fourier import small_group
    gamma = small_group("S4")
    cent = gamma.centralizer(gamma.conjugacy_classes()[1].rep)
    assert cent.character_table() is cent.character_table()
    assert gamma.character_table() is gamma.character_table()


# the signed-tuple product and inverse that types A, B and D were enumerated
# with before they became permutations of 2n points, kept as the reference


def sp_mult(w, v):
    return tuple(w[x - 1] if x > 0 else -w[-x - 1] for x in v)


def sp_inv(w):
    out = [0] * len(w)
    for i, x in enumerate(w):
        if x > 0:
            out[x - 1] = i + 1
        else:
            out[-x - 1] = -(i + 1)
    return tuple(out)


def _signed_perms(n):
    return st.tuples(st.permutations(range(1, n + 1)),
                     st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)).map(
        lambda ps: tuple(p * s for p, s in zip(*ps)))


@given(st.integers(1, 12).flatmap(lambda n: st.tuples(_signed_perms(n), _signed_perms(n))))
def test_signed_perm_product_matches_signed_tuples(wv):
    w, v = wv
    grp = permutation_group([], 2 * len(w))
    assert signed_tuple(signed_perm(w)) == w
    assert signed_tuple(grp.mult(signed_perm(w), signed_perm(v))) == sp_mult(w, v)
    assert signed_tuple(grp.inv(signed_perm(w))) == sp_inv(w)


@given(st.integers(1, 12).flatmap(lambda n: st.tuples(_signed_perms(n), _signed_perms(n))))
def test_signed_key_sorts_entry_by_entry(wv):
    # the enumeration's class order: -1 < -2 < ... < -n < 1 < ... < n, entry by entry
    w, v = wv

    def ranks(t):
        return [(x > 0, abs(x)) for x in t]
    assert (signed_key(signed_perm(w)) < signed_key(signed_perm(v))) == (ranks(w) < ranks(v))


def _enumerated_groups(name):
    """The groups a name stands for: a Weyl group or a Gamma; with ":cent"
    the centralizers that `fourier` builds for a Gamma, with ":0,2" the
    parabolic subgroup of a Weyl group on those generators."""
    base, _, sub = name.partition(":")
    if base in SUPPORTED_GAMMAS:
        return _centralizers(base)[1] if sub else [small_group(base)]
    W = build_group(GroupSpec.parse(base))
    return [parabolic_subgroup(W, [int(i) for i in sub.split(",")])] if sub else [W.group]


@pytest.mark.parametrize("name", (
    [f"A{n}" for n in range(1, 6)] + [f"B{n}" for n in range(1, 6)]
    + [f"D{n}" for n in range(2, 6)] + ["G2", "F4"] + list(SUPPORTED_GAMMAS)
    + [f"{g}:cent" for g in SUPPORTED_GAMMAS]
    + ["A4:0,2", "B3:0,2", "B4:1,2,3", "D4:0,1,3", "G2:1", "F4:1,2", "F4:0,3"]))
def test_every_enumerated_group_is_a_permutation_group(name):
    for grp in _enumerated_groups(name):
        assert all(type(g) is bytes for g in grp.elements)
        assert grp.mult.__code__ is permutation_group([], 1).mult.__code__
        assert grp.pad == bytes(256 - len(grp.identity))


def test_empty_parabolic_subgroup_is_trivial():
    W = build_group(GroupSpec("B", 3))
    H = parabolic_subgroup(W, [])
    assert H.order == 1 and H.elements == [W.group.identity]
    assert [(c.rep, c.size) for c in H.conjugacy_classes()] == [(W.group.identity, 1)]
