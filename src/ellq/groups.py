"""Generic finite group machinery: enumeration from generators, conjugacy
classes, centralizers, subgroups, and exact character tables.

A cyclic group of order n has its table in closed form, chi_j(g^k) =
zeta_n^(jk) for a generator g (`_cyclic_table`).  Dixon's algorithm serves
every other group ellq tabulates: G2, F4 and the non-cyclic centralizers in
the Fourier groups Gamma (types A, B and D are closed form, in `weylgrp`).
All are rational, every class holding g^k for each k prime to the order of
g, so every value is an integer and every class its own inverse; a group
neither cyclic nor rational is refused.  Dixon splits common eigenspaces of
the class matrices (A_i from the products x z_k, x in C_i) over a prime
field F_p (p = 1 mod exponent, p > 2*sqrt(|G|)).  The eigenvalues on each
eigenspace are the roots of its characteristic polynomial, computed through
Hessenberg form in O(n^3) for any p (`_charpoly_mod`, also behind
`weylgrp.char_poly_matrix`), and found by evaluating it at every point of
F_p: p is a few thousand at most (13 for G2, 73 for F4).
The first split reads the first class matrix as it stands, on the standard
basis.  Every eigenbasis is kept reduced, 1 at its own pivot and 0 at the
others, so a later split maps the basis through a class matrix, packed
coordinate by coordinate into ints (`_mat_vecs`), reads the coordinates of
the images at the pivots, and checks with one more product that the space
is invariant.  Each value chi(g) is the centred lift of chi(g) mod p, a
plain int, exact as |chi(g)| <= chi(1) < p/2.  The orthogonality relations
of either table are then verified exactly by `gram_mismatch`, the one Gram
check, which `fourier` runs on its blocks too; any failure is a hard error,
and no approximate table is ever returned.

Elements are any hashable objects.  Every group ellq enumerates (A, B and D
on the 2n points +-e_i, G2 and F4 on their roots, and Gamma) is a
`permutation_group`: an element is `bytes`, and a product is one
`bytes.translate` through the left factor, padded to a 256-byte table.  A
group of `bytes` derives that pad from its identity.  The conjugation orbits
(`FiniteGroup.conjugator`) and the class matrices pad their fixed factor once
and then only translate.  The key that picks class representatives is bytes
too (`weylgrp.signed_key` for A, B and D, `weylgrp.RootSystem.key` for G2 and
F4, the element itself for Gamma), so no element is turned into a string, and
`sort_classes` orders the classes of every group.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import lshift, mul
from typing import Callable, NamedTuple, Optional, Sequence

from .cyclo import CycNum, ring_reduce, ring_sum, ring_terms
from .exactq import isprime, nullspace_mod


# the most elements any enumeration may produce
DEFAULT_BOUND = 50000


class GroupTooLargeError(ValueError):
    pass


def perm_inv(w: bytes) -> bytes:
    out = bytearray(len(w))
    for i, k in enumerate(w):
        out[k] = i
    return bytes(out)


def permutation_group(generators: Sequence, degree: int, **kwargs) -> "FiniteGroup":
    """The group generated by permutations of range(degree), given as lists
    of images; keyword arguments go to `FiniteGroup.generate`.  Elements are
    `bytes`, and (a b)[i] = a[b[i]] is b translated through a, padded once
    to a full byte table."""
    pad = bytes(256 - degree)
    return FiniteGroup.generate([bytes(g) for g in generators],
                                lambda a, b: b.translate(a + pad), perm_inv,
                                bytes(range(degree)), **kwargs)


class ConjClass(NamedTuple):
    rep: object
    size: int
    order: int  # order of the elements
    elements: tuple = ()


def sort_classes(classes, key: Optional[Callable]) -> list:
    """The classes by size, then element order, then the key of the
    representative (the representative itself when key is None).  The
    identity is the one element of order 1, and its class has size 1, so its
    class comes first."""
    return sorted(classes, key=lambda c: (c.size, c.order, c.rep if key is None else key(c.rep)))


class FiniteGroup:
    """A concrete finite group whose elements are hashable objects.

    `key` orders elements: each class is represented by its element of least
    key, and classes of equal size and order are sorted by their
    representatives' keys; with key None the elements themselves compare.
    Subgroups and centralizers inherit it.  `pad`, set when the elements are
    `bytes` (those of a permutation group) and None otherwise, is the zero
    bytes that make an element a full `bytes.translate` table: the class
    loops pad their fixed factor with it once and multiply by translating.
    The classes and the character table are computed once and kept.
    """

    def __init__(self, elements, mult: Callable, inv: Callable, identity,
                 generators: Sequence = (), lengths: Optional[dict] = None,
                 key: Optional[Callable] = repr):
        self.elements = list(elements)
        self.mult = mult
        self.inv = inv
        self.identity = identity
        self.generators = list(generators)
        self.lengths = lengths
        self.key = key
        self.pad = bytes(256 - len(identity)) if type(identity) is bytes else None
        self._classes: Optional[list[ConjClass]] = None
        self._class_of: Optional[dict] = None
        self._table: Optional[CharacterTable] = None

    @staticmethod
    def generate(generators: Sequence, mult: Callable, inv: Callable, identity,
                 bound: int = DEFAULT_BOUND, key: Optional[Callable] = repr) -> "FiniteGroup":
        """Enumerate the group generated by `generators` by breadth-first
        closure.  Each element's distance from the identity, its length in
        the generators, is kept in `lengths`, which is also the seen-set."""
        lengths = {identity: 0}
        frontier = [identity]
        elements = [identity]
        while frontier:
            nxt = []
            for g in frontier:
                for s in generators:
                    h = mult(g, s)
                    if h not in lengths:
                        lengths[h] = lengths[g] + 1
                        elements.append(h)
                        nxt.append(h)
                        if len(elements) > bound:
                            raise GroupTooLargeError(
                                f"group exceeds enumeration bound {bound}")
            frontier = nxt
        return FiniteGroup(elements, mult, inv, identity, generators, lengths, key)

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_order(self, g) -> int:
        n, h = 1, g
        while h != self.identity:
            h = self.mult(h, g)
            n += 1
        return n

    def conjugacy_classes(self) -> list[ConjClass]:
        """Orbit partition under conjugation, deterministically ordered: each
        orbit is closed breadth first under the generators, or under every
        element in a group built without them (a centralizer)."""
        if self._classes is not None:
            return self._classes
        key = self.key
        conjugates = self.conjugator(self.generators or self.elements)
        seen, raw = set(), []
        for g in self.elements:
            if g in seen:
                continue
            orbit, frontier = {g}, [g]
            while frontier:
                for y in conjugates(frontier.pop()):
                    if y not in orbit:
                        orbit.add(y)
                        frontier.append(y)
            seen |= orbit
            rep = min(orbit, key=key)
            raw.append(ConjClass(rep, len(orbit), self.element_order(rep), tuple(orbit)))
        self._classes = classes = sort_classes(raw, key)
        self._class_of = {}
        for i, c in enumerate(classes):
            for x in c.elements:
                self._class_of[x] = i
        return classes

    def conjugator(self, conjugators) -> Callable:
        """x -> [s x s^-1 for s in conjugators].  In a permutation group
        s x s^-1 is s^-1 translated through x, then through s: each s is
        padded here once, and x once per call."""
        pairs = [(s, self.inv(s)) for s in conjugators]
        pad = self.pad
        if pad is None:
            mult = self.mult
            return lambda x: [mult(mult(s, x), s_inv) for s, s_inv in pairs]
        padded = [(s + pad, s_inv) for s, s_inv in pairs]

        def conjugates(x):
            xp = x + pad
            return [s_inv.translate(xp).translate(sp) for sp, s_inv in padded]
        return conjugates

    def class_of(self, g) -> int:
        self.conjugacy_classes()
        return self._class_of[g]

    def centralizer(self, x) -> "FiniteGroup":
        elems = [g for g in self.elements if self.mult(g, x) == self.mult(x, g)]
        return FiniteGroup(elems, self.mult, self.inv, self.identity, key=self.key)

    def subgroup(self, gens: Sequence) -> "FiniteGroup":
        return FiniteGroup.generate(list(gens), self.mult, self.inv, self.identity,
                                    bound=self.order, key=self.key)

    def exponent(self) -> int:
        return lcm(*(c.order for c in self.conjugacy_classes()))

    # -- character table -----------------------------------------------------

    def character_table(self) -> "CharacterTable":
        """The closed form for a cyclic group, Dixon's algorithm otherwise."""
        if self._table is None:
            g = next((c.rep for c in self.conjugacy_classes() if c.order == self.order), None)
            self._table = _dixon_table(self) if g is None else _cyclic_table(self, g)
        return self._table


class CharacterTable(NamedTuple):
    """Exact character table of a group of the given order: rows =
    irreducibles, columns = conjugacy classes (anything with a `size`).

    Values are ints where the character is rational (always, outside a
    cyclic group) and CycNum otherwise.
    """
    order: int
    classes: list
    values: list[list]  # values[i][j] = chi_i(class j)
    conductor: int

    @property
    def n_irreps(self) -> int:
        return len(self.values)

    def dims(self) -> list[int]:
        return [row[0] for row in self.values]

    def inner_product(self, f, g) -> Fraction:
        """<f, g> = (1/|G|) sum |C| f(C) conj(g(C)) for rational class functions."""
        for h in (f, g):
            if len(h) != len(self.classes):
                raise ValueError(f"a class function has {len(self.classes)} values, "
                                 f"not {len(h)}")
        total = sum(c.size * f[j] * g[j] for j, c in enumerate(self.classes))
        return Fraction(total, self.order)

    def decompose(self, values) -> list[Fraction]:
        """Coordinates of a rational class function in the basis of irreducibles."""
        return [self.inner_product(values, row) for row in self.values]


# ---------------------------------------------------------------------------
# modular linear algebra


def _mat_vecs(a, vs, p):
    """A v mod p for each v in vs, in one sum per row of A: the vs are
    packed coordinate by coordinate into ints, v_t in the w bits from w t
    on, and no slot of a row's sum reaches n p^2 < 2^w (n the length of v)."""
    w = (len(a[0]) * p * p).bit_length()
    mask = (1 << w) - 1
    shifts = range(0, w * len(vs), w)
    packed = [sum(map(lshift, coords, shifts)) for coords in zip(*vs)]
    rows = [[(t >> sh & mask) % p for sh in shifts] for t in
            (sum(map(mul, ra, packed)) for ra in a)]
    return list(zip(*rows))


def _charpoly_mod(a, p):
    """Characteristic polynomial (monic, low-to-high coefficients) mod any
    prime p, in O(n^3): a similarity to upper Hessenberg form H over F_p,
    then chi_m = (x - h_mm) chi_{m-1} - sum_{i<m} h_im h_{i+1,i}..h_{m,m-1}
    chi_{i-1} (Cohen 1993, Alg. 2.2.9)."""
    n = len(a)
    h = [[x % p for x in row] for row in a]
    for m in range(1, n - 1):
        i = next((i for i in range(m, n) if h[i][m - 1]), None)
        if i is None:
            continue  # column m - 1 is reduced already
        h[i], h[m] = h[m], h[i]
        for r in h:
            r[i], r[m] = r[m], r[i]
        t = pow(h[m][m - 1], -1, p)
        us = [(i, u) for i in range(m + 1, n) if (u := h[i][m - 1] * t % p)]
        for i, u in us:  # row_i -= u row_m, then column_m += u column_i
            h[i] = [(x - u * y) % p for x, y in zip(h[i], h[m])]
        for r in h:
            r[m] = (r[m] + sum(u * r[i] for i, u in us)) % p
    chis = [[1]]
    for m in range(n):
        f = [x - h[m][m] * y for x, y in zip([0] + chis[m], chis[m] + [0])]
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * h[i + 1][i] % p
            if not t:
                break  # a zero subdiagonal entry is a factor of every later t
            c = t * h[i][m]
            for k, y in enumerate(chis[i]):
                f[k] -= c * y
        chis.append([x % p for x in f])
    return chis[n]


def _roots_mod(f, p):
    """The roots in F_p of f (low-to-high coefficients), in ascending order:
    f is evaluated at every point of F_p at once, by Horner's rule."""
    values = [0] * p
    for c in reversed(f):
        values = [(v * x + c) % p for x, v in enumerate(values)]
    return [x for x, v in enumerate(values) if v == 0]


# ---------------------------------------------------------------------------
# Dixon's algorithm


def _dixon_prime(order: int, exponent: int, min_above: int) -> int:
    """The least prime p > max(2 isqrt(order), min_above) with p = 1 mod
    exponent: p is then prime to |G|, as every prime factor of |G| divides
    the exponent, so every class size is a unit mod p."""
    p = max(2 * isqrt(order), min_above) + 1
    while not (isprime(p) and p % exponent == 1 % exponent):
        p += 1
    return p


def _class_matrix(group: FiniteGroup, classes, class_of, i, p):
    """A_i[j][k] = #{x in C_i : x^{-1} z_k in C_j} mod p: as Dixon's groups are
    rational, C_i = C_i^{-1}, so this counts x in C_i with x z_k in C_j."""
    ys = classes[i].elements
    if group.pad is None:
        mult = group.mult
        products = [[mult(y, c.rep) for y in ys] for c in classes]
    else:  # y z is z translated through y, padded once for every z
        padded = [y + group.pad for y in ys]
        products = [map(c.rep.translate, padded) for c in classes]
    a = [[0] * len(classes) for _ in classes]
    for k, col in enumerate(products):
        for j, count in Counter(map(class_of.__getitem__, col)).items():
            a[j][k] = count % p
    return a


def _cyclic_table(group: FiniteGroup, g) -> CharacterTable:
    """The table of the group generated by g, of order n: chi_j(g^k) =
    zeta_n^(jk), the int 1 or -1 where that root of unity is rational."""
    n = group.order
    power, h = {}, group.identity
    for k in range(n):
        power[h] = k
        h = group.mult(h, g)
    classes = group.conjugacy_classes()
    rows = [[1 if jk == 0 else -1 if 2 * jk == n else CycNum(n, {jk: 1})
             for jk in (j * power[c.rep] % n for c in classes)] for j in range(n)]
    return _ordered_table(group, rows, n)


def _dixon_table(group: FiniteGroup) -> CharacterTable:
    classes = group.conjugacy_classes()
    kk = len(classes)
    class_of = group._class_of
    # rational: each class holds g^k for every k prime to the order of g
    for i, c in enumerate(classes):
        h = c.rep
        for k in range(2, c.order):
            h = group.mult(h, c.rep)
            if gcd(k, c.order) == 1 and class_of[h] != i:
                raise NotImplementedError(f"no character table for a group of order "
                                          f"{group.order} that is neither rational nor cyclic")
    exponent = group.exponent()
    p = _dixon_prime(group.order, exponent, min_above=max(kk, exponent) + 1)

    # common one-dimensional eigenspaces of the class matrices over F_p, each
    # with its pivots: vector t is 1 at piv[t] and 0 at the other pivots, so a
    # vector of the span has its coordinates there.  On the standard basis A_i
    # is its own coordinate matrix
    standard = [[int(j == i) for j in range(kk)] for i in range(kk)]
    spaces = [(standard, range(kk))]
    # classes in ascending size build the cheapest class matrices: F4 splits
    # with 14 of them (6,875 products), against 21,000 products by descending size
    for i in range(1, kk):
        if all(len(s) == 1 for s, _ in spaces):
            break
        ai = _class_matrix(group, classes, class_of, i, p)
        new_spaces = []
        for s, piv in spaces:
            if len(s) == 1:
                new_spaces.append((s, piv))
                continue
            cols = list(zip(*s))
            if s is standard:
                r = ai
            else:
                images = _mat_vecs(ai, s, p)
                r = [[v[k] for v in images] for k in piv]
                if _mat_vecs(cols, list(zip(*r)), p) != images:
                    raise RuntimeError("eigenspace not invariant under a class matrix")
            for lam in _roots_mod(_charpoly_mod(r, p), p):
                rm = [[(x - lam) % p if a_ == b_ else x for b_, x in enumerate(row)]
                      for a_, row in enumerate(r)]
                # kernel vector f is 1 at its free column f, its last nonzero
                # entry, and 0 at the other free ones: its image is reduced
                null = nullspace_mod(rm, len(rm), p)
                if null:
                    new_spaces.append((null if s is standard else _mat_vecs(cols, null, p),
                                       [piv[max(k for k, x in enumerate(v) if x)] for v in null]))
        spaces = new_spaces
    if not all(len(s) == 1 for s, _ in spaces) or len(spaces) != kk:
        raise RuntimeError("character table eigenspace splitting failed")

    # normalize: w[identity] = 1, then recover chi(1) and the values mod p
    size_inv = [pow(c.size, -1, p) for c in classes]
    bound = isqrt(group.order)
    rows_fp = []
    for (w,), _ in spaces:
        if w[0] % p == 0:
            raise RuntimeError("eigenvector vanishes at the identity class")
        scale = pow(w[0], -1, p)
        w = [x * scale % p for x in w]
        dot = sum(x * x * y for x, y in zip(w, size_inv)) % p
        chi1_sq = group.order * pow(dot, -1, p) % p
        # chi(1) <= sqrt|G| < p/2, so at most one root of chi1_sq lies in range
        chi1 = next((x for x in range(1, bound + 1) if x * x % p == chi1_sq), None)
        if chi1 is None:
            raise RuntimeError("irreducible degree lift out of range")
        rows_fp.append([chi1 * x * y % p for x, y in zip(w, size_inv)])

    # |chi(g)| <= chi(1) < p/2, so chi(g) is the centred lift of its residue
    return _ordered_table(group, [[x if 2 * x < p else x - p for x in row] for row in rows_fp],
                          exponent)


def _ordered_table(group: FiniteGroup, rows, conductor: int) -> CharacterTable:
    """The verified table of the given rows, in `row_order`."""
    table = CharacterTable(group.order, group.conjugacy_classes(),
                           [rows[i] for i in row_order(rows)], conductor)
    _verify_table(table)
    return table


def row_order(rows) -> list[int]:
    """The indices of character rows in table order: by degree, then value
    by value with rationals before irrationals, and the trivial row first."""
    def key(i):
        return [rows[i][0]] + [(0, v) if isinstance(v, int) else (1, v.reduced())
                               for v in rows[i][1:]]
    order = sorted(range(len(rows)), key=key)
    trivial = [k for k, i in enumerate(order) if all(type(v) is int and v == 1 for v in rows[i])]
    if not trivial:
        raise RuntimeError("trivial character missing from the table")
    order.insert(0, order.pop(trivial[0]))
    return order


def _verify_table(table: CharacterTable) -> None:
    """Row orthogonality (`gram_mismatch`), hence column orthogonality too, as
    the table is square; raises on any failure."""
    if table.n_irreps != len(table.classes):
        raise RuntimeError("wrong number of irreducibles")
    if not all(isinstance(v, int) and v == 1 for v in table.values[0]):
        raise RuntimeError("first row is not the trivial character")
    ab = gram_mismatch(table.values, [c.size for c in table.classes], table.order, table.conductor)
    if ab is not None:
        raise RuntimeError("row orthogonality fails for rows %d,%d" % ab)


def gram_mismatch(rows, weights, norm: int, m: int) -> Optional[tuple[int, int]]:
    """The first pair a <= b of rows with sum_k weights[k] rows[a][k]
    conj(rows[b][k]) != norm delta_ab (weights >= 0), or None: the Gram check
    of every character table and Fourier block.  Entries are ints, CycNums
    or pairs (k, c) of Z[Z/m].  The all-int rows pair at once: column k,
    weighted, is packed into one int, row b_t in the w bits from w t on, so
    sum_k rows[a][k] packed[k] holds entry (a, b_t) in slot t, off from norm
    delta by less than 2^w; any other pair is summed in Z[Z/m] and reduced
    mod Phi_m once."""
    n = len(rows)
    integral = [all(type(v) is int for v in row) for row in rows]
    ints = [a for a in range(n) if integral[a]]
    big = max((max(map(abs, rows[a]), default=0) for a in ints), default=0)
    w = max(sum(weights) * big * big, norm).bit_length() + 1
    shifts = range(0, w * len(ints), w)
    packed = [c * sum(map(lshift, col, shifts))
              for c, col in zip(weights, zip(*(rows[b] for b in ints)))]
    for t, a in enumerate(ints):
        if sum(map(mul, rows[a], packed)) != norm << w * t:
            b = next(b for b in ints if norm * (a == b)
                     != sum(x * y * c for x, y, c in zip(rows[a], rows[b], weights)))
            return min(a, b), max(a, b)
    if len(ints) == n:
        return None
    terms = [[ring_terms(v, m) for v in row] for row in rows]
    for a in range(n):
        for b in range(a, n):
            if not (integral[a] and integral[b]):
                total = ring_sum(zip(weights, terms[a], terms[b]), m)
                if ring_reduce(total.items(), m) != ring_reduce(((0, norm * (a == b)),), m):
                    return a, b
    return None
