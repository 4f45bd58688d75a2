"""Verification suites: every published value the package can recompute, with
a three-state outcome.  PASS means computed equals the reference; DISCREPANCY
is reserved for documented conflicts where two independent computations agree
with each other against a published value; FAIL means an internal invariant
broke.  Reports are deterministic and sorted by check id.
"""
from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple

from .exactq import QPolynomial, RF_ZERO, cyclotomic_quotient

PASS, FAIL, DISCREPANCY = "PASS", "FAIL", "DISCREPANCY"


class VerificationReport(NamedTuple):
    check_id: str
    status: str
    computed: str
    expected: str
    notes: str = ""

    def line(self) -> str:
        out = f"{self.status:<12} {self.check_id:<34} computed={self.computed}"
        if self.expected and self.expected != self.computed:
            out += f"  expected={self.expected}"
        if self.notes:
            out += f"  [{self.notes}]"
        return out

    def to_json(self) -> dict:
        return {"check": self.check_id, "status": self.status,
                "computed": self.computed, "expected": self.expected,
                "notes": self.notes}


def _cmp(check_id, computed, expected, notes="", discrepancy_notes=None):
    if computed == expected:
        return VerificationReport(check_id, PASS, str(computed), str(expected), notes)
    if discrepancy_notes is not None:
        return VerificationReport(check_id, DISCREPANCY, str(computed), str(expected),
                                  discrepancy_notes)
    return VerificationReport(check_id, FAIL, str(computed), str(expected), notes)


def run_verify(suite: str) -> list[VerificationReport]:
    if suite == "all":
        return [r for s in SUITES for r in run_verify(s)]
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; choose from {(*SUITES, 'all')}")
    reports = SUITES[suite]()
    reports.sort(key=lambda r: r.check_id)
    return reports


def exit_code(reports) -> int:
    return 1 if any(r.status == FAIL for r in reports) else 0


# ---------------------------------------------------------------------------


def _suite_cyc():
    from .elliptic import cyc_denominator
    from .fixtures import cyc_table
    from .weylgrp import exceptional_exponents
    out = []
    table = cyc_table()
    for name in ("G2", "F4", "E6", "E7", "E8"):
        got = cyc_denominator(exceptional_exponents(name))
        out.append(_cmp(f"cyc/{name}", _phi_str(got), _phi_str(table[name])))
    return out


def _phi_str(d: dict) -> str:
    return " ".join(f"Phi{n}^{m}" if m > 1 else f"Phi{n}" for n, m in sorted(d.items()))


def _suite_fourier():
    from .fixtures import ft_z2_printed
    from .fourier import fourier_matrix, m_set, special_column_entry
    out = []
    fz2 = fourier_matrix("Z2")
    out.append(_cmp("fourier/Z2-matrix",
                    _mat_str(fz2.matrix), _mat_str(ft_z2_printed())))
    out.append(_cmp("fourier/M(S3)-size", len(m_set("S3")), 8))
    out.append(_cmp("fourier/M(Z2)-size", len(m_set("Z2")), 4))
    for name in ("S3", "S4", "S5", "Z2^2", "Z2^3"):
        try:
            block = fourier_matrix(name)  # symmetry/realness/involution checked
            out.append(VerificationReport(
                f"fourier/{name}-orthogonal", PASS,
                f"symmetric involution, size {len(block.pairs)}", "", ""))
        except Exception as e:  # pragma: no cover
            out.append(VerificationReport(f"fourier/{name}-orthogonal", FAIL,
                                          str(e), "symmetric involution"))
    fs3 = fourier_matrix("S3")
    ok = True
    for p in fs3.pairs:
        for p1 in fs3.pairs:
            if p1.label[0] != "1":
                continue
            if special_column_entry("S3", p.label, p1.label) != fs3.entry(p.label, p1.label):
                ok = False
    out.append(_cmp("fourier/S3-special-columns", ok, True))
    return out


def _suite_g2_formal():
    from .fixtures import g2_formal_table_printed
    from .unipotent import FIXTURES, conjecture_rhs, conj_equiv, mx_for
    out = []
    fix = FIXTURES["g2-a1"]()
    computed_g2_row = cyclotomic_quotient({1: 2, 2: -2, 6: -1}, 1, Fraction(1, 2))
    mx_levi = mx_for("g2-a1", "g2")
    for entry, printed in g2_formal_table_printed():
        got = conjecture_rhs(fix, entry)
        cid = f"g2-formal/({entry[0]},{entry[1]})"
        if entry[0] == "g2":
            notes = ("both pipelines give Phi2^2 in the denominator; the "
                     "published table prints a single Phi2; the product "
                     f"formula gives m_x = {mx_levi.value.factored()} which "
                     "matches the transform side, not the table")
            out.append(_cmp(cid, got.factored(), printed.factored(),
                            discrepancy_notes=notes))
            if got != computed_g2_row:
                out.append(VerificationReport(cid + "/internal", FAIL,
                                              got.factored(),
                                              computed_g2_row.factored()))
        else:
            out.append(_cmp(cid, got.factored(), printed.factored()))
    # the q-part of the identity-component packet, against the product formula
    r = mx_for("g2-a1", "1")
    out.append(_cmp("g2-formal/mx-subregular", r.value.factored(),
                    cyclotomic_quotient({1: 2, 2: -2, 3: -1}, 1).factored()))
    # independent product formula agrees with the transform pipeline on the
    # order-2 packet
    lhs = mx_levi.value * Fraction(1, 2)
    out.append(_cmp("g2-formal/mx-levi-agreement", lhs.factored(),
                    computed_g2_row.factored()))
    # second equivalent form of the prediction: same values
    rows = [(("1", "1"), ("1", 1)), (("1", "r"), ("1", 2)), (("g2", "1"), ("g2", 1)),
            (("g3", "1"), ("g3", 1))]
    agree = all(conj_equiv(fix, s, d) == conjecture_rhs(fix, entry)
                for entry, (s, d) in rows)
    out.append(_cmp("g2-formal/equivalent-form", agree, True))
    return out


def _suite_sp4():
    from .elliptic import bn_fake_closed
    from .fixtures import sp4_formal_table_printed
    from .unipotent import FIXTURES, conjecture_rhs, mx_for, q_part_prediction
    out = []
    fix = FIXTURES["sp4-22"]()
    x = fix.fake_values[("1", "1")]  # q (1-q)^2 / (Phi2^2 Phi4)
    got = abs(bn_fake_closed((1, 1)))
    out.append(_cmp("sp4/fake-recovery", got.factored(), x.factored(),
                    notes="closed form for [1,1]x[] recovers the published "
                          "fake degrees up to the documented sign pairing"))
    fk = fix.fake_values
    out.append(_cmp("sp4/fake-signs",
                    sorted(str(v.factored()) for v in fk.values()),
                    sorted([str(x.factored()), str((-x).factored())])))
    for entry, printed in sp4_formal_table_printed():
        gotv = conjecture_rhs(fix, entry)
        out.append(_cmp(f"sp4/({entry[0]},{entry[1]})", gotv.factored(),
                        printed.factored()))
    qp = q_part_prediction(fix, "tau")
    mx = mx_for("sp4-22", "tau")
    out.append(_cmp("sp4/qpart-vs-product", abs(qp).factored(), mx.value.factored()))
    out.append(_cmp("sp4/dist-packets",
                    mx_for("sp4-4", "1").value != mx.value, True,
                    notes="regular and subregular packets have distinct q-parts"))
    return out


def _suite_g2_affine():
    from .affine import (AffineDatum, G2_BASIS, G2_BASIS_PAIRS, G2_EF_AFFINE_PRINTED,
                         G2_EF_J0_PRINTED, ef_elliptic_on_parahoric,
                         g2_basis_values_canonical, g2_class_alignment,
                         g2_conjectured_transform, g2_ef_affine_published_order,
                         g2_ef_j0_published_order, g2_mu_canonical)
    from .fixtures import fake_degree_from_table
    from .unipotent import FIXTURES, conjecture_rhs
    out = []
    d = AffineDatum("G2")
    types = [p.type_str() for p in d.maximal_parahorics()]
    out.append(_cmp("g2-affine/parahorics", types, ["G2", "A1 x A1", "A2"]))
    cls = d.elliptic_classes()
    out.append(_cmp("g2-affine/class-count", len(cls), 5))
    out.append(_cmp("g2-affine/mu", [str(c.mu) for c in cls],
                    [str(m) for m in g2_mu_canonical(d)]))
    basis = g2_basis_values_canonical(d)
    gram_ok = all(d.elliptic_inner(basis[i], basis[j]) == (1 if i == j else 0)
                  for i in range(5) for j in range(5))
    out.append(_cmp("g2-affine/gram-identity", gram_ok, True))

    ef0 = g2_ef_j0_published_order()
    out.append(_cmp("g2-affine/ef-finite-block", _mat_str(ef0),
                    _mat_str(G2_EF_J0_PRINTED),
                    notes="plain delta-function normalization; the measure-"
                          "weighted bracket does not reproduce the published block"))
    for k, node in ((1, 1), (2, 2)):
        blk = ef_elliptic_on_parahoric(d.maximal_parahorics()[node].weyl)
        out.append(_cmp(f"g2-affine/ef-vertex-{k}", _mat_str(blk),
                        _mat_str([[Fraction(1)]])))
    efa = g2_ef_affine_published_order()
    conj = g2_conjectured_transform()
    out.append(_cmp("g2-affine/transform-submatrix", _mat_str(efa), _mat_str(conj),
                    notes="the affine elliptic transform equals the parameter-"
                          "set submatrix (the conjectured identity)"))
    diffs = [(i, j) for i in range(5) for j in range(5)
             if efa[i][j] != G2_EF_AFFINE_PRINTED[i][j]]
    if diffs == [(2, 3)]:
        out.append(VerificationReport(
            "g2-affine/ef-affine-vs-published", DISCREPANCY,
            f"entry (v3,v4) = {efa[2][3]}", f"published {G2_EF_AFFINE_PRINTED[2][3]}",
            "conjugating the published finite block by the published character "
            "table forces the symmetric value -1/3, which also equals the "
            "parameter-set entry; the published +1/3 breaks the symmetry of a "
            "self-adjoint operator"))
    else:
        out.append(_cmp("g2-affine/ef-affine-vs-published", _mat_str(efa),
                        _mat_str(G2_EF_AFFINE_PRINTED)))

    nus = d.nu_values()
    align = g2_class_alignment(d)
    out.append(_cmp("g2-affine/nu-vertex1", nus[align[3]].factored(),
                    cyclotomic_quotient({1: 2, 2: -2}).factored()))
    out.append(_cmp("g2-affine/nu-vertex2", nus[align[4]].factored(),
                    cyclotomic_quotient({1: 2, 3: -1}).factored()))

    fixg2 = FIXTURES["g2-a1"]()
    for fix, pair, values in zip(G2_BASIS, G2_BASIS_PAIRS, basis):
        # v1 alone spans the Steinberg family: its formal degree is its fake degree
        target = (conjecture_rhs(fixg2, pair) if pair
                  else fake_degree_from_table("G2", *fix.springer))
        got = d.formal_degree(values)
        out.append(_cmp(f"g2-affine/formal-{fix.name}", got.factored(), target.factored(),
                        notes="elliptic integral against nu matches the "
                              "transform pipeline"))
    for fix, got, want in _g2_fake_degrees():
        out.append(_cmp(f"g2-affine/fake-{fix.name}", got.factored(), want.factored()))
    return out


def _g2_fake_degrees():
    """(module, its elliptic fake degree, the published value) for each G2
    basis module; the published value is the appendix row (orbit, phi) when
    the isolated point is the identity, and zero otherwise.  It is read on
    every call, as --fixtures may change it."""
    from .affine import G2_BASIS
    from .fixtures import fake_degree_from_table
    for fix, got in zip(G2_BASIS, _g2_elliptic_fakes()):
        want = fake_degree_from_table("G2", *fix.springer) if fix.springer else RF_ZERO
        yield fix, got, want


@functools.cache
def _g2_elliptic_fakes() -> tuple:
    """The elliptic fake degrees of the G2 basis modules, computed once."""
    from .affine import G2_BASIS, affine_elliptic_fake
    from .weylgrp import GroupSpec
    return tuple(affine_elliptic_fake(fix, GroupSpec("G2", 2)) for fix in G2_BASIS)


def _suite_independence():
    from .elliptic import independence_check
    from .weylgrp import GroupSpec
    out = []
    for fam, rng in (("B", range(1, 7)), ("D", range(2, 7))):
        for n in rng:
            rep = independence_check(GroupSpec(fam, n))
            cid = f"independence/{fam}{n}"
            if rep.independent:
                out.append(_cmp(cid, f"rank {rep.rank} of {rep.n_elliptic}",
                                f"rank {rep.n_elliptic} of {rep.n_elliptic}"))
            else:
                deps = "; ".join(rep.dependency_strings())
                out.append(VerificationReport(
                    cid, DISCREPANCY, f"rank {rep.rank} of {rep.n_elliptic}",
                    f"rank {rep.n_elliptic} of {rep.n_elliptic} (published claim)",
                    f"exact integer dependency: {deps} = 0; the published "
                    "induction argument fails when cycle type parts repeat"))
    for n in range(2, 9):
        rep = independence_check(GroupSpec("A", n - 1))
        out.append(_cmp(f"independence/A{n-1}",
                        (rep.n_elliptic, rep.rank), (1, 1)))
    rep = independence_check(GroupSpec("F4", 4))
    out.append(_cmp("independence/F4-elliptic-count", rep.n_elliptic, 9))
    target = str(QPolynomial.of(1, 0, 0, 1) * QPolynomial.of(1, 1))
    pairs = [(p[2]) for p in rep.coincident_pairs]
    out.append(_cmp("independence/F4-coincident-pair",
                    pairs, [target],
                    notes="exactly one pair of elliptic classes shares a "
                          "characteristic polynomial"))
    return out


def _suite_appendix():
    from .elliptic import sgn_fake_degree
    from .fixtures import fake_degree_from_table
    from .weylgrp import exceptional_exponents
    out = []
    for fix, got, want in _g2_fake_degrees():
        if fix.springer:
            orbit, phi = fix.springer
            out.append(_cmp(f"appendix-g2/{orbit}/{phi}", got.factored(), want.factored()))
    # regular rows of every exceptional table match the closed form; for the
    # odd-rank E7 the prefactor convention flips the sign ((1-q)^7 = -(q-1)^7),
    # so the published positive numerator corresponds to -F of the sign character
    for name in ("F4", "E6", "E7", "E8"):
        f = sgn_fake_degree(exceptional_exponents(name))
        l = len(exceptional_exponents(name))
        want = fake_degree_from_table(
            name, name, den={n: -e for n, e in f.phi_form[3].items() if e < 0}) * (-1) ** l
        out.append(_cmp(f"appendix-regular/{name}", str(f == want), "True",
                        notes="closed-form sign fake degree matches the "
                              "published regular-orbit numerator"
                              + (" (odd rank: sign absorbed by the (1-q)^l "
                                 "prefactor)" if l % 2 else "")))
    return out


SUITES = {"cyc": _suite_cyc, "fourier": _suite_fourier, "g2-formal": _suite_g2_formal,
          "sp4": _suite_sp4, "g2-affine": _suite_g2_affine,
          "independence": _suite_independence, "appendix-g2": _suite_appendix}


def _mat_str(m) -> str:
    return "[" + "; ".join(",".join(str(x) for x in row) for row in m) + "]"


def render_text(reports) -> str:
    lines = [r.line() for r in reports]
    n_pass = sum(r.status == PASS for r in reports)
    n_disc = sum(r.status == DISCREPANCY for r in reports)
    n_fail = sum(r.status == FAIL for r in reports)
    lines.append(f"-- {n_pass} PASS, {n_disc} DISCREPANCY, {n_fail} FAIL")
    return "\n".join(lines)
