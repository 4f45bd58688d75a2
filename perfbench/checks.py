"""Exactness checks of operation outputs, run after the timed region.

Outputs are compared with the values recorded in `expected/`. Two checks
use a second route instead: a seeded virtual character must equal the same
integer combination of the recorded irreducible values, and in types B and
D the definitional elliptic fake degree of lambda x () must equal the
closed hook-content form.
"""
from __future__ import annotations

import json
from fractions import Fraction

VERIFY_FIELDS = ("check", "status", "computed", "expected")


def check(workload: str, inputs: dict, outputs: dict, expected: dict) -> dict:
    """{operation name: reason} for every output that is not exact."""
    bad = {}
    for name, out in outputs.items():
        try:
            reason = _check_one(name, out, inputs, expected)
        except Exception as e:  # a malformed output is a wrong output
            reason = f"check raised {e!r}"
        if reason:
            bad[name] = reason
    return bad


def _check_one(name, out, inputs, expected):
    kind, _, arg = name.partition(":")
    if name.startswith("verify "):
        return _check_verify(out, expected[name])
    if kind == "virtual":
        return _check_virtual(arg, out, inputs["virtual"][arg], expected)
    if name not in expected:
        return "no recorded value"
    if kind == "table":
        return _differs(_canonical_table(out), _canonical_table(expected[name]))
    if kind == "efd":
        return _differs(out, expected[name]) or _check_closed_forms(arg, out)
    return _differs(out, expected[name])


def _differs(got, want):
    a = json.dumps(got, sort_keys=True)
    b = json.dumps(want, sort_keys=True)
    return None if a == b else f"got {a[:120]} expected {b[:120]}"


def _check_verify(out, want):
    if out["exit"] != want["exit"]:
        return f"exit code {out['exit']}, expected {want['exit']}"
    rows = [[r[k] for k in VERIFY_FIELDS] for r in json.loads(out["stdout"])["reports"]]
    return _differs(rows, want["rows"])


def _canonical_table(t):
    """The labelled table independent of class order and representatives:
    rows sorted by label, columns sorted by (size, order, det(1-qw))."""
    order = sorted(range(len(t["labels"])), key=lambda i: t["labels"][i])
    cols = sorted([t["class_keys"][j], [t["values"][i][j] for i in order]]
                  for j in range(len(t["class_keys"])))
    return {"order": t["order"], "labels": [t["labels"][i] for i in order],
            "columns": cols}


def _check_closed_forms(group, efd):
    """lambda x () against bn_fake_closed in B_n; in D_n the restriction of
    lambda x () is labelled () x lambda and must equal dn_fake_closed."""
    family = group[0]
    if family not in ("B", "D"):
        return None
    from ellq import elliptic
    closed = elliptic.bn_fake_closed if family == "B" else elliptic.dn_fake_closed
    for label, got in efd.items():
        if label.endswith(("+", "-")):  # split D_n irreducibles
            continue
        lam_s, _, gam_s = label.partition("x")
        lam, gam = json.loads(lam_s), json.loads(gam_s)
        part = lam if family == "B" and not gam else gam if family == "D" and not lam else None
        if part is None:
            continue
        want = closed(tuple(part)).to_json()
        if got["value"] != want:
            return f"{label}: definitional sum differs from the closed form"
    return None


def _check_virtual(group, out, chars, expected):
    fake = expected[f"fake:{group}"]
    efd = expected[f"efd:{group}"]
    if len(out) != len(chars):
        return f"{len(out)} results for {len(chars)} characters"
    for got, terms in zip(out, chars):
        want = [Fraction(0)]
        for lab, c in terms:
            want = _add(want, _poly(fake[lab]), c)
        if _trim(_poly(got["fake"])) != _trim(want):
            return f"fake degree of {terms} is not the combination of the irreducibles"
        # sum c_i N_i/D_i as one unreduced fraction A/B, then A*D == N*B
        a, b = [Fraction(0)], [Fraction(1)]
        for lab, c in terms:
            n_i, d_i = _poly(efd[lab]["value"]["num"]), _poly(efd[lab]["value"]["den"])
            a, b = _add(_mul(a, d_i), _mul(n_i, b), c), _mul(b, d_i)
        num, den = _poly(got["efd"]["num"]), _poly(got["efd"]["den"])
        if _trim(_mul(a, den)) != _trim(_mul(num, b)):
            return f"elliptic fake degree of {terms} is not the combination of the irreducibles"
    return None


# dense polynomials over Q, lowest degree first


def _poly(coeffs):
    return [Fraction(c) for c in coeffs]


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _add(p, q, c=1):
    """p + c*q."""
    out = list(p) + [Fraction(0)] * max(0, len(q) - len(p))
    for i, x in enumerate(q):
        out[i] += c * x
    return out


def _mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        if x:
            for j, y in enumerate(q):
                out[i + j] += x * y
    return out
