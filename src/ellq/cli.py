"""Command-line interface.

Subcommands: group, fake, efd, fourier, mx, verify, affine, independence.
Global flags: --json for machine-readable output, --fixtures DIR to override
the packaged reference tables.  Exit codes: 0 (success, including documented
discrepancies), 1 (verification failure), 2 (usage error).
"""
from __future__ import annotations

import argparse
import itertools
import json
import sys


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit JSON")
    common.add_argument("--fixtures", metavar="DIR", default=argparse.SUPPRESS,
                        help="directory overriding the packaged data files")
    parser = argparse.ArgumentParser(
        prog="ellq",
        description="Exact elliptic fake degrees, nonabelian Fourier "
                    "transforms, and formal degrees for Weyl groups.")
    parser.add_argument("--json", action="store_true", help="emit JSON")
    parser.add_argument("--fixtures", metavar="DIR",
                        help="directory overriding the packaged data files")
    # dest names the subcommand in argparse's usage errors
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", parents=[common], help="realize a Weyl group")
    p.set_defaults(run=_cmd_group)
    p.add_argument("--type", required=True, help="A5, B3, D4, G2, F4")
    p.add_argument("--classes", action="store_true", help="list conjugacy classes")
    p.add_argument("--table", action="store_true", help="print the character table")

    p = sub.add_parser("fake", parents=[common], help="fake degrees of the irreducibles")
    p.set_defaults(run=_cmd_fake)
    p.add_argument("--type", required=True)
    p.add_argument("--irrep", help="single irreducible label")

    p = sub.add_parser("efd", parents=[common], help="elliptic fake degrees")
    p.set_defaults(run=_cmd_efd)
    p.add_argument("--type", required=True,
                   help="A, B, or D (with --n), or G2, F4, E6, E7, E8")
    p.add_argument("--n", type=int, help="rank for B and D; n for A_{n-1}")
    p.add_argument("--lambda", dest="lam", help="partition, e.g. 2,1,1")
    p.add_argument("--definitional", action="store_true",
                   help="also evaluate the group-sum definition")

    p = sub.add_parser("fourier", parents=[common], help="nonabelian Fourier transform matrix")
    p.set_defaults(run=_cmd_fourier)
    p.add_argument("--gamma", required=True,
                   help="trivial, Z2, Z2^2, Z2^3, Z2^4, S3, S4, S5")

    p = sub.add_parser("mx", parents=[common], help="formal-degree q-part from the product formula")
    p.set_defaults(run=_cmd_mx)
    p.add_argument("--fixture", required=True,
                   help=" | ".join(_MX_IDS))

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("suite", help="cyc, fourier, g2-formal, sp4, g2-affine, "
                                 "independence, appendix-g2, or all")

    p = sub.add_parser("affine", parents=[common], help="affine elliptic data")
    p.set_defaults(run=_cmd_affine)
    p.add_argument("base", help="affine base type, e.g. g2, a1, c2")
    p.add_argument("--classes", action="store_true")
    p.add_argument("--nu", action="store_true")
    p.add_argument("--ef", action="store_true")
    p.add_argument("--formal", action="store_true")

    p = sub.add_parser("independence", parents=[common], help="rank of 1/det(1-qw) over elliptic classes")
    p.set_defaults(run=_cmd_independence)
    p.add_argument("--type", required=True)

    args = parser.parse_args(argv)
    try:
        from .fixtures import set_fixtures_dir
        set_fixtures_dir(args.fixtures)
        return args.run(args)
    except BrokenPipeError:  # pragma: no cover
        return 0
    except (ValueError, KeyError, NotImplementedError) as e:
        # input outside the supported scope (GroupTooLargeError is a ValueError)
        print(f"ellq: error: {e.args[0] if e.args else type(e).__name__}",
              file=sys.stderr)
        return 2


def _emit(args, payload_json, text_lines):
    if args.json:
        print(json.dumps(payload_json, indent=1, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_group(args) -> int:
    from .weylgrp import GroupSpec, build_group
    W = build_group(GroupSpec.parse(args.type))
    if args.table:
        table = W.character_table()
        labels = W.irrep_labels()
        payload = {"group": str(W.spec), "order": W.order, "labels": labels,
                   "classes": [c.rep_str() for c in W.classes()],
                   "values": table.values}
        lines = [f"{str(W.spec)}: order {W.order}"]
        for lab, row in zip(labels, table.values):
            lines.append(f"  {lab:<14} {row}")
        _emit(args, payload, lines)
        return 0
    classes = [{"rep": c.rep_str(), "size": c.size,
                "charpoly": c.char_poly.to_json(), "elliptic": c.elliptic}
               for c in W.classes()]
    lines = [f"{str(W.spec)}: order {W.order}, {len(classes)} classes"]
    for c in W.classes():
        flag = "elliptic" if c.elliptic else ""
        lines.append(f"  size {c.size:>5}  det(1-qw) = {c.char_poly}  {flag}")
    _emit(args, {"group": str(W.spec), "order": W.order, "classes": classes}, lines)
    return 0


def _cmd_fake(args) -> int:
    from .weylgrp import GroupSpec, build_group, fake_degree
    W = build_group(GroupSpec.parse(args.type))
    labels = W.irrep_labels() if args.irrep is None else [args.irrep]
    payload = {}
    lines = []
    for lab in labels:
        f = fake_degree(W, lab)
        payload[lab] = f.to_json()
        lines.append(f"{lab:<14} {f}")
    _emit(args, payload, lines)
    return 0


def _cmd_efd(args) -> int:
    from .elliptic import (bn_fake_closed, dn_fake_closed, elliptic_fake_degree,
                           sgn_fake_degree)
    from .weylgrp import (EXPONENTS, GroupSpec, WeylGroupData, build_group,
                          exponents_of)
    t = args.type.upper()
    if t in ("B", "D"):
        if not args.lam:
            raise ValueError("--lambda required for types B and D")
        try:
            lam = tuple(int(x) for x in args.lam.split(","))
        except ValueError:
            raise ValueError(f"--lambda {args.lam} is not a partition: parts must be "
                             "integers separated by commas, e.g. 2,1,1") from None
        if lam[-1] <= 0 or any(a < b for a, b in zip(lam, lam[1:])):
            raise ValueError(f"--lambda {args.lam} is not a partition: "
                             "parts must be positive and weakly decreasing")
        n = args.n if args.n is not None else sum(lam)
        if sum(lam) != n:
            raise ValueError("partition size must equal --n")
        if t == "D" and n < 2:
            raise ValueError(f"--lambda {args.lam} is out of range: its size is {n}, "
                             "and type D takes n >= 2")
        spec = GroupSpec(t, n)
        f = bn_fake_closed(lam) if t == "B" else dn_fake_closed(lam)
        payload = {"type": f"{t}{n}", "lambda": list(lam), "value": f.to_json(),
                   "factored": f.factored()}
        lines = [f"F[{lam} x ()] over {t}{n}:", f"  raw: {f}", f"  factored: {f.factored()}"]

        def values(W):
            return W.class_function_bipartition(lam, ())
    else:
        if args.lam is not None:
            fam, rank = t[:1], t[1:]
            if fam in ("B", "D") and rank.isascii() and rank.isdigit():
                raise ValueError("--lambda takes the rank from --n: "
                                 f"write --type {fam} --n {int(rank)}")
            raise ValueError(f"--lambda applies to types B and D only, not {args.type}")
        if t in EXPONENTS and args.n is not None:
            raise ValueError(f"--n does not apply to {t}")
        if t in ("E6", "E7", "E8"):
            if args.definitional:
                raise ValueError(f"--definitional needs a realised group; {t} is not")
            spec, exponents = t, EXPONENTS[t]
        else:
            if t == "A" and args.n is None:
                raise ValueError("--n required for type A, for A_{n-1}: e.g. --type A --n 4, "
                                 "or --type A3")
            if t == "A" and args.n < 2:
                raise ValueError(f"--n {args.n} is out of range: type A takes n >= 2, "
                                 "for A_{n-1}")
            spec = GroupSpec.parse(f"A{args.n - 1}" if t == "A" and args.n is not None
                                   else args.type)
            if args.n is not None and spec.rank != args.n - (spec.family == "A"):
                raise ValueError(f"--n {args.n} conflicts with --type {args.type}")
            exponents = exponents_of(spec)
        f = sgn_fake_degree(exponents)
        payload = {"type": str(spec), "sign-character": f.to_json(), "factored": f.factored()}
        lines = [f"F[sgn] for {spec}:", f"  raw: {f}", f"  factored: {f.factored()}"]
        values = WeylGroupData.sign_values
    if args.definitional:
        W = build_group(spec)
        g = elliptic_fake_degree(W, values(W))
        payload["definitional"] = g.to_json()
        payload["agree"] = g == f
        lines.append(f"  definitional sum agrees: {g == f}")
    _emit(args, payload, lines)
    return 0


def _cmd_fourier(args) -> int:
    from .fourier import fourier_matrix
    block = fourier_matrix(args.gamma)
    labels = [str(p) for p in block.pairs]
    matrix = [[str(v) for v in row] for row in block.matrix]
    payload = {"gamma": args.gamma, "pairs": labels, "matrix": matrix,
               "rational": block.is_rational()}
    width = max(len(s) for s in labels) + 1
    lines = itertools.chain(
        [f"M({args.gamma}): {len(labels)} pairs", " " * width + " ".join(f"{s:>10}" for s in labels)],
        (f"{lab:<{width}}" + " ".join(f"{s:>10}" for s in row) for lab, row in zip(labels, matrix)))
    _emit(args, payload, lines)
    return 0


_MX_IDS = {
    "g2-a1-s1": ("g2-a1", "1"),
    "g2-a1-g2": ("g2-a1", "g2"),
    "g2-a1-g3": ("g2-a1", "g3"),
    "g2-reg": ("g2-reg", "1"),
    "sp4-22-tau": ("sp4-22", "tau"),
    "sp4-22-s1": ("sp4-22", "1"),
    "sp4-4": ("sp4-4", "1"),
    "a1-reg": ("a1-reg", "1"),
}


def _cmd_mx(args) -> int:
    from .unipotent import mx_for
    if args.fixture not in _MX_IDS:
        raise ValueError(f"unknown fixture; choose from {sorted(_MX_IDS)}")
    name, s = _MX_IDS[args.fixture]
    r = mx_for(name, s)
    payload = {"fixture": args.fixture, "value": r.value.to_json(),
               "factored": r.value.factored(), "elliptic": r.elliptic,
               "sign_before_normalization": r.raw_sign,
               "dropped_factors": [r.dropped_num, r.dropped_den]}
    lines = [f"m_x for {args.fixture}: {r.value.factored()}",
             f"  elliptic parameter: {r.elliptic}",
             f"  raw sign {r.raw_sign}; dropped factors "
             f"{r.dropped_num} (numerator), {r.dropped_den} (denominator)"]
    _emit(args, payload, lines)
    return 0


def _cmd_verify(args) -> int:
    from .report import exit_code, render_text, run_verify
    reports = run_verify(args.suite)
    _emit(args, {"suite": args.suite, "reports": [r.to_json() for r in reports]},
          [render_text(reports)])
    return exit_code(reports)


def _cmd_affine(args) -> int:
    from .affine import AffineDatum, ef_elliptic_on_parahoric
    base = args.base.strip().upper()
    d = AffineDatum(base)
    base = f"{base[0]}{d.rank}"  # the rank without leading zeros
    if args.formal and base != "G2":
        raise ValueError(f"--formal needs the packaged basis, which exists for g2 only, "
                         f"not {args.base}")
    lines = []
    payload = {"base": base}
    types = [p.type_str() for p in d.maximal_parahorics()]
    payload["parahorics"] = types
    lines.append(f"affine {base}: maximal parahorics {types}")
    if args.classes or not (args.nu or args.ef or args.formal):
        cls = [{"parahoric": types[c.parahoric_index],
                "charpoly": str(c.char_poly), "mu": str(c.mu)}
               for c in d.elliptic_classes()]
        payload["classes"] = cls
        lines.append(f"{len(cls)} elliptic classes:")
        for c in cls:
            lines.append(f"  in {c['parahoric']:<10} det(1-qw) = {c['charpoly']:<18} mu = {c['mu']}")
    if args.nu:
        nus = d.nu_values()
        payload["nu"] = [v.to_json() for v in nus]
        lines.append("nu on the elliptic classes:")
        for c, v in zip(d.elliptic_classes(), nus):
            lines.append(f"  {str(c.char_poly):<18} {v.factored()}")
    if args.ef:
        payload["ef_blocks"] = []
        lines.append("elliptic transform blocks per parahoric:")
        for p in d.maximal_parahorics():
            blk = ef_elliptic_on_parahoric(p.weyl)
            payload["ef_blocks"].append([[str(x) for x in row] for row in blk])
            lines.append(f"  {p.type_str()}: " +
                         "; ".join(",".join(str(x) for x in row) for row in blk))
    if args.formal:
        from .affine import G2_BASIS, g2_basis_values_canonical
        basis = g2_basis_values_canonical(d)
        payload["formal"] = {}
        lines.append("formal degrees of the discrete-series basis:")
        for fix, vals in zip(G2_BASIS, basis):
            f = d.formal_degree(vals)
            payload["formal"][fix.name] = f.to_json()
            lines.append(f"  {fix.name}: {f.factored()}")
    _emit(args, payload, lines)
    return 0


def _cmd_independence(args) -> int:
    from .elliptic import independence_check
    from .weylgrp import GroupSpec
    rep = independence_check(GroupSpec.parse(args.type))
    payload = {"group": str(rep.spec), "elliptic_classes": rep.n_elliptic,
               "rank": rep.rank, "independent": rep.independent,
               "coincident_charpolys": [p[2] for p in rep.coincident_pairs],
               "dependencies": [{"coefficients": list(c), "classes": list(t)}
                                for c, t in rep.dependencies]}
    lines = [f"{rep.spec}: {rep.n_elliptic} elliptic classes, rank {rep.rank}, "
             f"independent: {rep.independent}"]
    lines.extend(f"  dependency: {combo} = 0" for combo in rep.dependency_strings())
    for a, b, cp in rep.coincident_pairs:
        lines.append(f"  coincident characteristic polynomial: {cp}")
    _emit(args, payload, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
