"""Command-line entry points; all output is canonical and byte-stable.

Exit status: 0 on pass, 1 on verification failure, 2 on usage/parse errors.
"""

from __future__ import annotations

import argparse
import sys

from .coxeter import UnsupportedTypeError, build_coxeter
from .cousin import (
    SignConventionError, constructibility_check, coperversity_check, support_check,
)
from .f1 import build_e1, build_e1v, rep_catalog
from .fq import (
    FibrewiseConstancyError, ResourceError, b_invariant_sub, build_eq, hecke_generators,
    orbit_point_checks,
)
from .io import ParseError, check_dump, dumps, loads, mbs_from_json, mbs_to_json, poly_dump, xi_dump
from .linalg import RationalMatrix
from .orbitpoly import HorVerMismatchError, orbit_poly, property_suite, validate_counts
from .report import Report
from .sheaf import PathDependenceError, check_mbs
from .xi import enumerate_xi


def _write(text, output):
    if output:
        with open(output, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _poset(args):
    return enumerate_xi(build_coxeter(args.type, args.rank))


def cmd_xi(args):
    _write(dumps(xi_dump(_poset(args))), args.output)
    return 0


def cmd_check(args):
    with open(args.input, encoding="ascii") as fh:
        sheaf = mbs_from_json(loads(fh.read()))
    report = check_mbs(sheaf)
    if report.ok:
        support = support_check(sheaf)
        cosupport = coperversity_check(sheaf)
        constr = constructibility_check(sheaf)
    else:
        support = cosupport = constr = Report(ran=False)
    ok = report.ok and support.ok and cosupport.ok and constr.ok
    print("PASS" if ok else "FAIL")
    if args.json:
        _write(dumps(check_dump(report, support, cosupport, constr)), args.output)
    return 0 if ok else 1


def _parse_example_name(args):
    name = args.name
    params = list(args.params)
    if ":" in name:
        head, *rest = name.split(":")
        name = head
        params = rest + params
    return name, params


def cmd_example(args):
    name, params = _parse_example_name(args)
    if name == "e1":
        sheaf = build_e1(_poset(args))
    elif name == "e1v":
        if len(params) != 1:
            raise UnsupportedTypeError("e1v needs a representation name")
        poset = _poset(args)
        sheaf = build_e1v(poset, rep_catalog(poset.datum, params[0]))
    elif name in ("eq", "eq-binv"):
        if len(params) != 2:
            raise UnsupportedTypeError(f"{name} needs n and q")
        n, q = int(params[0]), int(params[1])
        sheaf = build_eq(n, q)
        if name == "eq-binv":
            sheaf = b_invariant_sub(sheaf)
    else:
        raise UnsupportedTypeError(f"unknown example {name!r}")
    include_action = args.with_action and name == "e1"
    _write(dumps(mbs_to_json(sheaf, include_action=include_action)), args.output)
    return 0


def cmd_poly(args):
    poset = _poset(args)
    polys = {m: orbit_poly(poset, m) for m in range(len(poset.elements))}
    report = property_suite(poset)
    ok = report.ok
    if args.validate and poset.datum.type_label == "A":
        for q in (2, 3):
            counts = validate_counts(poset, q)
            ok = ok and counts.ok
    print("PASS" if ok else "FAIL")
    if args.json:
        _write(dumps(poly_dump(poset, polys, report)), args.output)
    return 0 if ok else 1


def cmd_hecke(args):
    gens = hecke_generators(args.n, args.q)
    size = gens[0].nrows
    ident = RationalMatrix.identity(size)
    zero = RationalMatrix.zeros(size, size)
    quadratic = all((s + ident) @ (s - ident.scale(args.q)) == zero for s in gens)
    braid = all(gens[i] @ gens[i + 1] @ gens[i]
                == gens[i + 1] @ gens[i] @ gens[i + 1]
                for i in range(len(gens) - 1))
    ok = quadratic and braid
    print("PASS" if ok else "FAIL")
    if args.json:
        _write(dumps({"n": args.n, "q": args.q,
                      "quadratic": "PASS" if quadratic else "FAIL",
                      "braid": "PASS" if braid else "FAIL"}), args.output)
    return 0 if ok else 1


def cmd_orbits(args):
    report = orbit_point_checks(args.n, args.q)
    print(report.summary())
    if args.json:
        _write(dumps({"n": args.n, "q": args.q, "checked": report.checked,
                      "status": "PASS" if report.ok else "FAIL",
                      "failures": [repr(f) for f in report.failures]}), args.output)
    return 0 if report.ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mbsheaf",
        description="2-sided Coxeter complex and mixed Bruhat sheaf toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_datum(p):
        p.add_argument("--type", required=True, choices=["A", "B", "C", "G"])
        p.add_argument("--rank", required=True, type=int)

    def add_out(p):
        p.add_argument("-o", "--output", default=None)
        p.add_argument("--json", action="store_true",
                       help="emit the machine-readable report")

    p = sub.add_parser("xi", help="dump the 2-sided complex")
    add_datum(p)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_xi)

    p = sub.add_parser("check", help="verify a sheaf file")
    p.add_argument("input")
    add_out(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("example", help="emit a built-in sheaf")
    p.add_argument("name", help="e1 | e1v REP | eq N Q | eq-binv N Q")
    p.add_argument("params", nargs="*")
    p.add_argument("--type", default="A", choices=["A", "B", "C", "G"])
    p.add_argument("--rank", type=int, default=1)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--with-action", action="store_true",
                   help="attach the group_action block (e1 only)")
    p.set_defaults(fn=cmd_example)

    p = sub.add_parser("poly", help="orbit-count polynomials and their laws")
    add_datum(p)
    add_out(p)
    p.add_argument("--validate", action="store_true",
                   help="also compare against finite-field counts (type A)")
    p.set_defaults(fn=cmd_poly)

    p = sub.add_parser("hecke", help="verify the Hecke generator relations")
    p.add_argument("n", type=int)
    p.add_argument("q", type=int)
    add_out(p)
    p.set_defaults(fn=cmd_hecke)

    p = sub.add_parser("orbits", help="point-level orbit geometry checks")
    p.add_argument("n", type=int)
    p.add_argument("q", type=int)
    add_out(p)
    p.set_defaults(fn=cmd_orbits)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (UnsupportedTypeError, ParseError, ResourceError, FileNotFoundError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SignConventionError, FibrewiseConstancyError, PathDependenceError,
            HorVerMismatchError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
