"""Command-line entry points; all output is canonical and byte-stable.

Exit status: 0 on pass, 1 on verification failure, 2 on usage/parse errors.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

from .coxeter import SUPPORTED, build_coxeter
from .cousin import (
    SignConventionError, constructibility_check, coperversity_check, support_check,
)
from .f1 import build_e1, build_e1v, rep_catalog
from .fq import (
    FibrewiseConstancyError, ResourceError, b_invariant_sub, build_eq, hecke_generators,
    orbit_point_checks,
)
from .io import check_dump, dump, loads, mbs_from_json, mbs_to_json, poly_dump, xi_dump
from .linalg import RationalMatrix
from .orbitpoly import HorVerMismatchError, orbit_poly, property_suite, validate_counts
from .report import Report
from .sheaf import check_mbs
from .xi import enumerate_xi


def _write(doc, output):
    with open(output, "w", encoding="ascii") if output else nullcontext(sys.stdout) as fh:
        dump(doc, fh)


def _poset(args):
    return enumerate_xi(build_coxeter(args.type, args.rank))


def cmd_xi(args):
    _write(xi_dump(_poset(args)), args.output)
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
        _write(check_dump(sheaf.poset, report, support, cosupport, constr), args.output)
    return 0 if ok else 1


def cmd_example(args):
    if args.example in ("eq", "eq-binv"):
        sheaf = build_eq(args.n, args.q)
        if args.example == "eq-binv":
            sheaf = b_invariant_sub(sheaf)
    else:
        poset = _poset(args)
        sheaf = (build_e1(poset) if args.example == "e1"
                 else build_e1v(poset, rep_catalog(poset.datum, args.rep)))
    _write(mbs_to_json(sheaf, include_action=args.with_action), args.output)
    return 0


def cmd_poly(args):
    poset = _poset(args)
    polys = {m: orbit_poly(poset, m) for m in range(len(poset.elements))}
    report = property_suite(poset)
    ok = report.ok
    if args.validate:   # both fields are counted, whatever the first gives
        ok = all([ok] + [validate_counts(poset, q).ok for q in (2, 3)])
    print("PASS" if ok else "FAIL")
    if args.json:
        _write(poly_dump(poset, polys, report), args.output)
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
        _write({"n": args.n, "q": args.q,
                "quadratic": "PASS" if quadratic else "FAIL",
                "braid": "PASS" if braid else "FAIL"}, args.output)
    return 0 if ok else 1


def cmd_orbits(args):
    report = orbit_point_checks(args.n, args.q)
    print(report.summary())
    if args.json:
        _write({"n": args.n, "q": args.q, "checked": report.checked,
                "status": "PASS" if report.ok else "FAIL",
                "failures": [repr(f) for f in report.failures]}, args.output)
    return 0 if report.ok else 1


class _Stray(argparse.Action):
    """An option that another example reads, kept with its value so that main
    refuses it by name; undeclared, argparse would read its value as N."""

    def __call__(self, parser, namespace, values, option_string=None):
        namespace.stray = (*namespace.stray, option_string, values)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mbsheaf",
        description="2-sided Coxeter complex and mixed Bruhat sheaf toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    types = sorted({t for t, _ in SUPPORTED})

    def add_datum(p):
        p.add_argument("--type", required=True, choices=types)
        p.add_argument("--rank", required=True, type=int)

    def add_out(p):
        p.add_argument("-o", "--output", default=None)
        p.add_argument("--json", action="store_true",
                       help="write the JSON report to -o, or to stdout after the verdict line")

    p = sub.add_parser("xi", help="dump the 2-sided complex")
    add_datum(p)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_xi)

    p = sub.add_parser("check", help="verify a sheaf file")
    p.add_argument("input")
    add_out(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("example", help="emit a built-in sheaf")
    p.set_defaults(fn=cmd_example, with_action=False)
    examples = p.add_subparsers(dest="example", required=True)
    e1 = examples.add_parser("e1", help="E_1 of a Coxeter datum")
    e1.add_argument("--with-action", action="store_true",
                    help="attach the group_action block")
    e1v = examples.add_parser("e1v", help="E_1^V of a W-representation")
    e1v.add_argument("rep", help="trivial | sign | reflection | reflection*sign | specht:PARTS")
    for e in (e1, e1v):
        e.add_argument("--type", default="A", choices=types)
        e.add_argument("--rank", type=int, default=1)
    eq = examples.add_parser("eq", help="E_q of flags in F_q^n")
    eqb = examples.add_parser("eq-binv", help="the B-invariant subsheaf of E_q")
    for e in (eq, eqb):
        e.add_argument("n", type=int)
        e.add_argument("q", type=int)
        for option in ("--type", "--rank"):
            e.add_argument(option, dest="stray", action=_Stray, default=(),
                           help=argparse.SUPPRESS)
    for e in (e1, e1v, eq, eqb):
        e.add_argument("-o", "--output", default=None)

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
    if getattr(args, "stray", ()):
        parser.error("unrecognized arguments: " + " ".join(args.stray))
    try:
        return args.fn(args)
    except (ValueError, ResourceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; the input is too large for this machine", file=sys.stderr)
        return 2
    except (SignConventionError, FibrewiseConstancyError, HorVerMismatchError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
