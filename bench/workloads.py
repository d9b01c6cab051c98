"""The benchmark's workloads: seeded inputs, one cycle's steps, expected outputs.

A cycle is one construction followed by one verification, as a user runs
them.  Each step is one operation: it raises on a wrong exit code,
verdict, digest or dimension, and the cycle runner counts that as failed.
The seed only shapes inputs the program receives (a perturbed covering
matrix, conjugated representations); every expected value holds on any seed.

Sizes are chosen so that one cycle takes one to three seconds on a
2-vCPU machine, which gives each 30 s timed run about ten cycles or more.  A3 in
``e1-cli``, B3 in ``e1-axioms``, q = 3 in ``eq-flags`` and A3 in
``e1v-reps`` take 6 to 35 s per cycle and are left to a later, longer
benchmark.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from fractions import Fraction

from procs import run_child

# sha256 of `mbsheaf example e1 --type T --rank R` output (the canonical dump)
E1_DUMP_SHA256 = {
    "A2": "24fd71a7552d68046607c65aab8e7934878c08143c3df7e82a633d4b4573a1b3",
    "B2": "eadf26a9c54be860c41973b10dee308da7d9942c2a87dabdeee2fbbc00b3e895",
    "G2": "a82603da56e076d455d932480e49202a2884c652efe49d4454aaef04356ffc8b",
}
# sha256 of the JSON report of `mbsheaf check --json` on a passing sheaf
PASS_REPORT_SHA256 = "1a36803bd3017107d3d710f22a90a60fe3eeaa8306de6968c1ccf07a8fc0abb1"


class WrongResult(Exception):
    """An output differs from the value the workload expects."""


def expect(ok, what):
    if not ok:
        raise WrongResult(what)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def sheaf_properties(E):
    """Size record of a sheaf: cells, coverings, dimension and matrix fill."""
    mats = list(E.dprime.values()) + list(E.dsecond.values())
    return {
        "cells": len(E.poset.elements),
        "coverings": len(mats),
        "total_dim": E.total_dim,
        "stored_entries": sum(m.nrows * m.ncols for m in mats),
        "nonzero_entries": sum(1 for m in mats for row in m.rows for x in row if x),
    }


class Workload:
    """Inputs made at set-up, then the steps of one cycle."""

    name = ""
    why = ""

    def __init__(self, mbsheaf, rng, workdir, env, inproc=False):
        self.M = mbsheaf
        self.rng = rng
        self.workdir = workdir
        self.env = env
        self.inproc = inproc
        self.tracer = None
        self.child_rss_kb = 0
        self.inputs = {}     # what the seed chose, recorded with the result

    def span(self, name, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.span(name, fn, *args)

    def steps(self):
        """[(phase, label, fn)] with phase "build" or "verify", in run order."""
        raise NotImplementedError

    def properties(self):
        raise NotImplementedError


class E1Cli(Workload):
    """`mbsheaf example e1 -o f.json` then `mbsheaf check f.json --json`."""

    name = "e1-cli"
    why = "CLI end to end on A2, B2, G2 plus a seeded broken G2 file: emit, parse, Cousin suite, process start"
    DATA = (("A", 2), ("B", 2), ("G", 2))

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        import mbsheaf.cli  # noqa: F401  (the in-process path calls cli.main)
        M = self.M
        E = M.build_e1(M.enumerate_xi(M.build_coxeter("G", 2)))
        poset = E.poset
        sizes = [e.orbit_size for e in poset.elements]
        anodyne = [(order, m, n) for order, mats in (("dprime", E.dprime), ("dsecond", E.dsecond))
                   for (m, n) in sorted(mats) if sizes[m] == sizes[n]]
        order, m, n = self.rng.choice(anodyne)
        maps = {"dprime": dict(E.dprime), "dsecond": dict(E.dsecond)}
        shape = maps[order][(m, n)].shape
        # A zero map on an anodyne covering breaks MBS3 whatever else holds.
        maps[order][(m, n)] = M.RationalMatrix.zeros(*shape)
        broken = E.copy_with(E.dims, maps["dprime"], maps["dsecond"])
        self.broken_path = os.path.join(self.workdir, "broken-G2.json")
        with open(self.broken_path, "w", encoding="ascii") as fh:
            fh.write(M.io.dumps(M.io.mbs_to_json(broken)))
        self.inputs = {"zeroed": {"order": order, "from": M.io.xi_id(poset, m),
                                  "to": M.io.xi_id(poset, n)}}

    def cli(self, span_name, argv):
        """Run the CLI; return (exit code, stdout text)."""
        if self.inproc:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = self.span(span_name, self.M.cli.main, argv)
            return code, out.getvalue()
        path = os.path.join(self.workdir, "stdout.txt")
        code, rss_kb = run_child([sys.executable, "-m", "mbsheaf.cli", *argv],
                                 self.env, self.workdir, path, timeout=60, own_group=False)
        self.child_rss_kb = max(self.child_rss_kb, rss_kb)
        with open(path, encoding="ascii") as fh:
            return code, fh.read()

    def dump_path(self, label):
        return os.path.join(self.workdir, f"e1-{label}.json")

    def example(self, ty, rank):
        label = f"{ty}{rank}"
        code, _ = self.cli("cli.example", ["example", "e1", "--type", ty, "--rank", str(rank),
                                           "-o", self.dump_path(label)])
        expect(code == 0, f"exit {code}, expected 0")
        with open(self.dump_path(label), "rb") as fh:
            digest = sha256(fh.read())
        expect(digest == E1_DUMP_SHA256[label], f"dump sha256 {digest}")

    def check(self, path, want_code):
        code, out = self.cli("cli.check", ["check", path, "--json"])
        verdict, _, report = out.partition("\n")
        expect(code == want_code, f"exit {code}, expected {want_code}")
        expect(verdict == ("PASS" if want_code == 0 else "FAIL"), f"verdict {verdict!r}")
        doc = json.loads(report)
        if want_code == 0:
            digest = sha256(report.encode("ascii"))
            expect(digest == PASS_REPORT_SHA256, f"report sha256 {digest}")
        else:
            expect(doc["axioms"]["status"] == "FAIL", "broken file passed the axioms")

    def steps(self):
        out = [("build", f"example e1 {t}{r}", lambda t=t, r=r: self.example(t, r))
               for t, r in self.DATA]
        out += [("verify", f"check {t}{r}", lambda t=t, r=r: self.check(self.dump_path(f"{t}{r}"), 0))
                for t, r in self.DATA]
        out.append(("verify", "check broken G2", lambda: self.check(self.broken_path, 1)))
        return out

    def properties(self):
        M = self.M
        props = {}
        for ty, rank in self.DATA:
            label = f"{ty}{rank}"
            props[label] = sheaf_properties(M.build_e1(M.enumerate_xi(M.build_coxeter(ty, rank))))
            props[label]["json_bytes"] = os.path.getsize(self.dump_path(label))
        props["broken-G2"] = {"json_bytes": os.path.getsize(self.broken_path)}
        return props


class E1Axioms(Workload):
    """Library path: Xi(A3), E_1, then check_mbs alone."""

    name = "e1-axioms"
    why = "library E_1(A3) then check_mbs alone: sparse 0/1 matmuls and sums, no Cousin or IO work"

    def build(self):
        poset = self.M.enumerate_xi(self.M.build_coxeter("A", 3))
        expect(len(poset.elements) == 281, f"{len(poset.elements)} cells")
        self.sheaf = self.M.build_e1(poset)
        expect(self.sheaf.total_dim == 5625, f"total dim {self.sheaf.total_dim}")

    def verify(self):
        expect(self.M.check_mbs(self.sheaf).ok, "check_mbs(E_1(A3)) failed")

    def steps(self):
        return [("build", "E_1(A3)", self.build), ("verify", "check_mbs E_1(A3)", self.verify)]

    def properties(self):
        return {"A3": sheaf_properties(self.sheaf)}


class EqFlags(Workload):
    """Finite-field path at n = 3, q = 2."""

    name = "eq-flags"
    why = "E_q(3,2), its B-invariant subsheaf, Hecke relations and point checks: rref_fp and integer matrices"
    N, Q = 3, 2

    def build_eq(self):
        self.eq = self.M.build_eq(self.N, self.Q)
        expect(self.eq.total_dim == 561, f"E_q total dim {self.eq.total_dim}")

    def build_binv(self):
        self.binv = self.M.b_invariant_sub(self.eq)
        expect(self.binv.total_dim == 169, f"B-invariant total dim {self.binv.total_dim}")

    def hecke(self):
        gens = self.M.hecke_generators(self.N, self.Q)
        expect([g.shape for g in gens] == [(21, 21)] * 2, "Hecke generator shapes")
        one = self.M.RationalMatrix.identity(21)
        zero = self.M.RationalMatrix.zeros(21, 21)
        s, t = gens
        expect(all((g + one) @ (g - one.scale(self.Q)) == zero for g in gens), "quadratic relation")
        expect(s @ t @ s == t @ s @ t, "braid relation")

    def point_checks(self):
        report = self.M.orbit_point_checks(self.N, self.Q)
        expect(report.ok and report.checked == 255, f"point checks {report.checked}, ok={report.ok}")

    def steps(self):
        M = self.M
        return [
            ("build", "build_eq(3,2)", self.build_eq),
            ("build", "b_invariant_sub", self.build_binv),
            ("verify", "Hecke relations", lambda: self.span("fq.hecke", self.hecke)),
            ("verify", "orbit_point_checks(3,2)", self.point_checks),
            ("verify", "check_mbs E_q", lambda: expect(M.check_mbs(self.eq).ok, "check_mbs(E_q)")),
            ("verify", "check_mbs B-inv", lambda: expect(M.check_mbs(self.binv).ok, "check_mbs(B-inv)")),
        ]

    def properties(self):
        return {"E_q(3,2)": sheaf_properties(self.eq), "B-invariant": sheaf_properties(self.binv)}


def signed_permutation(rng, dim):
    """A seeded signed permutation matrix and its inverse, the transpose.

    Conjugating by it writes a representation in another integer basis
    without growing its entries, so every seed asks for the same work.
    With products of shears, the function calls made by this workload's
    verification differed by up to 1.7 times between seeds.
    """
    perm = rng.sample(range(dim), dim)
    signs = [rng.choice((-1, 1)) for _ in range(dim)]
    u = [[signs[i] * (perm[i] == j) for j in range(dim)] for i in range(dim)]
    return u, [list(col) for col in zip(*u)]


def exact_matmul(a, b):
    return [[sum(Fraction(x) * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


class E1vReps(Workload):
    """Multiplicity sheaves E_1^V for conjugated representations."""

    name = "e1v-reps"
    why = "E_1^V for seeded conjugates of five rank-2 representations: Kronecker projector, Fraction rref and solve"
    # (type, rank, representation, total dimension of E_1^V)
    ITEMS = (("G", 2, "reflection", 104), ("G", 2, "reflection*sign", 104),
             ("B", 2, "reflection", 72), ("B", 2, "reflection*sign", 72),
             ("A", 2, "specht:2,1", 56))

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        M = self.M
        self.datums = {}
        self.reps = {}
        for ty, rank, rep_name, _dim in self.ITEMS:
            datum = self.datums.setdefault((ty, rank), M.build_coxeter(ty, rank))
            base = M.rep_catalog(datum, rep_name)
            u, uinv = signed_permutation(self.rng, base.dim)
            gens = [M.RationalMatrix(tuple(map(tuple, exact_matmul(exact_matmul(uinv, g.rows), u))))
                    for g in base.gen_mats]
            self.reps[(ty, rank, rep_name)] = M.WRepresentation(datum, rep_name, gens)
            self.inputs[f"{ty}{rank} {rep_name}"] = u
        self.posets = {}
        self.sheaves = {}

    def build_xi(self, key):
        self.posets[key] = self.M.enumerate_xi(self.datums[key])

    def build_e1v(self, ty, rank, rep_name, dim):
        key = (ty, rank, rep_name)
        sheaf = self.M.build_e1v(self.posets[(ty, rank)], self.reps[key])
        expect(sheaf.total_dim == dim, f"total dim {sheaf.total_dim}, expected {dim}")
        self.sheaves[key] = sheaf

    def verify(self, key):
        expect(self.M.check_mbs(self.sheaves[key]).ok, "check_mbs failed")
        expect(self.M.support_check(self.sheaves[key]).ok, "support_check failed")

    def steps(self):
        out = [("build", f"Xi {ty}{rank}", lambda k=(ty, rank): self.build_xi(k))
               for ty, rank in self.datums]
        out += [("build", f"E_1^V {ty}{rank} {rep}", lambda i=(ty, rank, rep, dim): self.build_e1v(*i))
                for ty, rank, rep, dim in self.ITEMS]
        out += [("verify", f"check {ty}{rank} {rep}", lambda k=(ty, rank, rep): self.verify(k))
                for ty, rank, rep, _dim in self.ITEMS]
        return out

    def properties(self):
        return {f"{ty}{rank} {rep}": sheaf_properties(self.sheaves[(ty, rank, rep)])
                for ty, rank, rep, _dim in self.ITEMS}


WORKLOADS = {cls.name: cls for cls in (E1Cli, E1Axioms, EqFlags, E1vReps)}

