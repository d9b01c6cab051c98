"""Acceptance gate: one test per criterion, exact arithmetic, stated time budgets.

Run with -s to see the per-criterion PASS lines and timings.
"""

import itertools
import json
import time

from mbsheaf.coxeter import SUPPORTED, build_coxeter
from mbsheaf.cousin import constructibility_check, coperversity_check, stalk_complex, support_check
from mbsheaf.f1 import build_e1, build_e1v, rep_catalog
from mbsheaf.fq import (
    FqContext, b_invariant_sub, build_eq, composition_of_subset, hecke_generators,
    orbit_point_checks,
)
from mbsheaf.io import dumps, loads, mbs_from_json, mbs_to_json
from mbsheaf.linalg import RationalMatrix
from mbsheaf.orbitpoly import property_suite, validate_counts
from mbsheaf.sheaf import bicube, check_mbs, monodromy, phi_psi, standard_loops
from mbsheaf.xi import enumerate_xi

_POSETS = {}
_EQ = {}


def poset_for(label, rank):
    key = (label, rank)
    if key not in _POSETS:
        _POSETS[key] = enumerate_xi(build_coxeter(label, rank))
    return _POSETS[key]


def eq_for(n, q):
    if (n, q) not in _EQ:
        _EQ[(n, q)] = build_eq(n, q, poset=poset_for("A", n - 1))
    return _EQ[(n, q)]


def report_line(number, label, elapsed, budget=None):
    budget_note = f" (budget {budget:.0f}s)" if budget else ""
    print(f"criterion {number:2d}: PASS  {elapsed:6.2f}s{budget_note}  {label}")


def contingency_count_oracle(n):
    total = 0
    for p in range(1, n + 1):
        for q in range(1, n + 1):
            stack = [((), n)]
            while stack:
                rows, left = stack.pop()
                if len(rows) == p:
                    if left == 0 and all(any(r[j] for r in rows) for j in range(q)):
                        total += 1
                    continue
                remaining = p - len(rows)
                for row in itertools.product(range(left + 1), repeat=q):
                    s = sum(row)
                    if s == 0 or s > left - (remaining - 1):
                        continue
                    stack.append((rows + (row,), left - s))
    return total


def test_criterion_01_a1_diagram():
    t0 = time.time()
    xi = poset_for("A", 1)
    assert len(xi.elements) == 5
    cx = xi.complex
    zero, plus, minus = cx.zero_face(), cx.face((), 0), cx.face((), 1)
    m0 = xi.xi_orbit(zero, zero).index
    m_neg1 = xi.xi_orbit(plus, zero).index
    m1 = xi.xi_orbit(zero, plus).index
    mi = xi.xi_orbit(plus, plus).index
    mni = xi.xi_orbit(plus, minus).index
    rels = {(m, n): (kind, ano) for m, n, kind, ano in xi.comparable_pairs()}
    assert rels == {
        (mi, m1): ("prime", True), (mni, m1): ("prime", True),
        (mi, m_neg1): ("second", True), (mni, m_neg1): ("second", True),
        (m1, m0): ("second", False), (m_neg1, m0): ("prime", False),
        (mi, m0): ("mixed", False), (mni, m0): ("mixed", False),
    }
    assert sum(ano for _kind, ano in rels.values()) == 4
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report_line(1, "Xi(A1) five cells and anodyne arrows", elapsed, 1.0)


def test_criterion_02_contingency_counts():
    t0 = time.time()
    expected = {2: 5, 3: None, 4: None}
    for n, rank in [(2, 1), (3, 2), (4, 3)]:
        xi = poset_for("A", rank)
        oracle = contingency_count_oracle(n)
        assert len(xi.elements) == oracle
        if n == 2:
            assert oracle == 5
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report_line(2, "|Xi(A)| equals contingency-matrix counts (n = 2, 3, 4)", elapsed, 10.0)


def test_criterion_03_e1_axioms():
    t0 = time.time()
    for label, rank in SUPPORTED:
        report = check_mbs(build_e1(poset_for(label, rank)))
        assert report.ok, f"{label}{rank}: {report.summary()}"
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report_line(3, "check_mbs(E_1) empty on A1, A2, A3, A4, B2, B3, C3, G2", elapsed, 60.0)


def test_criterion_04_eq_axioms():
    t0 = time.time()
    for n, q in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
        report = check_mbs(eq_for(n, q))
        assert report.ok, f"({n},{q}): {report.summary()}"
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report_line(4, "check_mbs(E_q) empty for (2,2), (2,3), (3,2), (3,3), (4,2)", elapsed, 300.0)


def test_criterion_05_three_way_anodyne():
    t0 = time.time()
    for label, rank in SUPPORTED:
        xi = poset_for(label, rank)
        for m, n, _kind, ano in xi.comparable_pairs():
            flats_equal = xi.elements[m].flat == xi.elements[n].flat
            pi = xi.pi_map(m, n)
            bijective = len(set(pi)) == len(pi) == xi.elements[n].orbit_size
            assert ano == flats_equal == bijective, (label, rank, m, n)
    elapsed = time.time() - t0
    report_line(5, "orbit-size = flat = pi-bijectivity on every comparable pair", elapsed)


def test_criterion_06_hecke_relations():
    t0 = time.time()
    for q in (2, 3):
        gens = hecke_generators(3, q)
        size = gens[0].nrows
        ident = RationalMatrix.identity(size)
        zero = RationalMatrix.zeros(size, size)
        for s in gens:
            assert (s + ident) @ (s - ident.scale(q)) == zero
        s1, s2 = gens
        assert s1 @ s2 @ s1 == s2 @ s1 @ s2
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report_line(6, "Hecke quadratic and braid relations on Fun(F(F_q^3))", elapsed, 10.0)


def test_criterion_07_borel_invariant_dims():
    t0 = time.time()
    for n, q in [(3, 2), (3, 3), (4, 2)]:
        xi = poset_for("A", n - 1)
        sub = b_invariant_sub(eq_for(n, q))
        for m, e in enumerate(xi.elements):
            assert sub.dims[m] == e.orbit_size
    elapsed = time.time() - t0
    report_line(7, "B_q-invariant subsheaf dims equal dim E_1 (n = 3, q = 2, 3; n = 4, q = 2)",
                elapsed)


def test_criterion_08_cousin_suite():
    t0 = time.time()
    sheaves = []
    for label, rank in [("A", 1), ("A", 2), ("B", 2)]:
        xi = poset_for(label, rank)
        sheaves.append((f"E_1({label}{rank})", build_e1(xi), True))
        for name in ("sign", "reflection"):
            rep = rep_catalog(xi.datum, name)
            sheaves.append((f"E_1^{name}({label}{rank})", build_e1v(xi, rep), False))
    for n, q in [(2, 2), (2, 3), (3, 2)]:
        sheaves.append((f"E_q({n},{q})",
                        build_eq(n, q, poset=poset_for("A", n - 1)), False))
    for name, sheaf, e1_concentrated in sheaves:
        r = sheaf.poset.datum.rank
        assert support_check(sheaf).ok, name
        assert coperversity_check(sheaf).ok, name
        assert constructibility_check(sheaf).ok, name
        if e1_concentrated:
            for m in range(len(sheaf.poset.elements)):
                profile = stalk_complex(sheaf, m).cohomology_profile()
                assert all(d == -r for d, _h in profile), (name, m, profile)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report_line(8, "Cousin suite: support, dual side, constructibility, degree -r", elapsed, 120.0)


def test_criterion_09_orbit_polynomials():
    t0 = time.time()
    for label, rank in SUPPORTED:
        xi = poset_for(label, rank)
        report = property_suite(xi)
        assert report.ok, (label, rank, report.failures[:3])
    for n in (2, 3):
        xi = poset_for("A", n - 1)
        for q in (2, 3):
            counts = validate_counts(xi, q)
            assert counts.ok, (n, q, counts.failures[:3])
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report_line(9, "orbit polynomial laws plus brute-force F_q counts", elapsed, 30.0)


def test_criterion_10_bicube_matches_induction_restriction():
    t0 = time.time()
    for n in (2, 3):
        xi = poset_for("A", n - 1)
        for q in (2, 3):
            eq = build_eq(n, q, poset=xi)
            got = bicube(eq)
            ctx = FqContext(n, q)
            subsets = sorted(got.spaces, key=lambda t: (len(t), t))
            comps = {I: composition_of_subset(set(I), n) for I in subsets}
            for I in subsets:
                assert got.spaces[I] == len(ctx.flags(comps[I]))
            for I in subsets:
                for J in subsets:
                    if not set(I) <= set(J):
                        continue
                    fi = ctx.chains(comps[I])
                    fj_index = ctx.chain_index(comps[J])
                    images = [fj_index[ctx.coarsen(x, comps[J])] for x in fi]
                    push = [[0] * len(fi) for _ in range(len(fj_index))]
                    for x, y in enumerate(images):
                        push[y][x] = 1
                    v_direct = RationalMatrix(tuple(tuple(r) for r in push), len(fi))
                    assert got.v[(I, J)] == v_direct
                    assert got.u[(I, J)] == v_direct.transpose()
            assert got.transitive()
    elapsed = time.time() - t0
    report_line(10, "bicube(E_q) equals pushforward/pullback along flag projections", elapsed)


def test_criterion_11_phi_psi_and_monodromy():
    t0 = time.time()
    xi = poset_for("A", 1)
    e1 = build_e1(xi)
    sheaves = [("E_1", e1),
               ("E_1^sign", build_e1v(xi, rep_catalog(xi.datum, "sign")))]
    for q in (2, 3):
        sheaves.append((f"E_q(q={q})", build_eq(2, q, poset=xi)))
    for name, sheaf in sheaves:
        pp = phi_psi(sheaf)
        assert pp.t_invertible, name
    (loop,) = standard_loops(xi)
    variants = []
    for q in (2, 3):
        eq = build_eq(2, q, poset=xi)
        mono = monodromy(eq, loop)
        size = mono.nrows
        ident = RationalMatrix.identity(size)
        zero = RationalMatrix.zeros(size, size)
        first = ((mono - ident.scale(q)) @ (mono + ident)) == zero
        second = ((mono + ident.scale(q)) @ (mono - ident)) == zero
        assert first != second       # exactly one of the two quadratics holds
        variants.append(first)
    assert variants[0] == variants[1]    # the satisfied variant is stable across q
    elapsed = time.time() - t0
    report_line(11, "T invertible; monodromy variant (M-q)(M+1) = 0 stable in q", elapsed)


def test_criterion_12_point_level_geometry():
    t0 = time.time()
    for n in (2, 3):
        report = orbit_point_checks(n, 2, poset=poset_for("A", n - 1))
        assert report.ok, (n, report.failures[:3])
        assert report.checked > 0
    elapsed = time.time() - t0
    report_line(12, "fiber-product decomposition and q-power fibers (n <= 3, q = 2)", elapsed)


def test_criterion_13_cli_determinism(tmp_path):
    t0 = time.time()
    from mbsheaf.cli import main
    specs = [
        ["xi", "--type", "A", "--rank", "1"],
        ["xi", "--type", "B", "--rank", "2"],
        ["example", "e1", "--type", "A", "--rank", "2"],
        ["example", "e1v", "sign", "--type", "A", "--rank", "1"],
        ["example", "eq", "2", "2"],
        ["example", "eq-binv", "2", "2"],
        ["poly", "--type", "G", "--rank", "2", "--json"],
        ["hecke", "2", "3", "--json"],
        ["orbits", "2", "2", "--json"],
    ]
    for k, argv in enumerate(specs):
        a = tmp_path / f"{k}_a.json"
        b = tmp_path / f"{k}_b.json"
        assert main(argv + ["-o", str(a)]) == 0
        assert main(argv + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        if argv[0] == "example":
            text = a.read_text()
            assert dumps(mbs_to_json(mbs_from_json(loads(text)))) == text
        else:
            assert json.loads(a.read_text())
    elapsed = time.time() - t0
    report_line(13, "CLI dumps byte-identical and round-trip through parse/emit", elapsed)
