"""Face complex and 2-sided complex tests against combinatorial oracles."""

import ast
import itertools
import pathlib
import random
import re

import pytest

import mbsheaf

from dense_reference import RationalMatrix as Dense
from dense_reference import Span
from mbsheaf.coxeter import SUPPORTED, build_coxeter
from mbsheaf.faces import FaceComplex
from mbsheaf.sheaf import _covering_configurations
from mbsheaf.xi import PRIME, SECOND, OrderError, XiPoset, enumerate_xi, xi_id
from tables_reference import coarsen
from xi_reference import (
    anodyne_classes, block_scan_sup, blocks, bruhat_block_leq, delta_faces, face_dim,
    face_distance, face_leq, factor_through, span_closure_flats, subset_scan_comparable_pairs,
    subset_scan_ups,
)


def complex_for(label, rank):
    return FaceComplex(build_coxeter(label, rank))


def contingency_count_oracle(n):
    """Content-n contingency matrices with no zero row or column, counted directly."""
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
                remaining_rows = p - len(rows)
                for row in itertools.product(range(left + 1), repeat=q):
                    s = sum(row)
                    if s == 0 or s > left - (remaining_rows - 1):
                        continue
                    stack.append((rows + (row,), left - s))
    return total


# -- face complex -------------------------------------------------------------

@pytest.mark.parametrize("label,rank,expected", [
    ("A", 1, 3), ("A", 2, 13), ("A", 3, 75), ("B", 2, 17), ("G", 2, 25)])
def test_face_counts(label, rank, expected):
    cx = complex_for(label, rank)
    # A_n faces are ordered set partitions of n+1 points; dihedral: 2*2m+2m+1
    assert len(cx.faces) == expected
    assert len(cx.by_sign) == expected    # sign vectors are distinct


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3)])
def test_tits_product_closure(label, rank):
    cx = complex_for(label, rank)
    for c in cx.faces:
        for d in cx.faces:
            p = cx.tits_product(c, d)    # raises KeyError if not realizable
            assert face_leq(c, p)     # C <= C o D in the closure order


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_tits_product_identities(label, rank):
    cx = complex_for(label, rank)
    zero = cx.zero_face()
    chambers = [f for f in cx.faces if f.type_I == ()]
    for d in cx.faces:
        assert cx.tits_product(zero, d) == d
        for c in chambers:
            assert cx.tits_product(c, d) == c
    for c in cx.faces:
        assert cx.tits_product(c, c) == c
    # associativity, exhaustive at this scale
    faces = cx.faces
    for a in faces:
        for b in faces:
            ab = cx.tits_product(a, b)
            for c in faces[:: max(1, len(faces) // 13)]:
                assert cx.tits_product(ab, c) == cx.tits_product(a, cx.tits_product(b, c))


def test_tits_monotone_second_argument():
    cx = complex_for("B", 2)
    for a in cx.faces:
        for b in cx.faces:
            if not face_leq(b, a):
                continue
            for c in cx.faces:
                assert face_leq(cx.tits_product(c, b), cx.tits_product(c, a))


def test_delta_and_distance_a1():
    cx = complex_for("A", 1)
    plus = cx.face((), 0)
    minus = cx.face((), 1)
    assert delta_faces(plus, minus) == 1
    assert face_distance(cx, plus, minus) == 1
    assert face_distance(cx, plus, plus) == 0


def test_delta_and_distance_a2():
    datum = build_coxeter("A", 2)
    cx = FaceComplex(datum)
    w0 = max(range(datum.order), key=lambda i: datum.lengths[i])
    top = cx.face((), 0)
    opposite = cx.face((), w0)
    assert delta_faces(top, opposite) == 3
    assert face_distance(cx, top, opposite) == 3
    with pytest.raises(ValueError):
        delta_faces(top, cx.zero_face())


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2)])
def test_delta_additive_along_galleries(label, rank):
    # for chambers every adjacent step separates exactly one hyperplane pair,
    # so additivity along minimal galleries reads delta = gallery length
    cx = complex_for(label, rank)
    chambers = [f for f in cx.faces if f.type_I == ()]
    for c in chambers:
        for d in chambers:
            assert delta_faces(c, d) == face_distance(cx, c, d)


@pytest.mark.parametrize("label,rank", SUPPORTED)
def test_zero_sets_are_span_closed(label, rank):
    """Every face's zero set, and every cell's c.zero_set & d.zero_set, is its
    own closure under Span membership, and a face of type I has dimension
    rank - (dense rank of its zero roots) = rank - |I|."""
    xi = enumerate_xi(build_coxeter(label, rank))
    cx = xi.complex
    roots = cx.datum.positive_roots

    def closure(key):
        span = Span(rank)
        for a in key:
            span.add(roots[a])
        return {b for b in range(len(roots)) if span.contains(roots[b])}

    for f in cx.faces:
        assert closure(f.zero_set) == f.zero_set, f
        assert face_dim(cx, f) == rank - Dense([roots[a] for a in f.zero_set], rank).rank() \
            == rank - len(f.type_I)
    for key in {c.zero_set & d.zero_set for c, d in (e.pair for e in xi.elements)}:
        assert closure(key) == key


@pytest.mark.parametrize("label,rank", SUPPORTED)
def test_flats_from_hor_types_match_span_closure(label, rank):
    """Each cell's flat (canonical roots, dimension, ident) read off its Hor
    type against the per-cell span closure and W-canonical loop; at most
    2^rank canonical loops run, and flat_of_type gives every cell's flat."""
    calls = []
    canonical = XiPoset._flat_canonical

    def counted(self, root_set):
        calls.append(root_set)
        return canonical(self, root_set)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(XiPoset, "_flat_canonical", counted)
        xi = enumerate_xi(build_coxeter(label, rank))
    assert 0 < len(calls) <= 2 ** rank
    got = [(e.flat.roots, e.flat.dim, e.flat.ident) for e in xi.elements]
    assert got == span_closure_flats(xi)
    for e in xi.elements:
        assert xi.flat_of_type(e.hor) is e.flat


def test_combinatorial_layers_import_nothing_from_linalg():
    """coxeter, faces and xi are combinatorics: no import reaches linalg."""
    src = pathlib.Path(mbsheaf.__file__).parent
    for name in ("coxeter", "faces", "xi"):
        tree = ast.parse((src / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[-1] != "linalg", name
                assert all(a.name != "linalg" for a in node.names), name
            elif isinstance(node, ast.Import):
                assert all("linalg" not in a.name.split(".") for a in node.names), name


def test_delta_additive_on_wall_faces_b3():
    # minimal galleries between associated codimension-1 faces: delta sums
    # over the steps of an explicitly reconstructed minimal gallery
    cx = complex_for("B", 3)
    walls = [f for f in cx.faces if face_dim(cx, f) == 2]
    classes = {}
    for f in walls:
        classes.setdefault(f.zero_set, []).append(f)
    checked = 0
    for cls in classes.values():
        sub_walls = [f for f in cx.faces if face_dim(cx, f) == 1]
        adjacency = {f.index: [] for f in cls}
        for i, f in enumerate(cls):
            for g in cls[i + 1:]:
                if any(face_leq(p, f) and face_leq(p, g) for p in sub_walls):
                    adjacency[f.index].append(g.index)
                    adjacency[g.index].append(f.index)
        by_index = {f.index: f for f in cls}
        start = cls[0]
        parent = {start.index: None}
        frontier = [start.index]
        while frontier:
            new = []
            for i in frontier:
                for j in adjacency[i]:
                    if j not in parent:
                        parent[j] = i
                        new.append(j)
            frontier = new
        for f in cls[1:]:
            path = [f.index]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            assert len(path) - 1 == face_distance(cx, start, f)
            total = sum(delta_faces(by_index[a], by_index[b])
                        for a, b in zip(path, path[1:]))
            assert total == delta_faces(start, f)
            checked += 1
    assert checked > 0


# -- Xi: the A1 picture ------------------------------------------------------

@pytest.fixture(scope="module")
def xi_a1():
    return enumerate_xi(build_coxeter("A", 1))


def a1_labels(xi):
    cx = xi.complex
    zero = cx.zero_face()
    plus = cx.face((), 0)
    s = xi.datum.order - 1
    minus = cx.face((), 1)
    return {
        "m0": xi.xi_orbit(zero, zero).index,
        "m_minus_1": xi.xi_orbit(plus, zero).index,
        "m_1": xi.xi_orbit(zero, plus).index,
        "m_i": xi.xi_orbit(plus, plus).index,
        "m_minus_i": xi.xi_orbit(plus, minus).index,
    }


def test_a1_five_cells(xi_a1):
    xi = xi_a1
    assert len(xi.elements) == 5
    lab = a1_labels(xi)
    assert len(set(lab.values())) == 5
    sizes = {k: xi.elements[v].orbit_size for k, v in lab.items()}
    assert sizes == {"m0": 1, "m_minus_1": 2, "m_1": 2, "m_i": 2, "m_minus_i": 2}


def test_a1_order_diagram(xi_a1):
    xi = xi_a1
    lab = a1_labels(xi)
    rels = {(m, n): (kind, ano) for m, n, kind, ano in xi.comparable_pairs()}
    assert len(rels) == 8
    expected = {
        (lab["m_i"], lab["m_1"]): ("prime", True),
        (lab["m_minus_i"], lab["m_1"]): ("prime", True),
        (lab["m_i"], lab["m_minus_1"]): ("second", True),
        (lab["m_minus_i"], lab["m_minus_1"]): ("second", True),
        (lab["m_1"], lab["m0"]): ("second", False),
        (lab["m_minus_1"], lab["m0"]): ("prime", False),
        (lab["m_i"], lab["m0"]): ("mixed", False),
        (lab["m_minus_i"], lab["m0"]): ("mixed", False),
    }
    assert rels == expected
    assert sum(1 for _, ano in rels.values() if ano) == 4


def test_a1_pi_maps(xi_a1):
    xi = xi_a1
    lab = a1_labels(xi)
    m = xi.pi_map(lab["m_i"], lab["m_1"])
    assert sorted(m) == [0, 1]            # bijection
    m2 = xi.pi_map(lab["m_minus_1"], lab["m0"])
    assert m2 == [0, 0]                   # 2-to-1
    assert xi.pi_map(lab["m0"], lab["m0"]) == [0]
    with pytest.raises(OrderError, match=re.escape(
            f"pi_map requires m >= n, not {xi_id(xi, lab['m_1'])} "
            f"and {xi_id(xi, lab['m_minus_1'])}")):
        xi.pi_map(lab["m_1"], lab["m_minus_1"])


def test_a1_sup(xi_a1):
    xi = xi_a1
    lab = a1_labels(xi)
    got = sorted(xi.sup(lab["m_minus_1"], lab["m_1"]))
    assert got == sorted([lab["m_i"], lab["m_minus_i"]])
    assert xi.sup(lab["m0"], lab["m0"]) == [lab["m0"]]


def test_a1_anodyne_and_flats(xi_a1):
    xi = xi_a1
    lab = a1_labels(xi)
    assert xi.is_anodyne(lab["m_i"], lab["m_1"])
    assert not xi.is_anodyne(lab["m_1"], lab["m0"])
    assert xi.is_anodyne(lab["m0"], lab["m0"])
    with pytest.raises(OrderError, match=re.escape(
            f"is_anodyne requires m >= n, not {xi_id(xi, lab['m_1'])} "
            f"and {xi_id(xi, lab['m_minus_1'])}")):
        xi.is_anodyne(lab["m_1"], lab["m_minus_1"])    # incomparable
    dims = {k: xi.elements[v].flat.dim for k, v in lab.items()}
    assert dims == {"m0": 0, "m_minus_1": 1, "m_1": 1, "m_i": 1, "m_minus_i": 1}


def test_a1_hor_ver(xi_a1):
    xi = xi_a1
    lab = a1_labels(xi)
    assert xi.elements[lab["m0"]].hor == (0,)
    assert xi.elements[lab["m_1"]].hor == ()
    assert xi.elements[lab["m_minus_1"]].hor == ()
    assert xi.elements[lab["m_minus_1"]].ver == ()
    assert xi.elements[lab["m0"]].ver == (0,)


# -- Xi: counts and invariants ------------------------------------------------

@pytest.mark.parametrize("label,rank,n", [("A", 1, 2), ("A", 2, 3), ("A", 3, 4)])
def test_xi_count_vs_contingency(label, rank, n):
    xi = enumerate_xi(build_coxeter(label, rank))
    assert len(xi.elements) == contingency_count_oracle(n)


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_double_coset_counts(label, rank):
    datum = build_coxeter(label, rank)
    xi = enumerate_xi(datum)
    for (I, J), block in blocks(xi).items():
        # brute-force double cosets W_I \ W / W_J
        seen = set()
        count = 0
        for g in range(datum.order):
            if g in seen:
                continue
            count += 1
            orbit = {g}
            frontier = [g]
            while frontier:
                new = []
                for h in frontier:
                    for s in I:
                        k = datum.tables["left"][s][h]
                        if k not in orbit:
                            orbit.add(k)
                            new.append(k)
                    for s in J:
                        k = datum.tables["right"][h][s]
                        if k not in orbit:
                            orbit.add(k)
                            new.append(k)
                frontier = new
            seen |= orbit
        assert len(block) == count


@pytest.mark.parametrize("label,rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2)])
def test_orbit_invariance_and_sizes(label, rank):
    datum = build_coxeter(label, rank)
    xi = enumerate_xi(datum)
    cx = xi.complex
    act = cx.action
    for e in xi.elements[:: max(1, len(xi.elements) // 12)]:
        c, d = e.pair
        for w in range(datum.order):
            assert xi.pair_to_elem[(act[w][c.index], act[w][d.index])] == e.index
        # orbit size equals |W| / |stabilizer of the pair|
        stab = sum(1 for w in range(datum.order)
                   if act[w][c.index] == c.index and act[w][d.index] == d.index)
        assert e.orbit_size * stab == datum.order


@pytest.mark.parametrize("label,rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2)])
def test_three_way_anodyne_equivalence(label, rank):
    xi = enumerate_xi(build_coxeter(label, rank))
    for m, n, _kind, ano in xi.comparable_pairs():
        flats_equal = xi.elements[m].flat == xi.elements[n].flat
        pi = xi.pi_map(m, n)
        bijective = len(set(pi)) == len(pi) == xi.elements[n].orbit_size
        assert ano == flats_equal == bijective


@pytest.mark.parametrize("label,rank", SUPPORTED)
def test_table_walks_match_subset_scans(label, rank):
    """comparable_pairs and ups read off the downs tables against contracting
    each cell into every type subset with phi: the same lists, in order."""
    xi = enumerate_xi(build_coxeter(label, rank))
    assert xi.comparable_pairs() == subset_scan_comparable_pairs(xi)
    for side in (PRIME, SECOND):
        assert xi.ups(side) == subset_scan_ups(xi, side)
        for m, below in enumerate(xi.downs(side)):
            assert below[0] == m
            assert all(m in xi.ups(side)[n] for n in below)


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_leq_side_matches_downs(label, rank):
    """leq_side contracts m into n's type on demand: true exactly on downs."""
    xi = enumerate_xi(build_coxeter(label, rank))
    cells = range(len(xi.elements))
    for side in (PRIME, SECOND):
        for m, below in enumerate(xi.downs(side)):
            assert [n for n in cells if xi.leq_side(side, n, m)] == sorted(below)


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2)])
def test_factorization_uniqueness(label, rank):
    xi = enumerate_xi(build_coxeter(label, rank))
    for m, n, _kind, _ano in xi.comparable_pairs():
        em, en = xi.elements[m], xi.elements[n]
        mid_prime = [p for p in blocks(xi).get((en.typeIJ[0], em.typeIJ[1]), ())
                     if xi.leq_side(PRIME, p, m) and xi.leq_side(SECOND, n, p)]
        mid_second = [p for p in blocks(xi).get((em.typeIJ[0], en.typeIJ[1]), ())
                      if xi.leq_side(SECOND, p, m) and xi.leq_side(PRIME, n, p)]
        assert len(mid_prime) == 1
        assert mid_prime[0] == factor_through(xi, m, n, PRIME)
        assert len(mid_second) == 1
        assert mid_second[0] == factor_through(xi, m, n, SECOND)


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_sup_fiber_product_and_anodyne_singleton(label, rank):
    xi = enumerate_xi(build_coxeter(label, rank))
    cx = xi.complex
    for mp in range(len(xi.elements)):
        emp = xi.elements[mp]
        for np_ in range(len(xi.elements)):
            enp = xi.elements[np_]
            if not (emp.typeIJ[1] == enp.typeIJ[1]
                    and set(emp.typeIJ[0]) <= set(enp.typeIJ[0])
                    and xi.leq_side(PRIME, np_, mp)):
                continue
            for n in range(len(xi.elements)):
                en = xi.elements[n]
                if not (en.typeIJ[0] == enp.typeIJ[0]
                        and set(enp.typeIJ[1]) <= set(en.typeIJ[1])
                        and xi.leq_side(SECOND, np_, n)):
                    continue
                sups = xi.sup(mp, n)
                # point-level fiber product count equals the union of the sups
                fp = 0
                for (c1, d1) in emp.points:
                    for (c2, d2) in en.points:
                        if (coarsen(cx, c1, enp.typeIJ[0]) == c2
                                and coarsen(cx, d2, emp.typeIJ[1]) == d1):
                            fp += 1
                assert fp == sum(xi.elements[m].orbit_size for m in sups)
                if xi.is_anodyne(mp, np_) or xi.is_anodyne(n, np_):
                    assert len(sups) == 1
                    m = sups[0]
                    if xi.is_anodyne(mp, np_):
                        assert xi.is_anodyne(m, n)
                    if xi.is_anodyne(n, np_):
                        assert xi.is_anodyne(m, mp)


@pytest.mark.parametrize("label,rank,sample", [
    ("A", 2, None), ("B", 2, None), ("G", 2, None), ("A", 3, 3000)])
def test_sup_matches_block_scan(label, rank, sample):
    """Up-set intersection against the block scan: every pair, or a seeded
    sample of all pairs plus one of the pairs over a common n' (MBS2's)."""
    xi = enumerate_xi(build_coxeter(label, rank))
    cells = range(len(xi.elements))
    pairs = list(itertools.product(cells, cells))
    if sample is not None:
        rng = random.Random(20201)
        configs = sorted({(mp, n) for np_ in cells
                          for mp in xi.ups(PRIME)[np_] for n in xi.ups(SECOND)[np_]})
        pairs = rng.sample(pairs, sample) + rng.sample(configs, sample)
    nonempty = 0
    for mp, n in pairs:
        got = xi.sup(mp, n)
        assert got == block_scan_sup(xi, mp, n), (mp, n)
        nonempty += bool(got)
    assert nonempty >= len(pairs) // 20


@pytest.mark.parametrize("label,rank", SUPPORTED)
def test_sup_over_an_identity_leg_is_the_other_leg(label, rank):
    """The configurations check_mbs skips: n >='' n' gives sup(n', n) = [n],
    and m' >=' n' gives sup(m', n') = [m']."""
    xi = enumerate_xi(build_coxeter(label, rank))
    for np_ in range(len(xi.elements)):
        for n in xi.ups(SECOND)[np_]:
            assert xi.sup(np_, n) == [n], (np_, n)
        for mp in xi.ups(PRIME)[np_]:
            assert xi.sup(mp, np_) == [mp], (mp, np_)


@pytest.mark.parametrize("label,rank", SUPPORTED)
def test_sup_pastes_along_either_leg(label, rank):
    """The pasting lemma behind check_mbs's covering configurations: for
    every m' >=' n' <='' n, every m' >=' a >=' n' and every n >='' c >='' n',
    sup(m', n) is the disjoint union over b in sup(a, n) of sup(m', b), and
    over d in sup(m', c) of sup(d, n)."""
    xi = enumerate_xi(build_coxeter(label, rank))
    ups, downs = (xi.ups(PRIME), xi.ups(SECOND)), (xi.downs(PRIME), xi.downs(SECOND))
    inner = 0
    for np_ in range(len(xi.elements)):
        for mp in ups[PRIME][np_]:
            firsts = set(downs[PRIME][mp]).intersection(ups[PRIME][np_])
            for n in ups[SECOND][np_]:
                whole = xi.sup(mp, n)
                for a in firsts:
                    pasted = sorted(m for b in xi.sup(a, n) for m in xi.sup(mp, b))
                    assert pasted == whole, (mp, a, np_, n)
                    inner += a not in (mp, np_)
                for c in set(downs[SECOND][n]).intersection(ups[SECOND][np_]):
                    pasted = sorted(m for d in xi.sup(mp, c) for m in xi.sup(d, n))
                    assert pasted == whole, (mp, np_, c, n)
                    inner += c not in (n, np_)
    assert inner or rank == 1


# covering configurations whose SECOND leg is anodyne, per supported type
ANODYNE_LEG_CONFIGURATIONS = {("A", 1): 0, ("A", 2): 20, ("A", 3): 590, ("A", 4): 13620,
                              ("B", 2): 28, ("B", 3): 1268, ("C", 3): 1268, ("G", 2): 44}


@pytest.mark.parametrize("label,rank", SUPPORTED)
def test_anodyne_leg_has_one_supremum(label, rank):
    """The combinatorial step of the Cousin suite's class lemma: at every
    covering configuration m' >=' n' <='' n whose SECOND leg is anodyne,
    sup(m', n) is one cell, anodyne over m'; and, its image under tau, where
    the PRIME leg is anodyne, sup(m', n) is one cell, anodyne over n."""
    xi = enumerate_xi(build_coxeter(label, rank))
    size = [e.orbit_size for e in xi.elements]
    counts = [0, 0]
    for mp, np_, n, sup in _covering_configurations(xi):
        if size[n] == size[np_]:
            assert len(sup) == 1 and size[sup[0]] == size[mp], (mp, np_, n, sup)
            counts[SECOND] += 1
        if size[mp] == size[np_]:
            assert len(sup) == 1 and size[sup[0]] == size[n], (mp, np_, n, sup)
            counts[PRIME] += 1
    assert counts == [ANODYNE_LEG_CONFIGURATIONS[(label, rank)]] * 2


@pytest.mark.parametrize("label,rank", SUPPORTED)
def test_two_generators_close_a_square(label, rank):
    """The squares check_mbs checks MBS1 on: for every cell m and generators
    s < t it can add on a side, phi_t phi_s m = phi_s phi_t m is
    phi(m, side, I + {s, t}), read off cov."""
    xi = enumerate_xi(build_coxeter(label, rank))
    squares = 0
    for side in (PRIME, SECOND):
        step = [dict(below) for below in xi.cov[side]]
        for m, e in enumerate(xi.elements):
            for s, t in itertools.combinations(step[m], 2):
                n = xi.phi(m, side, tuple(sorted(e.typeIJ[side] + (s, t))))
                assert step[step[m][s]][t] == step[step[m][t]][s] == n, (side, m, s, t)
                squares += 1
    assert squares or rank == 1


@pytest.mark.parametrize("label,rank", SUPPORTED)
def test_covering_supremum_matches_sup(label, rank):
    """up_covers is the transpose of cov, and check_mbs's covering
    configurations are those of ups with one generator added on each leg,
    in the same order, each with sup(m', n) equal to XiPoset.sup's."""
    xi = enumerate_xi(build_coxeter(label, rank))
    for side in (PRIME, SECOND):
        pairs = sorted((n, m) for m, below in enumerate(xi.cov[side]) for _s, n in below)
        assert [(n, m) for n, up in enumerate(xi.up_covers[side]) for m in up] == pairs
    size = [[len(e.typeIJ[side]) for e in xi.elements] for side in (PRIME, SECOND)]
    want = [(mp, np_, n, xi.sup(mp, n)) for np_ in range(len(xi.elements))
            for mp in xi.ups(PRIME)[np_] if size[PRIME][mp] == size[PRIME][np_] - 1
            for n in xi.ups(SECOND)[np_] if size[SECOND][n] == size[SECOND][np_] - 1]
    assert list(_covering_configurations(xi)) == want
    assert any(len(w[3]) > 1 for w in want) or rank == 1


@pytest.mark.parametrize("label,rank", [("A", 1), ("A", 2), ("B", 2)])
def test_tau_and_ver_constancy(label, rank):
    xi = enumerate_xi(build_coxeter(label, rank))
    for m in range(len(xi.elements)):
        assert xi.tau(xi.tau(m)) == m
        e = xi.elements[m]
        assert xi.elements[xi.tau(m)].typeIJ == (e.typeIJ[1], e.typeIJ[0])
        for _s, n in xi.cov[PRIME][m]:
            if xi.elements[m].orbit_size == xi.elements[n].orbit_size:
                assert xi.elements[m].ver == xi.elements[n].ver
        for _s, n in xi.cov[SECOND][m]:
            if xi.elements[m].orbit_size == xi.elements[n].orbit_size:
                assert xi.elements[m].hor == xi.elements[n].hor


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_tau_mirrors_the_two_orders(label, rank):
    # tau exchanges >=' and >='', so each side's routines answer for the other
    xi = enumerate_xi(build_coxeter(label, rank))
    tau = xi.tau
    cells = range(len(xi.elements))
    for m in cells:
        for n in cells:
            assert xi.leq_side(PRIME, n, m) == xi.leq_side(SECOND, tau(n), tau(m))
        assert xi.cov[SECOND][tau(m)] == tuple((s, tau(n)) for s, n in xi.cov[PRIME][m])


def test_hor_of_dominant_pairs():
    datum = build_coxeter("B", 2)
    xi = enumerate_xi(datum)
    cx = xi.complex
    zero = cx.zero_face()
    for I in xi.complex.subsets:
        ki = cx.dominant_face(I)
        assert xi.xi_orbit(ki, zero).hor == I
        assert xi.xi_orbit(zero, ki).ver == I


@pytest.mark.parametrize("label,rank,classes", [("A", 1, 2), ("A", 2, 3)])
def test_s0_class_counts(label, rank, classes):
    xi = enumerate_xi(build_coxeter(label, rank))
    s0, s1, tau_s1 = xi.stratification_classes()
    assert len(s0) == classes
    full_rank_class = [c for c in s0
                       if xi.elements[c[0]].flat.dim == rank]
    assert len(full_rank_class) == 1


@pytest.mark.parametrize("label,rank", SUPPORTED)
def test_stratification_classes_match_anodyne_union_find(label, rank):
    """S0, S1 and tau-S1 read off the cells' flats, (I, Hor) and (J, Ver) are
    the classes generated by the anodyne coverings of both orders, of >=''
    and of >=', tuple for tuple; S1 has one class per pair of types Hor within I."""
    xi = enumerate_xi(build_coxeter(label, rank))
    classes = xi.stratification_classes()
    assert classes == (anodyne_classes(xi, PRIME, SECOND), anodyne_classes(xi, SECOND),
                       anodyne_classes(xi, PRIME))
    assert len(classes[1]) == len(classes[2]) == 3 ** rank


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2)])
def test_contraction_bruhat_monotone(label, rank):
    xi = enumerate_xi(build_coxeter(label, rank))
    for (I, J), block in blocks(xi).items():
        for s in range(xi.datum.rank):
            if s not in I:
                I2 = tuple(sorted(I + (s,)))
                for m in block:
                    for n in block:
                        if bruhat_block_leq(xi, m, n):
                            assert bruhat_block_leq(xi, xi.phi(m, PRIME, I2),
                                                    xi.phi(n, PRIME, I2))
            if s not in J:
                J2 = tuple(sorted(J + (s,)))
                for m in block:
                    for n in block:
                        if bruhat_block_leq(xi, m, n):
                            assert bruhat_block_leq(xi, xi.phi(m, SECOND, J2),
                                                    xi.phi(n, SECOND, J2))


def test_unique_minimal_stratum_zero():
    for label, rank in [("A", 1), ("A", 2), ("B", 2), ("G", 2)]:
        xi = enumerate_xi(build_coxeter(label, rank))
        zero_dim = [e for e in xi.elements if e.flat.dim == 0]
        bottom = [e for e in zero_dim if e.orbit_size == 1]
        assert len(bottom) == 1
        assert bottom[0].typeIJ == (tuple(range(rank)), tuple(range(rank)))
