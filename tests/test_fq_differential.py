"""The subspace tables of mbsheaf.fq's FqContext against the elimination oracle.

For every (n, q) below, every flag pair of every pair of types is
compared: relative position and the Hor-reading refinement, coarsening to
every coarser type, the flag enumeration order, and the Borel orbits of
every type.  The oracle names each type K by its composition of n.  The
tables' meet and join are checked on every pair of subspaces, and
``face_to_osp`` on every face of A1-A4.  The Hecke generators are compared
with the oracle's fibre lists up to n = 4, and the point checks' bucketed
fiber products with the pairwise loop.
"""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fq_reference as ref
from mbsheaf.coxeter import build_coxeter
from mbsheaf.faces import FaceComplex
from mbsheaf.fq import (
    SUPPORTED_PRIMES, FqContext, borel_orbits, face_to_osp,
    hecke_generators, in_span_fp, nullspace_fp, orbit_point_checks, osp_to_face, rref_fp,
)
from mbsheaf.xi import XiPoset, enumerate_xi

SIZES = [(2, 2), (2, 3), (3, 2), (3, 3)]
EXAMPLES = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def types(n):
    """Every type of A_{n-1}: the sorted tuples of simple reflections."""
    return [K for k in range(n) for K in itertools.combinations(range(n - 1), k)]


def flags(ctx, K):
    """The chains of one type as the oracle's flags: tuples of echelon forms."""
    return [tuple(ctx.spaces[x] for x in chain) for chain in ctx.chains(K)]


@pytest.mark.parametrize("n,q", SIZES)
def test_lattice_meet_and_join(n, q):
    ctx = FqContext(n, q)
    assert list(ctx.spaces) == [s for d in range(n + 1) for s in ref.subspaces(ctx, d)]
    for x, a in enumerate(ctx.spaces):
        assert ctx.index[a] == x
        for y, b in enumerate(ctx.spaces):
            assert ctx.meet_dim[x][y] == ctx.dim[ctx.meet[x][y]] == ref.intersection_dim(a, b, q)
            assert ctx.spaces[ctx.meet[x][y]] == ref.intersection_basis(a, b, q)
            assert ctx.spaces[ctx.join[x][y]] == rref_fp(a + b, q)


@pytest.mark.parametrize("n,q", SIZES)
def test_flag_order_matches_elimination_enumeration(n, q):
    ctx = FqContext(n, q)
    for K in types(n):
        comp = ref.composition(K, n)
        assert tuple(flags(ctx, K)) == ref.enumerate_flags(ctx, n, q, comp)


@pytest.mark.parametrize("n,q", SIZES)
def test_pair_geometry_matches_oracle(n, q):
    ctx = FqContext(n, q)
    spaces = ctx.spaces
    for I, J in itertools.product(types(n), repeat=2):
        pairs = itertools.product(zip(ctx.chains(I), flags(ctx, I)),
                                  zip(ctx.chains(J), flags(ctx, J)))
        for (x, f), (y, g) in pairs:
            assert ctx.relative_position(x, y) == ref.relative_position(f, g, q)
            refined = ctx.refine(x, y)
            assert tuple(spaces[s] for s in refined) == ref.refinement_flag(f, g, q)
        if set(I) <= set(J):    # type J is coarser
            for x, f in zip(ctx.chains(I), flags(ctx, I)):
                coarse = ctx.coarsen(x, J)
                want = ref.coarsen_flag(f, ref.composition(J, n))
                assert tuple(spaces[s] for s in coarse) == want


@pytest.mark.parametrize("n,q", SIZES)
def test_block_buckets_match_oracle(n, q):
    ctx = FqContext(n, q)
    for I, J in itertools.product(types(n), repeat=2):
        fi, fj = flags(ctx, I), flags(ctx, J)
        expected = {}
        for (a, f), (b, g) in itertools.product(enumerate(fi), enumerate(fj)):
            expected.setdefault(ref.relative_position(f, g, q), []).append((a, b))
        assert ctx.block_buckets(I, J) == {k: tuple(v) for k, v in expected.items()}


@pytest.mark.parametrize("n,q", SIZES)
def test_borel_orbits_match_oracle(n, q):
    ctx = FqContext(n, q)
    for K in types(n):
        fl = flags(ctx, K)
        index = {f: i for i, f in enumerate(fl)}
        assert borel_orbits(ctx, K) == ref.borel_orbits(fl, index, n, q)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("q", [2, 3])
def test_hecke_generators_match_fibre_lists(n, q):
    assert hecke_generators(n, q) == ref.hecke_generators(FqContext(n, q), n, q)


@pytest.mark.parametrize("broken", [False, True], ids=["sup", "sup-drops-last"])
@pytest.mark.parametrize("n,q", SIZES)
def test_point_checks_match_pairwise_loop(n, q, broken, monkeypatch):
    """The same checks and the same failures, in order; with sup made to drop
    its last cell, every fiber product over a nonempty sup fails in both."""
    poset = enumerate_xi(build_coxeter("A", n - 1))
    if broken:
        sup = XiPoset.sup
        monkeypatch.setattr(XiPoset, "sup", lambda self, mp, nn: sup(self, mp, nn)[:-1])
    got = orbit_point_checks(n, q, poset=poset)
    want = ref.pairwise_point_checks(n, q, poset)
    assert got.checked == want.checked > 0
    assert got.failures == want.failures
    assert bool(got.failures) == broken


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_face_to_osp_matches_comparator_sort(rank):
    cx = FaceComplex(build_coxeter("A", rank))
    for face in cx.faces:
        osp = face_to_osp(cx, face)
        assert osp == ref.face_to_osp(cx, face)
        assert osp_to_face(cx, osp) is face


@st.composite
def fp_matrices(draw):
    """(rows, ncols): up to 6 rows of 0-5 entries, mostly in [-13, 26], so
    many lie outside [0, p); zero rows and repeats of earlier rows mixed in."""
    ncols = draw(st.integers(0, 5))
    entry = st.one_of(st.just(0), st.integers(-13, 26))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("new", "new", "zero", "repeat")))
        if kind == "repeat" and rows:
            rows.append(rows[draw(st.integers(0, len(rows) - 1))])
        elif kind == "zero":
            rows.append([0] * ncols)
        else:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    return rows, ncols


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
@EXAMPLES
@given(fp_matrices(), st.lists(st.integers(-13, 26), min_size=5, max_size=5))
@example(([], 0), [0] * 5)                              # no rows, no columns
@example(([], 3), [1, 0, 0, 0, 0])                      # no rows
@example(([[0, 0, 0], [0, 0, 0]], 3), [0, 1, 0, 0, 0])  # zero rows
@example(([[1, 2, 3], [1, 2, 3]], 3), [2, 4, 6, 0, 0])  # a repeated row
@example(([[13, -1, 26], [-7, 0, 14]], 3), [0, 0, 1, 0, 0])  # entries outside [0, p)
def test_fp_reductions_against_dense_oracle(p, m, vec):
    rows, ncols = m
    vec = vec[:ncols]
    ech = rref_fp(rows, p)
    assert ech == ref.dense_rref_fp(rows, p)
    assert all(in_span_fp(r, ech, p) for r in rows)
    assert in_span_fp(vec, ech, p) == (len(ref.dense_rref_fp([*ech, vec], p)) == len(ech))
    kernel = nullspace_fp(rows, p, ncols)
    assert len(kernel) == ncols - len(ech)
    assert len(ref.dense_rref_fp(kernel, p)) == len(kernel)
    for v in kernel:
        assert all(0 <= x < p for x in v)
        assert all(sum(a * x for a, x in zip(r, v)) % p == 0 for r in rows)
