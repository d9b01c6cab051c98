"""The subspace-lattice tables of mbsheaf.fq against the elimination oracle.

For every (n, q) below, every flag pair of every pair of compositions is
compared: relative position and the Hor-reading refinement, coarsening to
every coarser type, the flag enumeration order, and the Borel orbits of
every composition.  The lattice's meet and join are checked on every pair
of subspaces, and the matrix action on random invertible matrices.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fq_reference as ref
from mbsheaf.fq import FqContext, borel_orbits, composition_of_subset, rref_fp

SIZES = [(2, 2), (2, 3), (3, 2), (3, 3)]
EXAMPLES = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def compositions(n):
    return [composition_of_subset(set(members), n)
            for k in range(n) for members in itertools.combinations(range(n - 1), k)]


def coarser(src, dst):
    """Whether dst's cumulative dimensions are among src's."""
    return set(itertools.accumulate(dst)) <= set(itertools.accumulate(src))


@pytest.mark.parametrize("n,q", SIZES)
def test_lattice_meet_and_join(n, q):
    ctx = FqContext(n, q)
    lat = ctx.lattice
    assert list(lat.spaces) == [s for d in range(n + 1) for s in ref.subspaces(lat, d)]
    for x, a in enumerate(lat.spaces):
        assert lat.index[a] == x
        for y, b in enumerate(lat.spaces):
            assert lat.meet_dim[x][y] == lat.dim[lat.meet[x][y]] == ref.intersection_dim(a, b, q)
            assert lat.spaces[lat.meet[x][y]].echelon == ref.intersection_basis(a, b, q)
            assert lat.spaces[lat.join[x][y]].echelon == rref_fp(a.echelon + b.echelon, q)


@pytest.mark.parametrize("n,q", SIZES)
def test_flag_order_matches_elimination_enumeration(n, q):
    ctx = FqContext(n, q)
    for comp in compositions(n):
        assert ctx.flags(comp) == ref.enumerate_flags(ctx.lattice, n, q, comp)


@pytest.mark.parametrize("n,q", SIZES)
def test_pair_geometry_matches_oracle(n, q):
    ctx = FqContext(n, q)
    comps = compositions(n)
    for ci, cj in itertools.product(comps, comps):
        for f, g in itertools.product(ctx.flags(ci), ctx.flags(cj)):
            assert ctx.relative_position(f, g).entries == ref.relative_position(f, g, q)
            refined = ctx.refine(ctx.chain_of(f), ctx.chain_of(g))
            assert ctx.flag_of(refined) == ref.refinement_flag(f, g, q)
        if coarser(ci, cj):
            for f in ctx.flags(ci):
                assert ctx.flag_of(ctx.coarsen(ctx.chain_of(f), cj)) == ref.coarsen_flag(f, cj)


@pytest.mark.parametrize("n,q", SIZES)
def test_block_buckets_match_oracle(n, q):
    ctx = FqContext(n, q)
    comps = compositions(n)
    for ci, cj in itertools.product(comps, comps):
        fi, fj = ctx.flags(ci), ctx.flags(cj)
        expected = {}
        for (a, f), (b, g) in itertools.product(enumerate(fi), enumerate(fj)):
            expected.setdefault(ref.relative_position(f, g, q), []).append((a, b))
        assert ctx.block_buckets(ci, cj) == {k: tuple(v) for k, v in expected.items()}


@pytest.mark.parametrize("n,q", SIZES)
def test_borel_orbits_match_oracle(n, q):
    ctx = FqContext(n, q)
    for comp in compositions(n):
        flags = ctx.flags(comp)
        index = {f: i for i, f in enumerate(flags)}
        assert borel_orbits(ctx, comp) == ref.borel_orbits(flags, index, n, q)


@st.composite
def invertible(draw, n, q):
    rows = draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * n), min_size=n, max_size=n))
    if len(rref_fp(rows, q)) < n:
        rows = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return tuple(rows)


@pytest.mark.parametrize("n,q", [(3, 2), (3, 3)])
def test_matrix_action_matches_oracle(n, q):
    ctx = FqContext(n, q)
    comps = compositions(n)

    @EXAMPLES
    @given(g=invertible(n, q), comp=st.sampled_from(comps))
    def check(g, comp):
        table = ctx.lattice.image_table(g)
        for f in ctx.flags(comp):
            image = tuple(table[x] for x in ctx.chain_of(f))
            assert ctx.flag_of(image) == ref.act_flag(g, f, q)

    check()
