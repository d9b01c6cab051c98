"""Index tables against the per-call routines they replaced.

The datum's product table, inverses and coset minima, the face complex's
W-action and coarsening tables, ``XiPoset.pi_map``, ``point_action`` and
``RationalMatrix.pushforward`` must give what the word walks, descent walks
and point loops of ``tables_reference`` give: every entry on all eight
supported types (``point_action`` for every w at every cell), and ``pi_map``
and ``pi_base``, its value at the base point, on every comparable pair of
the types of rank at most 3 and on every covering of A4, with ``cov_base``
on every covering.  A property test draws a group element and a covering
of E_1 and checks that the covering map commutes with the W-action at both
ends, on every type of rank 2 and 3: it guards the face action that the
action matrices read.
"""

from functools import lru_cache, partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbsheaf.coxeter import SUPPORTED, build_coxeter, min_coset_reps
from mbsheaf.f1 import build_e1
from mbsheaf.faces import subsets_sorted
from mbsheaf.linalg import RationalMatrix
from mbsheaf.xi import arrow, enumerate_xi
from tables_reference import (
    WalkCoarsen, coarsen, descent_walk_min, face_positions, point_loop_action, point_loop_pi_map,
    transposed_pullback, phi_leq, walk_action, word_walk_inv, word_walk_mul,
)

EXAMPLES = settings(max_examples=200, deadline=None, derandomize=True, database=None)
RANK_2_AND_3 = [t for t in SUPPORTED if t[1] in (2, 3)]


@lru_cache(maxsize=None)
def poset_for(label, rank):
    return enumerate_xi(build_coxeter(label, rank))


@lru_cache(maxsize=None)
def e1_for(label, rank):
    return build_e1(poset_for(label, rank))


@pytest.mark.parametrize("label,rank", SUPPORTED)
def test_product_table_matches_word_walk(label, rank):
    datum = poset_for(label, rank).datum
    n = datum.order
    assert datum.tables["mul"] == tuple(
        tuple(word_walk_mul(datum, i, j) for j in range(n)) for i in range(n))
    assert datum.tables["inv"] == tuple(word_walk_inv(datum, i) for i in range(n))


@pytest.mark.parametrize("label,rank", SUPPORTED)
def test_coset_minima_match_descent_walk(label, rank):
    datum = poset_for(label, rank).datum
    for I in subsets_sorted(rank):
        walked = tuple(descent_walk_min(datum, i, I) for i in range(datum.order))
        assert datum.coset_minima(I) == walked
        assert min_coset_reps(datum, I) == tuple(
            i for i in range(datum.order)
            if not any(datum.has_right_descent(i, s) for s in I))


@pytest.mark.parametrize("label,rank", SUPPORTED)
def test_face_tables_match_walks(label, rank):
    """The action, face lookups and every coarsening, with the walk's ValueError."""
    cx = poset_for(label, rank).complex
    assert cx.action == walk_action(cx)
    walk = WalkCoarsen(cx)
    for J in subsets_sorted(rank):
        table = cx.coarsen_table(J)
        assert len(table) == len(cx.faces)
        for f in cx.faces:
            if set(f.type_I) <= set(J):
                assert table[f.index] == coarsen(cx, f.index, J) == walk(f.index, J)
            else:
                assert table[f.index] is None
                for fn in (partial(coarsen, cx), walk):
                    with pytest.raises(ValueError, match="must contain the face type"):
                        fn(f.index, J)
    pos = face_positions(cx)
    for I in subsets_sorted(rank):
        for g in range(cx.datum.order):
            assert cx.face(I, g).index == pos[(I, descent_walk_min(cx.datum, g, I))]


@pytest.mark.parametrize("label,rank", [t for t in SUPPORTED if t[1] <= 3])
def test_pi_map_matches_point_loop(label, rank):
    xi = poset_for(label, rank)
    coarsen = WalkCoarsen(xi.complex)
    for m, n, _kind, _ano in xi.comparable_pairs():
        want = point_loop_pi_map(xi, coarsen, m, n)
        assert xi.pi_map(m, n) == want
        assert xi.pi_base(m, n) == want[0]
    for m in range(len(xi.elements)):
        assert xi.pi_map(m, m) == list(range(xi.elements[m].orbit_size))
    # each covering's base image, recorded where the contraction coarsens it
    for _side, m, n, j in xi.based_coverings():
        assert j == point_loop_pi_map(xi, coarsen, m, n)[0]


def test_pi_map_matches_point_loop_on_a4_coverings():
    """A4's 15,912 coverings (its 177,376 comparable pairs take about 15 s),
    each point coarsened through the table that test_face_tables_match_walks
    holds to the descent walk."""
    xi = poset_for("A", 4)
    for _side, m, n, j in xi.based_coverings():
        want = point_loop_pi_map(xi, partial(coarsen, xi.complex), m, n)
        assert xi.pi_map(m, n) == want and xi.pi_base(m, n) == j == want[0]


@pytest.mark.parametrize("label,rank", SUPPORTED)
def test_point_action_matches_point_loop(label, rank):
    xi = poset_for(label, rank)
    for w in range(xi.datum.order):
        for m in range(len(xi.elements)):
            assert xi.point_action(w, m) == point_loop_action(xi, w, m), (w, m)


@pytest.mark.parametrize("label,rank", [t for t in SUPPORTED if t[1] <= 2] + [("A", 3)])
def test_leq_matches_contractions(label, rank):
    xi = poset_for(label, rank)
    cells = range(len(xi.elements))
    assert [[xi.leq(n, m) for n in cells] for m in cells] == \
        [[phi_leq(xi, n, m) for n in cells] for m in cells]


@st.composite
def point_maps(draw):
    n = draw(st.integers(0, 6))
    f = draw(st.lists(st.integers(0, n - 1), max_size=12)) if n else []
    return f, n


@EXAMPLES
@given(point_maps())
def test_pushforward_is_transposed_pullback(fn):
    f, n = fn
    push = RationalMatrix.pushforward(f, n)
    assert push == transposed_pullback(f, n)
    assert push.shape == (n, len(f))


@pytest.mark.parametrize("label,rank", RANK_2_AND_3)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_e1_coverings_commute_with_action(label, rank, data):
    """d(w . x) = w . d(x) on a random covering of E_1, for a random w."""
    E = e1_for(label, rank)
    coverings = list(E.poset.coverings())
    side, m, n = coverings[data.draw(st.integers(0, len(coverings) - 1), label="covering")]
    w = data.draw(st.integers(0, E.poset.datum.order - 1), label="w")
    src, dst = arrow(side, m, n)
    mat = E.maps(side)[(m, n)]
    assert mat @ E.action_matrix(w, src) == E.action_matrix(w, dst) @ mat
