"""Axiom checker, duality, bicube, transport, and subsheaf machinery on E_1."""

import re

import pytest

from dense_reference import generated_sub_bases
from mbsheaf.coxeter import build_coxeter
from mbsheaf.f1 import build_e1
from mbsheaf.linalg import RationalMatrix
from mbsheaf.sheaf import (
    MixedBruhatSheaf, _span_closure, bicube, braid_loops, check_mbs, compose_prime,
    compose_second, dual, generated_sub, is_simple, phi_psi, transport,
)
from mbsheaf.xi import PRIME, SECOND, OrderError, enumerate_xi, xi_id


@pytest.fixture(scope="module")
def xi_a1():
    return enumerate_xi(build_coxeter("A", 1))


@pytest.fixture(scope="module")
def xi_a2():
    return enumerate_xi(build_coxeter("A", 2))


@pytest.fixture(scope="module")
def e1_a1(xi_a1):
    return build_e1(xi_a1)


@pytest.fixture(scope="module")
def e1_a2(xi_a2):
    return build_e1(xi_a2)


def a1_cells(xi):
    cx = xi.complex
    zero = cx.zero_face()
    plus = cx.face((), 0)
    minus = cx.face((), 1)
    return (xi.xi_orbit(zero, zero).index, xi.xi_orbit(plus, zero).index,
            xi.xi_orbit(zero, plus).index, xi.xi_orbit(plus, plus).index,
            xi.xi_orbit(plus, minus).index)


def test_e1_dims_and_pushforward(xi_a1, e1_a1):
    m0, m_neg1, m1, mi, mni = a1_cells(xi_a1)
    assert [e1_a1.dims[m] for m in (m0, m_neg1, m1, mi, mni)] == [1, 2, 2, 2, 2]
    ones = RationalMatrix(((1, 1),))
    assert e1_a1.dprime[(m_neg1, m0)] == ones


@pytest.mark.parametrize("label,rank", [("A", 1), ("A", 2), ("B", 2)])
def test_check_mbs_e1_small(label, rank):
    xi = enumerate_xi(build_coxeter(label, rank))
    rep = check_mbs(build_e1(xi))
    assert rep.ok, rep.summary()


def test_check_mbs_detects_broken_anodyne(xi_a1, e1_a1):
    m0, m_neg1, m1, mi, mni = a1_cells(xi_a1)
    bad_dprime = dict(e1_a1.dprime)
    bad_dprime[(mi, m1)] = RationalMatrix.zeros(2, 2)
    bad = e1_a1.copy_with(e1_a1.dims, bad_dprime, e1_a1.dsecond)
    rep = check_mbs(bad)
    assert not rep.ok
    assert ("prime", mi, m1) in rep.witnesses["MBS3"]


def test_check_mbs_detects_mbs2_failure(xi_a1, e1_a1):
    # scale one diagonal leg: uv = ab + cd breaks at the unique A1 configuration
    m0, m_neg1, m1, mi, mni = a1_cells(xi_a1)
    bad_dprime = dict(e1_a1.dprime)
    bad_dprime[(mi, m1)] = e1_a1.dprime[(mi, m1)].scale(2)
    bad = e1_a1.copy_with(e1_a1.dims, bad_dprime, e1_a1.dsecond)
    rep = check_mbs(bad)
    assert not rep.ok
    assert (m_neg1, m0, m1) in rep.witnesses["MBS2"]
    assert len(rep.witnesses["MBS2"]) == 1


def _break_one_map(E, case):
    """A copy of E with one covering map removed, misshaped, scaled or zeroed."""
    xi = E.poset
    maps = {"dprime": dict(E.dprime), "dsecond": dict(E.dsecond)}
    sizes = [e.orbit_size for e in xi.elements]
    what, key = case.split(" ")
    if what == "missing":
        del maps[key][min(maps[key])]
    elif what == "misshaped":
        k = min(maps[key])
        r, c = maps[key][k].shape
        maps[key][k] = RationalMatrix.zeros(r + 1, c)
    elif what == "chain":
        # a covering out of a cell of empty type on its side starts a two-step chain
        side = PRIME if key == "dprime" else SECOND
        k = min(k for k in maps[key] if xi.elements[k[0]].typeIJ[side] == ())
        maps[key][k] = maps[key][k].scale(2)
    else:
        k = min(k for k in maps[key] if sizes[k[0]] == sizes[k[1]])
        maps[key][k] = RationalMatrix.zeros(*maps[key][k].shape)
    return E.copy_with(E.dims, maps["dprime"], maps["dsecond"])


# (case, datum rank, expected (shape, mbs1, mbs2, mbs3)); the cell indices
# are those of enumerate_xi on the type A datum of that rank
SHAPE_MSG = "missing or misshaped matrix"
BROKEN_MAP_WITNESSES = [
    ("missing dprime", 1, ([("prime", 0, 3, SHAPE_MSG)], [], [], [])),
    ("misshaped dsecond", 1, ([("second", 0, 2, SHAPE_MSG)], [], [], [])),
    ("missing dprime", 2, ([("prime", 0, 13, SHAPE_MSG)], [], [], [])),
    ("misshaped dsecond", 2, ([("second", 0, 6, SHAPE_MSG)], [], [], [])),
    ("chain dprime", 2, ([], [("prime", 0, 29)], [], [])),
    ("chain dsecond", 2, ([], [("second", 0, 12)], [], [])),
    ("anodyne dprime", 1, ([], [], [(2, 4, 3)], [("prime", 0, 3)])),
    ("anodyne dsecond", 1, ([], [], [(2, 4, 3)], [("second", 0, 2)])),
]


@pytest.mark.parametrize("case,rank,expected", BROKEN_MAP_WITNESSES)
def test_check_mbs_witnesses_of_both_orders(case, rank, expected, e1_a1, e1_a2):
    rep = check_mbs(_break_one_map(e1_a1 if rank == 1 else e1_a2, case))
    assert tuple(rep.witnesses[k] for k in ("shape", "MBS1", "MBS2", "MBS3")) == expected


def test_compose_identity_and_single(xi_a1, e1_a1):
    m0, m_neg1, m1, mi, mni = a1_cells(xi_a1)
    assert compose_prime(e1_a1, m1, m1) == RationalMatrix.identity(2)
    assert compose_prime(e1_a1, m_neg1, m0) == e1_a1.dprime[(m_neg1, m0)]
    assert compose_second(e1_a1, m1, m0) == e1_a1.dsecond[(m1, m0)]
    # m0 lies below m_neg1 on the first side only: the error names both cells
    with pytest.raises(OrderError, match=re.escape(
            f"compose_second requires m >='' n, not {xi_id(xi_a1, m_neg1)} "
            f"and {xi_id(xi_a1, m0)}")):
        compose_second(e1_a1, m_neg1, m0)


def test_compose_chain_matches_point_pushforward(xi_a2, e1_a2):
    # a length-2 chain in >=' equals the direct pushforward of the composite map
    xi = xi_a2
    full = (0, 1)
    for m, e in enumerate(xi.elements):
        if e.typeIJ[0] != ():
            continue
        n = xi.phi(m, PRIME, full)
        mat = compose_prime(e1_a2, m, n)
        pi = xi.pi_map(m, n)
        expect = [[0] * e1_a2.dims[m] for _ in range(e1_a2.dims[n])]
        for src, dst in enumerate(pi):
            expect[dst][src] = 1
        assert mat == RationalMatrix(tuple(tuple(r) for r in expect))


def test_dual_involution_and_dims(xi_a2, e1_a2):
    d = dual(e1_a2)
    dd = dual(d)
    assert dd.dims == e1_a2.dims
    assert dd.dprime == e1_a2.dprime
    assert dd.dsecond == e1_a2.dsecond
    for m in range(len(xi_a2.elements)):
        assert d.dims[m] == e1_a2.dims[xi_a2.tau(m)]
    # E_1 is self-dual at the dimension level: |m| = |tau(m)|
    assert d.dims == e1_a2.dims
    assert check_mbs(d).ok


def test_equivariance(xi_a2, e1_a2):
    for m in range(len(xi_a2.elements)):
        for _s, n in xi_a2.cov[PRIME][m]:
            mat = e1_a2.dprime[(m, n)]
            for w in range(xi_a2.datum.order):
                assert mat @ e1_a2.action_matrix(w, m) == e1_a2.action_matrix(w, n) @ mat
        for _s, n in xi_a2.cov[SECOND][m]:
            mat = e1_a2.dsecond[(m, n)]
            for w in range(xi_a2.datum.order):
                assert mat @ e1_a2.action_matrix(w, n) == e1_a2.action_matrix(w, m) @ mat


# -- bicube and (Phi, Psi) ------------------------------------------------------

def test_bicube_e1_a2_dims(e1_a2):
    q = bicube(e1_a2)
    assert q.spaces[()] == 6
    assert q.spaces[(0,)] == 3
    assert q.spaces[(1,)] == 3
    assert q.spaces[(0, 1)] == 1
    assert q.transitive()


def test_bicube_e1_a1(e1_a1):
    q = bicube(e1_a1)
    assert q.spaces[()] == 2 and q.spaces[(0,)] == 1
    # pushforward then pullback on orbit functions
    assert q.v[((), (0,))] == RationalMatrix(((1, 1),))
    assert q.u[((), (0,))] == RationalMatrix(((1,), (1,)))
    assert q.transitive()


def test_phi_psi_e1(e1_a1):
    pp = phi_psi(e1_a1)
    assert pp.phi_dim == 1 and pp.psi_dim == 2
    assert pp.t_invertible
    # Id - uv with u = all-ones column, v = all-ones row
    assert pp.t == RationalMatrix(((0, -1), (-1, 0)))


def test_phi_psi_rank_guard(e1_a2):
    with pytest.raises(ValueError):
        phi_psi(e1_a2)


# -- transport ------------------------------------------------------------------

def test_transport_constant_path(xi_a1, e1_a1):
    m0, m_neg1, m1, mi, mni = a1_cells(xi_a1)
    assert transport(e1_a1, [m1]) == RationalMatrix.identity(2)


def test_a1_loop_monodromy_is_swap(xi_a1, e1_a1):
    (loop,) = braid_loops(xi_a1)
    assert transport(e1_a1, loop) == RationalMatrix(((0, 1), (1, 0)))


def test_transport_rejects_bad_paths(xi_a1, e1_a1):
    m0, m_neg1, m1, mi, mni = a1_cells(xi_a1)
    with pytest.raises(ValueError, match="empty path"):
        transport(e1_a1, [])
    with pytest.raises(ValueError, match=re.escape(
            f"path leaves the stratum of {xi_id(xi_a1, m1)} at {xi_id(xi_a1, m0)}")):
        transport(e1_a1, [m1, m0])
    # both cells lie on the open stratum, but neither contracts to the other
    # in one coordinate
    with pytest.raises(ValueError, match=re.escape(
            f"step {xi_id(xi_a1, m1)} -> {xi_id(xi_a1, m_neg1)} is not a pure <=' or <='' step")):
        transport(e1_a1, [m1, m_neg1])


def test_transport_elementary_move_invariance(xi_a2, e1_a2):
    # an anodyne square a <=' b, a <='' c closes through the unique mixed
    # supremum d; the two transports a -> b -> d and a -> c -> d agree
    xi = xi_a2
    squares = 0
    for a in range(len(xi.elements)):
        ups_prime = [b for b in range(len(xi.elements))
                     if b != a and xi.leq_side(PRIME, a, b) and xi.is_anodyne(b, a)]
        ups_second = [c for c in range(len(xi.elements))
                      if c != a and xi.leq_side(SECOND, a, c) and xi.is_anodyne(c, a)]
        for b in ups_prime:
            for c in ups_second:
                sups = xi.sup(b, c)
                if len(sups) != 1:
                    continue
                d = sups[0]
                if not (xi.is_anodyne(d, b) and xi.is_anodyne(d, c)):
                    continue
                squares += 1
                left = transport(e1_a2, [a, b, d])
                right = transport(e1_a2, [a, c, d])
                assert left == right
    assert squares > 0
    for loop in braid_loops(xi):
        assert transport(e1_a2, loop).is_invertible()


# -- subsheaves -------------------------------------------------------------------

def test_generated_sub_extremes(xi_a1, e1_a1):
    full_seeds = {m: [tuple(1 if i == k else 0 for i in range(e1_a1.dims[m]))
                      for k in range(e1_a1.dims[m])]
                  for m in range(len(xi_a1.elements))}
    full = generated_sub(e1_a1, full_seeds)
    assert full.dims == e1_a1.dims
    zero = generated_sub(e1_a1, {})
    assert zero.total_dim == 0


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2)])
def test_generated_sub_matches_span_oracle(label, rank):
    # every basis vector of every cell, one at a time: the rref spans give
    # exactly the echelon bases that the incremental Span closure gives
    e1 = build_e1(enumerate_xi(build_coxeter(label, rank)))
    oracle = generated_sub_bases(e1)
    for m, d in enumerate(e1.dims):
        for k in range(d):
            seeds = {m: [tuple(int(i == k) for i in range(d))]}
            got = generated_sub(e1, seeds)
            assert [b.rows for b in got.bases] == [b.rows for b in oracle(seeds)], (m, k)


def test_generated_sub_walks_anodyne_maps_back_along_their_inverses(xi_a1):
    """One shear S = [[1, 1], [0, 1]] object on every covering of Xi(A1).
    S sends (0, 1) to (1, 1) and S^-1 sends it to (-1, 1), so the span that
    (0, 1) generates at one cell is a line at every cell only when each
    invertible anodyne covering is walked back along S^-1; walking back
    along S makes planes."""
    shear = RationalMatrix.from_columns([(1, 0), (1, 1)], 2)
    maps = ({}, {})
    for side, m, n in xi_a1.coverings():
        maps[side][(m, n)] = shear
    E = MixedBruhatSheaf(xi_a1, [2] * len(xi_a1.elements), *maps)
    oracle = generated_sub_bases(E)
    for m in range(len(E.dims)):
        got = generated_sub(E, {m: [(0, 1)]})
        assert got.dims == (1,) * len(E.dims), m
        assert [b.rows for b in got.bases] == [b.rows for b in oracle({m: [(0, 1)]})], m


@pytest.mark.parametrize("vec", [(1,), (1, 0, 0)], ids=["short", "long"])
def test_generated_sub_rejects_a_seed_of_the_wrong_length(e1_a1, vec):
    m = next(m for m, d in enumerate(e1_a1.dims) if d == 2)
    with pytest.raises(ValueError, match=rf"length {len(vec)} at cell {m} .*dimension 2"):
        generated_sub(e1_a1, {m: [vec]})


def test_span_ranks_are_the_generated_dimension(e1_a1):
    # is_simple reads the dimension off the span ranks without the subsheaf
    for m, d in enumerate(e1_a1.dims):
        for k in range(d):
            seeds = {m: [tuple(int(i == k) for i in range(d))]}
            ranks = sum(map(len, _span_closure(e1_a1, seeds)))
            assert ranks == generated_sub(e1_a1, seeds).total_dim


def test_e1_a1_not_simple(e1_a1):
    assert not is_simple(e1_a1)
    # the invariant (all-ones) vector generates the trivial isotypic subsheaf
    m0 = next(m for m in range(len(e1_a1.poset.elements)) if e1_a1.dims[m] == 1)
    sub = generated_sub(e1_a1, {m0: [(1,)]})
    assert sub.dims == tuple(1 for _ in e1_a1.dims)
    assert check_mbs(sub).ok


def test_isotypic_pieces_are_simple(xi_a1):
    from mbsheaf.f1 import build_e1v, rep_catalog
    for name in ("trivial", "sign"):
        sheaf = build_e1v(xi_a1, rep_catalog(xi_a1.datum, name))
        assert is_simple(sheaf)


def test_zero_sheaf(xi_a1):
    dims = [0] * len(xi_a1.elements)
    dp = {(m, n): RationalMatrix.zeros(0, 0)
          for m in range(len(xi_a1.elements)) for _s, n in xi_a1.cov[PRIME][m]}
    ds = {(m, n): RationalMatrix.zeros(0, 0)
          for m in range(len(xi_a1.elements)) for _s, n in xi_a1.cov[SECOND][m]}
    zero = MixedBruhatSheaf(xi_a1, dims, dp, ds)
    assert check_mbs(zero).ok
    pp = phi_psi(zero)
    assert pp.phi_dim == pp.psi_dim == 0
    assert pp.t_invertible
    assert not is_simple(zero)
