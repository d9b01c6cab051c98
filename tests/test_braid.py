"""Braid loops and the generators of the local system on the open stratum.

braid_loops(poset)[s] is a loop at d = W(C0, C0) around the wall of the
dominant chamber fixed by s, and transport(E, loop) is the braid generator
sigma_s of E.  The laws: the braid relations of W; sigma_s^2 = 1 on E_1 and
E_1^V and (sigma_s - q)(sigma_s + 1) = 0 on E_q, where sigma_s is
hecke_generators(n, q)[s] itself; the characters of V on E_1^V, whose stalk
at d is V; the regular W-action on E_1 commuting with every sigma_s; and the
bicube's restriction-then-induction u v = 1 + sigma_s at W(0, C0); and
sigma_s under a change of basis of every stalk.
"""

import functools
import itertools
import time

import pytest

from mbsheaf.coxeter import SUPPORTED, build_coxeter
from mbsheaf.f1 import build_e1, build_e1v, rep_catalog
from mbsheaf.fq import build_eq, hecke_generators
from mbsheaf.linalg import RationalMatrix
from mbsheaf.sheaf import bicube, braid_loops, transport
from mbsheaf.xi import PRIME, SECOND, enumerate_xi

KINDS = ("e1", "sign", "reflection")
E1_FAMILY = [(kind, label, rank) for label, rank in SUPPORTED for kind in KINDS]
EQ = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]
EQ_BRAID = [(3, 2), (3, 3), (4, 2)]
BICUBE_TYPES = [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3)]
TYPE_IDS = [f"{label}{rank}" for label, rank in SUPPORTED]


def key_id(key):
    return "-".join(map(str, key))


@functools.lru_cache(maxsize=None)
def poset(label, rank):
    return enumerate_xi(build_coxeter(label, rank))


@functools.lru_cache(maxsize=None)
def sheaf(kind, *args):
    """E_1, E_1^sign or E_1^reflection of (label, rank), or E_q of (n, q)."""
    if kind == "eq":
        n, q = args
        return build_eq(n, q, poset=poset("A", n - 1))
    xi = poset(*args)
    return build_e1(xi) if kind == "e1" else build_e1v(xi, rep_catalog(xi.datum, kind))


@functools.lru_cache(maxsize=None)
def sigmas(kind, *args):
    """The braid generators of the sheaf, and the seconds their transports took."""
    E = sheaf(kind, *args)
    t0 = time.perf_counter()
    out = [transport(E, loop) for loop in braid_loops(E.poset)]
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module", autouse=True)
def _free_sheaves():
    yield
    for cached in (sigmas, sheaf, poset):
        cached.cache_clear()


def alternating(a, b, length):
    """a b a ... with `length` factors."""
    out = RationalMatrix.identity(a.nrows)
    for k in range(length):
        out = out @ (a, b)[k % 2]
    return out


def assert_braid_relations(datum, gens):
    for s, t in itertools.combinations(range(datum.rank), 2):
        m = datum.coxeter_order(s, t)
        assert alternating(gens[s], gens[t], m) == alternating(gens[t], gens[s], m), (s, t, m)


@pytest.mark.parametrize("label,rank", SUPPORTED, ids=TYPE_IDS)
def test_braid_loop_shape(label, rank):
    """Five cells from d back to d, each step an anodyne covering of one side."""
    xi = poset(label, rank)
    cx = xi.complex
    c0 = cx.dominant_face(())
    d = xi.xi_orbit(c0, c0).index
    covers = set(xi.coverings())
    loops = braid_loops(xi)
    assert len(loops) == rank
    for loop in loops:
        assert len(loop) == 5 and loop[0] == loop[-1] == d
        for a, b in zip(loop, loop[1:]):
            side, hi, lo = next((side, hi, lo) for side in (PRIME, SECOND)
                                for hi, lo in ((a, b), (b, a)) if (side, hi, lo) in covers)
            assert xi.is_anodyne(hi, lo), (side, hi, lo)


@pytest.mark.parametrize("key", E1_FAMILY, ids=map(key_id, E1_FAMILY))
def test_braid_relations_and_involutions_on_e1_family(key):
    gens, seconds = sigmas(*key)
    datum = poset(*key[1:]).datum
    assert_braid_relations(datum, gens)
    for g in gens:
        assert g @ g == RationalMatrix.identity(g.nrows)
    assert seconds < 0.05


@pytest.mark.parametrize("n,q", EQ_BRAID)
def test_braid_relations_on_eq(n, q):
    gens, _ = sigmas("eq", n, q)
    assert_braid_relations(poset("A", n - 1).datum, gens)


@pytest.mark.parametrize("n,q", EQ)
def test_eq_generators_are_the_hecke_generators(n, q):
    """(sigma_s - q)(sigma_s + 1) = 0, and sigma_s is criterion 6's
    pullback-pushforward generator entry for entry."""
    gens, seconds = sigmas("eq", n, q)
    hecke = hecke_generators(n, q)
    assert len(gens) == len(hecke) == n - 1
    for g, h in zip(gens, hecke):
        one = RationalMatrix.identity(g.nrows)
        assert ((g - one.scale(q)) @ (g + one)).is_zero()
        assert g == h
    assert seconds < 0.05


@pytest.mark.parametrize("label,rank", SUPPORTED, ids=TYPE_IDS)
@pytest.mark.parametrize("kind", ["sign", "reflection"])
def test_e1v_generators_carry_the_character(kind, label, rank):
    """The stalk of E_1^V at d is V: along a reduced word of w, the product
    of the sigma_s has the trace of rho(w)."""
    gens, _ = sigmas(kind, label, rank)
    rep = rep_catalog(poset(label, rank).datum, kind)
    datum = rep.datum
    for w in range(datum.order):
        prod = RationalMatrix.identity(rep.dim)
        for s in datum.word_of(w):
            prod = prod @ gens[s]
        assert prod.trace() == rep.trace(w), w


@pytest.mark.parametrize("label,rank", SUPPORTED, ids=TYPE_IDS)
def test_e1_generators_commute_with_the_regular_action(label, rank):
    gens, _ = sigmas("e1", label, rank)
    E = sheaf("e1", label, rank)
    d = braid_loops(E.poset)[0][0]
    for w in range(E.poset.datum.order):
        act = E.action_matrix(w, d)
        for g in gens:
            assert g @ act == act @ g, w


def test_generators_follow_a_change_of_basis():
    """Changing the basis of every stalk of E_1(A2) by g_m conjugates each
    sigma_s by g_d.  The g_m are not orthogonal, so this tells inverting a
    step run against its map from transposing it, which the permutation
    maps of the model sheaves do not."""
    E = sheaf("e1", "A", 2)
    g = [RationalMatrix(tuple(tuple(1 if i == j else m + 1 if i < j else 0 for j in range(dim))
                              for i in range(dim)), dim) for m, dim in enumerate(E.dims)]
    dprime = {(m, n): g[n] @ mat @ g[m].inverse() for (m, n), mat in E.dprime.items()}
    dsecond = {(m, n): g[m] @ mat @ g[n].inverse() for (m, n), mat in E.dsecond.items()}
    moved = E.copy_with(E.dims, dprime, dsecond)
    loops = braid_loops(E.poset)
    d = loops[0][0]
    for loop, sigma in zip(loops, sigmas("e1", "A", 2)[0]):
        assert transport(moved, loop) == g[d] @ sigma @ g[d].inverse()


BICUBE_DATA = ([(kind, label, rank) for label, rank in BICUBE_TYPES for kind in KINDS]
               + [("eq", n, q) for n, q in EQ[:4]])


@pytest.mark.parametrize("key", BICUBE_DATA, ids=map(key_id, BICUBE_DATA))
def test_bicube_restriction_induction_is_one_plus_sigma(key):
    """u v on the wall K_s is 1 + sigma_s, carried from d to W(0, C0)."""
    E = sheaf(*key)
    gens, _ = sigmas(*key)
    xi = E.poset
    cx = xi.complex
    c0 = cx.dominant_face(())
    base = xi.xi_orbit(cx.zero_face(), c0).index
    d = xi.xi_orbit(c0, c0).index
    t = transport(E, [base, d])
    cube = bicube(E)
    one = RationalMatrix.identity(E.dims[d])
    for s, g in enumerate(gens):
        J = ((), (s,))
        assert cube.u[J] @ cube.v[J] == t.inverse() @ (one + g) @ t, s
