"""Stalk complexes, perversity support, and constructibility along strata."""

import pytest

from cousin_reference import block_scan_stalk_complex
from mbsheaf.coxeter import build_coxeter
from mbsheaf.cousin import (
    SignConventionError, constructibility_check, coperversity_check,
    stalk_complex, support_check,
)
from mbsheaf.f1 import build_e1, build_e1v, rep_catalog
from mbsheaf.fq import build_eq
from mbsheaf.linalg import RationalMatrix
from mbsheaf.sheaf import check_mbs
from mbsheaf.xi import PRIME, enumerate_xi
from xi_reference import blocks


@pytest.fixture(scope="module")
def xi_a1():
    return enumerate_xi(build_coxeter("A", 1))


@pytest.fixture(scope="module")
def xi_a2():
    return enumerate_xi(build_coxeter("A", 2))


def a1_cells(xi):
    cx = xi.complex
    zero = cx.zero_face()
    plus = cx.face((), 0)
    minus = cx.face((), 1)
    return (xi.xi_orbit(zero, zero).index, xi.xi_orbit(plus, zero).index,
            xi.xi_orbit(zero, plus).index, xi.xi_orbit(plus, plus).index,
            xi.xi_orbit(plus, minus).index)


def test_stalk_complex_a1_origin(xi_a1):
    e1 = build_e1(xi_a1)
    m0, m_neg1, m1, mi, mni = a1_cells(xi_a1)
    sc = stalk_complex(e1, m0)
    assert sc.dims == {-1: 2, 0: 1}
    assert sc.differentials[-1] == RationalMatrix(((1, 1),))
    assert sc.cohomology == {-1: 1, 0: 0}


def test_stalk_complex_open_cells(xi_a1):
    e1 = build_e1(xi_a1)
    m0, m_neg1, m1, mi, mni = a1_cells(xi_a1)
    for m in (mi, mni):
        sc = stalk_complex(e1, m)
        assert sc.dims == {-1: 2}        # single term in degree -r
        assert sc.cohomology == {-1: 2}
    sc1 = stalk_complex(e1, m1)
    assert sc1.cohomology == {-1: 2, 0: 0}


def test_euler_characteristic_oracle(xi_a2):
    # at the origin cell, the term dimensions are sums of orbit sizes per
    # Xi(I, S); the alternating sum telescopes over subsets of S
    e1 = build_e1(xi_a2)
    origin = next(m for m, e in enumerate(xi_a2.elements)
                  if e.typeIJ == ((0, 1), (0, 1)))
    sc = stalk_complex(e1, origin)
    datum = xi_a2.datum
    oracle = 0
    from mbsheaf.faces import subsets_sorted
    for I in subsets_sorted(2):
        total = sum(xi_a2.elements[n].orbit_size
                    for n in blocks(xi_a2).get((I, (0, 1)), ()))
        oracle += (1 if len(I) % 2 == 0 else -1) * total
    assert sc.euler_characteristic() == oracle
    chi_h = sum((1 if d % 2 == 0 else -1) * h for d, h in sc.cohomology.items())
    assert chi_h == sc.euler_characteristic()


@pytest.mark.parametrize("label,rank", [("A", 1), ("A", 2), ("B", 2)])
def test_e1_concentrated_in_top_degree(label, rank):
    xi = enumerate_xi(build_coxeter(label, rank))
    e1 = build_e1(xi)
    r = rank
    for m in range(len(xi.elements)):
        sc = stalk_complex(e1, m)
        for d, h in sc.cohomology.items():
            if d != -r:
                assert h == 0
        assert sc.cohomology[-r] > 0


@pytest.mark.parametrize("label,rank", [("A", 1), ("A", 2), ("B", 2)])
def test_e1_full_cousin_suite(label, rank):
    xi = enumerate_xi(build_coxeter(label, rank))
    e1 = build_e1(xi)
    assert support_check(e1).ok
    assert coperversity_check(e1).ok
    assert constructibility_check(e1).ok


@pytest.mark.parametrize("name", ["sign", "reflection"])
def test_e1v_cousin_suite(name):
    for label, rank in [("A", 1), ("A", 2), ("B", 2)]:
        xi = enumerate_xi(build_coxeter(label, rank))
        rep = rep_catalog(xi.datum, name)
        sheaf = build_e1v(xi, rep)
        assert support_check(sheaf).ok
        assert coperversity_check(sheaf).ok
        assert constructibility_check(sheaf).ok


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
def test_eq_cousin_suite(n, q):
    eq = build_eq(n, q)
    assert support_check(eq).ok
    assert coperversity_check(eq).ok
    assert constructibility_check(eq).ok


def test_open_stratum_profile(xi_a2):
    # at open-stratum cells the cohomology is the stalk dimension in degree -r
    e1 = build_e1(xi_a2)
    for m, e in enumerate(xi_a2.elements):
        if e.flat.dim == xi_a2.datum.rank:
            sc = stalk_complex(e1, m)
            assert sc.cohomology_profile() == ((-2, e1.dims[m]),)


def test_constructibility_constant_on_open_stratum(xi_a1):
    e1 = build_e1(xi_a1)
    m0, m_neg1, m1, mi, mni = a1_cells(xi_a1)
    for m in (m_neg1, m1, mi, mni):
        assert stalk_complex(e1, m).cohomology_profile() == ((-1, 2),)


def test_corrupted_sheaf_fails_support(xi_a1):
    # kill the anodyne maps into the real-axis cell: spurious degree-0
    # cohomology appears over a 1-dimensional stratum
    e1 = build_e1(xi_a1)
    m0, m_neg1, m1, mi, mni = a1_cells(xi_a1)
    bad_dprime = dict(e1.dprime)
    bad_dprime[(mi, m1)] = RationalMatrix.zeros(2, 2)
    bad_dprime[(mni, m1)] = RationalMatrix.zeros(2, 2)
    bad = e1.copy_with(e1.dims, bad_dprime, e1.dsecond)
    assert not check_mbs(bad).ok
    report = support_check(bad)
    assert not report.ok
    assert any(cell == m1 and deg == 0 for cell, deg, _h, _s, _ok in report.failures)
    assert not constructibility_check(bad).ok


def test_corrupted_sheaf_fails_a2(xi_a2):
    # a single zeroed anodyne matrix breaks transitivity, which the
    # d^2 = 0 gate of the stalk complexes reports
    e1 = build_e1(xi_a2)
    target = next((m, n) for m in range(len(xi_a2.elements))
                  for _s, n in xi_a2.cov[PRIME][m]
                  if xi_a2.elements[m].orbit_size == xi_a2.elements[n].orbit_size
                  and xi_a2.elements[n].typeIJ[0] != (0, 1))
    bad_dprime = dict(e1.dprime)
    bad_dprime[target] = RationalMatrix.zeros(*e1.dprime[target].shape)
    bad = e1.copy_with(e1.dims, bad_dprime, e1.dsecond)
    assert not check_mbs(bad).ok
    with pytest.raises(SignConventionError):
        for m in range(len(xi_a2.elements)):
            stalk_complex(bad, m)


def test_d_squared_error_on_broken_transitivity(xi_a2):
    e1 = build_e1(xi_a2)
    # scaling a single covering matrix breaks path independence, so some
    # stalk differential no longer squares to zero
    key = next(k for k in e1.dprime if e1.dprime[k].nrows > 1)
    bad_dprime = dict(e1.dprime)
    bad_dprime[key] = e1.dprime[key].scale(3)
    bad = e1.copy_with(e1.dims, bad_dprime, e1.dsecond)
    with pytest.raises(SignConventionError):
        for m in range(len(xi_a2.elements)):
            stalk_complex(bad, m)


def test_each_stalk_differential_ranked_once(xi_a2, monkeypatch):
    # each differential is the outgoing map of one degree and the incoming
    # map of the next; its rank serves both
    e1 = build_e1(xi_a2)
    ranked = []
    rank = RationalMatrix.rank

    def counting(mat):
        ranked.append(id(mat))
        return rank(mat)

    monkeypatch.setattr(RationalMatrix, "rank", counting)
    for m in range(len(xi_a2.elements)):
        ranked.clear()
        sc = stalk_complex(e1, m)
        assert sorted(ranked) == sorted(id(d) for d in sc.differentials.values())


def test_stalk_complexes_built_once_per_sheaf(xi_a2, monkeypatch):
    import mbsheaf.cousin as cousin
    built = []
    original = cousin.stalk_complex

    def counting(E, m):
        built.append(m)
        return original(E, m)

    monkeypatch.setattr(cousin, "stalk_complex", counting)
    e1 = build_e1(xi_a2)
    assert support_check(e1).ok and constructibility_check(e1).ok
    first = dict(e1._stalks)
    assert support_check(e1).ok and constructibility_check(e1).ok
    assert sorted(built) == list(range(len(xi_a2.elements)))
    # every cell's memoised cohomology, passing cells included, is the
    # cohomology a fresh stalk complex computes
    assert e1._stalks == first == {m: original(e1, m).cohomology
                                   for m in range(len(xi_a2.elements))}
    # a complex with d^2 != 0 is not memoised: every check that meets it raises
    key = next(k for k in e1.dprime if e1.dprime[k].nrows > 1)
    bad_dprime = dict(e1.dprime)
    bad_dprime[key] = e1.dprime[key].scale(3)
    bad = e1.copy_with(e1.dims, bad_dprime, e1.dsecond)
    for check in (support_check, constructibility_check):
        with pytest.raises(SignConventionError):
            check(bad)


def _e1v(label, rank, name):
    xi = enumerate_xi(build_coxeter(label, rank))
    return build_e1v(xi, rep_catalog(xi.datum, name))


ORACLE_SHEAVES = {
    "E_1(A1)": lambda: build_e1(enumerate_xi(build_coxeter("A", 1))),
    "E_1(A2)": lambda: build_e1(enumerate_xi(build_coxeter("A", 2))),
    "E_1(A3)": lambda: build_e1(enumerate_xi(build_coxeter("A", 3))),
    "E_1(B2)": lambda: build_e1(enumerate_xi(build_coxeter("B", 2))),
    "E_1(G2)": lambda: build_e1(enumerate_xi(build_coxeter("G", 2))),
    "E_1^reflection(B2)": lambda: _e1v("B", 2, "reflection"),
    "E_q(3,2)": lambda: build_eq(3, 2),
}


@pytest.mark.parametrize("name", sorted(ORACLE_SHEAVES))
def test_stalk_complex_matches_block_scan(name):
    """Terms from the up-set and blocks from the coverings against the block
    scan: the same complex, term for term, at every cell."""
    E = ORACLE_SHEAVES[name]()
    for m in range(len(E.poset.elements)):
        got, ref = stalk_complex(E, m), block_scan_stalk_complex(E, m)
        assert got.degrees == ref.degrees, (name, m)
        assert got.labels == ref.labels, (name, m)
        assert got.dims == ref.dims, (name, m)
        assert got.differentials == ref.differentials, (name, m)
        assert got.cohomology == ref.cohomology, (name, m)
