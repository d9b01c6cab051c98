"""Stalk complexes, perversity support, and constructibility along strata."""

import re

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
from mbsheaf.sheaf import check_mbs, dual
from mbsheaf.xi import PRIME, SECOND, SIDE_NAMES, enumerate_xi, xi_id
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
    # map of the next; its rank serves both, on either side
    e1 = build_e1(xi_a2)
    ranked = []
    rank = RationalMatrix.rank

    def counting(mat):
        ranked.append(id(mat))
        return rank(mat)

    monkeypatch.setattr(RationalMatrix, "rank", counting)
    for side in (PRIME, SECOND):
        for m in range(len(xi_a2.elements)):
            ranked.clear()
            sc = stalk_complex(e1, m, side)
            assert sorted(ranked) == sorted(id(d) for d in sc.differentials.values())


def _scaled(E, side, factor=3):
    """E with its first covering map of `side` that has two rows scaled."""
    maps = [dict(E.dprime), dict(E.dsecond)]
    key = next(k for k in maps[side] if maps[side][k].nrows > 1)
    maps[side][key] = maps[side][key].scale(factor)
    return E.copy_with(E.dims, *maps)


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2), ("A", 3)])
def test_constructibility_witnesses_walk_flat_classes(label, rank, monkeypatch):
    """With a profile that varies along every flat, the witnesses are those of
    the S0 partition of stratification_classes, class by class and in order."""
    import mbsheaf.cousin as cousin
    xi = enumerate_xi(build_coxeter(label, rank))
    s0, _s1, _tau = xi.stratification_classes()
    monkeypatch.setattr(cousin, "_stalk_cohomology", lambda E, side, m: {-1: m % 3})

    def profile(m):
        return ((-1, m % 3),) if m % 3 else ()
    want = [(m, profile(m), profile(cls[0]), None, False)
            for cls in s0 for m in cls if profile(m) != profile(cls[0])]
    assert want
    assert constructibility_check(build_e1(xi)).failures == want


# the checks that read each side's stalk complexes
SIDE_CHECKS = {PRIME: (support_check, constructibility_check), SECOND: (coperversity_check,)}


def _count_calls(monkeypatch, module, name):
    """The arguments of every call of module.name from here on."""
    calls, original = [], getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_stalk_complexes_built_once_per_sheaf(xi_a2, monkeypatch):
    """The whole suite, twice, on a fresh passing sheaf runs check_mbs once
    and builds one stalk complex per stratum class, 2 * 3^r in all; each
    cell's memoised cohomology is the one a fresh complex at it computes."""
    import mbsheaf.cousin as cousin
    built = _count_stalk_complexes(monkeypatch)
    checked = _count_calls(monkeypatch, cousin, "check_mbs")
    e1 = build_e1(xi_a2)
    checks = (support_check, coperversity_check, constructibility_check)
    assert all(check(e1).ok for check in checks)
    first = dict(e1._stalks)
    assert all(check(e1).ok for check in checks)
    assert len(checked) == 1 and e1._axioms.ok
    assert len(built) == len(set(built)) == 2 * 3 ** 2
    assert e1._stalks == first == {(side, m): stalk_complex(e1, m, side).cohomology
                                   for side, m in _every_cell(xi_a2)}
    # a sheaf whose squares fail on a side has no stalk complex there: every
    # check that reads one raises
    for side, side_checks in SIDE_CHECKS.items():
        bad = _scaled(e1, side)
        for check in side_checks:
            with pytest.raises(SignConventionError):
                check(bad)


@pytest.mark.parametrize("side", [PRIME, SECOND], ids=SIDE_NAMES)
def test_square_failure_on_one_side(xi_a2, side):
    """A covering map of one side scaled by 3: check_mbs reports MBS1 squares
    of that side alone, the other side's support check passes, and this side's
    raises SignConventionError naming the first failing square by its cells."""
    bad = _scaled(build_e1(xi_a2), side)
    squares = check_mbs(bad).witnesses["MBS1"]
    assert squares and {order for order, _m, _n in squares} == {SIDE_NAMES[side]}
    assert all(check(bad).ok for check in SIDE_CHECKS[1 - side])
    order, top, bottom = squares[0]
    message = (f"the {order} square from {xi_id(xi_a2, top)} to {xi_id(xi_a2, bottom)} "
               "does not commute")
    for check in SIDE_CHECKS[side]:
        with pytest.raises(SignConventionError, match=re.escape(message)):
            check(bad)


def test_squares_walked_once_per_side(xi_a2, monkeypatch):
    """The whole suite on a fresh passing sheaf runs check_mbs once, whose
    walk covers both sides' squares; after an explicit check_mbs the suite
    walks none again.  A check_mbs that raises partway leaves no verdict, so
    the suite runs it again."""
    import mbsheaf.cousin as cousin
    import mbsheaf.sheaf as sheaf
    checked = _count_calls(monkeypatch, cousin, "check_mbs")
    walked = _count_calls(monkeypatch, sheaf, "_mbs1_failures")
    suite = (support_check, coperversity_check, constructibility_check) * 2
    e1 = build_e1(xi_a2)
    for check in suite:
        assert check(e1).ok
    assert len(checked) == len(walked) == 1
    checked.clear()
    walked.clear()
    e1 = build_e1(xi_a2)
    for check in (check_mbs, *suite):
        assert check(e1).ok
    assert (len(checked), len(walked)) == (0, 1)

    def interrupted(poset, maps):
        raise RuntimeError("interrupted")

    monkeypatch.setattr(sheaf, "_mbs2_failures", interrupted)
    e1 = build_e1(xi_a2)
    for check in (check_mbs, support_check):
        with pytest.raises(RuntimeError, match="interrupted"):
            check(e1)
        assert e1._axioms is None
    assert len(checked) == 1 and e1._stalks == {}


def _deleted_entry(E):
    """E with its first dprime entry deleted."""
    dprime = dict(E.dprime)
    del dprime[next(iter(dprime))]
    return E.copy_with(E.dims, dprime, E.dsecond)


def _misshaped(E):
    """E with its first dsecond map replaced by a zero matrix one row taller."""
    dsecond = dict(E.dsecond)
    key = next(iter(dsecond))
    dsecond[key] = RationalMatrix.zeros(dsecond[key].nrows + 1, dsecond[key].ncols)
    return E.copy_with(E.dims, E.dprime, dsecond)


@pytest.mark.parametrize("broken,order", [(_deleted_entry, "prime"), (_misshaped, "second")],
                         ids=["deleted", "misshaped"])
def test_missing_or_misshaped_map_raises_value_error(xi_a2, broken, order):
    """A map missing or of the wrong shape, on either side, leaves neither side
    a stalk complex: each entry point of the suite, on a fresh copy, raises
    ValueError naming the map by its cells, check_mbs's one shape witness."""
    e1 = build_e1(xi_a2)
    [(got, m, n, message)] = check_mbs(broken(e1)).witnesses["shape"]
    assert got == order
    text = f"{message}: the {order} covering from {xi_id(xi_a2, m)} to {xi_id(xi_a2, n)}"
    if broken is _deleted_entry:
        assert text == "missing or misshaped matrix: the prime covering from :0|:0 to 0:0|:0"
    entry_points = (lambda E: stalk_complex(E, 0, PRIME), lambda E: stalk_complex(E, 0, SECOND),
                    support_check, coperversity_check, constructibility_check)
    for call in entry_points:
        with pytest.raises(ValueError, match=re.escape(text)):
            call(broken(e1))


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


DUAL_ORACLE_SHEAVES = {
    **{f"E_1{tag}({label}{rank})": (lambda label=label, rank=rank, name=name:
                                    _e1v(label, rank, name) if name else
                                    build_e1(enumerate_xi(build_coxeter(label, rank))))
       for label, rank in [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3)]
       for tag, name in [("", None), ("^sign", "sign"), ("^reflection", "reflection")]},
    **{f"E_q({n},{q})": (lambda n=n, q=q: build_eq(n, q))
       for n, q in [(2, 2), (2, 3), (3, 2), (3, 3)]},
}


def _coords(labels, dims, cell=lambda n: n):
    """Each coordinate of one degree of a stalk complex: (cell(term), index)."""
    return [(cell(n), k) for _T, n in labels for k in range(dims[n])]


@pytest.mark.parametrize("name", sorted(DUAL_ORACLE_SHEAVES))
def test_second_stalks_are_the_dual_prime_stalks(name):
    """The SECOND stalk complex at m against the PRIME one of the twisted dual
    at tau(m): the same degrees, dims, cohomology and terms up to tau, and
    the same differentials once each term n is moved to where tau(n) is."""
    E = DUAL_ORACLE_SHEAVES[name]()
    D, tau = dual(E), E.poset.tau
    for m in range(len(E.poset.elements)):
        got, ref = stalk_complex(E, m, SECOND), stalk_complex(D, tau(m))
        assert got.degrees == ref.degrees, (name, m)
        assert got.dims == ref.dims, (name, m)
        assert got.cohomology == ref.cohomology, (name, m)
        place = {}
        for deg, labels in got.labels.items():
            assert sorted((T, tau(n)) for T, n in labels) == sorted(ref.labels[deg]), (name, m)
            theirs = {c: i for i, c in enumerate(_coords(ref.labels[deg], D.dims))}
            place[deg] = [theirs[c] for c in _coords(labels, E.dims, tau)]
        for deg, d in got.differentials.items():
            rows = [()] * d.nrows
            for i, row in enumerate(d.sparse_rows):
                rows[place[deg + 1][i]] = [(place[deg][j], x) for j, x in row]
            assert RationalMatrix.from_sparse(rows, d.ncols) == ref.differentials[deg], (name, m)


def _count_stalk_complexes(monkeypatch):
    """The (side, cell) of every stalk complex built from here on."""
    import mbsheaf.cousin as cousin
    built, original = [], cousin.stalk_complex

    def counting(E, m, side=PRIME):
        built.append((side, m))
        return original(E, m, side)

    monkeypatch.setattr(cousin, "stalk_complex", counting)
    return built


def _suite_failures(E):
    return [check(E).failures
            for check in (support_check, coperversity_check, constructibility_check)]


def _every_cell(poset):
    return [(side, m) for side in (PRIME, SECOND) for m in range(len(poset.elements))]


CLASS_SCAN_SHEAVES = {**ORACLE_SHEAVES, **DUAL_ORACLE_SHEAVES}


@pytest.mark.parametrize("name", sorted(CLASS_SCAN_SHEAVES))
def test_class_scan_matches_all_cell_scan(name, monkeypatch):
    """After check_mbs the suite builds one stalk complex per S1 class on
    PRIME and per tau-S1 class on SECOND, 3^r a side, and gives the all-cell
    scan, a stalk complex at every cell of both sides, everywhere, with the
    reports the suite makes when it reads that scan."""
    import mbsheaf.cousin as cousin
    E = CLASS_SCAN_SHEAVES[name]()
    scan = {(side, m): stalk_complex(E, m, side).cohomology for side, m in _every_cell(E.poset)}
    with monkeypatch.context() as patched:
        patched.setattr(cousin, "_stalk_cohomology", lambda _E, side, m: scan[(side, m)])
        want = _suite_failures(E)
    assert E._stalks == {}
    built = _count_stalk_complexes(monkeypatch)
    assert check_mbs(E).ok
    assert _suite_failures(E) == want
    assert E._stalks == scan
    _s0, s1, tau_s1 = E.poset.stratification_classes()
    assert len(built) == len(s1) + len(tau_s1) == 2 * 3 ** E.poset.datum.rank
    for side, classes in ((PRIME, s1), (SECOND, tau_s1)):
        reps = {m for s, m in built if s == side}
        assert all(len(reps.intersection(cls)) == 1 for cls in classes), (name, side)


def test_failed_axioms_scan_every_cell(xi_a2, monkeypatch):
    """The class lemma rests on MBS1-3, so a sheaf that failed check_mbs has a
    stalk complex built at every cell.  With the six anodyne dprime maps into
    01:0|:0 zeroed, MBS1 holds but MBS2 and MBS3 fail, and support and
    constructibility fail there.  With one zeroed, MBS1 fails on PRIME: that
    side has no complex, and SECOND has one at every cell."""
    e1 = build_e1(xi_a2)
    n = next(m for m in range(len(xi_a2.elements)) if xi_id(xi_a2, m) == "01:0|:0")
    above = xi_a2.up_covers[PRIME][n]
    assert len(above) == 6 and all(xi_a2.elements[m].orbit_size == xi_a2.elements[n].orbit_size
                                   for m in above)
    dprime = dict(e1.dprime)
    for m in above:
        dprime[(m, n)] = RationalMatrix.zeros(*dprime[(m, n)].shape)
    bad = e1.copy_with(e1.dims, dprime, e1.dsecond)
    report = check_mbs(bad)
    assert [len(report.witnesses[k]) for k in ("MBS1", "MBS2", "MBS3")] == [0, 8, 6]
    built = _count_stalk_complexes(monkeypatch)
    assert _suite_failures(bad) == [
        [(n, -1, 6, 2, False), (n, 0, 6, 2, False)], [],
        [(n, ((-2, 6), (-1, 6), (0, 6)), ((-2, 6),), None, False)]]
    assert sorted(built) == _every_cell(xi_a2)

    dprime = dict(e1.dprime)
    dprime[(above[0], n)] = RationalMatrix.zeros(*dprime[(above[0], n)].shape)
    bad = e1.copy_with(e1.dims, dprime, e1.dsecond)
    assert {order for order, _m, _n in check_mbs(bad).witnesses["MBS1"]} == {"prime"}
    built.clear()
    assert coperversity_check(bad).ok
    assert sorted(built) == _every_cell(xi_a2)[len(xi_a2.elements):]
    with pytest.raises(SignConventionError):
        support_check(bad)


def test_maps_are_read_only_so_verdicts_stay_current(xi_a2):
    """check_mbs's report, the stalks and the composites are cached on the
    sheaf, so its maps cannot be edited in place: zeroing the six anodyne
    dprime maps into 01:0|:0 of a sheaf that passed raises TypeError and
    leaves its verdicts standing, and a copy_with of the same maps fails
    both the axioms and the support condition."""
    e1 = build_e1(xi_a2)
    assert check_mbs(e1).ok and support_check(e1).ok
    n = next(m for m in range(len(xi_a2.elements)) if xi_id(xi_a2, m) == "01:0|:0")
    zeroed = {(m, n): RationalMatrix.zeros(*e1.dprime[(m, n)].shape)
              for m in xi_a2.up_covers[PRIME][n]}
    assert len(zeroed) == 6
    for key, mat in zeroed.items():
        with pytest.raises(TypeError):
            e1.dprime[key] = mat
    with pytest.raises(TypeError):
        del e1.dsecond[next(iter(e1.dsecond))]
    assert all(e1.dprime[key] != mat for key, mat in zeroed.items())
    assert check_mbs(e1).ok and support_check(e1).ok
    bad = e1.copy_with(e1.dims, {**e1.dprime, **zeroed}, e1.dsecond)
    assert not check_mbs(bad).ok
    assert not support_check(bad).ok
