"""Memoised composites and check_mbs's covering witnesses against full loops.

``sheaf._compose`` multiplies out one chain per interval, recursing on the
first step and memoised per interval; the definition multiplies out all k!
chains, which ``_all_chain_products`` below lists.  On every built-in sheaf
each composite must equal every chain product.  On perturbed sheaves
``_compose`` must give the one chain product of [m, n] exactly when no
interval [x, n], m >= x > n, has two, and otherwise raise
PathDependenceError naming such an interval, even when every chain of
[m, n] itself gives the same product.

``check_mbs`` reports MBS1 on the squares that do not commute and MBS2 on
the covering configurations (m' covers n' in >=' and n covers n' in >='')
whose supremum sum fails, reading the maps and suprema off the covering
tables, so no sheaf, passing or failing, costs a composite, up-set or
supremum; each supremum sum starts at its first term.  The oracles check
the definitions: ``chain_mbs1`` every interval by all its chains, and
``full_mbs2`` every configuration, every sum seeded with a zero matrix,
suprema by the definition.  check_mbs's witnesses must be the oracles'
lists filtered to squares and covering configurations, in the same order,
and must be empty exactly when the oracles' are: on perturbed sheaves,
including where a 2-step sub-interval of a 3-step interval is
path-dependent, on the built-in sheaves, on one-sided gauge perturbations
of them, which break MBS2 and nothing else, on the constant sheaf, which
fails MBS2 wherever a supremum has more than one cell, covering or not,
and where a supremum is made empty.  Twisted duality is an involution on
the built-in and gauged sheaves.

``check_mbs`` interns the covering maps by value and memoises products,
sums and MBS3 verdicts by the identity of interned operands; its report
must be that of the unmemoised walk (``mbs_reference``), witness for
witness, whether every map is its own object, equal maps share one, or one
object sits on every covering.  On E_1(A3) the counted products, sums and
rank checks are one per distinct operand per stage.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbs_reference import unmemoised_check_mbs
from mbsheaf import sheaf
from mbsheaf.coxeter import build_coxeter
from mbsheaf.f1 import build_e1, build_e1v, rep_catalog
from mbsheaf.faces import subsets_sorted
from mbsheaf.fq import b_invariant_sub, build_eq
from mbsheaf.linalg import RationalMatrix
from mbsheaf.sheaf import (
    MixedBruhatSheaf, PathDependenceError, _compose, check_mbs, compose_prime,
    compose_second, dual,
)
from mbsheaf.xi import PRIME, SECOND, SIDE_NAMES, arrow, enumerate_xi

_POSETS = {}


def poset_for(label, rank):
    if (label, rank) not in _POSETS:
        _POSETS[(label, rank)] = enumerate_xi(build_coxeter(label, rank))
    return _POSETS[(label, rank)]


def e1(label, rank):
    return build_e1(poset_for(label, rank))


def e1v(label, rank, name):
    xi = poset_for(label, rank)
    return build_e1v(xi, rep_catalog(xi.datum, name))


def eq(n, q):
    return build_eq(n, q, poset=poset_for("A", n - 1))


BUILT_IN = {
    "E_1(A2)": lambda: e1("A", 2),
    "E_1(B2)": lambda: e1("B", 2),
    "E_1(G2)": lambda: e1("G", 2),
    "E_1(A3)": lambda: e1("A", 3),
    "dual E_1(B2)": lambda: dual(e1("B", 2)),
    "E_1^reflection(B2)": lambda: e1v("B", 2, "reflection"),
    "E_1^specht:2,1(A2)": lambda: e1v("A", 2, "specht:2,1"),
    "E_q(3,2)": lambda: eq(3, 2),
    "E_q(3,2)^B": lambda: b_invariant_sub(eq(3, 2)),
}


def _all_chain_products(E, side, m, n):
    """Products over every maximal covering chain from m down to n on `side`.

    The chains are the permutations of the added generators.  A dprime map
    runs down the chain, so its product takes the steps in chain order; a
    dsecond map runs up it, so its product takes them in reverse.
    """
    poset, maps = E.poset, E.maps(side)
    added = tuple(sorted(set(poset.elements[n].typeIJ[side])
                         - set(poset.elements[m].typeIJ[side])))
    out = []
    for perm in itertools.permutations(added):
        steps = []
        cur = m
        for s in perm:
            nxt = dict(poset.cov[side][cur])[s]
            steps.append(maps[(cur, nxt)])
            cur = nxt
        if side == SECOND:
            steps.reverse()
        mat = RationalMatrix.identity(E.dims[arrow(side, m, n)[0]])
        for step in steps:
            mat = step @ mat
        out.append(mat)
    return out


def intervals(E):
    """Every (side, m, n) with m > n on that side."""
    poset = E.poset
    for side in (PRIME, SECOND):
        for n, above in enumerate(poset.ups(side)):
            for m in above:
                if m != n:
                    yield side, m, n


@pytest.mark.parametrize("name", sorted(BUILT_IN))
def test_composite_equals_every_chain_product(name):
    E = BUILT_IN[name]()
    longest = 0
    for side, m, n in intervals(E):
        got = _compose(E, side, m, n)
        chains = _all_chain_products(E, side, m, n)
        assert all(p == got for p in chains), (name, SIDE_NAMES[side], m, n)
        longest = max(longest, len(chains))
    assert longest >= 2


def chain_mbs1(E):
    """MBS1 witnesses of check_mbs, each interval checked by all its chains."""
    poset = E.poset
    out = []
    for m, e in enumerate(poset.elements):
        for side in (PRIME, SECOND):
            K = e.typeIJ[side]
            for K2 in subsets_sorted(poset.datum.rank):
                if not set(K) < set(K2) or len(K2) - len(K) < 2:
                    continue
                n = poset.phi(m, side, K2)
                prods = _all_chain_products(E, side, m, n)
                if any(p != prods[0] for p in prods[1:]):
                    out.append((SIDE_NAMES[side], m, n))
    return out


def scaled(E, side, keys, factor):
    """A copy of E with the covering maps at keys on `side` scaled by factor."""
    maps = [dict(E.dprime), dict(E.dsecond)]
    for k in keys:
        maps[side][k] = maps[side][k].scale(factor)
    return E.copy_with(E.dims, *maps)


def sub_interval_break(E, side):
    """E with the 2-step interval [t, n] of a 3-step [m, n] made path-dependent.

    m has empty type on `side`, t = phi_0 m and n = phi_{0,1,2} m; scaling
    the covering t -> phi_1 t doubles one of the two chains of [t, n].
    """
    poset = E.poset
    m = next(m for m, e in enumerate(poset.elements) if e.typeIJ[side] == ())
    t = dict(poset.cov[side][m])[0]
    u = dict(poset.cov[side][t])[1]
    n = poset.phi(m, side, (0, 1, 2))
    return scaled(E, side, [(t, u)], 2), m, t, n


def squares(poset, witnesses):
    """The MBS1 witnesses (order, m, n) with n two generators below m."""
    return [w for w in witnesses if length(poset, *w) == 2]


@pytest.mark.parametrize("side", [PRIME, SECOND])
def test_path_dependent_sub_interval_is_a_square_witness(side):
    """[t, n] is a path-dependent square inside the 3-step interval [m, n]:
    _compose of either raises naming [t, n], and check_mbs names the square,
    not the path-dependent [m, n] that chain enumeration also lists."""
    bad, m, t, n = sub_interval_break(e1("A", 3), side)
    for top in (t, m):
        fresh = bad.copy_with(bad.dims, bad.dprime, bad.dsecond)
        with pytest.raises(PathDependenceError) as exc:
            _compose(fresh, side, top, n)
        assert exc.value.args[0] == (SIDE_NAMES[side], t, n)
    witnesses = check_mbs(bad).witnesses["MBS1"]
    full = chain_mbs1(bad)
    assert (SIDE_NAMES[side], t, n) in witnesses
    assert (SIDE_NAMES[side], m, n) in full
    assert witnesses == squares(bad.poset, full)


@pytest.mark.parametrize("side", [PRIME, SECOND])
def test_compose_names_a_path_dependent_sub_interval(side):
    """With every covering out of m zeroed, all chains of [m, n] give zero,
    but [t, n] is path-dependent: _compose of [m, n] raises naming [t, n],
    which check_mbs and chain enumeration name too, and neither names [m, n]."""
    bad, m, t, n = sub_interval_break(e1("A", 3), side)
    bad = scaled(bad, side, [(m, x) for _s, x in bad.poset.cov[side][m]], 0)
    assert all(p.is_zero() for p in _all_chain_products(bad, side, m, n))
    with pytest.raises(PathDependenceError) as exc:
        _compose(bad, side, m, n)
    assert exc.value.args[0] == (SIDE_NAMES[side], t, n)
    witnesses = check_mbs(bad).witnesses["MBS1"]
    full = chain_mbs1(bad)
    assert (SIDE_NAMES[side], t, n) in witnesses
    assert (SIDE_NAMES[side], m, n) not in full
    assert witnesses == squares(bad.poset, full)


def perturbed(E, seed, count=6):
    """Seeded copies of E, each with one covering map scaled by 2, 0 or -1."""
    rng = random.Random(seed)
    keys = [(side, k) for side in (PRIME, SECOND) for k in sorted(E.maps(side))]
    for side, k in rng.sample(keys, count):
        yield scaled(E, side, [k], rng.choice((2, 0, -1)))


def distinct(prods):
    out = []
    for p in prods:
        if p not in out:
            out.append(p)
    return out


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_chain_products_match_chain_enumeration(label, rank):
    """On every interval [m, n] of every perturbed sheaf, both sides, _compose
    gives the one chain product when no [x, n], m >= x > n, has two
    distinct chain products, and otherwise raises naming such an [x, n]."""
    E = e1(label, rank)
    failing = 0
    for bad in perturbed(E, seed=rank * 100 + ord(label)):
        poset, dependent = bad.poset, {}
        for side, m, n in intervals(bad):
            prods = _all_chain_products(bad, side, m, n)
            dependent[(side, m, n)] = len(distinct(prods)) > 1
        for side, m, n in intervals(bad):
            below = [(SIDE_NAMES[side], x, n) for x in poset.downs(side)[m]
                     if x != n and poset.leq_side(side, n, x) and dependent[(side, x, n)]]
            if below:
                with pytest.raises(PathDependenceError) as exc:
                    _compose(bad, side, m, n)
                assert exc.value.args[0] in below, (label, rank, SIDE_NAMES[side], m, n)
                failing += 1
            else:
                got = _compose(bad, side, m, n)
                assert all(p == got for p in _all_chain_products(bad, side, m, n)), \
                    (label, rank, SIDE_NAMES[side], m, n)
    assert failing


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3)])
def test_mbs1_witnesses_match_chain_enumeration(label, rank):
    """check_mbs names the failing squares: chain enumeration's witnesses,
    which at rank 3 include 3-step intervals, filtered to squares, in the
    same order, and none exactly when chain enumeration finds none."""
    E = e1(label, rank)
    lengths = set()
    for bad in perturbed(E, seed=rank * 100 + ord(label)):
        witnesses = check_mbs(bad).witnesses["MBS1"]
        full = chain_mbs1(bad)
        assert witnesses == squares(bad.poset, full)
        assert bool(witnesses) == bool(full)
        lengths.update(length(bad.poset, *w) for w in full)
    assert lengths >= ({2, 3} if rank == 3 else {2})


def length(poset, side, m, n):
    """The number of generators added from m down to n on the named side."""
    side = SIDE_NAMES.index(side)
    return len(poset.elements[n].typeIJ[side]) - len(poset.elements[m].typeIJ[side])


def full_mbs2(E):
    """MBS2 witnesses over every configuration m' >=' n' <='' n, with
    zero-seeded supremum sums and sup(m', n) = ups''(m') & ups'(n)."""
    poset = E.poset
    pups, sups = poset.ups(PRIME), poset.ups(SECOND)
    out = []
    for np_ in range(len(poset.elements)):
        for mp in pups[np_]:
            d_prime = compose_prime(E, mp, np_)
            for n in sups[np_]:
                lhs = compose_second(E, n, np_) @ d_prime
                rhs = RationalMatrix.zeros(E.dims[n], E.dims[mp])
                for m in sorted(set(sups[mp]) & set(pups[n])):
                    rhs = rhs + (compose_prime(E, m, n) @ compose_second(E, m, mp))
                if lhs != rhs:
                    out.append((mp, np_, n))
    return out


@pytest.mark.parametrize("name", sorted(BUILT_IN))
def test_mbs2_witnesses_match_full_loop_on_built_ins(name):
    E = BUILT_IN[name]()
    assert check_mbs(E).witnesses["MBS2"] == full_mbs2(E) == []


def forbid_composites(monkeypatch, poset):
    """Make _compose and the poset's downs, ups and sup raise AssertionError."""
    def unused(*args):
        raise AssertionError(args)

    monkeypatch.setattr(sheaf, "_compose", unused)
    for attr in ("downs", "ups", "sup"):
        monkeypatch.setattr(poset, attr, unused)


@pytest.mark.parametrize("name", sorted(BUILT_IN))
def test_a_passing_sheaf_is_read_off_its_coverings(name, monkeypatch):
    """On a passing sheaf check_mbs multiplies out no chain and builds no
    up-set, down-set or supremum: it reads cov, up_covers and the maps."""
    E = BUILT_IN[name]()
    forbid_composites(monkeypatch, E.poset)
    assert check_mbs(E).ok


def gauged(E, cell):
    """E with the dprime maps out of cell scaled by 2 and those into it by 1/2.

    Every dprime composite through the cell is unchanged, so MBS1 and MBS3
    still hold; the dsecond maps are left alone, so MBS2 fails near it.
    """
    def factor(m, n):
        return 2 if m == cell else Fraction(1, 2) if n == cell else 1
    dprime = {k: mat.scale(factor(*k)) for k, mat in E.dprime.items()}
    return E.copy_with(E.dims, dprime, E.dsecond)


def is_covering(poset, mp, np_, n):
    """Whether m' covers n' in >=' and n covers n' in >=''."""
    return (np_ in dict(poset.cov[PRIME][mp]).values()
            and np_ in dict(poset.cov[SECOND][n]).values())


def at_coverings(poset, witnesses):
    """The MBS2 witnesses (m', n', n) that are covering configurations."""
    return [w for w in witnesses if is_covering(poset, *w)]


def gauge_samples(E, seed):
    """Four gauged copies of E, at seeded cells of nonzero stalk."""
    cells = [m for m, d in enumerate(E.dims) if d]
    return [(cell, gauged(E, cell)) for cell in random.Random(seed).sample(cells, 4)]


@pytest.mark.parametrize("name", ["E_1(A2)", "E_1(B2)", "E_1(G2)", "E_1(A3)",
                                  "E_1^reflection(B2)", "E_q(3,2)"])
def test_mbs2_witnesses_match_full_loop_on_gauge_perturbations(name):
    """Gauged sheaves fail MBS2 alone, at the covering configurations that
    the full loop finds, in its order."""
    E = BUILT_IN[name]()
    for cell, bad in gauge_samples(E, name):
        rep = check_mbs(bad)
        assert rep.witnesses["MBS1"] == rep.witnesses["MBS3"] == [], (name, cell)
        full = full_mbs2(bad)
        assert rep.witnesses["MBS2"] == at_coverings(E.poset, full), (name, cell)
        assert rep.witnesses["MBS2"], (name, cell)
        assert full, (name, cell)


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_a_failing_sheaf_is_read_off_its_coverings(label, rank, monkeypatch):
    """Failing MBS1 or MBS2 costs check_mbs no composite, up-set, down-set
    or supremum either: its witnesses come off the same tables."""
    E = e1(label, rank)
    bad = list(perturbed(E, seed=rank * 100 + ord(label)))
    bad += [g for _cell, g in gauge_samples(E, f"{label}{rank}")]
    forbid_composites(monkeypatch, E.poset)
    reports = [check_mbs(b) for b in bad]
    assert any(rep.witnesses["MBS1"] for rep in reports)
    assert any(rep.witnesses["MBS2"] for rep in reports)


def constant_sheaf(xi, dim=1):
    """Q^dim on every cell and the identity on every covering (dim 0: the zero sheaf)."""
    one = RationalMatrix.identity(dim)
    maps = ({}, {})
    for side, m, n in xi.coverings():
        maps[side][(m, n)] = one
    return MixedBruhatSheaf(xi, [dim] * len(xi.elements), *maps)


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_mbs2_witnesses_match_full_loop_on_constant_sheaves(label, rank):
    """Q on every cell and 1 on every covering: MBS1 and MBS3 hold, and MBS2
    fails exactly where the supremum has more than one cell, at covering
    configurations and beyond them; check_mbs names the covering ones."""
    xi = poset_for(label, rank)
    E = constant_sheaf(xi)
    pups, sups = xi.ups(PRIME), xi.ups(SECOND)
    many = [(mp, np_, n) for np_ in range(len(xi.elements)) for mp in pups[np_]
            for n in sups[np_] if len(xi.sup(mp, n)) > 1]
    assert any(is_covering(xi, *w) for w in many)
    assert not all(is_covering(xi, *w) for w in many)
    assert full_mbs2(E) == many
    assert check_mbs(E).witnesses["MBS2"] == at_coverings(xi, many)


def test_empty_supremum_asks_for_a_zero_lhs(monkeypatch):
    """With sup(m', n) made empty at one covering configuration, where
    check_mbs reads it off the covering tables, E_1(A2) fails MBS2 there and
    only there, and the zero sheaf still passes."""
    E = e1("A", 2)
    xi = E.poset
    mp, np_, n = next((mp, np_, n) for np_ in range(len(xi.elements))
                       for mp in xi.ups(PRIME)[np_] for n in xi.ups(SECOND)[np_]
                       if is_covering(xi, mp, np_, n))
    assert not (compose_second(E, n, np_) @ compose_prime(E, mp, np_)).is_zero()
    configs = sheaf._covering_configurations
    monkeypatch.setattr(sheaf, "_covering_configurations", lambda poset: (
        (a, b, c, [] if (a, c) == (mp, n) else s) for a, b, c, s in configs(poset)))
    assert check_mbs(E).witnesses["MBS2"] == [(mp, np_, n)]
    assert check_mbs(constant_sheaf(xi, 0)).ok


DUALIZED = ["E_1(A2)", "E_1(B2)", "E_1(G2)", "E_1^reflection(B2)", "E_q(3,2)"]
_SHEAVES = {}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(DUALIZED), gauge=st.one_of(st.none(), st.integers(0, 10**6)))
def test_dual_is_an_involution(name, gauge):
    """dual(dual(E)) == E on the built-in sheaves and on gauged copies."""
    if name not in _SHEAVES:
        _SHEAVES[name] = BUILT_IN[name]()
    E = _SHEAVES[name]
    if gauge is not None:
        E = gauged(E, gauge % len(E.dims))
    back = dual(dual(E))
    assert back.dims == E.dims
    assert back.dprime == E.dprime
    assert back.dsecond == E.dsecond


def distinct_copies(E):
    """E with every covering map replaced by an equal copy of its own."""
    maps = [{k: RationalMatrix.from_sparse(mat.sparse_rows, mat.ncols)
             for k, mat in E.maps(side).items()} for side in (PRIME, SECOND)]
    return E.copy_with(E.dims, *maps)


def shared_maps(E):
    """E with equal covering maps, on either side, one object."""
    canon = {}
    maps = [{k: canon.setdefault(mat, mat) for k, mat in E.maps(side).items()}
            for side in (PRIME, SECOND)]
    return E.copy_with(E.dims, *maps)


def zero_maps(E):
    """E with every covering map zero: MBS1 and MBS2 hold, and MBS3 fails at
    every anodyne covering of nonzero stalk."""
    maps = [{k: RationalMatrix.zeros(*mat.shape) for k, mat in E.maps(side).items()}
            for side in (PRIME, SECOND)]
    return E.copy_with(E.dims, *maps)


def objects(E):
    """The numbers of matrix objects and of distinct matrices on E's coverings."""
    maps = [E.maps(side)[(m, n)] for side, m, n in E.poset.coverings()]
    return len(set(map(id, maps))), len(set(maps))


def sharing_cases():
    """(name, sheaf, shared) triples: each built-in sheaf with a distinct copy
    of every map and with equal maps shared, perturbed and gauged failing
    copies of E_1 in both forms, and sheaves whose equal maps are one object
    as built: zero maps, and constant sheaves, one object on every covering.
    shared tells whether equal maps are one object."""
    for name in sorted(BUILT_IN):
        E = BUILT_IN[name]()
        yield name, distinct_copies(E), False
        yield name + " shared", shared_maps(E), True
        yield name + " zero maps", zero_maps(E), True
    for label, rank in [("A", 2), ("B", 2), ("G", 2), ("A", 3)]:
        E = e1(label, rank)
        bad = list(perturbed(E, seed=rank * 100 + ord(label)))
        bad += [g for _cell, g in gauge_samples(E, f"{label}{rank}")]
        for k, b in enumerate(bad):
            yield f"E_1({label}{rank}) failing {k}", distinct_copies(b), False
            yield f"E_1({label}{rank}) failing {k} shared", shared_maps(b), True
        for dim in (0, 1, 2):
            yield f"constant Q^{dim} on {label}{rank}", constant_sheaf(E.poset, dim), True


def test_check_mbs_matches_the_unmemoised_walk_whatever_the_sharing():
    """check_mbs interns the covering maps by value and memoises by identity:
    its report equals the unmemoised walk's, witness for witness and in
    order, whether every map is its own object, equal maps share one, or
    one object sits on every covering; the cases fail every stage."""
    failed = set()
    for name, E, shared in sharing_cases():
        ids, values = objects(E)
        assert ids == (values if shared else sum(1 for _ in E.poset.coverings())), name
        want = unmemoised_check_mbs(E).witnesses
        assert check_mbs(E).witnesses == want, name
        failed.update(check for check, ws in want.items() if ws)
    assert failed == {"MBS1", "MBS2", "MBS3"}


def test_check_mbs_computes_each_distinct_product_once(monkeypatch):
    """On E_1(A3), whose 1,110 covering maps hold 224 distinct matrices,
    each map its own object, check_mbs makes one product per distinct pair
    of factors in each stage, one sum per distinct supremum, and one rank
    check per distinct anodyne map, so it merges equal maps by value; the
    unmemoised walk makes one per square, configuration and anodyne
    covering.  build_e1 itself holds one object per distinct matrix."""
    assert objects(e1("A", 3)) == (224, 224)
    E = distinct_copies(e1("A", 3))
    counts = dict.fromkeys(("__matmul__", "__add__", "is_invertible"), 0)
    for name in counts:
        def counting(*args, name=name, original=getattr(RationalMatrix, name)):
            counts[name] += 1
            return original(*args)
        monkeypatch.setattr(RationalMatrix, name, counting)
    assert objects(E) == (1110, 224)
    assert unmemoised_check_mbs(E).ok
    assert counts == {"__matmul__": 3466, "__add__": 208, "is_invertible": 840}
    counts.update(dict.fromkeys(counts, 0))
    assert check_mbs(E).ok
    assert counts == {"__matmul__": 1175, "__add__": 99, "is_invertible": 149}
