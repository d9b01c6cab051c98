"""First-step composites against full chain enumeration.

``sheaf._compose`` checks an interval of k added generators with the k
products C(phi_s m, n) o d(m -> phi_s m); the definition compares the
products of all k! maximal covering chains, which ``_all_chain_products``
still lists.  On every built-in sheaf each composite must equal every chain
product, and on perturbed sheaves ``check_mbs`` must name the same MBS1
witnesses as a check that enumerates every chain, including when a 2-step
sub-interval of a 3-step interval is path-dependent.
"""

import random

import pytest

from mbsheaf.coxeter import build_coxeter
from mbsheaf.f1 import build_e1, build_e1v, rep_catalog
from mbsheaf.faces import subsets_sorted
from mbsheaf.fq import b_invariant_sub, build_eq
from mbsheaf.sheaf import (
    PathDependenceError, _all_chain_products, _compose, check_mbs, dual,
)
from mbsheaf.xi import PRIME, SECOND, SIDE_NAMES, enumerate_xi

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


@pytest.mark.parametrize("side", [PRIME, SECOND])
def test_path_dependent_sub_interval_falls_back(side):
    bad, m, t, n = sub_interval_break(e1("A", 3), side)
    with pytest.raises(PathDependenceError):
        _compose(bad, side, t, n)
    fresh = bad.copy_with(bad.dims, bad.dprime, bad.dsecond)
    with pytest.raises(PathDependenceError) as exc:
        _compose(fresh, side, m, n)
    assert exc.value.args[0] == (SIDE_NAMES[side], m, n)
    witnesses = check_mbs(bad).witnesses["MBS1"]
    assert (SIDE_NAMES[side], t, n) in witnesses
    assert (SIDE_NAMES[side], m, n) in witnesses
    assert witnesses == chain_mbs1(bad)


@pytest.mark.parametrize("side", [PRIME, SECOND])
def test_fallback_keeps_an_interval_its_chains_agree_on(side):
    """With every covering out of m zeroed, all chains of [m, n] give zero
    although [t, n] is path-dependent: the fallback caches zero, no witness."""
    bad, m, t, n = sub_interval_break(e1("A", 3), side)
    bad = scaled(bad, side, [(m, x) for _s, x in bad.poset.cov[side][m]], 0)
    assert _compose(bad, side, m, n).is_zero()
    witnesses = check_mbs(bad).witnesses["MBS1"]
    assert (SIDE_NAMES[side], t, n) in witnesses
    assert (SIDE_NAMES[side], m, n) not in witnesses
    assert witnesses == chain_mbs1(bad)


def perturbed(E, seed, count=6):
    """Seeded copies of E, each with one covering map scaled by 2, 0 or -1."""
    rng = random.Random(seed)
    keys = [(side, k) for side in (PRIME, SECOND) for k in sorted(E.maps(side))]
    for side, k in rng.sample(keys, count):
        yield scaled(E, side, [k], rng.choice((2, 0, -1)))


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_mbs1_witnesses_match_chain_enumeration(label, rank):
    E = e1(label, rank)
    for bad in perturbed(E, seed=rank * 100 + ord(label)):
        assert check_mbs(bad).witnesses["MBS1"] == chain_mbs1(bad)
