"""One object per distinct covering map, held to the per-covering constructions.

The model sheaves repeat their maps: E_1(A3) has 1,110 covering maps and
224 distinct matrices.  build_e1, build_eq and subsheaf (so b_invariant_sub
and generated_sub) build each distinct map once and hand every covering
with an equal map the one object.  These tests compare them
entry for entry with constructions that build every covering anew
(``e1v_reference._orbit_functions`` and
``dense_reference.per_covering_subsheaf``); E_1(A4) is compared inside
acceptance criterion 3, which builds it anyway.

build_e1 keys each map by (side, coset table of m, coset table of n, g),
g.x0 the image of m's base point in n: on A3, 279 keys for 1,110 coverings
and 34 tables for 281 cells, with no ``pi_map`` call.  The file carries the
sharing on: ``mbs_to_json`` formats each map object once, and
``mbs_from_json`` interns equal matrices.
"""

from collections import Counter
from functools import lru_cache

import pytest

from dense_reference import per_covering_subsheaf
from e1v_reference import _orbit_functions
from mbsheaf.coxeter import SUPPORTED, build_coxeter
from mbsheaf.f1 import build_e1
from mbsheaf import io
from mbsheaf.fq import b_invariant_sub, build_eq
from mbsheaf.linalg import RationalMatrix
from mbsheaf.sheaf import check_mbs, generated_sub, subsheaf
from mbsheaf.xi import XiPoset, arrow, enumerate_xi


@lru_cache(maxsize=None)
def poset_for(label, rank):
    return enumerate_xi(build_coxeter(label, rank))


@lru_cache(maxsize=None)
def eq_for(n, q):
    return build_eq(n, q)


def count_calls(monkeypatch, owner, *names):
    """Wrap each named function or classmethod of owner to count its calls."""
    calls = Counter()
    for name in names:
        fn = getattr(owner, name)

        def wrapped(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)
        is_classmethod = isinstance(vars(owner).get(name), classmethod)
        monkeypatch.setattr(owner, name, staticmethod(wrapped) if is_classmethod else wrapped)
    return calls


def counted_build_e1(monkeypatch, poset):
    """build_e1(poset) and its count of built matrices and of pi_map calls."""
    with monkeypatch.context() as patch:
        built = count_calls(patch, RationalMatrix, "pushforward", "pullback")
        pis = count_calls(patch, XiPoset, "pi_map")
        E = build_e1(poset)
    return E, built.total(), pis.total()


def covering_maps(E):
    return [E.maps(side)[(m, n)] for side, m, n in E.poset.coverings()]


def counts(E):
    """(coverings, distinct map objects, distinct map values)."""
    mats = covering_maps(E)
    return len(mats), len({id(mat) for mat in mats}), len(set(mats))


@pytest.mark.parametrize("label,rank", [t for t in SUPPORTED if t != ("A", 4)],
                         ids=[f"{t}{r}" for t, r in SUPPORTED if (t, r) != ("A", 4)])
def test_build_e1_matches_the_per_covering_construction(label, rank):
    poset = poset_for(label, rank)
    E = build_e1(poset)
    dims, *maps = _orbit_functions(poset, 1)
    assert list(E.dims) == dims
    for side in (0, 1):
        assert dict(E.maps(side)) == maps[side], (label, rank, side)


def test_build_e1_builds_one_matrix_per_key(monkeypatch):
    poset = poset_for("A", 3)
    assert (len(poset.elements), len(poset.coset_tables)) == (281, 34)
    assert len({e.table for e in poset.elements}) == 34
    E, built, pis = counted_build_e1(monkeypatch, poset)
    assert (built, pis) == (279, 0)
    assert counts(E) == (1110, 224, 224)


def test_the_file_keeps_one_object_per_distinct_map(monkeypatch):
    """E_1(B3): 371 matrix_to_json calls for its 2,082 coverings, and the
    parsed sheaf holds 371 objects, the same matrices: each of the 2,082
    entries is parsed to a new object, then interned (the document's rows
    are parsed as they are, without the 67 MB of text between)."""
    E = build_e1(poset_for("B", 3))
    calls = count_calls(monkeypatch, io, "matrix_to_json", "matrix_from_json")
    doc = io.mbs_to_json(E)
    assert calls["matrix_to_json"] == 371
    parsed = io.mbs_from_json(doc)
    assert calls["matrix_from_json"] == 2082
    assert counts(parsed) == (2082, 371, 371)
    assert all(dict(parsed.maps(side)) == dict(E.maps(side)) for side in (0, 1))


SHARING = [
    ("E_1(A3)", lambda: build_e1(poset_for("A", 3)), 1110, 224),
    ("E_1(B3)", lambda: build_e1(poset_for("B", 3)), 2082, 371),
    ("E_1(G2)", lambda: build_e1(poset_for("G", 2)), 156, 25),
    ("E_q(3,2)", lambda: eq_for(3, 2), 84, 16),
    ("E_q(3,3)", lambda: eq_for(3, 3), 84, 16),
    ("E_q^B(3,2)", lambda: b_invariant_sub(eq_for(3, 2)), 84, 15),
    ("E_q^B(3,3)", lambda: b_invariant_sub(eq_for(3, 3)), 84, 15),
]


@pytest.mark.parametrize("name,build,coverings,distinct", SHARING, ids=[c[0] for c in SHARING])
def test_one_object_per_distinct_map(name, build, coverings, distinct):
    E = build()
    assert counts(E) == (coverings, distinct, distinct), name
    assert check_mbs(E).ok, name


def assert_matches_oracle(sub, E, bases):
    oracle = per_covering_subsheaf(E, bases)
    for side in (0, 1):
        got = {key: mat.rows for key, mat in sub.maps(side).items()}
        assert got == oracle[side], side


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_b_invariant_sub_matches_the_per_covering_oracle(n, q):
    E = eq_for(n, q)
    sub = b_invariant_sub(E)
    assert_matches_oracle(sub, E, sub.bases)
    _n, objects, values = counts(sub)
    assert objects == values


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_generated_sub_matches_the_per_covering_oracle(label, rank):
    E = build_e1(poset_for(label, rank))
    for m, d in enumerate(E.dims):
        if d == max(E.dims) or m % 5 == 0:     # the regular orbits and a spread of others
            sub = generated_sub(E, {m: [tuple(int(i == 0) for i in range(d))]})
            assert_matches_oracle(sub, E, sub.bases)
            _n, objects, values = counts(sub)
            assert objects == values


def test_subsheaf_solves_each_triple_of_objects_on_its_own():
    """Cells share basis objects (one identity per dimension) or hold their
    own (scaled identities), so one map meets several source and target
    bases: each (map, source basis, target basis) is solved on its own."""
    E = build_e1(poset_for("A", 2))
    ident = {d: RationalMatrix.identity(d) for d in set(E.dims)}
    bases = [ident[d] if m % 3 else ident[d].scale(1 + m % 2) for m, d in enumerate(E.dims)]
    sub = subsheaf(E, bases)
    assert_matches_oracle(sub, E, bases)
    assert sub.bases == bases and check_mbs(sub).ok


def test_a_basis_that_a_shared_map_breaks_still_raises():
    """A map object held by several coverings, each with the shared identity
    bases, preserves all of them but one: that covering's target holds a
    proper subspace, and the solve for it raises ValueError although the
    same map was solved, with the same source basis, on earlier coverings."""
    E = build_e1(poset_for("A", 2))
    seen = {}
    for side, m, n in E.poset.coverings():
        mat = E.maps(side)[(m, n)]
        src, dst = arrow(side, m, n)
        if id(mat) in seen and E.dims[dst] > 1 and mat.is_invertible():
            break
        seen[id(mat)] = side, m, n
    else:
        pytest.fail("no shared invertible map on E_1(A2)")
    ident = {d: RationalMatrix.identity(d) for d in set(E.dims)}
    bases = [ident[d] for d in E.dims]
    assert subsheaf(E, bases).dims == E.dims
    # the first column of the identity: the image of the whole source is not in it
    bases[dst] = RationalMatrix.from_columns([ident[E.dims[dst]].column(0)], E.dims[dst])
    with pytest.raises(ValueError):
        subsheaf(E, bases)
    with pytest.raises(ValueError):
        per_covering_subsheaf(E, bases)
