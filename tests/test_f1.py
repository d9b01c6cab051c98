"""Representation catalog and multiplicity sheaves, with a Burnside oracle."""

from fractions import Fraction

import pytest

from mbsheaf.coxeter import UnsupportedTypeError, build_coxeter
from mbsheaf.f1 import (
    build_e1v, catalog_names, invariant_dim, pair_stabilizer, rep_catalog,
)
from mbsheaf.sheaf import check_mbs
from mbsheaf.xi import enumerate_xi


def burnside_dims(poset, rep):
    """dim (Fun(m) tensor V)^W by the character inner product, per cell."""
    order = poset.datum.order
    act = poset.complex.action
    out = []
    for e in poset.elements:
        total = Fraction(0)
        for w in range(order):
            fixed = sum(1 for (c, d) in e.points
                        if act[w][c] == c and act[w][d] == d)
            if fixed:
                total += fixed * rep.trace(w)
        assert total % order == 0 or (total / order).denominator == 1
        out.append(int(total / order))
    return out


def test_sign_and_trivial():
    datum = build_coxeter("B", 2)
    sign = rep_catalog(datum, "sign")
    triv = rep_catalog(datum, "trivial")
    for s in range(datum.rank):
        assert sign.gen_mats[s].rows == ((-1,),)
        assert triv.gen_mats[s].rows == ((1,),)
    w0 = max(range(datum.order), key=lambda i: datum.elements[i].length)
    assert sign.trace(w0) == (-1) ** datum.elements[w0].length


def test_reflection_character_a2():
    datum = build_coxeter("A", 2)
    refl = rep_catalog(datum, "reflection")
    assert refl.dim == 2
    char = refl.character()
    values = sorted(char.values())
    assert values == [-1, 0, 2]


def test_unknown_name():
    datum = build_coxeter("A", 2)
    with pytest.raises(UnsupportedTypeError):
        rep_catalog(datum, "nonsense")


def test_specht_modules_a3():
    datum = build_coxeter("A", 3)
    dims = {}
    for shape, expected in [((4,), 1), ((3, 1), 3), ((2, 2), 2),
                            ((2, 1, 1), 3), ((1, 1, 1, 1), 1)]:
        rep = rep_catalog(datum, "specht:" + ",".join(map(str, shape)))
        dims[shape] = rep.dim
        assert rep.dim == expected
    assert sum(d * d for d in dims.values()) == 24


def test_specht_identifications():
    datum = build_coxeter("A", 2)
    triv = rep_catalog(datum, "specht:3")
    assert all(m.rows == ((1,),) for m in triv.gen_mats)
    sgn = rep_catalog(datum, "specht:1,1,1")
    assert all(m.rows == ((-1,),) for m in sgn.gen_mats)
    std = rep_catalog(datum, "specht:2,1")
    refl = rep_catalog(datum, "reflection")
    assert std.character() == refl.character()


@pytest.mark.parametrize("label,rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2)])
def test_e1v_dims_three_ways(label, rank):
    datum = build_coxeter(label, rank)
    poset = enumerate_xi(datum)
    for name in ["trivial", "sign", "reflection"]:
        rep = rep_catalog(datum, name)
        sheaf = build_e1v(poset, rep)
        oracle = burnside_dims(poset, rep)
        stab = [invariant_dim(rep, pair_stabilizer(poset, m))
                for m in range(len(poset.elements))]
        assert list(sheaf.dims) == oracle == stab


def test_e1v_trivial_is_constant_shadow():
    poset = enumerate_xi(build_coxeter("A", 2))
    rep = rep_catalog(poset.datum, "trivial")
    sheaf = build_e1v(poset, rep)
    assert all(d == 1 for d in sheaf.dims)


def test_e1v_sign_a1_dims():
    poset = enumerate_xi(build_coxeter("A", 1))
    rep = rep_catalog(poset.datum, "sign")
    sheaf = build_e1v(poset, rep)
    m0 = next(m for m, e in enumerate(poset.elements) if e.orbit_size == 1)
    dims = list(sheaf.dims)
    assert dims[m0] == 0
    assert sorted(dims) == [0, 1, 1, 1, 1]


@pytest.mark.parametrize("label,rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2)])
def test_check_mbs_e1v_catalog(label, rank):
    from mbsheaf.sheaf import dual
    datum = build_coxeter(label, rank)
    poset = enumerate_xi(datum)
    for name in ["trivial", "sign", "reflection", "reflection*sign"]:
        rep = rep_catalog(datum, name)
        sheaf = build_e1v(poset, rep)
        report = check_mbs(sheaf)
        assert report.ok, f"{name}: {report.summary()}"
        assert check_mbs(dual(sheaf)).ok


@pytest.mark.parametrize("name", ["reflection", "specht:2,2"])
def test_e1v_a3_dims_and_axioms(name):
    poset = enumerate_xi(build_coxeter("A", 3))
    rep = rep_catalog(poset.datum, name)
    sheaf = build_e1v(poset, rep)
    assert list(sheaf.dims) == burnside_dims(poset, rep)
    report = check_mbs(sheaf)
    assert report.ok, f"{name}: {report.summary()}"


@pytest.mark.parametrize("label,rank", [("A", 1), ("A", 2), ("B", 2)])
def test_catalog_multiplicity_identity(label, rank):
    """Sum over distinct catalog irreps of dim(V) * mult(V in Fun(m)).

    Equality with the orbit size holds exactly when the distinct catalog
    entries exhaust the irreducible characters (A1, A2); otherwise the sum
    is a lower bound (B2 has two linear characters outside the catalog).
    """
    datum = build_coxeter(label, rank)
    poset = enumerate_xi(datum)
    reps = {}
    for name in catalog_names(datum):
        rep = rep_catalog(datum, name)
        key = tuple(sorted(rep.character().items()))
        reps.setdefault(key, rep)
    distinct = list(reps.values())
    spans_all = sum(r.dim * r.dim for r in distinct) == datum.order
    assert spans_all == (label == "A")
    for m, e in enumerate(poset.elements):
        total = 0
        for rep in distinct:
            mult = burnside_dims(poset, rep)[m]
            total += rep.dim * mult
        if spans_all:
            assert total == e.orbit_size
        else:
            assert total <= e.orbit_size
