"""E_1^V from the base point against two oracles.

``build_e1v`` computes each basis and covering map at the cells' base
points, in V^H.  ``e1v_reference.build_e1v_projector`` sums |W| Kronecker
products per cell, divides by |W| and solves each map by an augmented
rref; ``build_e1v_ambient`` solves each covering map of the ambient sheaf
E_1 tensor V.  Dimensions and every covering matrix must agree exactly,
and each basis of ``build_e1v``, lifted from its base-point block to the
whole orbit, must be exactly |W| times the projector oracle's and equal to
the ambient oracle's.
"""

import random

import pytest

from e1v_reference import build_e1v_ambient, build_e1v_projector, lift_bases
from mbsheaf.coxeter import build_coxeter
from mbsheaf.f1 import WRepresentation, build_e1v, catalog_names, rep_catalog
from mbsheaf.linalg import RationalMatrix
from mbsheaf.xi import enumerate_xi

DATA = [("A", 1), ("A", 2), ("B", 2), ("G", 2)]


def assert_same(got, want, rep, scale):
    assert got.dims == want.dims
    assert lift_bases(got, rep) == [basis.scale(scale) for basis in want.bases]
    assert got.dprime == want.dprime
    assert got.dsecond == want.dsecond


def assert_matches_projector(poset, rep):
    assert_same(build_e1v(poset, rep), build_e1v_projector(poset, rep), rep,
                poset.datum.order)


def assert_matches_ambient(poset, rep):
    assert_same(build_e1v(poset, rep), build_e1v_ambient(poset, rep), rep, 1)


@pytest.mark.parametrize("label,rank", DATA)
def test_catalog_matches_projector(label, rank):
    poset = enumerate_xi(build_coxeter(label, rank))
    for name in catalog_names(poset.datum):
        assert_matches_projector(poset, rep_catalog(poset.datum, name))


def test_a3_specht_22_matches_projector():
    """The first rank-3 case: a 2-dimensional representation of S_4."""
    poset = enumerate_xi(build_coxeter("A", 3))
    assert_matches_projector(poset, rep_catalog(poset.datum, "specht:2,2"))


@pytest.mark.parametrize("label,rank", DATA)
def test_catalog_bases_are_integral(label, rank):
    """With no 1/|W| average, an integral representation gives int bases."""
    poset = enumerate_xi(build_coxeter(label, rank))
    for name in catalog_names(poset.datum):
        sheaf = build_e1v(poset, rep_catalog(poset.datum, name))
        for basis in sheaf.bases:
            assert all(type(x) is int for row in basis.rows for x in row), name


def signed_permutation_conjugate(rep, seed):
    """rep written in the basis of a seeded signed permutation u: u^-1 rho(s) u."""
    rng = random.Random(seed)
    perm = rng.sample(range(rep.dim), rep.dim)
    signs = [rng.choice((-1, 1)) for _ in range(rep.dim)]
    u = RationalMatrix([[signs[i] * (perm[i] == j) for j in range(rep.dim)]
                        for i in range(rep.dim)])
    uinv = u.transpose()
    return WRepresentation(rep.datum, rep.name, [uinv @ g @ u for g in rep.gen_mats])


@pytest.mark.parametrize("seed", [0, 1])
def test_conjugated_g2_reflection_matches_projector(seed):
    poset = enumerate_xi(build_coxeter("G", 2))
    base = rep_catalog(poset.datum, "reflection")
    rep = signed_permutation_conjugate(base, seed)
    assert rep.gen_mats != base.gen_mats
    assert_matches_projector(poset, rep)


@pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3)])
def test_catalog_matches_ambient(label, rank):
    poset = enumerate_xi(build_coxeter(label, rank))
    for name in catalog_names(poset.datum):
        assert_matches_ambient(poset, rep_catalog(poset.datum, name))


@pytest.mark.parametrize("seed", [0, 1])
def test_conjugated_b3_reflection_matches_ambient(seed):
    poset = enumerate_xi(build_coxeter("B", 3))
    base = rep_catalog(poset.datum, "reflection")
    rep = signed_permutation_conjugate(base, seed)
    assert rep.gen_mats != base.gen_mats
    assert_matches_ambient(poset, rep)

