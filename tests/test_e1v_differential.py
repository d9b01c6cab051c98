"""E_1^V from the base point against the averaging-projector oracle.

``build_e1v`` builds each basis from the columns of the base point and
solves the maps with a factored basis; ``e1v_reference`` sums |W|
Kronecker products per cell and solves each map by an augmented rref.
Bases, dimensions and every covering matrix must agree exactly.
"""

import random

import pytest

from e1v_reference import build_e1v_projector
from mbsheaf.coxeter import build_coxeter
from mbsheaf.f1 import WRepresentation, build_e1v, catalog_names, rep_catalog
from mbsheaf.linalg import RationalMatrix
from mbsheaf.xi import enumerate_xi

DATA = [("A", 1), ("A", 2), ("B", 2), ("G", 2)]


def assert_same(got, want):
    assert got.dims == want.dims
    assert got.bases == want.bases
    assert got.dprime == want.dprime
    assert got.dsecond == want.dsecond


@pytest.mark.parametrize("label,rank", DATA)
def test_catalog_matches_projector(label, rank):
    poset = enumerate_xi(build_coxeter(label, rank))
    for name in catalog_names(poset.datum):
        rep = rep_catalog(poset.datum, name)
        assert_same(build_e1v(poset, rep), build_e1v_projector(poset, rep))


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
    assert_same(build_e1v(poset, rep), build_e1v_projector(poset, rep))

