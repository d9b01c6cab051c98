"""Orbit-count polynomials: fibration formula, divisibility laws, brute-force counts."""

import pytest

from mbsheaf.coxeter import SUPPORTED, build_coxeter
from mbsheaf.fq import ResourceError
from mbsheaf.intpoly import IntPolynomial
from mbsheaf.orbitpoly import (
    dim_flag, dim_orbit, is_compact, orbit_poly, property_suite, validate_counts,
)
from mbsheaf.xi import enumerate_xi


@pytest.fixture(scope="module")
def xi_a1():
    return enumerate_xi(build_coxeter("A", 1))


def a1_cells(xi):
    cx = xi.complex
    zero = cx.zero_face()
    plus = cx.face((), 0)
    minus = cx.face((), 1)
    return (xi.xi_orbit(zero, zero).index, xi.xi_orbit(plus, zero).index,
            xi.xi_orbit(zero, plus).index, xi.xi_orbit(plus, plus).index,
            xi.xi_orbit(plus, minus).index)


def test_dims_a1(xi_a1):
    m0, m_neg1, m1, mi, mni = a1_cells(xi_a1)
    assert dim_orbit(xi_a1, m0) == 0
    assert dim_orbit(xi_a1, mi) == 1
    assert dim_orbit(xi_a1, mni) == 2
    datum = xi_a1.datum
    assert dim_flag(datum, (0,)) == 0
    assert dim_flag(datum, ()) == 1


def test_polys_a1(xi_a1):
    m0, m_neg1, m1, mi, mni = a1_cells(xi_a1)
    assert orbit_poly(xi_a1, m0) == IntPolynomial((1,))
    assert orbit_poly(xi_a1, mi) == IntPolynomial((1, 1))
    assert orbit_poly(xi_a1, mni) == IntPolynomial((0, 1, 1))


def test_compact_cells_a1(xi_a1):
    m0, m_neg1, m1, mi, mni = a1_cells(xi_a1)
    assert [is_compact(xi_a1, m) for m in (m0, m_neg1, m1, mi, mni)] == [
        True, True, True, True, False]


@pytest.mark.parametrize("label,rank", SUPPORTED)
def test_property_suite_all_types(label, rank):
    if (label, rank) == ("A", 4):
        pytest.skip("A4 covered by the acceptance suite")
    xi = enumerate_xi(build_coxeter(label, rank))
    report = property_suite(xi)
    assert report.ok, report.failures[:5]


def test_values_at_one(xi_a1):
    xi = enumerate_xi(build_coxeter("A", 2))
    for m, e in enumerate(xi.elements):
        assert orbit_poly(xi, m)(1) == e.orbit_size


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_validate_counts(n, q):
    xi = enumerate_xi(build_coxeter("A", n - 1))
    report = validate_counts(xi, q)
    assert report.ok, report.failures[:5]


def test_counts_2_2(xi_a1):
    polys = sorted(orbit_poly(xi_a1, m)(2) for m in range(5))
    assert polys == [1, 3, 3, 3, 6]


def test_open_orbit_2_3(xi_a1):
    m0, m_neg1, m1, mi, mni = a1_cells(xi_a1)
    assert orbit_poly(xi_a1, mni)(3) == 12


def test_type_guard():
    xi = enumerate_xi(build_coxeter("B", 2))
    with pytest.raises(ValueError):
        validate_counts(xi, 2)


def test_n4_counting_gate():
    xi = enumerate_xi(build_coxeter("A", 3))
    with pytest.raises(ResourceError):
        validate_counts(xi, 2)          # counting supports n <= 3
