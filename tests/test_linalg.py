"""Exact matrix arithmetic: elimination, inverses, solving, spans."""

from fractions import Fraction

import pytest

from mbsheaf.intpoly import IntPolynomial
from mbsheaf.linalg import (
    RationalMatrix, Span, column_space_basis, fraction_from_str, fraction_to_str,
)


def test_matmul_and_shapes():
    a = RationalMatrix(((1, 2), (3, 4)))
    b = RationalMatrix(((0, 1), (1, 0)))
    assert (a @ b).rows == ((2, 1), (4, 3))
    with pytest.raises(ValueError):
        a @ RationalMatrix(((1, 2, 3),))


def test_fraction_normalization():
    m = RationalMatrix(((Fraction(2, 2), Fraction(1, 3)),))
    assert m.rows[0][0] == 1 and type(m.rows[0][0]) is int
    assert m.rows[0][1] == Fraction(1, 3)


def test_rref_rank_inverse():
    m = RationalMatrix(((2, 1), (4, 3)))
    assert m.rank() == 2
    inv = m.inverse()
    assert m @ inv == RationalMatrix.identity(2)
    assert inv @ m == RationalMatrix.identity(2)
    singular = RationalMatrix(((1, 2), (2, 4)))
    assert singular.rank() == 1
    assert not singular.is_invertible()
    with pytest.raises(ValueError):
        singular.inverse()


def test_rref_is_canonical():
    m = RationalMatrix(((0, 2, 4), (1, 1, 1)))
    red, pivots = m.rref()
    assert pivots == (0, 1)
    assert red.rows == ((1, 0, -1), (0, 1, 2))


def test_solve_exact():
    a = RationalMatrix(((1, 0), (1, 1), (0, 2)))
    rhs = a @ RationalMatrix(((Fraction(1, 2),), (3,)))
    x = a.solve(rhs)
    assert x.rows == ((Fraction(1, 2),), (3,))
    bad = RationalMatrix(((1,), (1,), (1,)))
    with pytest.raises(ValueError):
        a.solve(bad)


def test_span_growth_and_membership():
    s = Span(3)
    assert s.add((1, 1, 0))
    assert not s.add((2, 2, 0))
    assert s.add((0, 0, 1))
    assert s.dim == 2
    assert s.contains((3, 3, 5))
    assert not s.contains((1, 0, 0))
    basis = s.basis_matrix()
    assert basis.shape == (3, 2)


def test_column_space_basis_deterministic():
    m = RationalMatrix(((1, 2, 3), (2, 4, 6), (0, 0, 1)))
    basis = column_space_basis(m)
    assert basis == [m.column(0), m.column(2)]


def test_empty_shapes():
    zero_rows = RationalMatrix.zeros(0, 3)
    assert zero_rows.shape == (0, 3)
    assert zero_rows.transpose().shape == (3, 0)
    assert zero_rows.transpose().transpose().shape == (0, 3)
    tall = RationalMatrix.zeros(3, 0)
    assert (tall @ zero_rows).shape == (3, 3)
    assert (zero_rows @ tall).shape == (0, 0)
    assert zero_rows.rank() == 0
    assert RationalMatrix.identity(0).inverse().shape == (0, 0)


def test_from_sparse_sums_repeats_and_checks_columns():
    m = RationalMatrix.from_sparse([[(1, 1), (0, 2), (1, Fraction(1, 2)), (0, -2)], []], 2)
    assert m.rows == ((0, Fraction(3, 2)), (0, 0))
    assert m.sparse_rows == (((1, Fraction(3, 2)),), ())
    for bad in ([[(2, 1)]], [[(-1, 1)]]):
        with pytest.raises(ValueError):
            RationalMatrix.from_sparse(bad, 2)


def test_fraction_strings():
    assert fraction_to_str(Fraction(-3, 6)) == "-1/2"
    assert fraction_to_str(5) == "5/1"
    assert fraction_from_str("-1/2") == Fraction(-1, 2)
    assert fraction_from_str("4/2") == 2


def test_intpoly_algebra():
    p = IntPolynomial((1, 1))
    q = IntPolynomial((0, 1))
    assert (p * p).coeffs == (1, 2, 1)
    assert (p + q).coeffs == (1, 2)
    assert (p - p).is_zero()
    assert p(5) == 6
    assert q.q_valuation() == 1
    assert p.shift(2).coeffs == (0, 0, 1, 1)
    assert IntPolynomial((1, 0, 0)).coeffs == (1,)
    assert IntPolynomial.monomial(3).degree == 3
