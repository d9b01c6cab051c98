"""Exact matrix arithmetic: elimination, inverses, solving, spans."""

from decimal import Decimal
from fractions import Fraction

import pytest

from dense_reference import Span
from mbsheaf.linalg import (
    RationalMatrix, column_space_basis, fraction_from_str, fraction_to_str,
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


def test_constructor_holds_rows_to_ncols():
    assert RationalMatrix([], 3).shape == (0, 3)
    assert RationalMatrix([(1, 0)], 2).shape == (1, 2)
    assert RationalMatrix([(1, 0), (0, 1)]).shape == (2, 2)
    for rows, ncols in (([(1,)], 2), ([(1, 0, 0)], 2), ([(1, 0), (1,)], None)):
        with pytest.raises(ValueError):
            RationalMatrix(rows, ncols)


def test_from_columns_holds_columns_to_nrows():
    assert RationalMatrix.from_columns([(1, 2)]).shape == (2, 1)
    assert RationalMatrix.from_columns([(1, 2)], 2).shape == (2, 1)
    assert RationalMatrix.from_columns([], 3).shape == (3, 0)
    for cols, nrows in (([(1, 2)], 3), ([(1, 2)], 1), ([(1, 2), (1,)], None), ([(1,)], 0)):
        with pytest.raises(ValueError):
            RationalMatrix.from_columns(cols, nrows)


def test_pullback_and_pushforward():
    f = (2, 0, 2, 1)
    pull = RationalMatrix.pullback(f, 4)
    assert pull.shape == (4, 4)
    assert pull.rows == ((0, 0, 1, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0))
    push = RationalMatrix.pushforward(f, 3)
    assert push.shape == (3, 4)
    assert push == RationalMatrix.pullback(f, 3).transpose()
    # pushforward sums over fibres, pullback reads the value at the image
    assert (push @ RationalMatrix(((1,), (2,), (3,), (4,)))).rows == ((2,), (4,), (4,))
    assert (pull @ RationalMatrix(((5,), (6,), (7,), (8,)))).rows == ((7,), (5,), (7,), (6,))
    assert RationalMatrix.pullback((), 3).shape == (0, 3)
    assert RationalMatrix.pushforward((), 3) == RationalMatrix.zeros(3, 0)
    assert RationalMatrix.pullback((), 0).shape == (0, 0)
    for bad, n in (((0, 3), 3), ((-1,), 3), ((0,), 0)):
        with pytest.raises(ValueError):
            RationalMatrix.pullback(bad, n)
        with pytest.raises(ValueError):
            RationalMatrix.pushforward(bad, n)


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


@pytest.mark.parametrize("bad", [0.5, 1.0, 0.0, "1", "0", Decimal(1), Decimal("0.5")],
                         ids=repr)
def test_inexact_entries_raise_type_error(bad):
    """Only ints and Fractions are entries: a float, a string or a Decimal,
    zero or not, raises TypeError in every constructor and in scale."""
    with pytest.raises(TypeError):
        RationalMatrix([[1, bad]])
    with pytest.raises(TypeError):
        RationalMatrix.from_sparse([[(0, 1), (1, bad)]], 2)
    with pytest.raises(TypeError):
        RationalMatrix.from_columns([(1, bad)])
    with pytest.raises(TypeError):
        RationalMatrix.identity(2).scale(bad)


def test_bool_entries_become_ints():
    m = RationalMatrix([[True, False], [False, True]])
    assert m == RationalMatrix.identity(2)
    assert all(type(x) is int for _j, x in m.sparse_rows[0])
    assert RationalMatrix.from_sparse([[(1, True)]], 2).sparse_rows == (((1, 1),),)
    assert type(RationalMatrix.identity(2).scale(True).sparse_rows[0][0][1]) is int
    assert RationalMatrix.identity(2).scale(False) == RationalMatrix.zeros(2, 2)
