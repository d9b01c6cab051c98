"""The sparse RationalMatrix against the dense reference on random exact matrices.

Every operation runs on the same inputs in both implementations and must
give the same dense rows, the same entry types (an integer-valued Fraction
is an int) and the same ValueError messages.  Inputs mix ints, Fractions
and negatives, favour zeros, and include the empty shapes 0 x n and n x 0.
"""

from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_reference import RationalMatrix as Dense
from mbsheaf.linalg import RationalMatrix as Sparse

EXAMPLES = settings(max_examples=200, deadline=None, derandomize=True, database=None)

entries = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)),
)
sizes = st.integers(0, 5)


def dense_rows(nrows, ncols):
    return st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


@st.composite
def matrices(draw, nrows=None, ncols=None):
    """(rows, ncols) of a random matrix; shapes drawn unless given."""
    nrows = draw(sizes) if nrows is None else nrows
    ncols = draw(sizes) if ncols is None else ncols
    return draw(dense_rows(nrows, ncols)), ncols


@st.composite
def square_matrices(draw):
    """Square matrices, half of them made invertible by a dominant diagonal."""
    n = draw(sizes)
    rows, _ = draw(matrices(n, n))
    if draw(st.booleans()):
        rows = [[x if i != j else 1 + sum(abs(y) for y in row) for j, x in enumerate(row)]
                for i, row in enumerate(rows)]
    return rows, n


def both(m):
    rows, ncols = m
    return Sparse(rows, ncols), Dense(rows, ncols)


def check_canonical(s):
    """The sparse storage invariants: sorted columns, no zeros, shared empty rows."""
    assert len(s.sparse_rows) == s.nrows
    for row in s.sparse_rows:
        if not row:
            assert row is tuple()  # the one shared empty tuple
        cols = [j for j, _x in row]
        assert cols == sorted(set(cols))
        assert all(0 <= j < s.ncols for j in cols)
        for _j, x in row:
            assert x != 0
            assert type(x) is int or (type(x) is Fraction and x.denominator != 1)


def same(s, d):
    check_canonical(s)
    assert s.shape == d.shape
    assert s.rows == d.rows
    assert [[type(x) for x in r] for r in s.rows] == [[type(x) for x in r] for r in d.rows]


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


def same_outcome(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
    else:
        same(got[1], want[1])


@st.composite
def products(draw):
    n, k, p = draw(sizes), draw(sizes), draw(sizes)
    return draw(matrices(n, k)), draw(matrices(k, p))


@st.composite
def same_shape_pairs(draw):
    a = draw(matrices())
    nrows, ncols = len(a[0]), a[1]
    b = draw(st.one_of(st.just(a), matrices(nrows, ncols)))
    return a, b


@EXAMPLES
@given(matrices())
def test_construction_and_rows(m):
    s, d = both(m)
    same(s, d)


@EXAMPLES
@given(matrices())
def test_from_sparse_splits_and_shuffles(m):
    rows, ncols = m
    sparse = []
    for i, row in enumerate(rows):
        pairs = []
        for j, x in enumerate(row):
            if x:
                part = Fraction(i + j + 1, 3)
                pairs += [(j, x - part), (j, part)]
        sparse.append(pairs[::-1])
    same(Sparse.from_sparse(sparse, ncols), Dense(rows, ncols))


@EXAMPLES
@given(matrices())
def test_from_columns(m):
    rows, ncols = m
    cols = [tuple(r[j] for r in rows) for j in range(ncols)]
    same(Sparse.from_columns(cols, len(rows)), Dense.from_columns(cols, len(rows)))


@EXAMPLES
@given(products())
def test_matmul(pair):
    (sa, da), (sb, db) = both(pair[0]), both(pair[1])
    same(sa @ sb, da @ db)


@EXAMPLES
@given(same_shape_pairs())
def test_add_sub(pair):
    (sa, da), (sb, db) = both(pair[0]), both(pair[1])
    same(sa + sb, da + db)
    same(sa - sb, da - db)


@EXAMPLES
@given(matrices(), entries)
def test_neg_and_scale(m, c):
    s, d = both(m)
    same(-s, -d)
    same(s.scale(c), d.scale(c))


@EXAMPLES
@given(matrices())
def test_transpose_and_column(m):
    s, d = both(m)
    same(s.transpose(), d.transpose())
    for j in range(s.ncols):
        assert s.column(j) == d.column(j)


@EXAMPLES
@given(matrices().flatmap(lambda m: st.tuples(st.just(m), st.lists(
    entries, min_size=m[1], max_size=m[1]))))
def test_apply(args):
    m, vec = args
    s, d = both(m)
    got, want = s.apply(vec), d.apply(vec)
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]


@EXAMPLES
@given(same_shape_pairs(), matrices())
def test_eq_and_hash(pair, other):
    (sa, da), (sb, db) = both(pair[0]), both(pair[1])
    so, do = both(other)
    assert (sa == sb) == (da == db)
    assert (sa == so) == (da == do)
    if sa == sb:
        assert hash(sa) == hash(sb)
    assert sa.is_zero() == da.is_zero()


@EXAMPLES
@given(matrices())
def test_rref_and_rank(m):
    s, d = both(m)
    (sred, spiv), (dred, dpiv) = s.rref(), d.rref()
    same(sred, dred)
    assert spiv == dpiv
    assert s.rank() == d.rank()


@EXAMPLES
@given(square_matrices())
def test_inverse(m):
    s, d = both(m)
    same_outcome(outcome(Sparse.inverse, s), outcome(Dense.inverse, d))
    assert s.is_invertible() == d.is_invertible()


@st.composite
def monomial_like(draw):
    """Square matrices with one nonzero per row in pairwise distinct columns,
    then, for most of them, one row changed: its entry put in the column of a
    random row, removed, or joined by a second one.  Entries include non-units."""
    n = draw(sizes)
    nonzero = entries.filter(bool)
    cols = draw(st.permutations(range(n)))
    rows = [[0] * n for _ in range(n)]
    for i, j in enumerate(cols):
        rows[i][j] = draw(nonzero)
    kind = draw(st.sampled_from(("monomial", "repeat", "empty", "extra")))
    if n and kind != "monomial":
        i = draw(st.integers(0, n - 1))
        if kind == "extra":
            rows[i][draw(st.integers(0, n - 1))] = draw(nonzero)
        else:
            rows[i] = [0] * n
            if kind == "repeat":
                rows[i][cols[draw(st.integers(0, n - 1))]] = draw(nonzero)
    return rows, n


def is_monomial(rows):
    support = [[j for j, x in enumerate(r) if x] for r in rows]
    return (all(len(js) == 1 for js in support)
            and len({js[0] for js in support}) == len(rows))


@EXAMPLES
@given(monomial_like())
@example(([], 0))                                       # 0 x 0
@example(([[2, 0], [0, Fraction(-1, 3)]], 2))           # non-unit entries
@example(([[0, 3], [0, 1]], 2))                         # a repeated column
@example(([[1, 0, 0], [0, 0, 0], [0, 0, 5]], 3))        # an empty row
@example(([[0, 1, 0]], 3))                              # not square
def test_is_invertible_monomial(m):
    s, d = both(m)
    if is_monomial(m[0]) and s.is_square():
        # the O(nnz) path decides without elimination
        with mock.patch.object(Sparse, "rank", side_effect=AssertionError("ranked")):
            assert s.is_invertible()
    assert s.is_invertible() == d.is_invertible()


@st.composite
def systems(draw):
    """(a, rhs) with rhs = a @ x half of the time, so that many systems are consistent."""
    n, k, p = draw(sizes), draw(sizes), draw(sizes)
    a = draw(matrices(n, k))
    if draw(st.booleans()):
        x = draw(matrices(k, p))
        rhs = Dense(*a) @ Dense(*x)
        return a, (rhs.rows, p)
    return a, draw(matrices(n, p))


@EXAMPLES
@given(systems())
def test_solve(system):
    (sa, da), (sr, dr) = both(system[0]), both(system[1])
    same_outcome(outcome(Sparse.solve, sa, sr), outcome(Dense.solve, da, dr))


@st.composite
def factored_systems(draw):
    """(a, [rhs, ...]): several right-hand sides for one matrix.

    A third of the matrices get a repeated column (no full column rank).
    Each rhs is a @ x (consistent), a @ x plus one unit entry (often
    inconsistent), random, or one row too long.
    """
    n, k = draw(sizes), draw(sizes)
    rows, _ = draw(matrices(n, k))
    if k and draw(st.integers(0, 2)) == 0:
        j = draw(st.integers(0, k - 1))
        rows = [r + [r[j]] for r in rows]
        k += 1
    a = Dense(rows, k)
    rhss = []
    for kind in draw(st.lists(st.integers(0, 3), min_size=1, max_size=4)):
        p = draw(sizes)
        if kind == 3:
            rhss.append(draw(matrices(n + 1, p)))
        elif kind == 2:
            rhss.append(draw(matrices(n, p)))
        else:
            b = [list(r) for r in (a @ Dense(*draw(matrices(k, p)))).rows]
            if kind == 1 and n and p:
                b[draw(st.integers(0, n - 1))][draw(st.integers(0, p - 1))] += 1
            rhss.append((b, p))
    return (rows, k), rhss


@EXAMPLES
@given(factored_systems())
def test_solver_factored_once(system):
    m, rhss = system
    sa, da = both(m)
    solve = sa.solver()
    for rhs in rhss:
        sr, dr = both(rhs)
        same_outcome(outcome(solve, sr), outcome(Dense.solve, da, dr))
