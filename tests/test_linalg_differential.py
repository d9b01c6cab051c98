"""The sparse RationalMatrix against the dense reference on random exact matrices.

Every operation runs on the same inputs in both implementations and must
give the same dense rows, the same entry types (an integer-valued Fraction
is an int) and the same ValueError messages.  Inputs mix ints, Fractions
and negatives, favour zeros, and include the empty shapes 0 x n and n x 0.
``rref`` is also compared on every stalk differential of E_1(B2), E_1(G2)
and E_q(3,2), matrices of up to 144 rows and columns.

The fast paths have the exact ones as oracles: forward elimination's rank
and pivots against the rref's and the dense reference's, the monomial
inverse against the augmented rref's, and ``is_invertible``'s certificate
modulo a prime against the exact rank, also with the prime patched to 2 and
on every anodyne covering map of the catalog sheaves, whose MBS3 witnesses
must be exactly the maps of less than full exact rank.
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_reference import RationalMatrix as Dense
from mbsheaf import linalg
from mbsheaf.cousin import stalk_complex
from mbsheaf.coxeter import SUPPORTED, build_coxeter
from mbsheaf.f1 import build_e1, build_e1v, catalog_names, rep_catalog
from mbsheaf.fq import b_invariant_sub, build_eq
from mbsheaf.io import mbs_from_json, mbs_to_json
from mbsheaf.linalg import RationalMatrix as Sparse
from mbsheaf.linalg import column_space_basis
from mbsheaf.sheaf import check_mbs
from mbsheaf.xi import SIDE_NAMES, enumerate_xi

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
    if not cols:
        return
    # a row count the columns do not have, or a column longer than the first:
    # both classes reject these with the same message
    bad = [(cols, len(rows) + 1), (cols + [cols[0] + (0,)], None)]
    if rows:
        bad.append((cols, len(rows) - 1))
    for args in bad:
        got, want = outcome(Sparse.from_columns, *args), outcome(Dense.from_columns, *args)
        assert got[0] == "error"
        same_outcome(got, want)


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
    """Forward elimination alone gives the rref's pivots: rank and the column
    space basis read them with no back-substitution (no rref call)."""
    s, d = both(m)
    (sred, spiv), (dred, dpiv) = s.rref(), d.rref()
    same(sred, dred)
    assert spiv == dpiv
    with mock.patch.object(Sparse, "rref", side_effect=AssertionError("rref")):
        assert tuple(linalg._pivots(s)) == tuple(dpiv)
        assert s.rank() == d.rank()
        assert column_space_basis(s) == [d.column(j) for j in dpiv]


@pytest.mark.parametrize("build", [
    lambda: build_e1(enumerate_xi(build_coxeter("B", 2))),
    lambda: build_e1(enumerate_xi(build_coxeter("G", 2))),
    lambda: build_eq(3, 2),
], ids=["E_1(B2)", "E_1(G2)", "E_q(3,2)"])
def test_rref_of_every_stalk_differential(build):
    E = build()
    for m in range(len(E.poset.elements)):
        for d in stalk_complex(E, m).differentials.values():
            (sred, spiv), (dred, dpiv) = d.rref(), Dense(d.rows, d.ncols).rref()
            same(sred, dred)
            assert spiv == dpiv


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


def rref_inverse(s):
    """The inverse read off the rref of [s | 1], as ``inverse`` reads it for
    a matrix that is not monomial."""
    n = s.nrows
    aug = Sparse.from_sparse([[*r, (n + i, 1)] for i, r in enumerate(s.sparse_rows)], 2 * n)
    red, pivots = aug.rref()
    assert pivots == tuple(range(n))
    return Sparse.from_sparse([[(j - n, x) for j, x in r if j >= n] for r in red.sparse_rows], n)


@EXAMPLES
@given(monomial_like())
@example(([[0, Fraction(-1, 3), 0], [0, 0, 2], [Fraction(5, 2), 0, 0]], 3))
def test_monomial_inverse(m):
    """A monomial matrix is inverted entry by entry, with no elimination, to
    the bytes of the augmented rref's inverse and the dense reference's."""
    s, d = both(m)
    same_outcome(outcome(Sparse.inverse, s), outcome(Dense.inverse, d))
    if is_monomial(m[0]):
        with mock.patch.object(linalg, "_echelon", side_effect=AssertionError("eliminated")):
            got = s.inverse()
        assert got == rref_inverse(s)
        same(got, Dense.inverse(d))


@st.composite
def exact_squares(draw):
    """Square matrices of ints or of rationals; a third are made singular (a
    row replaced by a combination of two rows) and a third invertible (a
    dominant diagonal)."""
    n = draw(st.integers(1, 6))
    values = draw(st.sampled_from((st.integers(-9, 9), entries)))
    rows = draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=n, max_size=n))
    kind = draw(st.integers(0, 2))
    if kind == 0:
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        a, b = draw(values), draw(values)
        rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])] if j != i != k else [0] * n
    elif kind == 1:
        rows = [[x if i != j else 1 + sum(abs(y) for y in row) for j, x in enumerate(row)]
                for i, row in enumerate(rows)]
    return rows, n


@EXAMPLES
@given(exact_squares())
def test_is_invertible_against_dense(m):
    """The certificate modulo the prime never calls a singular matrix
    invertible, and the verdict is the dense reference's."""
    s, d = both(m)
    assert s.is_invertible() == d.is_invertible()
    if not d.is_invertible():
        assert not linalg._full_rank_mod_p(s.sparse_rows, s.ncols)


def test_modulus_is_a_prime_below_two_to_the_31():
    """A composite modulus would not make the certificate a proof."""
    p = linalg._P
    assert p < 2 ** 31 and all(p % d for d in range(2, int(p ** 0.5) + 1))


def test_small_prime_takes_the_exact_fallback(monkeypatch):
    """With the prime patched to 2: diag(2, 1) is monomial and invertible with
    no rank; with an entry above its diagonal it is singular modulo 2, so the
    exact rank certifies it; a singular matrix is never certified."""
    monkeypatch.setattr(linalg, "_P", 2)
    ranked = []
    exact_rank = Sparse.rank
    monkeypatch.setattr(Sparse, "rank", lambda self: ranked.append(self) or exact_rank(self))
    assert Sparse([[2, 0], [0, 1]]).is_invertible() and not ranked
    for rows in ([[2, 1], [0, 1]], [[1, 1], [1, -1]], [[Fraction(1, 2), Fraction(1, 2)],
                                                        [Fraction(1, 3), Fraction(-1, 3)]]):
        ranked.clear()
        mat = Sparse(rows)
        assert not linalg._full_rank_mod_p(mat.sparse_rows, 2)
        assert mat.is_invertible() and ranked == [mat]
    for rows in ([[1, 2], [2, 4]], [[1, 1], [1, 1]], [[Fraction(1, 2), 1], [1, 2]]):
        mat = Sparse(rows)
        assert not linalg._full_rank_mod_p(mat.sparse_rows, 2)
        assert not mat.is_invertible()
    assert linalg._full_rank_mod_p(Sparse([[1, 1], [0, 1]]).sparse_rows, 2)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(exact_squares())
def test_is_invertible_modulo_two(m):
    s, d = both(m)
    with mock.patch.object(linalg, "_P", 2):
        assert s.is_invertible() == d.is_invertible()
        if linalg._full_rank_mod_p(s.sparse_rows, s.ncols):
            assert d.is_invertible()


def exact_mbs3_witnesses(E):
    """MBS3 read off the exact rank: each anodyne covering map that is not
    square of full rank, as (order, m, n)."""
    poset = E.poset
    return [(SIDE_NAMES[side], m, n) for side, m, n in poset.coverings()
            if poset.elements[m].orbit_size == poset.elements[n].orbit_size
            and not ((mat := E.maps(side)[(m, n)]).is_square() and mat.rank() == mat.nrows)]


def zeroed_a1():
    """E_1(A1) with one anodyne map, a 2 x 2 identity, zeroed in its file."""
    doc = mbs_to_json(build_e1(enumerate_xi(build_coxeter("A", 1))))
    entry = next(e for e in doc["dprime"] if e["matrix"] == [["1/1", "0/1"], ["0/1", "1/1"]])
    entry["matrix"] = [["0/1", "0/1"], ["0/1", "0/1"]]
    return mbs_from_json(doc)


def catalog(label, rank):
    poset = enumerate_xi(build_coxeter(label, rank))
    return [build_e1v(poset, rep_catalog(poset.datum, name)) for name in catalog_names(poset.datum)]


SHEAVES = [(f"E_1^V({label}{rank})", lambda label=label, rank=rank: catalog(label, rank))
           for label, rank in SUPPORTED if rank <= 3]
SHEAVES += [(f"E_q({n},{q})", lambda n=n, q=q: [build_eq(n, q)])
            for n, q in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2))]
SHEAVES += [(f"E_q^B({n},{q})", lambda n=n, q=q: [b_invariant_sub(build_eq(n, q))])
            for n, q in ((2, 2), (3, 2), (3, 3))]
SHEAVES += [("zeroed E_1(A1)", lambda: [zeroed_a1()])]


@pytest.mark.parametrize("build", [b for _name, b in SHEAVES], ids=[n for n, _b in SHEAVES])
def test_mbs3_witnesses_are_exact(build):
    """check_mbs ranks MBS3 whenever shape and MBS1 pass."""
    for E in build():
        rep = check_mbs(E)
        assert not (rep.witnesses["shape"] or rep.witnesses["MBS1"])
        assert rep.witnesses["MBS3"] == exact_mbs3_witnesses(E)


def test_zeroed_a1_fails_mbs3():
    assert exact_mbs3_witnesses(zeroed_a1())


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
