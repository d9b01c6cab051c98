"""Exact linear algebra over the rationals, with sparse storage.

Entries are Python ints or Fractions (a Fraction with denominator 1 is
demoted to int so that the common all-integer case stays in fast int
arithmetic, and a bool becomes its int); any other entry, a float, a
string or a Decimal, raises TypeError.  Everything is immutable; no floating
point anywhere.

A RationalMatrix stores only its nonzero entries.  Row i is a tuple of
(column, value) pairs sorted by column, and every empty row is the one shared
``()``.  The pushforward and pullback maps of the function sheaves
(``pushforward``, ``pullback``) have one nonzero per column or per row, so
products and sums touch few entries, and a row holding a single 1 takes the
other factor's row object as it is.
``sparse_rows`` is the storage itself.  ``rows`` is a dense tuple-of-tuples
view for output and for callers that want dense rows; it is built on every
access and never kept, so only the sparse copy stays alive.

One elimination loop serves Q and F_p alike, on dict rows, in two parts:
``_echelon``, forward elimination, gives the pivot rows and the pivot
columns, and ``_back_substitute`` then reduces them to the rref.  A rank or a
pivot set takes the forward part alone (``rank``, ``solver``'s choice of
rows, ``column_space_basis``); ``rref`` and ``inverse`` take both, and a
subspace of Q^n is the nonzero rows of an rref with their pivots.
``is_invertible`` certifies a matrix that is not monomial by its rank modulo
a word-size prime: full rank there proves full rank over Q, and anything
less falls back to the exact rank, so every "not invertible" is exact.
``solver`` factors a system once, then costs one product and one exact check
per right-hand side.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _norm(x):
    """The canonical form of an exact entry; any other entry raises TypeError."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, int):      # a bool, or another int subclass
        return int(x)
    raise TypeError(f"matrix entries are ints or Fractions, not {type(x).__name__}")


def _collect(pairs):
    """Sort a list of (column, value) pairs into a sparse row, adding up repeats."""
    pairs.sort()
    out = []
    last = None
    for p in pairs:
        if p[0] == last:
            x = _norm(out[-1][1] + p[1])
            if x:
                out[-1] = (last, x)
            else:
                out.pop()
                last = None
        else:
            out.append(p)
            last = p[0]
    return tuple(out)


def _neg_row(r):
    return tuple([(j, -x) for j, x in r])


def _clear(r, col, prow, norm):
    """Subtract r[col] times prow, whose entry at col is 1, from the dict row r."""
    f = r[col]
    for j, x in prow.items():
        y = norm(r.get(j, 0) - f * x)
        if y:
            r[j] = y
        else:
            del r[j]


def _echelon(rows, ncols, inv, norm):
    """Forward elimination over a field: the pivot rows, each scaled to 1 at
    its pivot, and their pivot columns, ascending.  The pivots are those of
    the reduced row echelon form, so a rank or a pivot set needs no more.

    rows are {column: nonzero value} dicts, reduced in place; inv(x) inverts a
    nonzero value and norm(x) is its canonical form (``_norm`` over Q, x % p
    over F_p).  A row waits at the column of its first entry, so only the
    rows waiting at a pivot column hold it; the first is scaled to 1 and
    cleared from the others.
    """
    waiting = {}
    for r in rows:
        if r:
            waiting.setdefault(min(r), []).append(r)
    out, pivots = [], []
    for col in range(ncols):
        rs = waiting.pop(col, None)
        if rs is None:
            continue
        prow = rs.pop(0)
        if prow[col] != 1:
            c = inv(prow[col])
            prow = {j: norm(x * c) for j, x in prow.items()}
        for r in rs:
            _clear(r, col, prow, norm)
            if r:
                waiting.setdefault(min(r), []).append(r)
        out.append(prow)
        pivots.append(col)
    return out, pivots


def _back_substitute(out, pivots, norm):
    """The nonzero rows of the reduced row echelon form, from ``_echelon``'s
    output, reduced in place, and the same pivots.

    Back-substitution runs from the last pivot row up: the rows below are
    reduced and hold no other pivot column, so each row is cleared once at
    each later pivot column it holds, and no new one appears.
    """
    row_of = {col: k for k, col in enumerate(pivots)}
    for k in range(len(out) - 2, -1, -1):
        r = out[k]
        for col in [j for j in r if j in row_of and j != pivots[k]]:
            _clear(r, col, out[row_of[col]], norm)
    return out, pivots


def _inv_q(x):
    return Fraction(1, 1) / x


def _pivots(mat):
    """The pivot columns of mat's reduced row echelon form, by forward
    elimination alone."""
    return _echelon([dict(r) for r in mat.sparse_rows], mat.ncols, _inv_q, _norm)[1]


def _is_monomial(rows):
    """One entry in every row, in pairwise distinct columns."""
    return all(len(r) == 1 for r in rows) and len({r[0][0] for r in rows}) == len(rows)


# The prime of ``_full_rank_mod_p``: below 2^31, so entries and products
# reduced modulo it stay small ints.
_P = 2_147_483_629


def _full_rank_mod_p(rows, ncols):
    """Whether the sparse rows, each scaled by the lcm of its denominators,
    are independent modulo _P.  Scaling a row keeps the rank over Q, and a
    nonzero maximal minor modulo _P is a nonzero integer, so True proves the
    rows independent over Q; False proves nothing."""
    p = _P
    red = []
    for r in rows:
        d = math.lcm(*[x.denominator for _j, x in r if type(x) is not int])
        red.append({j: y for j, x in r if (y := int(x * d) % p)})
    return len(_echelon(red, ncols, lambda x: pow(x, -1, p), p.__rmod__)[1]) == len(rows)


_IDENTITY_CACHE = {}
_ZEROS_CACHE = {}


class RationalMatrix:
    """Immutable matrix of exact rationals; sparse rows of (column, value) pairs."""

    __slots__ = ("sparse_rows", "nrows", "ncols")

    def __init__(self, rows, ncols=None):
        """Matrix from dense rows, each of length ncols (default: the first row's)."""
        rows = [tuple(r) for r in rows]
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError(f"a row's length is not the column count {ncols}")
        _set_rows(self, tuple([tuple([(j, x) for j, x in enumerate(map(_norm, r)) if x])
                               for r in rows]))
        _set_nrows(self, len(rows))
        _set_ncols(self, ncols)

    def __setattr__(self, *a):
        raise AttributeError("RationalMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_sparse(cls, rows, ncols):
        """Matrix from rows of (column, value) pairs in any order.

        Pairs at the same column of a row add up, and zero entries are
        dropped.  Raises ValueError on a column outside range(ncols).
        """
        out = []
        for row in rows:
            row = _collect([(j, y) for j, x in row if (y := _norm(x))])
            if row and (row[0][0] < 0 or row[-1][0] >= ncols):
                raise ValueError(f"column index out of range for {ncols} columns")
            out.append(row)
        return _make(tuple(out), len(out), ncols)

    @classmethod
    def identity(cls, n):
        got = _IDENTITY_CACHE.get(n)
        if got is None:
            got = _IDENTITY_CACHE[n] = _make(tuple(((i, 1),) for i in range(n)), n, n)
        return got

    @classmethod
    def zeros(cls, nrows, ncols):
        got = _ZEROS_CACHE.get((nrows, ncols))
        if got is None:
            got = _ZEROS_CACHE[(nrows, ncols)] = _make(((),) * nrows, nrows, ncols)
        return got

    @classmethod
    def from_columns(cls, cols, nrows=None):
        """Matrix from columns, each of length nrows (default: the first column's);
        a column of another length raises ValueError."""
        cols = [tuple(c) for c in cols]
        if nrows is None:
            nrows = len(cols[0]) if cols else 0
        if any(len(c) != nrows for c in cols):
            raise ValueError(f"a column's length is not the row count {nrows}")
        return cls(cols, nrows).transpose()

    @classmethod
    def pullback(cls, f, n):
        """Pullback of functions along the map x -> f[x] into range(n): the
        len(f) x n matrix with a 1 at each (x, f[x]), whose row x is row f[x]
        of the identity (shared, not copied).  Raises ValueError on a value
        outside range(n)."""
        if f and not 0 <= min(f) <= max(f) < n:
            raise ValueError(f"map value out of range for {n} points")
        rows = cls.identity(n).sparse_rows
        return _make(tuple([rows[y] for y in f]), len(f), n)

    @classmethod
    def pushforward(cls, f, n):
        """Pushforward of functions along x -> f[x], summing over each fibre:
        the n x len(f) matrix whose row y holds a 1 at each x of the fibre
        over y, the transpose of ``pullback(f, n)``.  Raises ValueError on a
        value outside range(n)."""
        if f and not 0 <= min(f) <= max(f) < n:
            raise ValueError(f"map value out of range for {n} points")
        rows = [[] for _ in range(n)]
        for y, (one,) in zip(f, cls.identity(len(f)).sparse_rows):
            rows[y].append(one)     # the entry (x, 1), shared with the identity
        return _make(tuple(map(tuple, rows)), n, len(f))

    # -- basic structure ---------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @property
    def rows(self):
        """Dense view: a tuple of row tuples, built anew on each access."""
        nc = self.ncols
        out = []
        for r in self.sparse_rows:
            row = [0] * nc
            for j, x in r:
                row[j] = x
            out.append(tuple(row))
        return tuple(out)

    def __eq__(self, other):
        return (isinstance(other, RationalMatrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.sparse_rows == other.sparse_rows)

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.sparse_rows))

    def __repr__(self):
        return f"RationalMatrix({self.nrows}x{self.ncols})"

    def is_zero(self):
        return not any(self.sparse_rows)

    def is_square(self):
        return self.nrows == self.ncols

    def column(self, j):
        if not 0 <= j < self.ncols:
            raise IndexError("column index out of range")
        return tuple(dict(r).get(j, 0) for r in self.sparse_rows)

    def trace(self):
        """Sum of the diagonal entries."""
        return sum(x for i, r in enumerate(self.sparse_rows) for j, x in r if j == i)

    def transpose(self):
        cols = [[] for _ in range(self.ncols)]
        for i, r in enumerate(self.sparse_rows):
            for j, x in r:
                cols[j].append((i, x))
        return _make(tuple(map(tuple, cols)), self.ncols, self.nrows)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch in +")
        return _make(tuple([_collect([*r, *s])
                            for r, s in zip(self.sparse_rows, other.sparse_rows)]),
                     self.nrows, self.ncols)

    def __sub__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch in -")
        return _make(tuple([_collect([*r, *_neg_row(s)])
                            for r, s in zip(self.sparse_rows, other.sparse_rows)]),
                     self.nrows, self.ncols)

    def __neg__(self):
        return _make(tuple(map(_neg_row, self.sparse_rows)), self.nrows, self.ncols)

    def scale(self, c):
        c = _norm(c)
        if not c:
            return RationalMatrix.zeros(self.nrows, self.ncols)
        return _make(tuple([tuple([(j, _norm(c * x)) for j, x in r]) for r in self.sparse_rows]),
                     self.nrows, self.ncols)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch in @: {self.shape} x {other.shape}")
        brows = other.sparse_rows
        out = []
        for arow in self.sparse_rows:
            if len(arow) == 1 and arow[0][1] == 1:
                out.append(brows[arow[0][0]])
                continue
            pairs = []
            for k, a in arow:
                if a == 1:
                    pairs += brows[k]
                else:
                    pairs += [(j, _norm(a * b)) for j, b in brows[k]]
            out.append(_collect(pairs))
        return _make(tuple(out), self.nrows, other.ncols)

    def apply(self, vec):
        """Matrix-vector product (vec as a sequence)."""
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple(_norm(sum(x * vec[j] for j, x in r)) for r in self.sparse_rows)

    # -- elimination -------------------------------------------------------

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column indices)."""
        red, pivots = _back_substitute(*_echelon([dict(r) for r in self.sparse_rows],
                                                 self.ncols, _inv_q, _norm), _norm)
        red = [tuple(sorted(r.items())) for r in red] + [()] * (self.nrows - len(red))
        return _make(tuple(red), self.nrows, self.ncols), tuple(pivots)

    def rank(self):
        """The exact rank over Q, by forward elimination."""
        return len(_pivots(self))

    def is_invertible(self):
        """Square and of full rank.  A monomial matrix (one entry in every row,
        pairwise distinct columns) is invertible whatever its entries, an O(nnz)
        test.  Any other matrix is invertible if its rows, scaled to integers,
        have full rank modulo the prime _P, which proves full rank over Q;
        failing that, the exact ``rank`` decides, so a matrix is never called
        singular but by exact arithmetic."""
        if not self.is_square():
            return False
        rows = self.sparse_rows
        if _is_monomial(rows):
            return True
        return _full_rank_mod_p(rows, self.ncols) or self.rank() == self.nrows

    def inverse(self):
        """The exact inverse; a monomial matrix's, entry (i, j, x) sent to
        (j, i, 1/x), costs O(nnz), and any other is read off an augmented rref.
        Raises ValueError on a matrix that is not square or not invertible."""
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        if _is_monomial(self.sparse_rows):
            out = [()] * n
            for i, ((j, x),) in enumerate(self.sparse_rows):
                out[j] = ((i, _norm(_inv_q(x))),)
            return _make(tuple(out), n, n)
        aug = _make(tuple([r + ((n + i, 1),) for i, r in enumerate(self.sparse_rows)]),
                    n, 2 * n)
        red, pivots = aug.rref()
        if tuple(pivots[:n]) != tuple(range(n)) or len(pivots) != n:
            raise ValueError("matrix is singular")
        return _make(tuple([tuple([(j - n, x) for j, x in r if j >= n])
                            for r in red.sparse_rows]), n, n)

    def solver(self):
        """Factor self once; the returned rhs -> X solves self @ X == rhs exactly.

        The transpose's pivots pick ncols independent rows, whose square block
        is inverted here; a call returns inv @ rhs[rows] after checking self @ X == rhs
        and raises the ValueErrors of an augmented rref, in the same order.
        """
        rows = _pivots(self.transpose())
        if len(rows) == self.ncols:
            inv = _make(tuple([self.sparse_rows[i] for i in rows]), len(rows), len(rows)).inverse()

        def solve(rhs):
            if rhs.nrows != self.nrows:
                raise ValueError("rhs row count mismatch")
            if len(rows) != self.ncols:
                raise ValueError("matrix does not have full column rank")
            x = inv @ _make(tuple([rhs.sparse_rows[i] for i in rows]), len(rows), rhs.ncols)
            if self @ x != rhs:
                raise ValueError("inconsistent system")
            return x
        return solve

    def solve(self, rhs):
        """Solve self @ X = rhs exactly: ``self.solver()(rhs)``."""
        return self.solver()(rhs)


_set_rows = RationalMatrix.sparse_rows.__set__
_set_nrows = RationalMatrix.nrows.__set__
_set_ncols = RationalMatrix.ncols.__set__


def _make(sparse_rows, nrows, ncols):
    """A matrix around rows already in canonical sparse form."""
    mat = object.__new__(RationalMatrix)
    _set_rows(mat, sparse_rows)
    _set_nrows(mat, nrows)
    _set_ncols(mat, ncols)
    return mat


def column_space_basis(mat):
    """Pivot columns of mat: a deterministic basis of the column space."""
    return [mat.column(j) for j in _pivots(mat)]


def fraction_to_str(x):
    f = x if type(x) is int else Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def fraction_from_str(s):
    num, den = s.split("/")
    return _norm(Fraction(int(num), int(den)))
