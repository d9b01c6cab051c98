"""Exact linear algebra over the rationals, with sparse storage.

Entries are Python ints or Fractions (a Fraction with denominator 1 is
demoted to int so that the common all-integer case stays in fast int
arithmetic).  Everything is immutable; no floating point anywhere.

A RationalMatrix stores only its nonzero entries.  Row i is a tuple of
(column, value) pairs sorted by column, and every empty row is the one shared
``()``.  The pushforward and pullback maps of the function sheaves have at most
one nonzero per column, so products and sums touch few entries, and a row
holding a single 1 takes the other factor's row object as it is.
``sparse_rows`` is the storage itself.  ``rows`` is a dense tuple-of-tuples
view for output and for callers that want dense rows; it is built on every
access and never kept, so only the sparse copy stays alive.  Elimination (rref
and what rests on it) runs on dense scratch lists and returns sparse matrices;
``solver`` factors a system once, then costs one product and one exact check
per right-hand side.
"""

from __future__ import annotations

from fractions import Fraction


def _norm(x):
    if type(x) is int:
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def _sparse_row(row):
    """Sorted (column, value) pairs of the nonzero entries of a dense row."""
    return tuple([(j, _norm(x)) for j, x in enumerate(row) if x])


def _merge(r, s):
    """Sum of two sparse rows."""
    if not s:
        return r
    if not r:
        return s
    if r[-1][0] < s[0][0]:
        return r + s
    if s[-1][0] < r[0][0]:
        return s + r
    out = []
    i = k = 0
    nr, ns = len(r), len(s)
    while i < nr and k < ns:
        a, b = r[i], s[k]
        if a[0] < b[0]:
            out.append(a)
            i += 1
        elif a[0] > b[0]:
            out.append(b)
            k += 1
        else:
            x = _norm(a[1] + b[1])
            if x:
                out.append((a[0], x))
            i += 1
            k += 1
    out.extend(r[i:])
    out.extend(s[k:])
    return tuple(out)


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


_IDENTITY_CACHE = {}
_ZEROS_CACHE = {}


class RationalMatrix:
    """Immutable matrix of exact rationals; sparse rows of (column, value) pairs."""

    __slots__ = ("sparse_rows", "nrows", "ncols")

    def __init__(self, rows, ncols=None):
        """Matrix from dense rows (sequences of equal length)."""
        rows = [tuple(r) for r in rows]
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
        elif ncols is None:
            ncols = 0
        _set_rows(self, tuple([_sparse_row(r) for r in rows]))
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
            row = _collect([(j, _norm(x)) for j, x in row if x])
            if row and (row[0][0] < 0 or row[-1][0] >= ncols):
                raise ValueError(f"column index out of range for {ncols} columns")
            out.append(row)
        return _make(tuple(out), len(out), ncols)

    @classmethod
    def identity(cls, n):
        got = _IDENTITY_CACHE.get(n)
        if got is None:
            got = _make(tuple(((i, 1),) for i in range(n)), n, n)
            _IDENTITY_CACHE[n] = got
        return got

    @classmethod
    def zeros(cls, nrows, ncols):
        got = _ZEROS_CACHE.get((nrows, ncols))
        if got is None:
            got = _make(((),) * nrows, nrows, ncols)
            _ZEROS_CACHE[(nrows, ncols)] = got
        return got

    @classmethod
    def from_columns(cls, cols, nrows=None):
        cols = list(cols)
        nrows = len(cols[0]) if cols else nrows or 0
        rows = [[] for _ in range(nrows)]
        for j, col in enumerate(cols):
            if len(col) != nrows:
                raise ValueError("ragged columns")
            for i, x in enumerate(col):
                if x:
                    rows[i].append((j, _norm(x)))
        return _make(tuple(map(tuple, rows)), nrows, len(cols))

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
        return _make(tuple(map(_merge, self.sparse_rows, other.sparse_rows)),
                     self.nrows, self.ncols)

    def __sub__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch in -")
        return _make(tuple([_merge(r, _neg_row(s))
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
        m = [list(r) for r in self.rows]
        nr, nc = self.nrows, self.ncols
        pivots = []
        prow = 0
        for col in range(nc):
            sel = None
            for i in range(prow, nr):
                if m[i][col] != 0:
                    sel = i
                    break
            if sel is None:
                continue
            m[prow], m[sel] = m[sel], m[prow]
            pivot_row = m[prow]
            pv = pivot_row[col]
            if pv != 1:
                inv = Fraction(1, 1) / pv
                for j in range(col, nc):
                    if pivot_row[j]:
                        pivot_row[j] = _norm(pivot_row[j] * inv)
            nonzero = [(j, b) for j, b in enumerate(pivot_row) if b]
            for i in range(nr):
                row = m[i]
                f = row[col]
                if f and i != prow:
                    for j, b in nonzero:
                        row[j] = _norm(row[j] - f * b)
            pivots.append(col)
            prow += 1
            if prow == nr:
                break
        red = tuple([tuple([(j, x) for j, x in enumerate(row) if x]) for row in m])
        return _make(red, nr, nc), tuple(pivots)

    def rank(self):
        return len(self.rref()[1])

    def is_invertible(self):
        """Square and of full rank.  A monomial matrix (one entry in every row,
        pairwise distinct columns) is invertible whatever its entries, an O(nnz)
        test; any other matrix is ranked."""
        if not self.is_square():
            return False
        rows = self.sparse_rows
        if all(len(r) == 1 for r in rows) and len({r[0][0] for r in rows}) == self.nrows:
            return True
        return self.rank() == self.nrows

    def inverse(self):
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        aug = _make(tuple([r + ((n + i, 1),) for i, r in enumerate(self.sparse_rows)]),
                    n, 2 * n)
        red, pivots = aug.rref()
        if tuple(pivots[:n]) != tuple(range(n)) or len(pivots) != n:
            raise ValueError("matrix is singular")
        return _make(tuple([tuple([(j - n, x) for j, x in r if j >= n])
                            for r in red.sparse_rows]), n, n)

    def solver(self):
        """Factor self once; the returned rhs -> X solves self @ X == rhs exactly.

        The transpose's rref pivots pick ncols independent rows, whose square block
        is inverted here; a call returns inv @ rhs[rows] after checking self @ X == rhs
        and raises the ValueErrors of an augmented rref, in the same order.
        """
        rows = self.transpose().rref()[1]
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


class Span:
    """Growing subspace of Q^n maintained in reduced echelon form."""

    def __init__(self, dim_ambient):
        self.n = dim_ambient
        self.rows = []      # echelon rows, each a list
        self.pivots = []    # pivot column of each row

    @property
    def dim(self):
        return len(self.rows)

    def _reduce(self, vec):
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            if v[p] != 0:
                f = v[p]
                v = [_norm(a - f * b) for a, b in zip(v, row)]
        return v

    def contains(self, vec):
        return all(x == 0 for x in self._reduce(vec))

    def add(self, vec):
        """Add a vector; returns True if the span grew."""
        v = self._reduce(vec)
        for j, x in enumerate(v):
            if x != 0:
                inv = Fraction(1, 1) / x
                v = [_norm(a * inv) for a in v]
                # back-substitute into existing rows
                for i, row in enumerate(self.rows):
                    if row[j] != 0:
                        f = row[j]
                        self.rows[i] = [_norm(a - f * b) for a, b in zip(row, v)]
                k = 0
                while k < len(self.pivots) and self.pivots[k] < j:
                    k += 1
                self.rows.insert(k, v)
                self.pivots.insert(k, j)
                return True
        return False

    def basis_matrix(self):
        """Matrix whose columns are the echelon basis vectors."""
        return RationalMatrix.from_columns([tuple(r) for r in self.rows], self.n)


def column_space_basis(mat):
    """Pivot columns of mat: a deterministic basis of the column space."""
    _, pivots = mat.rref()
    return [mat.column(j) for j in pivots]


def fraction_to_str(x):
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def fraction_from_str(s):
    num, den = s.split("/")
    return _norm(Fraction(int(num), int(den)))
