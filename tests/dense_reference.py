"""Dense reference implementation of RationalMatrix, the oracle of the sparse core.

This is the rows-of-tuples class that ``mbsheaf.linalg`` used before it
switched to sparse storage, kept unchanged so that tests can compare the
two on the same inputs (see test_linalg_differential.py).
"""

from __future__ import annotations

from fractions import Fraction


def _norm(x):
    if type(x) is int:
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


_IDENTITY_CACHE = {}
_ZEROS_CACHE = {}


class RationalMatrix:
    """Immutable matrix of exact rationals, rows-of-tuples storage."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows, ncols=None, _normalized=False):
        if _normalized:
            rows = tuple(rows)
        else:
            rows = tuple(tuple(_norm(x) for x in r) for r in rows)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
        elif ncols is None:
            ncols = 0
        object.__setattr__(self, "ncols", ncols)

    def __setattr__(self, *a):
        raise AttributeError("RationalMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n):
        got = _IDENTITY_CACHE.get(n)
        if got is None:
            got = cls(tuple(tuple(1 if i == j else 0 for j in range(n))
                            for i in range(n)), n, _normalized=True)
            _IDENTITY_CACHE[n] = got
        return got

    @classmethod
    def zeros(cls, nrows, ncols):
        got = _ZEROS_CACHE.get((nrows, ncols))
        if got is None:
            got = cls(tuple((0,) * ncols for _ in range(nrows)), ncols, _normalized=True)
            _ZEROS_CACHE[(nrows, ncols)] = got
        return got

    @classmethod
    def from_columns(cls, cols, nrows=None):
        cols = list(cols)
        if cols:
            nrows = len(cols[0])
        return cls(tuple(tuple(c[i] for c in cols) for i in range(nrows or 0)), len(cols))

    # -- basic structure ---------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __eq__(self, other):
        return (isinstance(other, RationalMatrix) and self.shape == other.shape
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.shape, self.rows))

    def __repr__(self):
        return f"RationalMatrix({self.nrows}x{self.ncols})"

    def is_zero(self):
        return all(x == 0 for r in self.rows for x in r)

    def is_square(self):
        return self.nrows == self.ncols

    def column(self, j):
        return tuple(r[j] for r in self.rows)

    def transpose(self):
        if not self.rows:   # 0 x c transposes to c x 0
            return RationalMatrix(((),) * self.ncols, 0, _normalized=True)
        return RationalMatrix(tuple(zip(*self.rows)), self.nrows, _normalized=True)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch in +")
        return RationalMatrix(
            tuple(tuple(_norm(a + b) for a, b in zip(r, s))
                  for r, s in zip(self.rows, other.rows)),
            self.ncols, _normalized=True)

    def __sub__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch in -")
        return RationalMatrix(
            tuple(tuple(_norm(a - b) for a, b in zip(r, s))
                  for r, s in zip(self.rows, other.rows)),
            self.ncols, _normalized=True)

    def __neg__(self):
        return RationalMatrix(tuple(tuple(-a for a in r) for r in self.rows),
                              self.ncols, _normalized=True)

    def scale(self, c):
        return RationalMatrix(tuple(tuple(_norm(c * a) for a in r) for r in self.rows), self.ncols)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch in @: {self.shape} x {other.shape}")
        # zero-skipping row combination; fast for the sparse 0/1 matrices
        # that pushforward/pullback maps produce
        brows = other.rows
        p = other.ncols
        out = []
        for arow in self.rows:
            acc = [0] * p
            for k, a in enumerate(arow):
                if a:
                    brow = brows[k]
                    if a == 1:
                        for j, b in enumerate(brow):
                            if b:
                                acc[j] += b
                    else:
                        for j, b in enumerate(brow):
                            if b:
                                acc[j] += a * b
            out.append(tuple(x if type(x) is int else _norm(x) for x in acc))
        return RationalMatrix(tuple(out), p, _normalized=True)

    def apply(self, vec):
        """Matrix-vector product (vec as a sequence)."""
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple(_norm(sum(a * v for a, v in zip(r, vec) if a and v)) for r in self.rows)

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
            pv = m[prow][col]
            if pv != 1:
                inv = Fraction(1, 1) / pv
                m[prow] = [_norm(x * inv) for x in m[prow]]
            for i in range(nr):
                if i != prow and m[i][col] != 0:
                    f = m[i][col]
                    m[i] = [_norm(a - f * b) for a, b in zip(m[i], m[prow])]
            pivots.append(col)
            prow += 1
            if prow == nr:
                break
        return RationalMatrix(tuple(tuple(r) for r in m), nc), tuple(pivots)

    def rank(self):
        return len(self.rref()[1])

    def is_invertible(self):
        return self.is_square() and self.rank() == self.nrows

    def inverse(self):
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        aug = RationalMatrix(
            tuple(self.rows[i] + tuple(1 if i == j else 0 for j in range(n)) for i in range(n)),
            2 * n)
        red, pivots = aug.rref()
        if tuple(pivots[:n]) != tuple(range(n)) or len(pivots) != n:
            raise ValueError("matrix is singular")
        return RationalMatrix(tuple(r[n:] for r in red.rows), n)

    def solve(self, rhs):
        """Solve self @ X = rhs exactly; raises ValueError if inconsistent.

        self must have full column rank (unique solution); rhs is a
        RationalMatrix with matching row count.
        """
        if rhs.nrows != self.nrows:
            raise ValueError("rhs row count mismatch")
        nc = self.ncols
        aug = RationalMatrix(
            tuple(a + b for a, b in zip(self.rows, rhs.rows)), nc + rhs.ncols)
        red, pivots = aug.rref()
        lead = [p for p in pivots if p < nc]
        if len(lead) != nc:
            raise ValueError("matrix does not have full column rank")
        if any(p >= nc for p in pivots):
            raise ValueError("inconsistent system")
        sol = [[0] * rhs.ncols for _ in range(nc)]
        for i, p in enumerate(lead):
            sol[p] = list(red.rows[i][nc:])
        return RationalMatrix(tuple(tuple(r) for r in sol), rhs.ncols)
