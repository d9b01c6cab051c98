"""Dense reference implementation of RationalMatrix, the oracle of the sparse core.

This is the rows-of-tuples class that ``mbsheaf.linalg`` used before it
switched to sparse storage, kept unchanged so that tests can compare the
two on the same inputs (see test_linalg_differential.py).  ``Span`` is the
incremental Gauss-Jordan that ``mbsheaf`` kept beside ``rref`` until every
subspace over Q became the nonzero rows of an rref; it is the oracle of
``generated_sub`` (see test_sheaf.py).
"""

from __future__ import annotations

from fractions import Fraction

from mbsheaf.xi import arrow


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
        if nrows is None:
            nrows = len(cols[0]) if cols else 0
        if any(len(c) != nrows for c in cols):
            raise ValueError(f"a column's length is not the row count {nrows}")
        return cls(tuple(tuple(c[i] for c in cols) for i in range(nrows)), len(cols))

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


def generated_sub_bases(E):
    """seeds -> the bases of mbsheaf.sheaf.generated_sub(E, seeds), from Spans.

    The moves (every covering map of both orders, and the inverse of every
    invertible anodyne one) are built once per sheaf.  Each span grows
    vector by vector, and every vector that grew a span is sent along the
    moves out of its cell, until no span grows.
    """
    poset = E.poset
    moves = [[] for _ in E.dims]
    for side, m, n in poset.coverings():
        mat = E.maps(side)[(m, n)]
        src, dst = arrow(side, m, n)
        moves[src].append((dst, mat))
        if (poset.elements[m].orbit_size == poset.elements[n].orbit_size
                and mat.is_invertible()):
            moves[dst].append((src, mat.inverse()))

    def bases(seeds):
        spans = [Span(d) for d in E.dims]
        new = [[] for _ in E.dims]      # per cell: vectors that grew it since its last visit
        for m, vecs in seeds.items():
            new[m] = [v for v in vecs if spans[m].add(v)]
        work = list(seeds)
        while work:
            src = work.pop(0)
            vecs, new[src] = new[src], []
            for dst, mat in moves[src]:
                for v in vecs:
                    w = mat.apply(v)
                    if spans[dst].add(w):
                        new[dst].append(w)
                        if dst not in work:
                            work.append(dst)
        return [s.basis_matrix() for s in spans]
    return bases


def per_covering_subsheaf(E, bases):
    """The covering maps of mbsheaf.sheaf.subsheaf(E, bases), one dense
    augmented rref per covering: each map applied to its source basis and
    solved against its target basis anew, with no factor or solution shared.
    Returns (dprime, dsecond); a span that a map does not preserve raises
    ValueError."""
    maps = ({}, {})
    for side, m, n in E.poset.coverings():
        src, dst = arrow(side, m, n)
        rhs = E.maps(side)[(m, n)] @ bases[src]
        basis = RationalMatrix(bases[dst].rows, bases[dst].ncols)
        maps[side][(m, n)] = basis.solve(RationalMatrix(rhs.rows, rhs.ncols)).rows
    return maps
