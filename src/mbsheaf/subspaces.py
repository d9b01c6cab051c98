"""Subspaces of F_p^n: row reduction and the table of all subspaces.

``SubspaceLattice`` indexes every subspace of F_p^n once, by dimension and
then by reduced echelon form (the tuple of its nonzero rows, which is all
that represents a subspace here), and tabulates meet, join and dimension by
index, so that flag geometry (``mbsheaf.fq``) is table lookups with no
elimination per flag pair.  The row reductions ``rref_fp``, ``in_span_fp``
and ``nullspace_fp`` reduce their inputs mod p and run the one elimination
loop, ``linalg._echelon`` then ``linalg._back_substitute``; they are also
importable from ``mbsheaf.fq``.
"""

from __future__ import annotations

import itertools

from .linalg import _back_substitute, _echelon

# Bound on the subspaces of F_p^n that SubspaceLattice tabulates; each of its
# tables has that many squared entries.  n <= 4 with p <= 5 fits, as does
# n <= 3 for every supported prime.
MAX_SUBSPACES = 2000


class ResourceError(RuntimeError):
    """Enumeration would exceed the configured size guard."""


# -- F_p row-space arithmetic ---------------------------------------------------
# The lattice calls nullspace_fp once per subspace, for its complement.
# rref_fp and in_span_fp serve the elimination-based flag geometry of the
# tests, which uses all three.

def _rref_fp(rows, p, ncols):
    """The rref over F_p of the rows reduced mod p: its nonzero rows and pivots."""
    norm = p.__rmod__
    return _back_substitute(*_echelon([{j: y for j, x in enumerate(r) if (y := x % p)}
                                       for r in rows], ncols, lambda x: pow(x, p - 2, p), norm),
                            norm)


def rref_fp(rows, p):
    """Reduced row echelon form over F_p; returns the tuple of nonzero rows."""
    rows = list(rows)
    ncols = len(rows[0]) if rows else 0
    return tuple([tuple([r.get(j, 0) for j in range(ncols)]) for r in _rref_fp(rows, p, ncols)[0]])


def in_span_fp(vec, echelon, p):
    """Whether vec lies in the span of echelon, the nonzero rows of an rref."""
    return len(rref_fp([*echelon, vec], p)) == len(echelon)


def nullspace_fp(rows, p, ncols):
    """Basis of the right kernel of the matrix over F_p."""
    red, pivots = _rref_fp(rows, p, ncols)
    basis = []
    for f in [j for j in range(ncols) if j not in pivots]:
        v = [0] * ncols
        v[f] = 1
        for row, piv in zip(red, pivots):
            v[piv] = -row.get(f, 0) % p
        basis.append(tuple(v))
    return basis


# -- the lattice of all subspaces ------------------------------------------------

def _echelon_subspaces(n, p, d):
    """Every d-dimensional subspace of F_p^n as its reduced echelon rows, sorted."""
    out = []
    for pivots in itertools.combinations(range(n), d):
        free_pos = [(i, j) for i in range(d) for j in range(n)
                    if j > pivots[i] and j not in pivots]
        for values in itertools.product(range(p), repeat=len(free_pos)):
            rows = [[0] * n for _ in range(d)]
            for i, piv in enumerate(pivots):
                rows[i][piv] = 1
            for (i, j), v in zip(free_pos, values):
                rows[i][j] = v
            out.append(tuple(tuple(r) for r in rows))
    out.sort()
    return out


def _code(vec, p):
    """A vector of F_p^n as the integer with base-p digits vec."""
    c = 0
    for x in vec:
        c = c * p + x
    return c


def _members(rows, p):
    """The span of the rows as a bit set over vector codes."""
    mask = 0
    n = len(rows[0]) if rows else 0
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        vec = [sum(c * r[k] for c, r in zip(coeffs, rows)) % p for k in range(n)]
        mask |= 1 << _code(vec, p)
    return mask


class SubspaceLattice:
    """Every subspace of F_p^n, indexed once, with meet and join tabulated.

    A subspace is its reduced echelon form, the tuple of its nonzero rows;
    ``spaces[x]`` is that tuple and ``index`` maps it back to x.  Index
    order is by dimension, then by echelon form, so the subspaces of one
    dimension are the run ``start[d]:start[d + 1]`` and index 0 is the zero
    subspace.  ``meet[x][y]`` and ``join[x][y]`` are the indices of the
    intersection and the sum, ``dim[x]`` the dimension (the number of
    rows), and ``meet_dim[x][y]`` the dimension of the intersection.  The
    tables are built from bit sets over the p^n vectors: a meet is the AND
    of two bit sets, and a join is the orthogonal complement of the meet of
    the complements.
    """

    def __init__(self, n, p):
        spaces = []
        self.start = [0]
        for d in range(n + 1):
            spaces.extend(_echelon_subspaces(n, p, d))
            self.start.append(len(spaces))
        if len(spaces) > MAX_SUBSPACES:
            raise ResourceError(f"F_{p}^{n} has {len(spaces)} subspaces; the lattice "
                                f"tables hold at most {MAX_SUBSPACES}")
        self.spaces = tuple(spaces)
        self.index = {s: x for x, s in enumerate(spaces)}
        self.dim = tuple(len(s) for s in spaces)
        masks = [_members(s, p) for s in spaces]
        by_mask = {mask: x for x, mask in enumerate(masks)}
        self.meet = tuple(tuple(by_mask[mx & my] for my in masks) for mx in masks)
        self.meet_dim = tuple(tuple(self.dim[z] for z in row) for row in self.meet)
        perp = [by_mask[_members(nullspace_fp(s, p, n), p)] for s in spaces]
        self.join = tuple(tuple(perp[self.meet[perp[x]][perp[y]]] for y in range(len(spaces)))
                          for x in range(len(spaces)))
