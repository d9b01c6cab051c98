"""Subspaces of F_p^n: row reduction and the table of all subspaces.

``SubspaceLattice`` indexes every subspace of F_p^n once, by dimension and
then by reduced echelon form, and tabulates meet, join and dimension by
index, so that flag geometry (``mbsheaf.fq``) is table lookups with no
elimination per flag pair.  The row reductions ``rref_fp``, ``in_span_fp``
and ``nullspace_fp`` are also importable from ``mbsheaf.fq``.
"""

from __future__ import annotations

import itertools

# Bound on the subspaces of F_p^n that SubspaceLattice tabulates; each of its
# tables has that many squared entries.  n <= 4 with p <= 5 fits, as does
# n <= 3 for every supported prime.
MAX_SUBSPACES = 2000


class ResourceError(RuntimeError):
    """Enumeration would exceed the configured size guard."""


# -- F_p row-space arithmetic ---------------------------------------------------
# The lattice calls nullspace_fp once per subspace and rref_fp once per
# subspace and matrix it tabulates the action of.  The elimination-based
# flag geometry in the tests uses all three.

def rref_fp(rows, p):
    """Reduced row echelon form over F_p; returns the tuple of nonzero rows."""
    m = [list(r) for r in rows]
    if not m:
        return ()
    ncols = len(m[0])
    prow = 0
    for col in range(ncols):
        sel = None
        for i in range(prow, len(m)):
            if m[i][col] % p:
                sel = i
                break
        if sel is None:
            continue
        m[prow], m[sel] = m[sel], m[prow]
        inv = pow(m[prow][col], p - 2, p)
        m[prow] = [(x * inv) % p for x in m[prow]]
        for i in range(len(m)):
            if i != prow and m[i][col] % p:
                f = m[i][col]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[prow])]
        prow += 1
        if prow == len(m):
            break
    return tuple(tuple(r) for r in m[:prow] if any(r))


def in_span_fp(vec, echelon, p):
    v = list(vec)
    for row in echelon:
        piv = next(j for j, x in enumerate(row) if x)
        if v[piv]:
            f = v[piv]
            v = [(a - f * b) % p for a, b in zip(v, row)]
    return not any(v)


def nullspace_fp(rows, p, ncols):
    """Basis of the right kernel of the matrix over F_p."""
    ech = rref_fp(rows, p)
    pivots = [next(j for j, x in enumerate(r) if x) for r in ech]
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for row, piv in zip(ech, pivots):
            v[piv] = (-row[f]) % p
        basis.append(tuple(v))
    return basis


class Subspace:
    """Row space in canonical reduced echelon form."""

    __slots__ = ("echelon", "dim")

    def __init__(self, echelon):
        self.echelon = echelon
        self.dim = len(echelon)

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.echelon == other.echelon

    def __hash__(self):
        return hash(self.echelon)

    def __repr__(self):
        return f"Subspace(dim={self.dim})"


# -- the lattice of all subspaces ------------------------------------------------

def _echelon_subspaces(n, p, d):
    """Every d-dimensional subspace of F_p^n, sorted by reduced echelon form."""
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
            out.append(Subspace(tuple(tuple(r) for r in rows)))
    out.sort(key=lambda s: s.echelon)
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

    Index order is by dimension, then by reduced echelon form, so the
    subspaces of one dimension are the run ``start[d]:start[d + 1]`` and
    index 0 is the zero subspace.  ``meet[x][y]`` and ``join[x][y]`` are
    the indices of the intersection and the sum, ``dim[x]`` the dimension,
    ``meet_dim[x][y]`` the dimension of the intersection, and ``index``
    maps a Subspace back to its index.  The tables are built from bit sets
    over the p^n vectors: a meet is the AND of two bit sets, and a join is
    the orthogonal complement of the meet of the complements.
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
        self.p = p
        self.spaces = tuple(spaces)
        self.index = {s: x for x, s in enumerate(spaces)}
        self.dim = tuple(s.dim for s in spaces)
        masks = [_members(s.echelon, p) for s in spaces]
        by_mask = {mask: x for x, mask in enumerate(masks)}
        self.meet = tuple(tuple(by_mask[mx & my] for my in masks) for mx in masks)
        self.meet_dim = tuple(tuple(self.dim[z] for z in row) for row in self.meet)
        perp = [by_mask[_members(nullspace_fp(s.echelon, p, n), p)] for s in spaces]
        self.join = tuple(tuple(perp[self.meet[perp[x]][perp[y]]] for y in range(len(spaces)))
                          for x in range(len(spaces)))

    def image_table(self, g):
        """Subspace index -> index of its image under the invertible matrix g."""
        p = self.p
        return tuple(self.index[Subspace(rref_fp(
            [[sum(gi[k] * r[k] for k in range(len(r))) % p for gi in g] for r in s.echelon], p))]
            for s in self.spaces)
