"""Elimination-based flag geometry, the oracle of the subspace-lattice tables.

These are the algorithms ``mbsheaf.fq`` ran before it indexed every
subspace of F_q^n and tabulated meet and join: each intersection, sum and
image is an F_q row reduction (``rref_fp``) on the flags' echelon rows.
They are kept, as functions of the field size, so that tests can compare
the table lookups with them on the same flags (see
test_fq_differential.py).
"""

from __future__ import annotations

from mbsheaf.fq import Flag, _borel_generators
from mbsheaf.subspaces import Subspace, in_span_fp, nullspace_fp, rref_fp


def subspaces(lattice, d):
    """The subspaces of dimension d, in the lattice's order."""
    return lattice.spaces[lattice.start[d]:lattice.start[d + 1]]


def enumerate_flags(lattice, n, q, composition):
    """Chains of the given type, from the lattice's subspaces in order."""
    chains = [()]
    dim = 0
    for part in composition:
        dim += part
        new = []
        for chain in chains:
            for s in subspaces(lattice, dim):
                if chain and not all(in_span_fp(v, s.echelon, q)
                                     for v in chain[-1].echelon):
                    continue
                new.append(chain + (s,))
        chains = new
    return tuple(Flag(c) for c in chains)


def intersection_dim(a, b, q):
    return a.dim + b.dim - len(rref_fp(a.echelon + b.echelon, q))


def relative_position(f, g, q):
    """Contingency entries of graded intersections; rows follow the first flag."""
    dims = {}
    for i in range(len(f.chain) + 1):
        for j in range(len(g.chain) + 1):
            if i == 0 or j == 0:
                dims[(i, j)] = 0
            else:
                dims[(i, j)] = intersection_dim(f.chain[i - 1], g.chain[j - 1], q)
    rows = []
    for i in range(1, len(f.chain) + 1):
        rows.append(tuple(dims[(i, j)] - dims[(i - 1, j)] - dims[(i, j - 1)]
                          + dims[(i - 1, j - 1)]
                          for j in range(1, len(g.chain) + 1)))
    return tuple(rows)


def intersection_basis(a, b, q):
    """Echelon basis of the intersection of two row spaces."""
    n = len(a.echelon[0]) if a.echelon else 0
    reduced = []
    for v in a.echelon:
        w = list(v)
        for row in b.echelon:
            piv = next(j for j, x in enumerate(row) if x)
            if w[piv]:
                fac = w[piv]
                w = [(x - fac * y) % q for x, y in zip(w, row)]
        reduced.append(tuple(w))
    combos = nullspace_fp(tuple(zip(*reduced)), q, len(a.echelon))
    vecs = []
    for lam in combos:
        v = [0] * n
        for c, row in zip(lam, a.echelon):
            if c:
                v = [(x + c * y) % q for x, y in zip(v, row)]
        vecs.append(tuple(v))
    return rref_fp(vecs, q)


def refinement_flag(f, g, q):
    """The Hor-reading flag: V_{i-1} + (V_i cap V'_j) in row-major order."""
    chain = []
    prev_rows = ()
    prev_dim = 0
    for i in range(1, len(f.chain) + 1):
        vi = f.chain[i - 1]
        base = prev_rows
        for j in range(1, len(g.chain) + 1):
            inter = intersection_basis(vi, g.chain[j - 1], q)
            rows = rref_fp(base + inter, q)
            if len(rows) > prev_dim:
                chain.append(Subspace(rows))
                prev_dim = len(rows)
            base = rows
        prev_rows = f.chain[i - 1].echelon
    return Flag(chain)


def coarsen_flag(flag, dst_composition):
    """Keep the subspaces at the cumulative dimensions of the coarser type."""
    cums = []
    acc = 0
    for part in dst_composition:
        acc += part
        cums.append(acc)
    by_dim = {s.dim: s for s in flag.chain}
    return Flag(tuple(by_dim[c] for c in cums))


def act_flag(g, flag, p):
    chain = []
    for s in flag.chain:
        rows = [tuple(sum(g[i][k] * v[k] for k in range(len(v))) % p
                      for i in range(len(v)))
                for v in s.echelon]
        chain.append(Subspace(rref_fp(rows, p)))
    return Flag(chain)


def borel_orbits(flags, index, n, q):
    """Orbits of the standard Borel subgroup on a flag list, by breadth-first search."""
    gens = _borel_generators(n, q)
    seen = [False] * len(flags)
    orbits = []
    for start in range(len(flags)):
        if seen[start]:
            continue
        orbit = {start}
        frontier = [start]
        seen[start] = True
        while frontier:
            new = []
            for k in frontier:
                for g in gens:
                    img = index[act_flag(g, flags[k], q)]
                    if not seen[img]:
                        seen[img] = True
                        orbit.add(img)
                        new.append(img)
            frontier = new
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)
