"""Elimination-based flag geometry, the oracle of FqContext's subspace tables.

These are the algorithms ``mbsheaf.fq`` ran before it indexed every
subspace of F_q^n and tabulated meet and join: each intersection, sum and
image is an F_q row reduction (``rref_fp``) on the flags' echelon rows.
They are kept, as functions of the field size, so that tests can compare
the table lookups with them on the same flags (see
test_fq_differential.py).  A subspace is its reduced echelon form, the
tuple of its nonzero rows, and a flag is the tuple of its subspaces.  The
oracle names a flag's type by its composition of n, the block sizes
(``composition``), where ``mbsheaf.fq`` keys it by the type K itself.
``dense_rref_fp`` is the dense F_p Gauss-Jordan that ``rref_fp`` ran before
both fields shared the sparse elimination of ``mbsheaf.linalg``; it is the
oracle of ``rref_fp``, ``in_span_fp`` and ``nullspace_fp``.
``borel_orbits`` searches the orbits of the Borel generators breadth first
through ``act_flag``, the oracle of ``mbsheaf.fq.borel_orbits``'s grouping
by relative position to the standard flag.
``hecke_generators`` builds each sigma_alpha from fibre lists, row by row,
the oracle of ``mbsheaf.fq.hecke_generators``'s pullback product.
``pairwise_point_checks`` forms each fiber product of
``mbsheaf.fq.orbit_point_checks`` pair by pair, with no size gate: the
oracle of its image buckets.
``face_to_osp`` sorts {0..n-1} by a comparator built from a type A face's
sign vector, the oracle of ``mbsheaf.fq.face_to_osp``'s reading of the
face's coset minimum as a permutation.
"""

from __future__ import annotations

from functools import cmp_to_key

from mbsheaf.fq import FqContext, _root_pairs, in_span_fp, nullspace_fp, rref_fp
from mbsheaf.linalg import RationalMatrix
from mbsheaf.report import Report
from mbsheaf.xi import PRIME, SECOND


def dense_rref_fp(rows, p):
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


def composition(K, n):
    """Block sizes of {0..n-1} with positions i, i+1 glued iff i in K."""
    parts = []
    cur = 1
    for i in range(n - 1):
        if i in K:
            cur += 1
        else:
            parts.append(cur)
            cur = 1
    parts.append(cur)
    return tuple(parts)


def subspaces(ctx, d):
    """The subspaces of dimension d, in the order of ctx's subspace index."""
    return ctx.spaces[ctx.start[d]:ctx.start[d + 1]]


def enumerate_flags(ctx, n, q, composition):
    """Chains of the given type, from ctx's subspaces in order."""
    chains = [()]
    dim = 0
    for part in composition:
        dim += part
        new = []
        for chain in chains:
            for s in subspaces(ctx, dim):
                if chain and not all(in_span_fp(v, s, q) for v in chain[-1]):
                    continue
                new.append(chain + (s,))
        chains = new
    return tuple(chains)


def intersection_dim(a, b, q):
    return len(a) + len(b) - len(rref_fp(a + b, q))


def relative_position(f, g, q):
    """Contingency entries of graded intersections; rows follow the first flag."""
    dims = {}
    for i in range(len(f) + 1):
        for j in range(len(g) + 1):
            if i == 0 or j == 0:
                dims[(i, j)] = 0
            else:
                dims[(i, j)] = intersection_dim(f[i - 1], g[j - 1], q)
    rows = []
    for i in range(1, len(f) + 1):
        rows.append(tuple(dims[(i, j)] - dims[(i - 1, j)] - dims[(i, j - 1)]
                          + dims[(i - 1, j - 1)]
                          for j in range(1, len(g) + 1)))
    return tuple(rows)


def intersection_basis(a, b, q):
    """Echelon basis of the intersection of two row spaces."""
    n = len(a[0]) if a else 0
    reduced = []
    for v in a:
        w = list(v)
        for row in b:
            piv = next(j for j, x in enumerate(row) if x)
            if w[piv]:
                fac = w[piv]
                w = [(x - fac * y) % q for x, y in zip(w, row)]
        reduced.append(tuple(w))
    combos = nullspace_fp(tuple(zip(*reduced)), q, len(a))
    vecs = []
    for lam in combos:
        v = [0] * n
        for c, row in zip(lam, a):
            if c:
                v = [(x + c * y) % q for x, y in zip(v, row)]
        vecs.append(tuple(v))
    return rref_fp(vecs, q)


def refinement_flag(f, g, q):
    """The Hor-reading flag: V_{i-1} + (V_i cap V'_j) in row-major order."""
    chain = []
    prev_rows = ()
    prev_dim = 0
    for i in range(1, len(f) + 1):
        vi = f[i - 1]
        base = prev_rows
        for j in range(1, len(g) + 1):
            inter = intersection_basis(vi, g[j - 1], q)
            rows = rref_fp(base + inter, q)
            if len(rows) > prev_dim:
                chain.append(rows)
                prev_dim = len(rows)
            base = rows
        prev_rows = f[i - 1]
    return tuple(chain)


def coarsen_flag(flag, dst_composition):
    """Keep the subspaces at the cumulative dimensions of the coarser type."""
    cums = []
    acc = 0
    for part in dst_composition:
        acc += part
        cums.append(acc)
    by_dim = {len(s): s for s in flag}
    return tuple(by_dim[c] for c in cums)


def act_flag(g, flag, p):
    chain = []
    for s in flag:
        rows = [tuple(sum(g[i][k] * v[k] for k in range(len(v))) % p
                      for i in range(len(v)))
                for v in s]
        chain.append(rref_fp(rows, p))
    return tuple(chain)


def _borel_generators(n, p):
    """Generators of the upper triangular Borel subgroup of GL_n(F_p): the
    diagonal matrices with one entry u in 2..p-1, and the elementary upper
    unipotents with a single 1 above the diagonal."""
    gens = []
    for i in range(n):
        for u in range(2, p):
            g = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
            g[i][i] = u
            gens.append(tuple(tuple(r) for r in g))
    for i in range(n):
        for j in range(i + 1, n):
            g = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
            g[i][j] = 1
            gens.append(tuple(tuple(r) for r in g))
    return gens


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


def hecke_generators(ctx, n, q):
    """sigma_alpha from fibre lists: row x holds a 1 at every other full flag
    with x's coarsening to the type that glues positions alpha and alpha + 1."""
    full = enumerate_flags(ctx, n, q, (1,) * n)
    out = []
    for alpha in range(n - 1):
        images = [coarsen_flag(f, composition({alpha}, n)) for f in full]
        fibres = {}
        for y, image in enumerate(images):
            fibres.setdefault(image, []).append(y)
        rows = [[(y, 1) for y in fibres[images[x]] if y != x] for x in range(len(full))]
        out.append(RationalMatrix.from_sparse(rows, len(full)))
    return out


def pairwise_point_checks(n, q, poset):
    """The checks of ``orbit_point_checks(n, q, poset)``, each fiber product
    formed by testing every pair of points of m' and n, quadratic in orbit size."""
    ctx = FqContext(n, q)
    types = [e.typeIJ for e in poset.elements]
    rep = Report("points", checked=0)
    failures = rep.witnesses["points"]
    points = [ctx.orbit_points(poset, m) for m in range(len(poset.elements))]
    pindex = [{p: k for k, p in enumerate(pts)} for pts in points]

    def point_map(m, nn):
        proj_i = ctx.projection(types[m][0], types[nn][0])
        proj_j = ctx.projection(types[m][1], types[nn][1])
        return [pindex[nn][(proj_i[a], proj_j[b])] for a, b in points[m]]

    for np_ in range(len(poset.elements)):
        for mp in poset.ups(PRIME)[np_]:
            map_mp = point_map(mp, np_)
            for nn in poset.ups(SECOND)[np_]:
                if mp == np_ == nn:
                    continue
                rep.checked += 1
                map_n = point_map(nn, np_)
                fiber_product = []
                for k1, (a, _b) in enumerate(points[mp]):
                    for k2, (_c, d) in enumerate(points[nn]):
                        if map_mp[k1] == map_n[k2]:
                            fiber_product.append((a, d))
                expected = []
                for m in poset.sup(mp, nn):
                    expected.extend(points[m])
                if sorted(fiber_product) != sorted(expected):
                    failures.append(("fiber-product", mp, np_, nn))
    for m, nn, _kind, ano in poset.comparable_pairs():
        if not ano:
            continue
        rep.checked += 1
        fibers = {}
        for img in point_map(m, nn):
            fibers[img] = fibers.get(img, 0) + 1
        sizes = set(fibers.values())
        ok = len(fibers) == len(points[nn]) and len(sizes) == 1
        if ok:
            size = sizes.pop()
            while size % q == 0:
                size //= q
            ok = size == 1
        if not ok:
            failures.append(("anodyne-fibers", m, nn))
    return rep


def face_to_osp(cx, face):
    """Ordered set partition of {0..n-1} read off a type A face's sign vector."""
    n = cx.datum.rank + 1
    sign = dict(zip(_root_pairs(cx.datum), face.sign_vector))

    def cmp(a, b):
        if a == b:
            return 0
        s = sign[(a, b)] if a < b else -sign[(b, a)]
        return -s

    order = sorted(range(n), key=cmp_to_key(cmp))
    blocks = []
    for x in order:
        if blocks and cmp(blocks[-1][0], x) == 0:
            blocks[-1].append(x)
        else:
            blocks.append([x])
    return tuple(frozenset(b) for b in blocks)
