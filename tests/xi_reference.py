"""Subset and block scans of Xi, the oracles of the table walks in ``mbsheaf.xi``.

``XiPoset`` tabulates each order once (``cov``, ``downs``, ``ups``) and
reads relations off the tables.  The functions here are the algorithms it
ran before: contract a cell into every type subset containing its own
with ``phi``, or scan a whole Xi(I, J) block.  They are kept so that tests
can compare both on the same cells (see test_faces_xi.py).  The blocks
themselves (``blocks``), the double-coset Bruhat order and
``factor_through`` live here too: only tests read them.
``span_closure_flats`` is the per-cell flat computation that ``XiPoset``
ran before it read each cell's flat off its Hor type, and
``anodyne_classes`` the union-find over anodyne coverings that found the
S1 and tau-S1 partitions before ``stratification_classes`` read them off
each cell's (I, Hor) and (J, Ver).

The face geometry that no construction reads lives here as well: the
closure order ``face_leq``, ``face_dim``, ``associated``, the separating
root count ``delta_faces``, and ``face_distance``, a breadth-first gallery
search that tests compare ``delta_faces`` against.
"""

from __future__ import annotations

from functools import lru_cache

from mbsheaf.coxeter import bruhat_leq
from mbsheaf.faces import subsets_sorted
from mbsheaf.linalg import RationalMatrix
from mbsheaf.xi import PRIME, SECOND, SIDE_NAMES, OrderError
from tables_reference import mul_idx


@lru_cache(maxsize=8)
def blocks(xi):
    """The cells of each Xi(I, J) block by (I, J), both in the order of xi.elements."""
    out = {}
    for e in xi.elements:
        out.setdefault(e.typeIJ, []).append(e.index)
    return {key: tuple(cells) for key, cells in out.items()}


def block_scan_sup(xi, mp, n):
    """All m with mp <='' m >=' n, ascending as the block lists them."""
    emp, en = xi.elements[mp], xi.elements[n]
    I1, J2 = emp.typeIJ
    I2, J1 = en.typeIJ
    if not (set(I1) <= set(I2) and set(J1) <= set(J2)):
        return []
    return [m for m in blocks(xi).get((I1, J1), ())
            if xi.phi(m, SECOND, J2) == mp and xi.phi(m, PRIME, I2) == n]


def subset_scan_ups(xi, side):
    """ups[n] = all m with m >= n on `side` (m = n included), ascending."""
    ups = [[] for _ in xi.elements]
    subsets = subsets_sorted(xi.datum.rank)
    for m, e in enumerate(xi.elements):
        for K in subsets:
            if set(e.typeIJ[side]) <= set(K):
                ups[xi.phi(m, side, K)].append(m)
    return tuple(map(tuple, ups))


def subset_scan_comparable_pairs(xi):
    """All strict pairs m > n as (m, n, kind, anodyne), by m, then I(n), then J(n)."""
    out = []
    subsets = subsets_sorted(xi.datum.rank)
    for m, e in enumerate(xi.elements):
        I, J = e.typeIJ
        for I2 in subsets:
            if not set(I) <= set(I2):
                continue
            for J2 in subsets:
                if not set(J) <= set(J2):
                    continue
                if (I2, J2) == (I, J):
                    continue
                n = xi.phi(xi.phi(m, PRIME, I2), SECOND, J2)
                if J2 == J:
                    kind = SIDE_NAMES[PRIME]
                elif I2 == I:
                    kind = SIDE_NAMES[SECOND]
                else:
                    kind = "mixed"
                ano = xi.elements[m].orbit_size == xi.elements[n].orbit_size
                out.append((m, n, kind, ano))
    return out


def factor_through(xi, m, n, side):
    """The unique x with m >= x on `side` and x >= n on the other; requires m >= n."""
    if not xi.leq(n, m):
        raise OrderError("elements are not comparable")
    return xi.phi(m, side, xi.elements[n].typeIJ[side])


def min_double_rep(xi, m):
    """Index of the minimal-length element of the double coset W_I u^-1 v W_J."""
    e = xi.elements[m]
    I, J = e.typeIJ
    d = xi.datum
    c, f = e.pair
    g = mul_idx(d, d.inv_idx(c.rep_idx), f.rep_idx)
    moved = True
    while moved:
        moved = False
        for s in I:
            if d.has_left_descent(g, s):
                g = d.tables["left"][s][g]
                moved = True
        for s in J:
            if d.has_right_descent(g, s):
                g = d.tables["right"][g][s]
                moved = True
    return g


def bruhat_block_leq(xi, m, n):
    """Double-coset Bruhat order within one Xi(I, J) block."""
    if xi.elements[m].typeIJ != xi.elements[n].typeIJ:
        raise OrderError("Bruhat block order requires elements of the same type")
    return bruhat_leq(xi.datum, min_double_rep(xi, m), min_double_rep(xi, n))


def span_closure_flats(xi):
    """(roots, dim, ident) of every cell's flat, in the order of xi.elements.

    The zero set c.zero_set & d.zero_set of the cell's pair is closed under
    rational span by exact ranks (a root joins when it leaves the rank
    unchanged), its W-minimal image is found by a loop over W, the flat's
    dimension is rank minus the rank of those roots, and the idents number
    the flats in the order of their first cell.
    """
    datum = xi.datum
    roots, rank = datum.positive_roots, datum.rank
    act = datum.tables["root_act"]
    closures, registry, out = {}, {}, []
    for e in xi.elements:
        c, d = e.pair
        zero = c.zero_set & d.zero_set
        if zero not in closures:
            rows = [roots[a] for a in zero]
            r = RationalMatrix(rows, rank).rank()
            closures[zero] = [b for b in range(len(roots))
                              if RationalMatrix(rows + [roots[b]], rank).rank() == r]
        canon = min(tuple(sorted(abs(act[w][a]) - 1 for a in closures[zero]))
                    for w in range(datum.order))
        if canon not in registry:
            dim = rank - RationalMatrix([roots[a] for a in canon], rank).rank()
            registry[canon] = (canon, dim, len(registry))
        out.append(registry[canon])
    return out


def anodyne_classes(xi, *sides):
    """Classes generated by the anodyne coverings of the given sides."""
    parent = list(range(len(xi.elements)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for side, a, b in xi.coverings():
        if side not in sides or (xi.elements[a].orbit_size
                                 != xi.elements[b].orbit_size):
            continue
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups = {}
    for i in range(len(xi.elements)):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(g) for _, g in sorted(groups.items()))


def face_leq(a, b):
    """Closure order: a lies in the closure of b."""
    return all(sa == 0 or sa == sb for sa, sb in zip(a.sign_vector, b.sign_vector))


def face_dim(cx, face):
    """Dimension of the face's linear span: rank - |I|."""
    return cx.datum.rank - len(face.type_I)


def associated(c, d):
    """Equal linear spans, i.e. equal (span-closed) zero sets."""
    return c.zero_set == d.zero_set


def delta_faces(c, d):
    """Number of roots alpha (over all of Delta) with alpha|_c > 0 > alpha|_d."""
    if not associated(c, d):
        raise ValueError("delta_faces requires associated faces")
    # a positive root alpha counts when sc > 0 > sd, its negative when sc < 0 < sd
    return sum(1 for sc, sd in zip(c.sign_vector, d.sign_vector) if sc * sd < 0)


def face_distance(cx, c, d):
    """Minimal gallery length between associated faces, by breadth-first search."""
    if not associated(c, d):
        raise ValueError("face_distance requires associated faces")
    if c.index == d.index:
        return 0
    cls = [f for f in cx.faces if f.zero_set == c.zero_set]
    m = face_dim(cx, c)
    walls = [f for f in cx.faces if face_dim(cx, f) == m - 1]
    adjacent = {f.index: [] for f in cls}
    for i, f in enumerate(cls):
        for g in cls[i + 1:]:
            if any(face_leq(p, f) and face_leq(p, g) for p in walls):
                adjacent[f.index].append(g.index)
                adjacent[g.index].append(f.index)
    dist = {c.index: 0}
    frontier = [c.index]
    while frontier:
        new = []
        for i in frontier:
            for j in adjacent[i]:
                if j not in dist:
                    dist[j] = dist[i] + 1
                    if j == d.index:
                        return dist[j]
                    new.append(j)
        frontier = new
    raise ValueError("faces not connected by a gallery")
