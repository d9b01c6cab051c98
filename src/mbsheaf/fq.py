"""Type-A geometry over a prime field: flags, relative position, and E_q.

``FqContext`` indexes every subspace of F_p^n once and tabulates meet, join
and dimension by index; a flag is the chain of its subspaces as the tuple of
their indices.  Flags are keyed by their type K, the sorted tuple of simple
reflections of A_{n-1} that cells of the 2-sided complex carry: a type-K
flag, a point of G/P_K, has the subspace dimensions ``type_dims(K, n)``.
The relative position of two flags is the contingency
matrix of graded intersection dimensions, the tuple of its row tuples, which
matches the orbit labels of the 2-sided complex for the type A datum of rank
n-1.  Relative position, the Hor-reading refinement and flag coarsening are
all table lookups; no elimination runs per flag pair.  The Borel orbits on
one type are the relative positions to the standard flag (Bruhat
decomposition).  E_q carries functions on the flags of each cell's Hor type;
pullback maps come from flag coarsening, pushforward maps are computed on
orbit points and factored back through the reading, verifying on the way
that pushforwards of pulled-back functions stay pulled back.
E_q(4, 2), total dimension 69,561, is the largest size build_eq accepts:
1.5-2.5 s at 86 MB peak RSS (five runs, shared 2-vCPU VM, Python 3.11.7).
The F_p row reductions ``rref_fp``, ``in_span_fp`` and ``nullspace_fp``
reduce their inputs mod p and run the one elimination loop of
``mbsheaf.linalg``; the tables call nullspace_fp once per subspace.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .coxeter import UnsupportedTypeError, build_coxeter
from .linalg import RationalMatrix, _back_substitute, _echelon
from .report import Report
from .sheaf import MixedBruhatSheaf, subsheaf
from .xi import PRIME, SECOND, enumerate_xi, xi_id

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)

# Bound on the subspaces of F_p^n that FqContext tabulates; each of its tables
# has that many squared entries.  n <= 4 with p <= 5 fits, as does n <= 3 for
# every supported prime.
MAX_SUBSPACES = 2000


class ResourceError(RuntimeError):
    """Enumeration would exceed the configured size guard."""


class FibrewiseConstancyError(RuntimeError):
    """A pushforward of a pulled-back function is not pulled back."""


# -- F_p row-space arithmetic ---------------------------------------------------

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


def type_dims(K, n):
    """The subspace dimensions of a type-K flag of F_q^n."""
    return tuple(i + 1 for i in range(n - 1) if i not in K) + (n,)


def _type_a_poset(n, poset):
    """The 2-sided complex of A_{n-1}: built when poset is None, else checked."""
    if poset is None:
        return enumerate_xi(build_coxeter("A", n - 1))
    datum = poset.datum
    if (datum.type_label, datum.rank) != ("A", n - 1):
        raise ValueError(f"n = {n} needs an A{n - 1} poset, not {datum.type_label}{datum.rank}")
    return poset


def _entries(dims, width):
    """Contingency entries from the row-major table of dim(V_i cap W_j)."""
    rows = []
    above = (0,) * (width + 1)
    for i in range(0, len(dims), width):
        here = (0,) + dims[i:i + width]
        rows.append(tuple([here[j] - above[j] - here[j - 1] + above[j - 1]
                           for j in range(1, width + 1)]))
        above = here
    return tuple(rows)


class FqContext:
    """Flags of F_q^n for one (n, q), computed on the table of all its subspaces.

    The constructor indexes every subspace of F_q^n once, as its reduced
    echelon form, the tuple of its nonzero rows: ``spaces[x]`` is that tuple
    and ``index`` maps it back to x.  Index order is by dimension, then by
    echelon form, so the subspaces of dimension d are the run
    ``start[d]:start[d + 1]`` and index 0 is the zero subspace.
    ``meet[x][y]`` and ``join[x][y]`` are the indices of the intersection and
    the sum, ``dim[x]`` the dimension and ``meet_dim[x][y]`` the dimension of
    the intersection.  The tables are built from bit sets over the q^n
    vectors: a meet is the AND of two bit sets, and a join is the orthogonal
    complement of the meet of the complements.  Past MAX_SUBSPACES subspaces
    the constructor raises ResourceError.

    Every method keys flags by their type K: ``chains(K)`` lists the type-K
    flags as subspace-index tuples, and ``chain_index(K)`` inverts the list.
    On chains, relative position is dimension lookups of ``meet[x][y]``, the
    Hor-reading refinement is ``join[base][meet[x][y]]`` steps, and
    coarsening keeps the indices at the coarser type's dimensions; no
    elimination runs per flag or flag pair.  The Borel orbits of one type are
    its relative positions to the standard flag (``borel_orbits``).  F_2^4
    has 67 subspaces, F_3^4 212.
    """

    def __init__(self, n, q):
        if n > 4:
            raise UnsupportedTypeError("flag enumeration supports n <= 4")
        if q not in SUPPORTED_PRIMES:
            raise UnsupportedTypeError(f"unsupported field size {q}")
        self.n = n
        self.q = q
        spaces = []
        self.start = [0]
        for d in range(n + 1):
            spaces.extend(_echelon_subspaces(n, q, d))
            self.start.append(len(spaces))
        if len(spaces) > MAX_SUBSPACES:
            raise ResourceError(f"F_{q}^{n} has {len(spaces)} subspaces; the subspace "
                                f"tables hold at most {MAX_SUBSPACES}")
        self.spaces = tuple(spaces)
        self.index = {s: x for x, s in enumerate(spaces)}
        self.dim = tuple(len(s) for s in spaces)
        masks = [_members(s, q) for s in spaces]
        by_mask = {mask: x for x, mask in enumerate(masks)}
        self.meet = tuple(tuple(by_mask[mx & my] for my in masks) for mx in masks)
        self.meet_dim = tuple(tuple(self.dim[z] for z in row) for row in self.meet)
        perp = [by_mask[_members(nullspace_fp(s, q, n), q)] for s in spaces]
        self.join = tuple(tuple(perp[self.meet[perp[x]][perp[y]]] for y in range(len(spaces)))
                          for x in range(len(spaces)))
        self._chains = {}
        self._chain_index = {}
        self._projections = {}
        self._buckets = {}

    # -- enumeration ---------------------------------------------------------

    def chains(self, K):
        """The flags of type K, as subspace-index tuples in index order."""
        got = self._chains.get(K)
        if got is None:
            if not set(K) <= set(range(self.n - 1)):
                raise ValueError(f"{K} is not a type of A{self.n - 1}")
            chains = [()]
            for dim in type_dims(K, self.n):
                new = []
                for chain in chains:
                    for s in range(self.start[dim], self.start[dim + 1]):
                        if chain and self.meet[chain[-1]][s] != chain[-1]:
                            continue
                        new.append(chain + (s,))
                chains = new
            got = self._chains[K] = tuple(chains)
        return got

    def chain_index(self, K):
        got = self._chain_index.get(K)
        if got is None:
            got = self._chain_index[K] = {c: i for i, c in enumerate(self.chains(K))}
        return got

    # -- the algorithms, on chains of subspace indices ---------------------------

    def refine(self, x, y):
        """The Hor-reading chain: V_{i-1} + (V_i cap V'_j) in row-major order."""
        meet, join, dim = self.meet, self.join, self.dim
        out = []
        top = prev = 0
        for xi in x:
            base = prev
            row = meet[xi]
            for yj in y:
                base = join[base][row[yj]]
                if dim[base] > top:
                    out.append(base)
                    top = dim[base]
            prev = xi
        return tuple(out)

    def coarsen(self, chain, K):
        """Keep the subspaces at the dimensions of the coarser type K."""
        by_dim = {self.dim[s]: s for s in chain}
        return tuple(by_dim[d] for d in type_dims(K, self.n))

    def projection(self, src, dst):
        """Position in chains(src) -> position of its coarsening in chains(dst)."""
        key = (src, dst)
        got = self._projections.get(key)
        if got is None:
            index = self.chain_index(dst)
            got = tuple(index[self.coarsen(c, dst)] for c in self.chains(src))
            self._projections[key] = got
        return got

    def relative_position(self, x, y):
        """Contingency matrix of graded intersections of two chains; row tuples follow x."""
        meet_dim = self.meet_dim
        return _entries(tuple([meet_dim[a][b] for a in x for b in y]), len(y))

    # -- orbits --------------------------------------------------------------------

    def block_buckets(self, I, J):
        """All flag pairs of types I and J, bucketed by relative position."""
        key = (I, J)
        got = self._buckets.get(key)
        if got is None:
            xs, ys = self.chains(I), self.chains(J)
            meet_dim = self.meet_dim
            # bucket by the graded intersection dimensions, which determine
            # the relative position; convert each distinct key once
            buckets = {}
            for a, x in enumerate(xs):
                rows = [meet_dim[xi] for xi in x]
                for b, y in enumerate(ys):
                    dims = tuple([r[yj] for r in rows for yj in y])
                    bucket = buckets.get(dims)
                    if bucket is None:
                        buckets[dims] = [(a, b)]
                    else:
                        bucket.append((a, b))
            got = {_entries(k, len(type_dims(J, self.n))): tuple(v) for k, v in buckets.items()}
            self._buckets[key] = got
        return got

    def orbit_points(self, poset, m):
        """Indices (into the two flag lists) of the points of the orbit of cell m."""
        I, J = poset.elements[m].typeIJ
        return self.block_buckets(I, J).get(xi_to_contingency(poset, m), ())


# -- the contingency-matrix dictionary -------------------------------------------

def _root_pairs(datum):
    """Positive root index -> (a, b) with the root e_a - e_b of the type A system."""
    supports = ([i for i, x in enumerate(v) if x] for v in datum.positive_roots)
    return [(support[0], support[-1] + 1) for support in supports]


def face_to_osp(cx, face):
    """Ordered set partition of {0..n-1} of a type A face w(C_I), w = face.rep_idx.

    C_I's blocks are the consecutive runs glued by I, in decreasing coordinate
    order, and w moves coordinate a to pi(a), where w(e_a - e_{a+1}) is
    e_pi(a) - e_pi(a+1): the root action at the simple roots.
    """
    datum = cx.datum
    pairs, act = _root_pairs(datum), datum.tables["root_act"][face.rep_idx]
    pi = [None] * (datum.rank + 1)
    for a, r in enumerate(datum.simple_positions):
        p, q = pairs[abs(act[r]) - 1]
        pi[a], pi[a + 1] = (p, q) if act[r] > 0 else (q, p)
    ends = type_dims(face.type_I, len(pi))
    return tuple(frozenset(pi[i:j]) for i, j in zip((0,) + ends, ends))


def osp_to_face(cx, blocks):
    """Face of the type A braid arrangement with the given ordered set partition."""
    pos = {x: k for k, block in enumerate(blocks) for x in block}
    signs = tuple((pos[a] < pos[b]) - (pos[a] > pos[b]) for a, b in _root_pairs(cx.datum))
    return cx.faces[cx.by_sign[signs]]


def xi_to_contingency(poset, m):
    """Block-intersection matrix of the canonical face pair of a type A cell."""
    if poset.datum.type_label != "A":
        raise UnsupportedTypeError("contingency matrices require a type A datum")
    c, d = poset.elements[m].pair
    rows_osp = face_to_osp(poset.complex, c)
    cols_osp = face_to_osp(poset.complex, d)
    return tuple(tuple(len(a & b) for b in cols_osp) for a in rows_osp)


def contingency_to_xi(poset, mat):
    """The cell of a content-n contingency matrix (a tuple of row tuples of
    nonnegative integers) without zero lines."""
    if poset.datum.type_label != "A":
        raise UnsupportedTypeError("contingency matrices require a type A datum")
    if any(x < 0 for row in mat for x in row):
        raise ValueError("entries must be nonnegative")
    if len({len(row) for row in mat}) > 1:
        raise ValueError("matrix rows differ in length")
    n = poset.datum.rank + 1
    row_margins = [sum(row) for row in mat]
    col_margins = [sum(col) for col in zip(*mat)]
    if sum(row_margins) != n:
        raise ValueError(f"matrix content {sum(row_margins)} does not match n = {n}")
    if 0 in row_margins or 0 in col_margins:
        raise ValueError("matrix has a zero row or column")
    # rows: consecutive blocks; columns: pull elements out of the rows in order
    row_blocks = []
    pos = 0
    for size in row_margins:
        row_blocks.append(list(range(pos, pos + size)))
        pos += size
    col_blocks = [[] for _ in col_margins]
    for i, row in enumerate(mat):
        offset = 0
        for j, count in enumerate(row):
            col_blocks[j].extend(row_blocks[i][offset:offset + count])
            offset += count
    cx = poset.complex
    c = osp_to_face(cx, tuple(frozenset(b) for b in row_blocks))
    d = osp_to_face(cx, tuple(frozenset(b) for b in col_blocks))
    return poset.xi_orbit(c, d)


# -- E_q -------------------------------------------------------------------------

class FqMBS(MixedBruhatSheaf):
    """E_q with its geometric provenance: orbit point tables and readings."""

    def __init__(self, poset, dims, dprime, dsecond, ctx, orbit_tables, hor_maps):
        super().__init__(poset, dims, dprime, dsecond)
        self.ctx = ctx
        self.orbit_tables = orbit_tables    # element -> tuple of point pairs
        self.hor_maps = hor_maps            # element -> tuple: point -> type-Hor flag idx


def build_eq(n, q, poset=None, ctx=None):
    """The function sheaf on F_q-points of the type A orbit diagram.

    Cell m carries functions on the type-Hor(m) flags.  Sizes up to (4, 2)
    build (E_q(4, 2) has total dimension 69,561); a larger size raises
    ResourceError, and a poset not of type A_{n-1} ValueError.  Raises
    FibrewiseConstancyError if a pushforward of a pulled-back function is
    not pulled back.
    """
    if q not in (2, 3):
        raise UnsupportedTypeError("build_eq supports q in {2, 3}")
    if n > 4 or (n == 4 and q > 2):
        raise ResourceError(f"E_q({n}, {q}) is past the largest supported size, E_q(4, 2)")
    poset = _type_a_poset(n, poset)
    if ctx is None:
        ctx = FqContext(n, q)
    orbit_tables, hor_maps, dims, point_index = [], [], [], []
    refine = ctx.refine
    for m, e in enumerate(poset.elements):
        points = ctx.orbit_points(poset, m)
        xs, ys = ctx.chains(e.typeIJ[0]), ctx.chains(e.typeIJ[1])
        hindex = ctx.chain_index(e.hor)
        hmap = tuple(hindex[refine(xs[a], ys[b])]    # lands in F_Hor: exact type check
                     for a, b in points)
        orbit_tables.append(points)
        hor_maps.append(hmap)
        dims.append(len(ctx.chains(e.hor)))
        point_index.append({p: k for k, p in enumerate(points)})
    dprime, dsecond, pulls, canon = {}, {}, {}, {}
    for m, e in enumerate(poset.elements):
        for _s, nn in poset.cov[SECOND][m]:
            # pullback along the flag coarsening of the readings, one per pair
            key = e.hor, poset.elements[nn].hor
            if key not in pulls:
                mat = RationalMatrix.pullback(ctx.projection(*key), dims[nn])
                pulls[key] = canon.setdefault(mat, mat)
            dsecond[(m, nn)] = pulls[key]
        for _s, nn in poset.cov[PRIME][m]:
            proj = ctx.projection(e.typeIJ[0], poset.elements[nn].typeIJ[0])
            targets = point_index[nn]
            # acc[o][x]: how many points of m over target point o read x
            acc = [{} for _ in orbit_tables[nn]]
            for (a, b), x in zip(orbit_tables[m], hor_maps[m]):
                counts = acc[targets[(proj[a], b)]]
                counts[x] = counts.get(x, 0) + 1
            # factor through the reading of the target: fiberwise constancy
            rows = [None] * dims[nn]
            for o, counts in enumerate(acc):
                y = hor_maps[nn][o]
                if rows[y] is None:
                    rows[y] = counts
                elif rows[y] != counts:
                    raise FibrewiseConstancyError(
                        f"pushforward {xi_id(poset, m)} -> {xi_id(poset, nn)} of a "
                        f"pulled-back function is not pulled back: two points of "
                        f"{xi_id(poset, nn)} reading flag {y} receive the reading counts "
                        f"{sorted(rows[y].items())} and {sorted(counts.items())}")
            mat = RationalMatrix.from_sparse([r.items() if r is not None else () for r in rows],
                                             dims[m])
            dprime[(m, nn)] = canon.setdefault(mat, mat)    # one object per value
    return FqMBS(poset, dims, dprime, dsecond, ctx, tuple(orbit_tables), tuple(hor_maps))


# -- Hecke generators ---------------------------------------------------------------

def hecke_generators(n, q):
    """sigma_alpha = pullback-pushforward along the alpha-line fibration minus one."""
    if not 2 <= n <= 4 or q not in (2, 3):
        raise UnsupportedTypeError("hecke_generators supports 2 <= n <= 4, q in {2, 3}")
    ctx = FqContext(n, q)
    one = RationalMatrix.identity(len(ctx.chains(())))
    out = []
    for alpha in range(n - 1):
        pull = RationalMatrix.pullback(ctx.projection((), (alpha,)), len(ctx.chains((alpha,))))
        out.append(pull @ pull.transpose() - one)
    return out


# -- Borel invariants ---------------------------------------------------------------

def borel_orbits(ctx, K):
    """Partition of the type-K flag list into orbits of the standard Borel subgroup.

    B is the stabiliser of the standard flag std = span(e_0) < span(e_0, e_1)
    < ...  The orbits of G = GL_n(F_q) on pairs of flags are their relative
    positions, and G is transitive on full flags, so the B-orbits on one type
    are the relative positions to std: a flag z lies in B y exactly when
    (std, z) lies in the G-orbit of (std, y).  Each is one U-orbit, as
    B w P = U T w P = U w (w^-1 T w) P = U w P with w^-1 T w = T inside P, so
    F_2, whose torus is trivial, is no exception.  Orbits are ascending, in
    the order of their first flag, one per ``min_coset_reps(datum, K)``.
    """
    n = ctx.n
    index = ctx.index
    std = tuple(index[tuple(tuple(int(i == j) for j in range(n)) for i in range(k))]
                for k in range(1, n + 1))
    orbits = {}
    for y, chain in enumerate(ctx.chains(K)):
        orbits.setdefault(ctx.relative_position(std, chain), []).append(y)
    return tuple(map(tuple, orbits.values()))


def b_invariant_sub(E):
    """The subsheaf of Borel-invariant functions on each reading's flag space:
    one basis per reading type K, held by every cell that reads K."""
    basis_of = {}
    for K in {e.hor for e in E.poset.elements}:
        orbits = borel_orbits(E.ctx, K)
        label = {x: o for o, orbit in enumerate(orbits) for x in orbit}
        basis_of[K] = RationalMatrix.pullback([label[x] for x in range(len(label))], len(orbits))
    return subsheaf(E, [basis_of[e.hor] for e in E.poset.elements])


# -- point-level geometry -------------------------------------------------------------

def orbit_point_checks(n, q, poset=None):
    """Fiber-product orbit decomposition and anodyne affine-fiber cardinalities.

    For each n', the points of every n >='' n' are bucketed by their image
    in n', and each fiber product over n' reads, for every point of an
    m' >=' n', the bucket of its image: the work is the size of the fiber
    products, not the product of the orbit sizes.  n = 3 takes q <= 5.  A
    poset not of type A_{n-1} raises ValueError.
    """
    if n > 3:
        raise ResourceError("point checks support n <= 3")
    if n == 3 and q > 5:
        raise ResourceError(f"point checks at n = 3 support q <= 5, not q = {q}")
    poset = _type_a_poset(n, poset)
    ctx = FqContext(n, q)
    rep = Report("points", checked=0)
    failures = rep.witnesses["points"]
    points = [ctx.orbit_points(poset, m) for m in range(len(poset.elements))]
    pindex = [{p: k for k, p in enumerate(pts)} for pts in points]

    def point_map(m, nn):
        (I, J), (I2, J2) = poset.elements[m].typeIJ, poset.elements[nn].typeIJ
        proj_i, proj_j = ctx.projection(I, I2), ctx.projection(J, J2)
        return [pindex[nn][(proj_i[a], proj_j[b])] for a, b in points[m]]

    pups = poset.ups(PRIME)
    sups = poset.ups(SECOND)
    for np_ in range(len(poset.elements)):
        buckets = {}    # nn -> the second faces of nn's points, by image in np_
        for nn in sups[np_]:
            buckets[nn] = [[] for _ in points[np_]]
            for (_c, d), img in zip(points[nn], point_map(nn, np_)):
                buckets[nn][img].append(d)
        for mp in pups[np_]:
            map_mp = point_map(mp, np_)
            for nn in sups[np_]:
                if mp == np_ == nn:
                    continue
                rep.checked += 1
                fiber_product = [(a, d) for (a, _b), img in zip(points[mp], map_mp)
                                 for d in buckets[nn][img]]
                expected = [p for m in poset.sup(mp, nn) for p in points[m]]
                if sorted(fiber_product) != sorted(expected):
                    failures.append(("fiber-product", mp, np_, nn))
    for m, nn, _kind, ano in poset.comparable_pairs():
        if not ano:
            continue
        rep.checked += 1
        fibers = Counter(point_map(m, nn))
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
