"""Type-A geometry over a prime field: flags, relative position, and E_q.

Every subspace of F_p^n is indexed once, and meet, join and dimension are
tabulated by index (``mbsheaf.subspaces``); a flag is a chain of subspaces
and also the tuple of their indices.  The relative position of two flags
is the contingency matrix of graded intersection dimensions, which matches
the orbit labels of the 2-sided complex for the type A datum of rank n-1.
Relative position, the Hor-reading refinement, flag coarsening and the
Borel action are all table lookups; no elimination runs per flag pair.
E_q carries functions on the flag space of the horizontal reading of each
cell; pullback maps come from flag coarsening, pushforward maps are
computed on orbit points and factored back through the reading, verifying
on the way that pushforwards of pulled-back functions stay pulled back.
E_q(4, 2), total dimension 69,561, is the largest size build_eq accepts:
4.9 s at 179 MB peak RSS (one run, 2-vCPU VM, Python 3.11.7).
"""

from __future__ import annotations

import itertools
from functools import cached_property, cmp_to_key

from .coxeter import UnsupportedTypeError, build_coxeter
from .linalg import RationalMatrix
from .report import Report
from .sheaf import MixedBruhatSheaf, subsheaf
from .subspaces import (  # noqa: F401  (rref_fp, in_span_fp, nullspace_fp re-exported)
    ResourceError, Subspace, SubspaceLattice, in_span_fp, nullspace_fp, rref_fp,
)
from .xi import PRIME, SECOND, enumerate_xi

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)


class FibrewiseConstancyError(RuntimeError):
    """A pushforward of a pulled-back function is not pulled back."""


class FqField:
    """Prime field F_p; prime fields only."""

    __slots__ = ("p",)

    def __init__(self, p):
        if p not in SUPPORTED_PRIMES:
            raise UnsupportedTypeError(f"unsupported field size {p}")
        self.p = p

    def __repr__(self):
        return f"FqField({self.p})"


class Flag:
    """Strictly increasing chain of subspaces ending at the full space."""

    __slots__ = ("chain", "composition")

    def __init__(self, chain):
        self.chain = tuple(chain)
        dims = [s.dim for s in self.chain]
        if any(b <= a for a, b in zip(dims, dims[1:])):
            raise ValueError("flag chain must be strictly increasing")
        self.composition = tuple(b - a for a, b in zip([0] + dims, dims))

    def __eq__(self, other):
        return isinstance(other, Flag) and self.chain == other.chain

    def __hash__(self):
        return hash(self.chain)

    def __repr__(self):
        return f"Flag{self.composition}"


class ContingencyMatrix:
    """Nonnegative integer matrix with cached margins."""

    __slots__ = ("entries", "row_margins", "col_margins")

    def __init__(self, entries):
        self.entries = tuple(tuple(int(x) for x in r) for r in entries)
        if any(x < 0 for r in self.entries for x in r):
            raise ValueError("entries must be nonnegative")
        self.row_margins = tuple(sum(r) for r in self.entries)
        self.col_margins = tuple(sum(c) for c in zip(*self.entries))

    @property
    def content(self):
        return sum(self.row_margins)

    def has_zero_line(self):
        return 0 in self.row_margins or 0 in self.col_margins

    def transpose(self):
        return ContingencyMatrix(tuple(zip(*self.entries)))

    def __eq__(self, other):
        return isinstance(other, ContingencyMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"ContingencyMatrix({self.entries})"


def composition_of_subset(members, n):
    """Block sizes of {0..n-1} with positions i, i+1 glued iff i in members."""
    parts = []
    cur = 1
    for i in range(n - 1):
        if i in members:
            cur += 1
        else:
            parts.append(cur)
            cur = 1
    parts.append(cur)
    return tuple(parts)


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
    """Flags of F_q^n for one (n, q), computed on the lattice of its subspaces.

    ``lattice`` (built on first use) indexes every subspace of F_q^n once
    and tabulates meet, join and dimension by index.  ``chains(comp)`` gives
    each flag of ``flags(comp)`` as the tuple of its subspace indices, in
    the same order, and ``chain_index(comp)`` inverts it.  On chains,
    relative position is dimension lookups of ``meet[x][y]``, the
    Hor-reading refinement is ``join[base][meet[x][y]]`` steps, coarsening
    keeps the indices at the coarser type's dimensions, and a matrix acts
    through ``lattice.image_table``, from subspace index to subspace index;
    no elimination runs per flag or flag pair.  At (n, q) = (4, 2) the
    lattice has 67 subspaces, and ``build_eq(4, 2)`` runs in 4.9 s at
    179 MB peak RSS (one run, 2-vCPU VM, Python 3.11.7).
    """

    def __init__(self, n, q):
        if n > 4:
            raise UnsupportedTypeError("flag enumeration supports n <= 4")
        self.n = n
        self.q = FqField(q).p       # FqField rejects an unsupported q
        self._flags = {}
        self._chains = {}
        self._chain_index = {}
        self._projections = {}
        self._buckets = {}

    @cached_property
    def lattice(self):
        return SubspaceLattice(self.n, self.q)

    # -- enumeration ---------------------------------------------------------

    def flags(self, composition):
        got = self._flags.get(composition)
        if got is None:
            if sum(composition) != self.n or any(c <= 0 for c in composition):
                raise ValueError(f"{composition} is not a composition of {self.n}")
            lat = self.lattice
            chains = [()]
            for dim in itertools.accumulate(composition):
                new = []
                for chain in chains:
                    for s in range(lat.start[dim], lat.start[dim + 1]):
                        if chain and lat.meet[chain[-1]][s] != chain[-1]:
                            continue
                        new.append(chain + (s,))
                chains = new
            got = tuple(self.flag_of(c) for c in chains)
            self._flags[composition] = got
        return got

    def chains(self, composition):
        """The flags of flags(composition), in its order, as subspace-index tuples."""
        got = self._chains.get(composition)
        if got is None:
            got = tuple(self.chain_of(f) for f in self.flags(composition))
            self._chains[composition] = got
            self._chain_index[composition] = {c: i for i, c in enumerate(got)}
        return got

    def chain_index(self, composition):
        self.chains(composition)
        return self._chain_index[composition]

    def chain_of(self, flag):
        index = self.lattice.index
        return tuple(index[s] for s in flag.chain)

    def flag_of(self, chain):
        spaces = self.lattice.spaces
        return Flag(tuple(spaces[x] for x in chain))

    # -- the algorithms, on chains of subspace indices ---------------------------

    def refine(self, x, y):
        """The Hor-reading chain: V_{i-1} + (V_i cap V'_j) in row-major order."""
        meet, join, dim = self.lattice.meet, self.lattice.join, self.lattice.dim
        out = []
        top = 0
        prev = 0
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

    def coarsen(self, chain, dst_composition):
        """Keep the subspaces at the cumulative dimensions of the coarser type."""
        dim = self.lattice.dim
        by_dim = {dim[s]: s for s in chain}
        return tuple(by_dim[c] for c in itertools.accumulate(dst_composition))

    def projection(self, src, dst):
        """Position in flags(src) -> position of its coarsening in flags(dst)."""
        key = (src, dst)
        got = self._projections.get(key)
        if got is None:
            index = self.chain_index(dst)
            got = tuple(index[self.coarsen(c, dst)] for c in self.chains(src))
            self._projections[key] = got
        return got

    def relative_position(self, f, g):
        """Contingency matrix of graded intersections of two Flags; rows follow f."""
        meet_dim = self.lattice.meet_dim
        x, y = self.chain_of(f), self.chain_of(g)
        return ContingencyMatrix(_entries(tuple([meet_dim[a][b] for a in x for b in y]), len(y)))

    # -- orbits --------------------------------------------------------------------

    def block_buckets(self, comp_i, comp_j):
        """All flag pairs of the two types, bucketed by relative position."""
        key = (comp_i, comp_j)
        got = self._buckets.get(key)
        if got is None:
            xs, ys = self.chains(comp_i), self.chains(comp_j)
            meet_dim = self.lattice.meet_dim
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
            got = {_entries(k, len(comp_j)): tuple(v) for k, v in buckets.items()}
            self._buckets[key] = got
        return got

    def orbit_points(self, poset, m):
        """Indices (into the two flag lists) of the points of the orbit of cell m."""
        e = poset.elements[m]
        comp_i = composition_of_subset(set(e.typeIJ[0]), self.n)
        comp_j = composition_of_subset(set(e.typeIJ[1]), self.n)
        mat = xi_to_contingency(poset, m)
        return self.block_buckets(comp_i, comp_j).get(mat.entries, ())


# -- the contingency-matrix dictionary -------------------------------------------

def _root_pairs(datum):
    """Positive root index -> (a, b) with the root e_a - e_b of the type A system."""
    pairs = []
    for v in datum.positive_roots:
        support = [i for i, x in enumerate(v) if x]
        pairs.append((support[0], support[-1] + 1))
    return pairs


def face_to_osp(cx, face):
    """Ordered set partition of {0..n-1} read off a type A face's sign vector."""
    datum = cx.datum
    n = datum.rank + 1
    pairs = _root_pairs(datum)
    sign = {}
    for idx, (a, b) in enumerate(pairs):
        sign[(a, b)] = face.sign_vector[idx]

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


def osp_to_face(cx, blocks):
    """Face of the type A braid arrangement with the given ordered set partition."""
    datum = cx.datum
    pos = {}
    for k, block in enumerate(blocks):
        for x in block:
            pos[x] = k
    signs = []
    for a, b in _root_pairs(datum):
        if pos[a] < pos[b]:
            signs.append(1)
        elif pos[a] > pos[b]:
            signs.append(-1)
        else:
            signs.append(0)
    return cx.faces[cx.by_sign[tuple(signs)]]


def xi_to_contingency(poset, m):
    """Block-intersection matrix of the canonical face pair of a type A cell."""
    if poset.datum.type_label != "A":
        raise UnsupportedTypeError("contingency matrices require a type A datum")
    c, d = poset.elements[m].pair
    rows_osp = face_to_osp(poset.complex, c)
    cols_osp = face_to_osp(poset.complex, d)
    return ContingencyMatrix(tuple(tuple(len(a & b) for b in cols_osp)
                                   for a in rows_osp))


def contingency_to_xi(poset, mat):
    """The cell of a content-n contingency matrix without zero lines."""
    if poset.datum.type_label != "A":
        raise UnsupportedTypeError("contingency matrices require a type A datum")
    n = poset.datum.rank + 1
    if mat.content != n:
        raise ValueError(f"matrix content {mat.content} does not match n = {n}")
    if mat.has_zero_line():
        raise ValueError("matrix has a zero row or column")
    # rows: consecutive blocks; columns: pull elements out of the rows in order
    row_blocks = []
    pos = 0
    for size in mat.row_margins:
        row_blocks.append(list(range(pos, pos + size)))
        pos += size
    col_blocks = [[] for _ in mat.col_margins]
    for i, row in enumerate(mat.entries):
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

    def __init__(self, poset, dims, dprime, dsecond, ctx, orbit_tables,
                 hor_compositions, hor_maps, embeddings):
        super().__init__(poset, dims, dprime, dsecond)
        self.ctx = ctx
        self.orbit_tables = orbit_tables            # element -> tuple of point pairs
        self.hor_compositions = hor_compositions    # element -> composition
        self.hor_maps = hor_maps                    # element -> tuple: point -> flag idx
        self.embeddings = embeddings                # element -> pullback matrix


def _cell_compositions(poset, n):
    """Per cell: the compositions of its two face types and of its Hor reading."""
    return [(composition_of_subset(set(e.typeIJ[0]), n),
             composition_of_subset(set(e.typeIJ[1]), n),
             composition_of_subset(set(e.hor), n)) for e in poset.elements]


def build_eq(n, q, poset=None, ctx=None):
    """The function sheaf on F_q-points of the type A orbit diagram.

    Sizes up to (4, 2) build: E_q(4, 2) has total dimension 69,561, and a
    larger size raises ResourceError.  Raises FibrewiseConstancyError if a
    pushforward of a pulled-back function is not pulled back.
    """
    if q not in (2, 3):
        raise UnsupportedTypeError("build_eq supports q in {2, 3}")
    if n > 4 or (n == 4 and q > 2):
        raise ResourceError(f"E_q({n}, {q}) is past the largest supported size, E_q(4, 2)")
    if poset is None:
        poset = enumerate_xi(build_coxeter("A", n - 1))
    if ctx is None:
        ctx = FqContext(n, q)
    nelem = len(poset.elements)
    comps = _cell_compositions(poset, n)
    orbit_tables = []
    hor_maps = []
    embeddings = []
    dims = []
    point_index = []
    refine = ctx.refine
    for m in range(nelem):
        comp_i, comp_j, hor_comp = comps[m]
        points = ctx.orbit_points(poset, m)
        xs, ys = ctx.chains(comp_i), ctx.chains(comp_j)
        hindex = ctx.chain_index(hor_comp)
        hmap = tuple(hindex[refine(xs[a], ys[b])]    # lands in F_Hor: exact type check
                     for a, b in points)
        orbit_tables.append(points)
        hor_maps.append(hmap)
        dims.append(len(ctx.flags(hor_comp)))
        point_index.append({p: k for k, p in enumerate(points)})
        embeddings.append(RationalMatrix.from_sparse([((x, 1),) for x in hmap], dims[m]))
    dprime = {}
    dsecond = {}
    for m in range(nelem):
        for _s, nn in poset.cov[SECOND][m]:
            # pullback along the flag coarsening of the readings
            proj = ctx.projection(comps[m][2], comps[nn][2])
            dsecond[(m, nn)] = RationalMatrix.from_sparse([((y, 1),) for y in proj], dims[nn])
        for _s, nn in poset.cov[PRIME][m]:
            proj = ctx.projection(comps[m][0], comps[nn][0])
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
                    from .io import xi_id    # io stays out of `import mbsheaf`
                    raise FibrewiseConstancyError(
                        f"pushforward {xi_id(poset, m)} -> {xi_id(poset, nn)} of a "
                        f"pulled-back function is not pulled back: two points of "
                        f"{xi_id(poset, nn)} reading flag {y} receive the reading counts "
                        f"{sorted(rows[y].items())} and {sorted(counts.items())}")
            dprime[(m, nn)] = RationalMatrix.from_sparse(
                [r.items() if r is not None else () for r in rows], dims[m])
    return FqMBS(poset, dims, dprime, dsecond, ctx, tuple(orbit_tables),
                 tuple(c[2] for c in comps), tuple(hor_maps), tuple(embeddings))


# -- Hecke generators ---------------------------------------------------------------

def hecke_generators(n, q):
    """sigma_alpha = pullback-pushforward along the alpha-line fibration minus one."""
    if n > 4 or q not in (2, 3):
        raise UnsupportedTypeError("hecke_generators supports n <= 4, q in {2, 3}")
    ctx = FqContext(n, q)
    full = (1,) * n
    size = len(ctx.flags(full))
    out = []
    for alpha in range(n - 1):
        images = ctx.projection(full, composition_of_subset({alpha}, n))
        fibres = {}
        for y, image in enumerate(images):
            fibres.setdefault(image, []).append(y)
        rows = [[(y, 1) for y in fibres[images[x]] if y != x] for x in range(size)]
        out.append(RationalMatrix.from_sparse(rows, size))
    return out


# -- Borel invariants ---------------------------------------------------------------

def _borel_generators(n, p):
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


def borel_orbits(ctx, composition):
    """Partition of the flag list into orbits of the standard Borel subgroup."""
    chains = ctx.chains(composition)
    index = ctx.chain_index(composition)
    tables = [ctx.lattice.image_table(g) for g in _borel_generators(ctx.n, ctx.q)]
    moves = [[index[tuple(t[x] for x in c)] for c in chains] for t in tables]
    seen = [False] * len(chains)
    orbits = []
    for start in range(len(chains)):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = True
        for k in orbit:
            for move in moves:
                img = move[k]
                if not seen[img]:
                    seen[img] = True
                    orbit.append(img)
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


def b_invariant_sub(E):
    """The subsheaf of Borel-invariant functions on each reading's flag space."""
    poset = E.poset
    orbits_of = {c: borel_orbits(E.ctx, c) for c in set(E.hor_compositions)}
    bases = []
    for m in range(len(poset.elements)):
        orbits = orbits_of[E.hor_compositions[m]]
        rows = [None] * E.dims[m]
        for o, orbit in enumerate(orbits):
            for x in orbit:
                rows[x] = ((o, 1),)
        bases.append(RationalMatrix.from_sparse(rows, len(orbits)))
    return subsheaf(E, bases)


# -- point-level geometry -------------------------------------------------------------

def orbit_point_checks(n, q, poset=None):
    """Fiber-product orbit decomposition and anodyne affine-fiber cardinalities."""
    if n > 3:
        raise ResourceError("point checks support n <= 3")
    if poset is None:
        poset = enumerate_xi(build_coxeter("A", n - 1))
    ctx = FqContext(n, q)
    comps = _cell_compositions(poset, n)
    rep = Report("points", checked=0)
    failures = rep.witnesses["points"]
    points = [ctx.orbit_points(poset, m) for m in range(len(poset.elements))]
    pindex = [{p: k for k, p in enumerate(pts)} for pts in points]

    def point_map(m, nn):
        proj_i = ctx.projection(comps[m][0], comps[nn][0])
        proj_j = ctx.projection(comps[m][1], comps[nn][1])
        return [pindex[nn][(proj_i[a], proj_j[b])] for a, b in points[m]]

    pups = poset.ups(PRIME)
    sups = poset.ups(SECOND)
    for np_ in range(len(poset.elements)):
        for mp in pups[np_]:
            map_mp = point_map(mp, np_)
            for nn in sups[np_]:
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
        for k, img in enumerate(point_map(m, nn)):
            fibers.setdefault(img, 0)
            fibers[img] += 1
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
