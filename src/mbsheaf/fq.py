"""Type-A geometry over a prime field: flags, relative position, and E_q.

Flags are chains of row-echelon subspaces of F_p^n; the relative position
of two flags is the contingency matrix of graded intersection dimensions,
which matches the orbit labels of the 2-sided complex for the type A datum
of rank n-1.  E_q carries functions on the flag space of the horizontal
reading of each cell; pullback maps come from flag coarsening, pushforward
maps are computed on orbit points and factored back through the reading,
verifying on the way that pushforwards of pulled-back functions stay pulled
back.
"""

from __future__ import annotations

import itertools
from functools import cmp_to_key

from .coxeter import UnsupportedTypeError, build_coxeter
from .linalg import RationalMatrix
from .sheaf import MixedBruhatSheaf
from .xi import enumerate_xi

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)


class ResourceError(RuntimeError):
    """Enumeration would exceed the configured size guard."""


class FqField:
    """Prime field F_p; prime fields only."""

    __slots__ = ("p",)

    def __init__(self, p):
        if p not in SUPPORTED_PRIMES:
            raise UnsupportedTypeError(f"unsupported field size {p}")
        self.p = p

    def __repr__(self):
        return f"FqField({self.p})"


# -- F_p row-space arithmetic ---------------------------------------------------

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


class FqContext:
    """Cached flag enumeration and orbit tables for one (n, q)."""

    def __init__(self, n, q, max_flags=10 ** 6):
        if n > 4:
            raise UnsupportedTypeError("flag enumeration supports n <= 4")
        self.n = n
        self.field = FqField(q)
        self.q = q
        self.max_flags = max_flags
        self._subspaces = {}
        self._flags = {}
        self._flag_index = {}
        self._buckets = {}

    # -- enumeration ---------------------------------------------------------

    def subspaces(self, d):
        got = self._subspaces.get(d)
        if got is None:
            n, p = self.n, self.q
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
            got = tuple(out)
            self._subspaces[d] = got
        return got

    def flags(self, composition):
        got = self._flags.get(composition)
        if got is None:
            if sum(composition) != self.n or any(c <= 0 for c in composition):
                raise ValueError(f"{composition} is not a composition of {self.n}")
            chains = [()]
            dim = 0
            for part in composition:
                dim += part
                bigger = self.subspaces(dim)
                new = []
                for chain in chains:
                    for s in bigger:
                        if chain and not all(in_span_fp(v, s.echelon, self.q)
                                             for v in chain[-1].echelon):
                            continue
                        new.append(chain + (s,))
                        if len(new) > self.max_flags:
                            raise ResourceError("flag enumeration guard exceeded")
                chains = new
            got = tuple(Flag(c) for c in chains)
            self._flags[composition] = got
            self._flag_index[composition] = {f: i for i, f in enumerate(got)}
        return got

    def flag_index(self, composition):
        self.flags(composition)
        return self._flag_index[composition]

    # -- relative position ------------------------------------------------------

    def intersection_dim(self, a, b):
        return a.dim + b.dim - len(rref_fp(a.echelon + b.echelon, self.q))

    def relative_position(self, f, g):
        """Contingency matrix of graded intersections; rows follow the first flag."""
        dims = {}
        for i in range(len(f.chain) + 1):
            for j in range(len(g.chain) + 1):
                if i == 0 or j == 0:
                    dims[(i, j)] = 0
                else:
                    dims[(i, j)] = self.intersection_dim(f.chain[i - 1], g.chain[j - 1])
        rows = []
        for i in range(1, len(f.chain) + 1):
            rows.append(tuple(dims[(i, j)] - dims[(i - 1, j)] - dims[(i, j - 1)]
                              + dims[(i - 1, j - 1)]
                              for j in range(1, len(g.chain) + 1)))
        return ContingencyMatrix(rows)

    def intersection_basis(self, a, b):
        """Echelon basis of the intersection of two row spaces."""
        reduced = []
        for v in a.echelon:
            w = list(v)
            for row in b.echelon:
                piv = next(j for j, x in enumerate(row) if x)
                if w[piv]:
                    fac = w[piv]
                    w = [(x - fac * y) % self.q for x, y in zip(w, row)]
            reduced.append(tuple(w))
        combos = nullspace_fp(tuple(zip(*reduced)), self.q, len(a.echelon))
        vecs = []
        for lam in combos:
            v = [0] * self.n
            for c, row in zip(lam, a.echelon):
                if c:
                    v = [(x + c * y) % self.q for x, y in zip(v, row)]
            vecs.append(tuple(v))
        return rref_fp(vecs, self.q)

    def refinement_flag(self, f, g):
        """The Hor-reading flag: V_{i-1} + (V_i cap V'_j) in row-major order."""
        chain = []
        prev_rows = ()
        prev_dim = 0
        for i in range(1, len(f.chain) + 1):
            vi = f.chain[i - 1]
            base = prev_rows
            for j in range(1, len(g.chain) + 1):
                inter = self.intersection_basis(vi, g.chain[j - 1])
                rows = rref_fp(base + inter, self.q)
                if len(rows) > prev_dim:
                    chain.append(Subspace(rows))
                    prev_dim = len(rows)
                base = rows
            prev_rows = f.chain[i - 1].echelon
        return Flag(chain)

    def coarsen_flag(self, flag, dst_composition):
        """Keep the subspaces at the cumulative dimensions of the coarser type."""
        cums = []
        acc = 0
        for part in dst_composition:
            acc += part
            cums.append(acc)
        by_dim = {s.dim: s for s in flag.chain}
        return Flag(tuple(by_dim[c] for c in cums))

    # -- orbits --------------------------------------------------------------------

    def block_buckets(self, comp_i, comp_j):
        """All flag pairs of the two types, bucketed by relative position."""
        key = (comp_i, comp_j)
        got = self._buckets.get(key)
        if got is None:
            fi = self.flags(comp_i)
            fj = self.flags(comp_j)
            buckets = {}
            for a, f in enumerate(fi):
                for b, g in enumerate(fj):
                    buckets.setdefault(self.relative_position(f, g).entries,
                                       []).append((a, b))
            got = {k: tuple(v) for k, v in buckets.items()}
            self._buckets[key] = got
        return got

    def orbit_points(self, poset, m):
        """Indices (into the two flag lists) of the points of the orbit of cell m."""
        e = poset.elements[m]
        comp_i = composition_of_subset(set(e.typeIJ[0]), self.n)
        comp_j = composition_of_subset(set(e.typeIJ[1]), self.n)
        mat = xi_to_contingency(poset, m)
        return self.block_buckets(comp_i, comp_j).get(mat.entries, ())


def enumerate_flags(n, q, composition, max_flags=10 ** 6):
    """All flags of the given type, deterministic order, counted by the
    Gaussian multinomial; raises ResourceError past the size guard."""
    return FqContext(n, q, max_flags=max_flags).flags(tuple(composition))


def relative_position(f, g, q):
    """Contingency matrix of two flags of the same ambient space over F_q."""
    n = len(f.chain[-1].echelon[0]) if f.chain[-1].echelon else 0
    return FqContext(n, q).relative_position(f, g)


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


class PointCheckReport:
    def __init__(self, failures, checked):
        self.failures = tuple(failures)
        self.checked = checked

    @property
    def ok(self):
        return not self.failures

    def summary(self):
        return "PASS" if self.ok else f"FAIL ({len(self.failures)} of {self.checked})"


def build_eq(n, q, poset=None, allow_large=False, ctx=None):
    """The function sheaf on F_q-points of the type A orbit diagram."""
    if q not in (2, 3):
        raise UnsupportedTypeError("build_eq supports q in {2, 3}")
    if n > 3 and not allow_large:
        raise ResourceError("n = 4 is gated behind allow_large=True")
    if poset is None:
        poset = enumerate_xi(build_coxeter("A", n - 1))
    if ctx is None:
        ctx = FqContext(n, q)
    nelem = len(poset.elements)
    orbit_tables = []
    hor_comps = []
    hor_maps = []
    embeddings = []
    dims = []
    point_index = []
    for m in range(nelem):
        e = poset.elements[m]
        points = ctx.orbit_points(poset, m)
        comp_i = composition_of_subset(set(e.typeIJ[0]), n)
        comp_j = composition_of_subset(set(e.typeIJ[1]), n)
        hor_comp = composition_of_subset(set(e.hor), n)
        fi = ctx.flags(comp_i)
        fj = ctx.flags(comp_j)
        hindex = ctx.flag_index(hor_comp)
        hmap = []
        for (a, b) in points:
            refined = ctx.refinement_flag(fi[a], fj[b])
            hmap.append(hindex[refined])    # lands in F_Hor: exact type check
        orbit_tables.append(points)
        hor_comps.append(hor_comp)
        hor_maps.append(tuple(hmap))
        dims.append(len(ctx.flags(hor_comp)))
        point_index.append({p: k for k, p in enumerate(points)})
        embeddings.append(RationalMatrix.from_sparse([((x, 1),) for x in hmap], dims[m]))
    dprime = {}
    dsecond = {}
    for m in range(nelem):
        em = poset.elements[m]
        comp_i_m = composition_of_subset(set(em.typeIJ[0]), n)
        for _s, nn in poset.cov_second[m]:
            # pullback along the flag coarsening of the readings
            hm, hn = hor_comps[m], hor_comps[nn]
            hn_index = ctx.flag_index(hn)
            rows = [((hn_index[ctx.coarsen_flag(flag, hn)], 1),) for flag in ctx.flags(hm)]
            dsecond[(m, nn)] = RationalMatrix.from_sparse(rows, dims[nn])
        for _s, nn in poset.cov_prime[m]:
            en = poset.elements[nn]
            comp_i_n = composition_of_subset(set(en.typeIJ[0]), n)
            fi_n_index = ctx.flag_index(comp_i_n)
            fi_m = ctx.flags(comp_i_m)
            # acc[o][x]: how many points of m over target point o read x
            acc = [{} for _ in orbit_tables[nn]]
            for k, (a, b) in enumerate(orbit_tables[m]):
                target = (fi_n_index[ctx.coarsen_flag(fi_m[a], comp_i_n)], b)
                counts = acc[point_index[nn][target]]
                x = hor_maps[m][k]
                counts[x] = counts.get(x, 0) + 1
            # factor through the reading of the target: fiberwise constancy
            rows = [None] * dims[nn]
            for o, counts in enumerate(acc):
                y = hor_maps[nn][o]
                if rows[y] is None:
                    rows[y] = counts
                elif rows[y] != counts:
                    raise AssertionError(
                        "pushforward of a pulled-back function is not pulled back")
            dprime[(m, nn)] = RationalMatrix.from_sparse(
                [r.items() if r is not None else () for r in rows], dims[m])
    return FqMBS(poset, dims, dprime, dsecond, ctx, tuple(orbit_tables),
                 tuple(hor_comps), tuple(hor_maps), tuple(embeddings))


# -- Hecke generators ---------------------------------------------------------------

def hecke_generators(n, q):
    """sigma_alpha = pullback-pushforward along the alpha-line fibration minus one."""
    if n > 4 or q not in (2, 3):
        raise UnsupportedTypeError("hecke_generators supports n <= 4, q in {2, 3}")
    ctx = FqContext(n, q)
    full = (1,) * n
    flags = ctx.flags(full)
    out = []
    for alpha in range(n - 1):
        comp = composition_of_subset({alpha}, n)
        cindex = ctx.flag_index(comp)
        images = [cindex[ctx.coarsen_flag(f, comp)] for f in flags]
        fibres = {}
        for y, image in enumerate(images):
            fibres.setdefault(image, []).append(y)
        rows = [[(y, 1) for y in fibres[images[x]] if y != x] for x in range(len(flags))]
        out.append(RationalMatrix.from_sparse(rows, len(flags)))
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


def act_flag(g, flag, p):
    chain = []
    for s in flag.chain:
        rows = [tuple(sum(g[i][k] * v[k] for k in range(len(v))) % p
                      for i in range(len(v)))
                for v in s.echelon]
        chain.append(Subspace(rref_fp(rows, p)))
    return Flag(chain)


def borel_orbits(ctx, composition):
    """Partition of the flag list into orbits of the standard Borel subgroup."""
    flags = ctx.flags(composition)
    index = ctx.flag_index(composition)
    gens = _borel_generators(ctx.n, ctx.q)
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
                    img = index[act_flag(g, flags[k], ctx.q)]
                    if not seen[img]:
                        seen[img] = True
                        orbit.add(img)
                        new.append(img)
            frontier = new
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


def b_invariant_sub(E):
    """The subsheaf of Borel-invariant functions on each reading's flag space."""
    poset = E.poset
    ctx = E.ctx
    bases = []
    dims = []
    for m in range(len(poset.elements)):
        orbits = borel_orbits(ctx, E.hor_compositions[m])
        cols = []
        for orbit in orbits:
            cols.append(tuple(1 if x in orbit else 0 for x in range(E.dims[m])))
        bases.append(RationalMatrix.from_columns(cols, E.dims[m]))
        dims.append(len(orbits))
    dprime = {}
    dsecond = {}
    for m in range(len(poset.elements)):
        for _s, nn in poset.cov_prime[m]:
            dprime[(m, nn)] = bases[nn].solve(E.dprime[(m, nn)] @ bases[m])
        for _s, nn in poset.cov_second[m]:
            dsecond[(m, nn)] = bases[m].solve(E.dsecond[(m, nn)] @ bases[nn])
    sub = MixedBruhatSheaf(poset, dims, dprime, dsecond)
    sub.bases = bases
    return sub


# -- point-level geometry -------------------------------------------------------------

def orbit_point_checks(n, q, poset=None):
    """Fiber-product orbit decomposition and anodyne affine-fiber cardinalities."""
    if n > 3:
        raise ResourceError("point checks support n <= 3")
    if poset is None:
        poset = enumerate_xi(build_coxeter("A", n - 1))
    ctx = FqContext(n, q)
    failures = []
    checked = 0
    points = [ctx.orbit_points(poset, m) for m in range(len(poset.elements))]
    pindex = [{p: k for k, p in enumerate(pts)} for pts in points]

    def point_map(m, nn):
        em, en = poset.elements[m], poset.elements[nn]
        ci = composition_of_subset(set(em.typeIJ[0]), n)
        cj = composition_of_subset(set(em.typeIJ[1]), n)
        ti = composition_of_subset(set(en.typeIJ[0]), n)
        tj = composition_of_subset(set(en.typeIJ[1]), n)
        fi, fj = ctx.flags(ci), ctx.flags(cj)
        idx_i, idx_j = ctx.flag_index(ti), ctx.flag_index(tj)
        out = []
        for (a, b) in points[m]:
            out.append(pindex[nn][(idx_i[ctx.coarsen_flag(fi[a], ti)],
                                   idx_j[ctx.coarsen_flag(fj[b], tj)])])
        return out

    from .sheaf import _prime_ups, _second_ups
    pups = _prime_ups(poset)
    sups = _second_ups(poset)
    for np_ in range(len(poset.elements)):
        for mp in pups[np_]:
            map_mp = point_map(mp, np_)
            for nn in sups[np_]:
                if mp == np_ == nn:
                    continue
                checked += 1
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
        checked += 1
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
    return PointCheckReport(failures, checked)
