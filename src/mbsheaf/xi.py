"""The 2-sided Coxeter complex: W-orbits of face pairs with its two orders.

An element is the simultaneous W-orbit of a pair (C, D) of faces; the first
coordinate plays the role of the imaginary part of a point of the
complexified arrangement.  The horizontal order >=' contracts the first
coordinate (its type set grows), the vertical order >='' contracts the
second.  A comparability m >= n is anodyne when both cells lie in the same
stratum of the discriminantal stratification, equivalently when the orbit
sizes agree.

Every order-dependent routine takes a side: PRIME (0) is >=' and contracts
coordinate 0, SECOND (1) is >='' and contracts coordinate 1, and the
coordinate swap tau exchanges them.  A sheaf is covariant along PRIME and
contravariant along SECOND: for a covering m > n, its PRIME map runs
E(m) -> E(n) and its SECOND map runs E(n) -> E(m) (see ``arrow``).
"""

from __future__ import annotations

from .faces import FaceComplex, subsets_sorted

PRIME, SECOND = 0, 1
SIDE_NAMES = ("prime", "second")


def arrow(side, m, n):
    """(source, target) of the map of a covering m > n on a side."""
    return (m, n) if side == PRIME else (n, m)


class OrderError(ValueError):
    """Raised when an operation requires comparable elements and gets none."""


class FlatOrbit:
    """Canonical W-orbit of a span-closed set of positive roots."""

    __slots__ = ("roots", "dim", "ident")

    def __init__(self, roots, dim, ident):
        self.roots = roots      # canonical (W-minimal) sorted tuple of root indices
        self.dim = dim
        self.ident = ident      # dense id within one XiPoset

    def __eq__(self, other):
        return isinstance(other, FlatOrbit) and self.roots == other.roots

    def __hash__(self):
        return hash(self.roots)

    def __repr__(self):
        return f"FlatOrbit(dim={self.dim}, roots={self.roots})"


class XiElement:
    """Canonical W-orbit of a face pair, with cached readings and flat."""

    __slots__ = ("index", "pair", "typeIJ", "points", "point_index",
                 "orbit_size", "hor", "ver", "flat")

    def __init__(self, index, pair, typeIJ, points):
        self.index = index
        self.pair = pair              # canonical (Face, Face)
        self.typeIJ = typeIJ          # (I, J) sorted tuples
        self.points = points          # sorted tuple of (face_idx, face_idx)
        self.point_index = {p: k for k, p in enumerate(points)}
        self.orbit_size = len(points)
        self.hor = None
        self.ver = None
        self.flat = None

    def __repr__(self):
        return f"Xi(I={self.typeIJ[0]}, J={self.typeIJ[1]}, #={self.orbit_size})"


class XiPoset:
    """All of Xi for one datum, with both orders and the stratification data."""

    def __init__(self, complex_):
        self.complex = complex_
        self.datum = complex_.datum
        self._ups = {}
        self._build_elements()
        self._build_structure()

    # -- construction -------------------------------------------------------

    def _build_elements(self):
        cx = self.complex
        act = cx.action
        nfaces = len(cx.faces)
        order = self.datum.order
        self.elements = []
        self.pair_to_elem = {}
        for c in range(nfaces):
            for d in range(nfaces):
                if (c, d) in self.pair_to_elem:
                    continue
                orbit = sorted({(act[w][c], act[w][d]) for w in range(order)})
                idx = len(self.elements)
                cf, df = cx.faces[orbit[0][0]], cx.faces[orbit[0][1]]
                elem = XiElement(idx, (cf, df), (cf.type_I, df.type_I), tuple(orbit))
                self.elements.append(elem)
                for p in orbit:
                    self.pair_to_elem[p] = idx
        self.blocks = {}
        for e in self.elements:
            self.blocks.setdefault(e.typeIJ, []).append(e.index)

    def _build_structure(self):
        cx = self.complex
        rank = self.datum.rank
        flat_registry = {}
        self.flats = []
        for e in self.elements:
            c, d = e.pair
            e.hor = cx.tits_product(c, d).type_I
            e.ver = cx.tits_product(d, c).type_I
            zero = frozenset(c.zero_set & d.zero_set)
            closed = cx.span_closure(zero)
            canon = self._flat_canonical(closed)
            if canon not in flat_registry:
                flat = FlatOrbit(canon, cx.flat_dim(canon), len(self.flats))
                flat_registry[canon] = flat
                self.flats.append(flat)
            e.flat = flat_registry[canon]
        # covering relations: one-generator contractions in each coordinate
        self.cov = ([], [])       # per side, per element: tuple of (s, target index)
        for e in self.elements:
            for side in (PRIME, SECOND):
                K = e.typeIJ[side]
                self.cov[side].append(tuple(
                    (s, self.phi(e.index, side, tuple(sorted(K + (s,)))))
                    for s in range(rank) if s not in K))

    def _flat_canonical(self, root_set):
        """W-minimal representative of the orbit of a span-closed root set."""
        if not root_set:
            return ()
        d = self.datum
        act = d.tables["root_act"]
        best = None
        for w in range(d.order):
            row = act[w]
            img = tuple(sorted(abs(row[a]) - 1 for a in root_set))
            if best is None or img < best:
                best = img
        return best

    # -- orbits and projections ----------------------------------------------

    def xi_orbit(self, c, d):
        """The element containing the pair (c, d) of faces."""
        return self.elements[self.pair_to_elem[(c.index, d.index)]]

    def phi(self, m, side, K):
        """Contraction of coordinate `side` of m into type K: Xi(K, J) or Xi(I, K)."""
        e = self.elements[m]
        if not set(e.typeIJ[side]) <= set(K):
            raise OrderError(f"cannot contract {('first', 'second')[side]} type "
                             f"{e.typeIJ[side]} to {K}")
        c, d = e.pair
        if side == PRIME:
            return self.pair_to_elem[(self.complex.coarsen(c.index, K), d.index)]
        return self.pair_to_elem[(c.index, self.complex.coarsen(d.index, K))]

    def leq_side(self, side, n, m):
        """True iff m >= n in the order of `side` (>=' or >='')."""
        em, en = self.elements[m], self.elements[n]
        return (em.typeIJ[1 - side] == en.typeIJ[1 - side]
                and set(em.typeIJ[side]) <= set(en.typeIJ[side])
                and self.phi(m, side, en.typeIJ[side]) == n)

    def leq(self, n, m):
        """Joint order: true iff m >= n."""
        em, en = self.elements[m], self.elements[n]
        if not (set(em.typeIJ[0]) <= set(en.typeIJ[0])
                and set(em.typeIJ[1]) <= set(en.typeIJ[1])):
            return False
        return self.phi(self.phi(m, PRIME, en.typeIJ[0]), SECOND, en.typeIJ[1]) == n

    def factor_through(self, m, n, side):
        """The unique x with m >= x on `side` and x >= n on the other; requires m >= n."""
        if not self.leq(n, m):
            raise OrderError("elements are not comparable")
        return self.phi(m, side, self.elements[n].typeIJ[side])

    def ups(self, side):
        """ups[n] = all m with m >= n on `side` (m = n included), ascending.

        Built once per poset and shared, so the tuples are immutable.
        """
        got = self._ups.get(side)
        if got is None:
            ups = [[] for _ in self.elements]
            subsets = subsets_sorted(self.datum.rank)
            for m, e in enumerate(self.elements):
                for K in subsets:
                    if set(e.typeIJ[side]) <= set(K):
                        ups[self.phi(m, side, K)].append(m)
            got = self._ups[side] = tuple(map(tuple, ups))
        return got

    def coverings(self):
        """Every covering relation as (side, m, n): by cell m, PRIME before SECOND."""
        for m in range(len(self.elements)):
            for side in (PRIME, SECOND):
                for _s, n in self.cov[side][m]:
                    yield side, m, n

    def pi_map(self, m, n):
        """Point-level surjection m -> n for m >= n, as a list over m.points."""
        if not self.leq(n, m):
            raise OrderError("pi_map requires m >= n")
        em, en = self.elements[m], self.elements[n]
        cx = self.complex
        I2, J2 = en.typeIJ
        out = []
        for (c, d) in em.points:
            out.append(en.point_index[(cx.coarsen(c, I2), cx.coarsen(d, J2))])
        return out

    def is_anodyne(self, m, n):
        """Same-stratum test for a comparable pair, via orbit sizes."""
        if not self.leq(n, m):
            raise OrderError("is_anodyne requires m >= n")
        return self.elements[m].orbit_size == self.elements[n].orbit_size

    def sup(self, mp, n):
        """Mixed supremum: all m with mp <='' m >=' n, ascending.

        This is ups(SECOND)[mp] & ups(PRIME)[n] by definition: m >='' mp
        fixes I_m = I(mp) and contracts J_m into J(mp), and m >=' n fixes
        J_m = J(n) and contracts I_m into I(n), so the candidates are the
        cells of block (I(mp), J(n)) lying over both, and the set is empty
        unless I(mp) <= I(n) and J(n) <= J(mp).
        """
        return sorted(set(self.ups(SECOND)[mp]).intersection(self.ups(PRIME)[n]))

    def tau(self, m):
        """Coordinate swap."""
        c, d = self.elements[m].pair
        return self.pair_to_elem[(d.index, c.index)]

    def hor(self, m):
        """Type of the Tits product C o D of the canonical pair."""
        return self.elements[m].hor

    def ver(self, m):
        """Type of the Tits product D o C of the canonical pair."""
        return self.elements[m].ver

    # -- relations listings -----------------------------------------------------

    def comparable_pairs(self):
        """All strict pairs m > n with their relation kind and anodyne flag.

        Kind is 'prime' when m >=' n, 'second' when m >='' n, and 'mixed'
        when only the joint order relates them.
        """
        out = []
        subsets = subsets_sorted(self.datum.rank)
        for m, e in enumerate(self.elements):
            I, J = e.typeIJ
            for I2 in subsets:
                if not set(I) <= set(I2):
                    continue
                for J2 in subsets:
                    if not set(J) <= set(J2):
                        continue
                    if (I2, J2) == (I, J):
                        continue
                    n = self.phi(self.phi(m, PRIME, I2), SECOND, J2)
                    if J2 == J:
                        kind = SIDE_NAMES[PRIME]
                    elif I2 == I:
                        kind = SIDE_NAMES[SECOND]
                    else:
                        kind = "mixed"
                    ano = self.elements[m].orbit_size == self.elements[n].orbit_size
                    out.append((m, n, kind, ano))
        return out

    # -- stratifications ----------------------------------------------------------

    def _anodyne_classes(self, *sides):
        """Classes generated by the anodyne coverings of the given sides."""
        parent = list(range(len(self.elements)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for side, a, b in self.coverings():
            if side not in sides or (self.elements[a].orbit_size
                                     != self.elements[b].orbit_size):
                continue
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        groups = {}
        for i in range(len(self.elements)):
            groups.setdefault(find(i), []).append(i)
        return tuple(tuple(g) for _, g in sorted(groups.items()))

    def stratification_classes(self):
        """Partitions of Xi: (S0 by flats, S1 by anodyne >='', tau-S1 by anodyne >=')."""
        groups = {}
        for e in self.elements:
            groups.setdefault(e.flat.ident, []).append(e.index)
        s0 = tuple(tuple(g) for _, g in sorted(groups.items(),
                                               key=lambda kv: kv[1][0]))
        return s0, self._anodyne_classes(SECOND), self._anodyne_classes(PRIME)

    def stratification_join_matches(self):
        """Whether the join of S1 and tau-S1 equals the flat partition S0."""
        s0, _, _ = self.stratification_classes()
        joined = self._anodyne_classes(PRIME, SECOND)
        return set(map(frozenset, joined)) == set(map(frozenset, s0))

    # -- the double-coset Bruhat order -------------------------------------------

    def min_double_rep(self, m):
        """Index of the minimal-length element of the double coset W_I u^-1 v W_J."""
        e = self.elements[m]
        I, J = e.typeIJ
        d = self.datum
        c, f = e.pair
        g = d.mul_idx(d.inv_idx(c.rep_idx), f.rep_idx)
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

    def bruhat_block_leq(self, m, n):
        """Double-coset Bruhat order within one Xi(I, J) block."""
        from .coxeter import bruhat_leq
        if self.elements[m].typeIJ != self.elements[n].typeIJ:
            raise OrderError("Bruhat block order requires elements of the same type")
        return bruhat_leq(self.datum, self.min_double_rep(m), self.min_double_rep(n))


def enumerate_xi(datum):
    """Build the full 2-sided complex for a datum."""
    return XiPoset(FaceComplex(datum))
