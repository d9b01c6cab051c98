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

Each order is tabulated once per poset: ``cov[side]`` lists the coverings
of every cell, ``up_covers[side]`` every cell covering it, ``downs(side)``
every cell below it and ``ups(side)`` every cell above it.  The relation
listings, the axiom checks and the Cousin stalks walk these tables instead
of contracting over all type subsets.
Contractions and the joint order read the face complex's coarsening tables.
A cell's points are read off its coset table (``coset_tables``, one per
distinct table: 34 for A3's 281 cells): ``at[w]``, the position of w.x0
(x0 = points[0]), and ``reps[k]``, the last w with w.x0 = x_k.  A point
projection commutes with W, so the image of x0 fixes it: ``cov_base`` keeps
that image for each covering, and ``pi_map`` and ``point_action`` read the
rest off the tables.

A cell's flat depends only on its Hor type: the sign rule of the Tits
product gives zero(C) & zero(D) = zero(C o D), and C o D, of type Hor, is
a W-translate of the dominant face K_Hor.  So the W-orbit of the flat is
that of K_Hor's zero set, found once per type (``flat_of_type``), and its
dimension is rank - |Hor| (see ``faces`` for why zero sets are span-closed).
"""

from __future__ import annotations

from functools import cached_property

from .faces import FaceComplex

PRIME, SECOND = 0, 1
SIDE_NAMES = ("prime", "second")


def arrow(side, m, n):
    """(source, target) of the map of a covering m > n on a side."""
    return (m, n) if side == PRIME else (n, m)


def xi_id(poset, m):
    """The canonical cell id ``I:w|J:w`` of the file formats: each face's type and rep_idx."""
    c, d = poset.elements[m].pair
    left = "".join(map(str, c.type_I))
    right = "".join(map(str, d.type_I))
    return f"{left}:{c.rep_idx}|{right}:{d.rep_idx}"


class OrderError(ValueError):
    """Raised when an operation requires comparable elements and gets none."""


class FlatOrbit:
    """Canonical W-orbit of the zero set of a face: a W-orbit of flats."""

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
                 "orbit_size", "hor", "ver", "flat", "table")

    def __init__(self, index, pair, typeIJ, points):
        self.index = index
        self.pair = pair              # canonical (Face, Face)
        self.typeIJ = typeIJ          # (I, J) sorted tuples
        self.points = points          # sorted tuple of (face_idx, face_idx)
        self.point_index = {p: k for k, p in enumerate(points)}
        self.orbit_size = len(points)
        # the readings, the flat and the index of the cell's coset table
        self.hor = self.ver = self.flat = self.table = None

    def __repr__(self):
        return f"Xi(I={self.typeIJ[0]}, J={self.typeIJ[1]}, #={self.orbit_size})"


class XiPoset:
    """All of Xi for one datum, with both orders and the stratification data."""

    def __init__(self, complex_):
        self.complex = complex_
        self.datum = complex_.datum
        self._downs, self._ups = {}, {}
        self._second_up_sets = None    # frozensets of ups(SECOND), for sup
        self._flats = {}               # canonical roots -> FlatOrbit, by first cell
        self._type_flats = {}          # type -> FlatOrbit
        self._build_elements()
        self._build_structure()

    # -- construction -------------------------------------------------------

    def _build_elements(self):
        cx = self.complex
        cols = tuple(zip(*cx.action))     # cols[f][w] = w . f
        self.elements = []
        self.pair_to_elem = {}
        tables = {}                       # at -> its index in coset_tables
        # Orbits are numbered in the order of their first pair (c, d).  The
        # orbit of (w K_I, d) holds (K_I, w^-1 d), and the dominant face K_I
        # comes first among the faces of type I, so every first pair has a
        # dominant c: the other faces start no orbit.  The loop over d meets
        # the least d with (c, d) in its orbit first, so (c, d) is the base point.
        for c in (cx.dominant_face(I).index for I in cx.subsets):
            for d in range(len(cx.faces)):
                if (c, d) in self.pair_to_elem:
                    continue
                moved = tuple(zip(cols[c], cols[d]))     # w . (c, d), by w
                idx = len(self.elements)
                cf, df = cx.faces[c], cx.faces[d]
                e = XiElement(idx, (cf, df), (cf.type_I, df.type_I), tuple(sorted(set(moved))))
                e.table = tables.setdefault(tuple(map(e.point_index.__getitem__, moved)),
                                            len(tables))
                self.elements.append(e)
                self.pair_to_elem.update(dict.fromkeys(e.points, idx))
        order = range(self.datum.order)
        self.coset_tables = tuple((at, tuple(dict(sorted(zip(at, order))).values()))
                                  for at in tables)

    def _build_structure(self):
        cx = self.complex
        rank = self.datum.rank
        for e in self.elements:
            c, d = e.pair
            e.hor = cx.tits_product(c, d).type_I
            e.ver = cx.tits_product(d, c).type_I
            e.flat = self.flat_of_type(e.hor)
        # covering relations: one-generator contractions in each coordinate,
        # per side, per element: tuple of (s, target index), and in cov_base
        # the position in each target of the image of the base point
        self.cov, self.cov_base = ([], []), ([], [])
        for e in self.elements:
            for side in (PRIME, SECOND):
                K, cov, base = e.typeIJ[side], [], []
                for s in range(rank):
                    if s not in K:
                        p = self._contract(e.index, side, tuple(sorted(K + (s,))))
                        cov.append((s, self.pair_to_elem[p]))
                        base.append(self.elements[cov[-1][1]].point_index[p])
                self.cov[side].append(tuple(cov))
                self.cov_base[side].append(tuple(base))

    def flat_of_type(self, K):
        """The W-orbit of flats spanned by the faces of type K."""
        K = tuple(sorted(K))
        if K not in self._type_flats:
            canon = self._flat_canonical(self.complex.dominant_face(K).zero_set)
            self._type_flats[K] = self._flats.setdefault(
                canon, FlatOrbit(canon, self.datum.rank - len(K), len(self._flats)))
        return self._type_flats[K]

    def _flat_canonical(self, root_set):
        """W-minimal representative of the orbit of a set of positive roots."""
        return min(tuple(sorted(abs(row[a]) - 1 for a in root_set))
                   for row in self.datum.tables["root_act"])

    # -- orbits and projections ----------------------------------------------

    def xi_orbit(self, c, d):
        """The element containing the pair (c, d) of faces."""
        return self.elements[self.pair_to_elem[(c.index, d.index)]]

    def phi(self, m, side, K):
        """Contraction of coordinate `side` of m into type K: Xi(K, J) or Xi(I, K)."""
        return self.pair_to_elem[self._contract(m, side, K)]

    def _contract(self, m, side, K):
        """m's base point with coordinate `side` contracted into type K."""
        e = self.elements[m]
        coarse = self.complex.coarsen_table(K)[e.points[0][side]]
        if coarse is None:
            raise OrderError(f"cannot contract {('first', 'second')[side]} type "
                             f"{e.typeIJ[side]} to {K}")
        c, d = e.points[0]
        return (coarse, d) if side == PRIME else (c, coarse)

    def leq_side(self, side, n, m):
        """True iff m >= n on `side`: n is m contracted into n's type there."""
        K = self.elements[n].typeIJ[side]
        return set(self.elements[m].typeIJ[side]) <= set(K) and self.phi(m, side, K) == n

    def leq(self, n, m):
        """Joint order: true iff m >= n, i.e. m's pair coarsens into n's orbit.

        Coarsening commutes with the W-action, so any pair of m will do.
        """
        return self._base_image(m, n) is not None

    def _base_image(self, m, n):
        """The position in n's points of m's base point coarsened into n's types, or None."""
        (c, d), en = self.elements[m].points[0], self.elements[n]
        left, right = map(self.complex.coarsen_table, en.typeIJ)
        return en.point_index.get((left[c], right[d]))

    def downs(self, side):
        """downs[m] = all n with m >= n on `side`, m first, then by target type.

        The contractions phi(m, side, K) over the types K containing m's,
        in the complex's ``subsets`` order.  Built once per poset and shared.
        """
        got = self._downs.get(side)
        if got is None:
            subsets = self.complex.subsets
            supersets = {I: [K for K in subsets if set(I) <= set(K)] for I in subsets}
            got = self._downs[side] = tuple(
                tuple(self.phi(m, side, K) for K in supersets[e.typeIJ[side]])
                for m, e in enumerate(self.elements))
        return got

    def ups(self, side):
        """ups[n] = all m with m >= n on `side` (m = n included), ascending.

        The transpose of ``downs(side)``; built once per poset and shared.
        """
        got = self._ups.get(side)
        if got is None:
            ups = [[] for _ in self.elements]
            for m, below in enumerate(self.downs(side)):
                for n in below:
                    ups[n].append(m)
            got = self._ups[side] = tuple(map(tuple, ups))
        return got

    @cached_property
    def up_covers(self):
        """up_covers[side][n] = every m covering n on `side`, ascending: the
        transpose of ``cov``, built on first use and shared."""
        ups = ([[] for _ in self.elements], [[] for _ in self.elements])
        for side, m, n in self.coverings():
            ups[side][n].append(m)
        return ups

    def coverings(self):
        """Every covering relation as (side, m, n): by cell m, PRIME before SECOND."""
        for m in range(len(self.elements)):
            for side in (PRIME, SECOND):
                for _s, n in self.cov[side][m]:
                    yield side, m, n

    def based_coverings(self):
        """coverings() as (side, m, n, j), with j = pi_base(m, n) read off cov_base."""
        for m in range(len(self.elements)):
            for side in (PRIME, SECOND):
                for (_s, n), j in zip(self.cov[side][m], self.cov_base[side][m]):
                    yield side, m, n, j

    def pi_map(self, m, n):
        """Point-level surjection m -> n for m >= n, as a list over m.points:
        x_k = g_k.x0 goes to g_k g.x0', where g.x0' (g in n's reps) is x0's image."""
        at, reps = self.coset_tables[self.elements[n].table]
        g, mul = reps[self.pi_base(m, n)], self.datum.tables["mul"]
        return [at[mul[h][g]] for h in self.coset_tables[self.elements[m].table][1]]

    def pi_base(self, m, n):
        """pi_map(m, n)[0], the image of m's base point, alone; it raises
        pi_map's OrderError."""
        j = self._base_image(m, n)
        if j is None:
            raise OrderError(f"pi_map requires m >= n, not {xi_id(self, m)} and {xi_id(self, n)}")
        return j

    def point_action(self, w, m):
        """Where w sends each point of cell m, as positions in m's points: w.x_k = (w g_k).x0."""
        at, reps = self.coset_tables[self.elements[m].table]
        row = self.datum.tables["mul"][w]
        return [at[row[g]] for g in reps]

    def is_anodyne(self, m, n):
        """Same-stratum test for a comparable pair, via orbit sizes."""
        if not self.leq(n, m):
            raise OrderError(f"is_anodyne requires m >= n, not {xi_id(self, m)} "
                             f"and {xi_id(self, n)}")
        return self.elements[m].orbit_size == self.elements[n].orbit_size

    def sup(self, mp, n):
        """Mixed supremum: all m with mp <='' m >=' n, ascending.

        This is ups(SECOND)[mp] & ups(PRIME)[n] by definition: m >='' mp
        fixes I_m = I(mp) and contracts J_m into J(mp), and m >=' n fixes
        J_m = J(n) and contracts I_m into I(n), so the candidates are the
        cells of block (I(mp), J(n)) lying over both, and the set is empty
        unless I(mp) <= I(n) and J(n) <= J(mp).  Read off ups(PRIME)[n]
        against a frozenset of ups(SECOND)[mp], built once per poset.
        """
        if self._second_up_sets is None:
            self._second_up_sets = tuple(map(frozenset, self.ups(SECOND)))
        return list(filter(self._second_up_sets[mp].__contains__, self.ups(PRIME)[n]))

    def tau(self, m):
        """Coordinate swap."""
        c, d = self.elements[m].pair
        return self.pair_to_elem[(d.index, c.index)]

    # -- relations listings -----------------------------------------------------

    def comparable_pairs(self):
        """All strict pairs m > n with their relation kind and anodyne flag.

        Each n is reached from m by a PRIME contraction, then a SECOND one.
        Kind is 'prime' when only the first moved (m >=' n), 'second' when
        only the second did (m >='' n), and 'mixed' when both did.
        """
        out = []
        seconds = self.downs(SECOND)
        for m, primes in enumerate(self.downs(PRIME)):
            for a in primes:
                for n in seconds[a]:
                    if n == m:
                        continue
                    kind = (SIDE_NAMES[PRIME] if n == a
                            else SIDE_NAMES[SECOND] if a == m else "mixed")
                    ano = self.elements[m].orbit_size == self.elements[n].orbit_size
                    out.append((m, n, kind, ano))
        return out

    # -- stratifications ----------------------------------------------------------

    def stratification_classes(self):
        """Partitions of Xi: S0 by flat, S1 by (I, Hor) and tau-S1 by (J, Ver).

        Classes are ascending, in order of their first cell.  S1 is the
        partition generated by the anodyne coverings of >='':
        - Stab c & Stab d = Stab(c o d) (Steinberg: a stabiliser is generated
          by the reflections fixing the face), so a >='' covering
          (c, d) -> (c, d') is anodyne iff c o d' = c o d: a face below c o d
          with the same stabiliser is c o d.  Anodyne coverings keep (I, Hor).
        - Conversely, a segment from d into c o d stays in one face of the hyperplanes
          through c, so a zigzag of anodyne >='' steps joins (c, d) to t = (c, c o d).
        - With c = K_I, every face of type H = Hor above K_I is u K_H for some
          u in W_I, so t is the one cell W(K_I, K_H).
        tau swaps the sides: tau-S1 is generated by the anodyne coverings of
        >='.  Both refine S0, as c o d and d o c span one flat, and their join
        is S0: t and W(K_H, K_H) share the tau-S1 key (H, H), and if w K_H'
        spans K_H's flat, W(K_H, w K_H') shares the S1 key (H, H) with
        W(K_H, K_H) and the tau-S1 key (H', H') with W(K_H', K_H').
        """
        def classes(key):
            groups = {}
            for e in self.elements:
                groups.setdefault(key(e), []).append(e.index)
            return tuple(map(tuple, groups.values()))
        return (classes(lambda e: e.flat), classes(lambda e: (e.typeIJ[0], e.hor)),
                classes(lambda e: (e.typeIJ[1], e.ver)))


def enumerate_xi(datum):
    """Build the full 2-sided complex for a datum."""
    return XiPoset(FaceComplex(datum))
