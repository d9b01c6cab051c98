"""The Coxeter complex: faces of the reflection arrangement with exact sign vectors.

A face is a coset w W_I, realized geometrically as w(C+_I).  Its sign vector
records the sign of every positive root on the face; signs are computed on
the exact interior witness point w . rho_I, where rho_I is the sum of the
fundamental coweights off I.  In coweight coordinates rho_I is a 0/1 vector,
so sign(alpha | w rho_I) = sign applied to the root w^-1 alpha summed over
the complement of I; everything stays in integers.
"""

from __future__ import annotations

from .linalg import Span


class Face:
    """Coset w W_I with cached sign data; hashable by (type, representative)."""

    __slots__ = ("type_I", "rep", "rep_idx", "sign_vector", "zero_set", "index")

    def __init__(self, type_I, rep, rep_idx, sign_vector, index):
        self.type_I = type_I              # sorted tuple of simple-root indices
        self.rep = rep                    # minimal coset representative
        self.rep_idx = rep_idx            # its index in enumerate_group order
        self.sign_vector = sign_vector    # tuple over positive-root indices, in {-1,0,1}
        self.zero_set = frozenset(a for a, s in enumerate(sign_vector) if s == 0)
        self.index = index                # position in FaceComplex.faces

    def __eq__(self, other):
        return (isinstance(other, Face) and self.type_I == other.type_I
                and self.rep_idx == other.rep_idx)

    def __hash__(self):
        return hash((self.type_I, self.rep_idx))

    def __repr__(self):
        return f"Face(I={self.type_I}, w={self.rep_idx})"

    @property
    def key(self):
        return (len(self.type_I), self.type_I, self.rep_idx)


def subsets_sorted(rank):
    """All subsets of {0..rank-1} as sorted tuples, ordered by (size, entries)."""
    out = [()]
    for size in range(1, rank + 1):
        from itertools import combinations
        out.extend(combinations(range(rank), size))
    return sorted(out, key=lambda t: (len(t), t))


class FaceComplex:
    """All faces of the arrangement for one datum, with the Tits product."""

    def __init__(self, datum):
        self.datum = datum
        rank = datum.rank
        self.subsets = subsets_sorted(rank)
        self.faces = []
        self.face_index = {}      # (I, rep_idx) -> face position
        self.by_sign = {}
        self.by_type = {}
        supports = [frozenset(i for i, x in enumerate(v) if x)
                    for v in datum.positive_roots]
        for I in self.subsets:
            iset = set(I)
            members = []
            for rep_idx, g in enumerate(datum.elements):
                if any(datum.has_right_descent(rep_idx, s) for s in I):
                    continue
                winv = datum.inv_idx(rep_idx)
                signs = []
                for a in range(len(datum.positive_roots)):
                    s, b = datum.root_action(winv, a)
                    signs.append(0 if supports[b] <= iset else s)
                face = Face(I, g, rep_idx, tuple(signs), len(self.faces))
                self.faces.append(face)
                self.face_index[(I, rep_idx)] = face.index
                self.by_sign[face.sign_vector] = face.index
                members.append(face.index)
            self.by_type[I] = tuple(members)
        self._action = None
        self._coarsen = {}
        self._span_cache = {}

    # -- lookups -------------------------------------------------------------

    def face(self, type_I, rep):
        """Face of a coset given by any representative (canonicalized)."""
        I = tuple(sorted(type_I))
        rep_idx = rep if isinstance(rep, int) else self.datum.index_of(rep)
        return self.faces[self.face_index[(I, self.datum.min_in_coset(rep_idx, I))]]

    def zero_face(self):
        """The origin: the unique face of type S."""
        return self.face(tuple(range(self.datum.rank)), 0)

    def dominant_face(self, type_I):
        """K_I: the face e W_I of the closed dominant chamber."""
        return self.face(type_I, 0)

    @property
    def action(self):
        """action[w][f] = index of w . face_f."""
        if self._action is None:
            d = self.datum
            tab = []
            for w in range(d.order):
                row = []
                for f in self.faces:
                    i = d.min_in_coset(d.mul_idx(w, f.rep_idx), f.type_I)
                    row.append(self.face_index[(f.type_I, i)])
                tab.append(tuple(row))
            self._action = tuple(tab)
        return self._action

    def coarsen(self, face_idx, type_J):
        """Project the face's coset into W/W_J for J containing its type."""
        key = (face_idx, type_J)
        got = self._coarsen.get(key)
        if got is None:
            f = self.faces[face_idx]
            if not set(f.type_I) <= set(type_J):
                raise ValueError("coarsen target must contain the face type")
            rep = self.datum.min_in_coset(f.rep_idx, type_J)
            got = self.face_index[(type_J, rep)]
            self._coarsen[key] = got
        return got

    # -- geometry --------------------------------------------------------------

    def tits_product(self, c, d):
        """The face entered when moving from c toward d (sign-rule composition)."""
        signs = tuple(sd if sc == 0 else sc
                      for sc, sd in zip(c.sign_vector, d.sign_vector))
        return self.faces[self.by_sign[signs]]

    def face_leq(self, a, b):
        """Closure order: a lies in the closure of b."""
        return all(sa == 0 or sa == sb for sa, sb in zip(a.sign_vector, b.sign_vector))

    def span_closure(self, root_indices):
        """All positive-root indices lying in the rational span of the given ones."""
        key = frozenset(root_indices)
        got = self._span_cache.get(key)
        if got is None:
            roots = self.datum.positive_roots
            span = Span(self.datum.rank)
            for a in key:
                span.add(roots[a])
            got = frozenset(b for b in range(len(roots)) if span.contains(roots[b]))
            self._span_cache[key] = got
        return got

    def flat_dim(self, root_indices):
        """Dimension of the flat where the given positive roots vanish: rank - dim span."""
        span = Span(self.datum.rank)
        for a in root_indices:
            span.add(self.datum.positive_roots[a])
        return self.datum.rank - span.dim

    def face_dim(self, face):
        return self.flat_dim(face.zero_set)

    def associated(self, c, d):
        """Equal linear spans, i.e. equal span-closed zero sets."""
        return self.span_closure(c.zero_set) == self.span_closure(d.zero_set)

    def delta_faces(self, c, d):
        """Number of roots alpha (over all of Delta) with alpha|_c > 0 > alpha|_d."""
        if not self.associated(c, d):
            raise ValueError("delta_faces requires associated faces")
        n = 0
        for sc, sd in zip(c.sign_vector, d.sign_vector):
            if sc > 0 and sd < 0:
                n += 1
            if sc < 0 and sd > 0:     # the root -alpha
                n += 1
        return n

    def face_distance(self, c, d):
        """Minimal gallery length between associated faces, by breadth-first search."""
        if not self.associated(c, d):
            raise ValueError("face_distance requires associated faces")
        if c.index == d.index:
            return 0
        cls = [f for f in self.faces
               if self.span_closure(f.zero_set) == self.span_closure(c.zero_set)]
        m = self.face_dim(c)
        walls = [f for f in self.faces if self.face_dim(f) == m - 1]
        adjacent = {f.index: [] for f in cls}
        for i, f in enumerate(cls):
            for g in cls[i + 1:]:
                if any(self.face_leq(p, f) and self.face_leq(p, g) for p in walls):
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
