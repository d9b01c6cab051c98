"""The Coxeter complex: faces of the reflection arrangement with exact sign vectors.

A face is a coset w W_I, realized as w(C_I), the W-translate of the face of
the dominant chamber where exactly the simple roots in I vanish.  A positive
root alpha is zero on w(C_I) iff w^-1 alpha lies in Phi_I (its support lies
in I), and otherwise has the sign of w^-1 alpha; signs come from the root
action table, in integers.

The zero set w(Phi_I) & Phi+ is span-closed, because Phi & span Phi_I = Phi_I
(a root in span Phi_I has its support in I), and so is the intersection of
two zero sets (a root in the span of A & B lies in A and in B).  So a face of
type I spans a flat of dimension rank - |I|, and faces span the same flat iff
their zero sets are equal: no linear algebra is needed.
"""

from __future__ import annotations

from itertools import combinations

from .coxeter import min_coset_reps


class Face:
    """Coset w W_I with cached sign data.

    A FaceComplex makes one Face per coset and every lookup returns it, so
    faces of one complex compare by identity.
    """

    __slots__ = ("type_I", "rep_idx", "sign_vector", "zero_set", "index")

    def __init__(self, type_I, rep_idx, sign_vector, index):
        self.type_I = type_I              # sorted tuple of simple-root indices
        self.rep_idx = rep_idx            # index of the minimal coset representative
        self.sign_vector = sign_vector    # tuple over positive-root indices, in {-1,0,1}
        self.zero_set = frozenset(a for a, s in enumerate(sign_vector) if s == 0)
        self.index = index                # position in FaceComplex.faces

    def __repr__(self):
        return f"Face(I={self.type_I}, w={self.rep_idx})"

    @property
    def key(self):
        return (len(self.type_I), self.type_I, self.rep_idx)


def subsets_sorted(rank):
    """All subsets of {0..rank-1} as sorted tuples, ordered by (size, entries)."""
    out = [()]
    for size in range(1, rank + 1):
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
        supports = [frozenset(i for i, x in enumerate(v) if x)
                    for v in datum.positive_roots]
        for I in self.subsets:
            iset = set(I)
            for rep_idx in min_coset_reps(datum, I):
                winv = datum.inv_idx(rep_idx)
                signs = []
                for a in range(len(datum.positive_roots)):
                    s, b = datum.root_action(winv, a)
                    signs.append(0 if supports[b] <= iset else s)
                face = Face(I, rep_idx, tuple(signs), len(self.faces))
                self.faces.append(face)
                self.face_index[(I, rep_idx)] = face.index
                self.by_sign[face.sign_vector] = face.index
        self._action = None
        self._coarsen = {}

    # -- lookups -------------------------------------------------------------

    def face(self, type_I, rep_idx):
        """Face of the coset elements[rep_idx] W_I, for any representative."""
        I = tuple(sorted(type_I))
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

    def face_dim(self, face):
        """Dimension of the face's linear span: rank - |I|."""
        return self.datum.rank - len(face.type_I)

    def associated(self, c, d):
        """Equal linear spans, i.e. equal (span-closed) zero sets."""
        return c.zero_set == d.zero_set

    def delta_faces(self, c, d):
        """Number of roots alpha (over all of Delta) with alpha|_c > 0 > alpha|_d."""
        if not self.associated(c, d):
            raise ValueError("delta_faces requires associated faces")
        # a positive root alpha counts when sc > 0 > sd, its negative when sc < 0 < sd
        return sum(1 for sc, sd in zip(c.sign_vector, d.sign_vector) if sc * sd < 0)

    def face_distance(self, c, d):
        """Minimal gallery length between associated faces, by breadth-first search."""
        if not self.associated(c, d):
            raise ValueError("face_distance requires associated faces")
        if c.index == d.index:
            return 0
        cls = [f for f in self.faces if f.zero_set == c.zero_set]
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
