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

Every lookup reads a table built once per complex (N = |W|, F = |faces|):

- ``face_of_coset[I]``: the face of each coset w W_I, N per type I;
- ``action``: the face index of w . f, N x F, read as face_of_coset[I][w u]
  off the datum's product table for f = u W_I;
- ``coarsen_table(J)``: each face's projection into W/W_J, F per type J,
  built on first use.
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
        self.by_sign = {}
        self.face_of_coset = {}   # I -> face position of each coset w W_I, by w
        supports = [frozenset(i for i, x in enumerate(v) if x)
                    for v in datum.positive_roots]
        root_act, inv = datum.tables["root_act"], datum.tables["inv"]
        for I in self.subsets:
            # a root's image under w^-1 has its support in I: a zero of w(C_I)
            in_phi_I = [supports[b] <= set(I) for b in range(len(supports))]
            minima = datum.coset_minima(I)
            face_at = {}
            for rep_idx in min_coset_reps(datum, I):
                signs = tuple(0 if in_phi_I[abs(v) - 1] else (1 if v > 0 else -1)
                              for v in root_act[inv[rep_idx]])
                face = Face(I, rep_idx, signs, len(self.faces))
                self.faces.append(face)
                face_at[rep_idx] = face.index
                self.by_sign[signs] = face.index
            self.face_of_coset[I] = tuple(face_at[m] for m in minima)
        mul = datum.tables["mul"]
        ends = [(self.face_of_coset[f.type_I], f.rep_idx) for f in self.faces]
        self.action = tuple(tuple(coset[row[u]] for coset, u in ends) for row in mul)
        self._coarsen = {}

    # -- lookups -------------------------------------------------------------

    def face(self, type_I, rep_idx):
        """Face of the coset elements[rep_idx] W_I, for any representative."""
        return self.faces[self.face_of_coset[tuple(sorted(type_I))][rep_idx]]

    def zero_face(self):
        """The origin: the unique face of type S."""
        return self.face(tuple(range(self.datum.rank)), 0)

    def dominant_face(self, type_I):
        """K_I: the face e W_I of the closed dominant chamber."""
        return self.face(type_I, 0)

    def coarsen_table(self, type_J):
        """Per face, its coset's projection into W/W_J, or None where the
        face's type is not contained in J; built once per J."""
        got = self._coarsen.get(type_J)
        if got is None:
            coset, J = self.face_of_coset[type_J], set(type_J)
            got = self._coarsen[type_J] = tuple(
                coset[f.rep_idx] if J.issuperset(f.type_I) else None for f in self.faces)
        return got

    # -- geometry --------------------------------------------------------------

    def tits_product(self, c, d):
        """The face entered when moving from c toward d (sign-rule composition)."""
        signs = tuple(sd if sc == 0 else sc
                      for sc, sd in zip(c.sign_vector, d.sign_vector))
        return self.faces[self.by_sign[signs]]
