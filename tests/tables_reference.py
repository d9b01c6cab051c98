"""Per-call group and face routines, the oracles of the index tables.

``CoxeterDatum`` holds the product table ``tables["mul"]`` and the coset
minima ``coset_minima(I)``; ``FaceComplex`` holds ``face_of_coset``,
``action`` and ``coarsen_table(J)``; ``XiPoset.pi_map`` and
``point_action`` read the image of one base point off the coset tables,
and ``RationalMatrix.pushforward`` is built from the fibres.  ``mul_idx``
and ``coarsen`` read those tables one entry at a time.  The other functions
here are the routines they replaced: a product by walking the reduced word
of the right factor, a coset minimum by stepping down right descents, the
W-action and coarsening through those two, a point projection coarsening
every point, the point action moving every point, the joint order by two
contractions, and the pushforward as the transpose of the pullback.  Tests
compare both on every supported type (see test_tables_differential.py).
"""

from __future__ import annotations

from mbsheaf.linalg import RationalMatrix
from mbsheaf.xi import PRIME, SECOND


def mul_idx(datum, i, j):
    """Index of elements[i] * elements[j], read off the product table."""
    return datum.tables["mul"][i][j]


def coarsen(cx, face_idx, type_J):
    """The face's coset projected into W/W_J, read off the coarsening table;
    a ValueError where J does not contain the face's type."""
    got = cx.coarsen_table(type_J)[face_idx]
    if got is None:
        raise ValueError("coarsen target must contain the face type")
    return got


def word_walk_mul(datum, i, j):
    """Index of elements[i] * elements[j], via the reduced word of j."""
    right = datum.tables["right"]
    for s in datum.word_of(j):
        i = right[i][s]
    return i


def word_walk_inv(datum, i):
    """Index of elements[i]^-1: i = s1 ... sk reduced, so i^-1 = sk ... s1."""
    inv = 0
    for s in reversed(datum.word_of(i)):
        inv = datum.tables["right"][inv][s]
    return inv


def descent_walk_min(datum, i, members):
    """Index of the minimal-length element of elements[i] * W_I."""
    moved = True
    while moved:
        moved = False
        for s in members:
            if datum.has_right_descent(i, s):
                i = datum.tables["right"][i][s]
                moved = True
    return i


def face_positions(cx):
    """(I, rep_idx) -> position in cx.faces."""
    return {(f.type_I, f.rep_idx): f.index for f in cx.faces}


def walk_action(cx):
    """action[w][f] = index of w . face_f, one word walk and one descent walk per pair."""
    d = cx.datum
    pos = face_positions(cx)
    return tuple(
        tuple(pos[(f.type_I, descent_walk_min(d, word_walk_mul(d, w, f.rep_idx), f.type_I))]
              for f in cx.faces)
        for w in range(d.order))


class WalkCoarsen:
    """Face coarsening by a descent walk per (face, J), memoised in a dict."""

    def __init__(self, cx):
        self.cx = cx
        self.pos = face_positions(cx)
        self.memo = {}

    def __call__(self, face_idx, type_J):
        key = (face_idx, type_J)
        got = self.memo.get(key)
        if got is None:
            f = self.cx.faces[face_idx]
            if not set(f.type_I) <= set(type_J):
                raise ValueError("coarsen target must contain the face type")
            rep = descent_walk_min(self.cx.datum, f.rep_idx, type_J)
            got = self.memo[key] = self.pos[(type_J, rep)]
        return got


def point_loop_pi_map(xi, coarsen, m, n):
    """Point-level surjection m -> n for m >= n: each point's two faces coarsened."""
    en = xi.elements[n]
    I2, J2 = en.typeIJ
    return [en.point_index[(coarsen(c, I2), coarsen(d, J2))] for c, d in xi.elements[m].points]


def point_loop_action(xi, w, m):
    """Where w sends each point of cell m: both faces moved by the face action."""
    act, e = xi.complex.action[w], xi.elements[m]
    return [e.point_index[(act[c], act[d])] for c, d in e.points]


def transposed_pullback(f, n):
    """Pushforward along x -> f[x] as the transpose of the pullback."""
    return RationalMatrix.pullback(f, n).transpose()


def phi_leq(xi, n, m):
    """Joint order m >= n by two contractions: m's first type into n's, then its second."""
    em, en = xi.elements[m], xi.elements[n]
    if not (set(em.typeIJ[0]) <= set(en.typeIJ[0]) and set(em.typeIJ[1]) <= set(en.typeIJ[1])):
        return False
    return xi.phi(xi.phi(m, PRIME, en.typeIJ[0]), SECOND, en.typeIJ[1]) == n
