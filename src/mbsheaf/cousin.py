"""Stalk complexes of the Cousin resolution and the perversity support checks.

One algorithm serves both orders.  On a side, with T(n) the type of n there,
the stalk complex at a cell m collects the spaces at its up-set on that side,
each n in degree |T(n)| - r.  Its blocks are the side's coverings adding an
index of T(m), signed by the sign of inserting it: dprime maps on PRIME,
transposed dsecond maps on SECOND, so the SECOND complex at m is the PRIME
complex of the twisted dual at tau(m).  d^2 = 0 is read off MBS1's squares.
"""

from __future__ import annotations

from .linalg import RationalMatrix
from .report import Report
from .sheaf import _mbs1_failures
from .xi import PRIME, SECOND, xi_id


class SignConventionError(RuntimeError):
    """d^2 != 0: the sheaf violates transitivity or the sign bookkeeping."""


def _insert_sign(I1, alpha):
    """Sign of wedging e_alpha onto det(I1), indices in the global root order."""
    return (-1) ** sum(1 for beta in I1 if beta > alpha)


class StalkComplex:
    """One cell's stalk of the Cousin complex, with exact differentials."""

    def __init__(self, cell, degrees, labels, dims, differentials, cohomology):
        self.cell = cell
        self.degrees = degrees              # sorted tuple of degrees present
        self.labels = labels                # degree -> tuple of (type, element) blocks
        self.dims = dims                    # degree -> total dimension
        self.differentials = differentials  # degree -> matrix deg -> deg+1
        self.cohomology = cohomology        # degree -> cohomology dimension

    def euler_characteristic(self):
        return sum((1 if d % 2 == 0 else -1) * dim for d, dim in self.dims.items())

    def cohomology_profile(self):
        """Nonzero cohomology as a sorted tuple of (degree, dimension)."""
        return _profile(self.cohomology)


def _profile(cohomology):
    return tuple(sorted((d, h) for d, h in cohomology.items() if h))


def stalk_complex(E, m, side=PRIME):
    """The stalk complex at cell m on `side`, its terms ordered by (T(n), n).

    d^2 = 0 at every cell exactly when the side's squares commute, walked
    once per sheaf and side by _mbs1_failures, or read from check_mbs's walk.
    With e(I, a) = (-1)^#{b in I : b > a} and a < b, e(I + a, b) = e(I, b)
    and e(I + b, a) = -e(I, a): the two paths round a square carry opposite
    signs, and the block of d^2 from n to phi_b phi_a n is their difference.
    Every square of a side lies in the complex at its last cell.
    """
    poset = E.poset
    failed = E._squares.get(side)
    if failed is None:
        failed = E._squares[side] = next(_mbs1_failures(E, (side,)), ())
    if failed:
        order, top, bottom = failed
        raise SignConventionError(f"d^2 != 0: the {order} square from {xi_id(poset, top)} "
                                  f"to {xi_id(poset, bottom)} does not commute")
    r = poset.datum.rank
    T0 = poset.elements[m].typeIJ[side]
    labels = {size - r: [] for size in range(len(T0) + 1)}
    dims = dict.fromkeys(labels, 0)
    offset = {}                     # term -> its first index in its degree's space
    terms = [(poset.elements[n].typeIJ[side], n) for n in poset.ups(side)[m]]
    for T, n in sorted(terms, key=lambda t: (len(t[0]), t)):
        deg = len(T) - r
        labels[deg].append((T, n))
        offset[n] = dims[deg]
        dims[deg] += E.dims[n]
    diffs = {}
    for deg in list(labels)[:-1]:
        rows = [[] for _ in range(dims[deg + 1])]
        for T1, n1 in labels[deg]:
            for alpha, n2 in poset.cov[side][n1]:
                if alpha not in T0:
                    continue
                sign = _insert_sign(T1, alpha)
                ro, co = offset[n2], offset[n1]
                # entry (i, j) of a dsecond block lands at (j, i): its transpose
                for i, row in enumerate(E.maps(side)[(n1, n2)].sparse_rows):
                    for j, x in row:
                        dst, src = (i, j) if side == PRIME else (j, i)
                        rows[ro + dst].append((co + src, sign * x))
        diffs[deg] = RationalMatrix.from_sparse(rows, dims[deg])
    labels = {deg: tuple(blocks) for deg, blocks in labels.items()}
    ranks = {deg: d.rank() for deg, d in diffs.items()}
    cohomology = {deg: dim - ranks.get(deg, 0) - ranks.get(deg - 1, 0)
                  for deg, dim in dims.items()}
    return StalkComplex(m, tuple(sorted(dims)), labels, dims, diffs, cohomology)


def _stalk_cohomology(E, side, m):
    """Cohomology of the stalk complex at m on `side`, by degree, built once
    per sheaf; the differentials are not kept."""
    got = E._stalks.get((side, m))
    if got is None:
        got = E._stalks[(side, m)] = stalk_complex(E, m, side).cohomology
    return got


def support_check(E, side=PRIME):
    """Perversity support on `side`: nonzero H^d at a cell forces stratum
    dimension <= -d.  Every cell and degree is examined; a witness is (cell,
    degree, h_dim, stratum_dim, False).  A degree with no terms has none.
    """
    rep = Report("support")
    for m in range(len(E.poset.elements)):
        stratum_dim = E.poset.elements[m].flat.dim
        for deg, h in sorted(_stalk_cohomology(E, side, m).items()):
            if h and stratum_dim > -deg:
                rep.witnesses["support"].append((m, deg, h, stratum_dim, False))
    return rep


def coperversity_check(E):
    """The dual-side support condition, on the SECOND stalks of E itself."""
    return support_check(E, SECOND)


def constructibility_check(E):
    """Stalk cohomology profiles must be constant along every flat class.

    A witness is (cell, its profile, the class's first profile, None, False).
    """
    profiles, classes = [], {}      # classes: cells by flat, in order of first appearance
    for m, e in enumerate(E.poset.elements):
        profiles.append(_profile(_stalk_cohomology(E, PRIME, m)))
        classes.setdefault(e.flat, []).append(m)
    rep = Report("constructibility")
    for cls in classes.values():
        ref = profiles[cls[0]]
        rep.witnesses["constructibility"].extend(
            (m, profiles[m], ref, None, False) for m in cls if profiles[m] != ref)
    return rep
