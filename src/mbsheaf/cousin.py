"""Stalk complexes of the Cousin resolution and the perversity support checks.

For a cell with first type I0, the stalk complex collects, for each subset
I of I0, the spaces at the cells of Xi(I, J) lying over the cell in the
first order, placed in degree |I| - r.  The differential composes the
first-order maps with the alternating sign of inserting the new index into
the ordered subset.  d^2 = 0 is equivalent to transitivity plus the sign
bookkeeping and is verified on construction.
"""

from __future__ import annotations

import itertools

from .linalg import RationalMatrix
from .report import Report
from .sheaf import dual
from .xi import PRIME


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
        self.labels = labels                # degree -> tuple of (I, element) blocks
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


def stalk_complex(E, m):
    """Build and verify the stalk complex of the Cousin resolution at cell m."""
    poset = E.poset
    r = poset.datum.rank
    e = poset.elements[m]
    I0, J = e.typeIJ
    subsets_by_size = {}
    for size in range(len(I0) + 1):
        subsets_by_size[size] = sorted(itertools.combinations(I0, size))
    labels = {}
    for size, subs in subsets_by_size.items():
        deg = size - r
        blocks = []
        for I in subs:
            for n in poset.blocks.get((I, J), ()):
                if poset.phi(n, PRIME, I0) == m:
                    blocks.append((I, n))
        labels[deg] = tuple(blocks)
    dims = {deg: sum(E.dims[n] for _I, n in blocks) for deg, blocks in labels.items()}
    diffs = {}
    for size in range(len(I0)):
        deg = size - r
        src, dst = labels[deg], labels[deg + 1]
        if dims[deg] == 0 or dims[deg + 1] == 0:
            diffs[deg] = RationalMatrix.zeros(dims[deg + 1], dims[deg])
            continue
        col_off = {}
        off = 0
        for I, n in src:
            col_off[(I, n)] = off
            off += E.dims[n]
        row_off = {}
        off = 0
        for I, n in dst:
            row_off[(I, n)] = off
            off += E.dims[n]
        rows = [[] for _ in range(dims[deg + 1])]
        for I1, n1 in src:
            for alpha in I0:
                if alpha in I1:
                    continue
                I2 = tuple(sorted(I1 + (alpha,)))
                n2 = poset.phi(n1, PRIME, I2)
                sign = _insert_sign(I1, alpha)
                block = E.dprime[(n1, n2)]
                ro, co = row_off[(I2, n2)], col_off[(I1, n1)]
                for i, row in enumerate(block.sparse_rows):
                    rows[ro + i].extend([(co + j, sign * x) for j, x in row])
        diffs[deg] = RationalMatrix.from_sparse(rows, dims[deg])
    for deg in diffs:
        nxt = diffs.get(deg + 1)
        if nxt is not None and not (nxt @ diffs[deg]).is_zero():
            raise SignConventionError(f"d^2 != 0 at cell {m}, degree {deg}")
    ranks = {deg: d.rank() for deg, d in diffs.items()}
    cohomology = {deg: dim - ranks.get(deg, 0) - ranks.get(deg - 1, 0)
                  for deg, dim in dims.items()}
    degrees = tuple(sorted(dims))
    return StalkComplex(m, degrees, labels, dims, diffs, cohomology)


def _stalk_cohomology(E, m):
    """Cohomology of the stalk complex at m, by degree, built once per sheaf.

    The differentials are not kept.  A complex with d^2 != 0 is never
    stored, so every check that reaches it raises SignConventionError.
    """
    got = E._stalks.get(m)
    if got is None:
        got = E._stalks[m] = stalk_complex(E, m).cohomology
    return got


def support_check(E):
    """Perversity support: nonzero H^d at a cell forces stratum dimension <= -d.

    Every cell and degree is examined; a witness is (cell, degree, h_dim,
    stratum_dim, False).  A degree with no terms has no cohomology.
    """
    rep = Report("support")
    for m in range(len(E.poset.elements)):
        stratum_dim = E.poset.elements[m].flat.dim
        for deg, h in sorted(_stalk_cohomology(E, m).items()):
            if h and stratum_dim > -deg:
                rep.witnesses["support"].append((m, deg, h, stratum_dim, False))
    return rep


def coperversity_check(E):
    """The dual-side support condition: support_check of the twisted dual."""
    return support_check(dual(E))


def constructibility_check(E):
    """Stalk cohomology profiles must be constant along every flat class.

    A witness is (cell, its profile, the class's first profile, None, False).
    """
    profiles = {}
    for m in range(len(E.poset.elements)):
        profiles[m] = _profile(_stalk_cohomology(E, m))
    s0, _s1, _tau = E.poset.stratification_classes()
    rep = Report("constructibility")
    for cls in s0:
        ref = profiles[cls[0]]
        rep.witnesses["constructibility"].extend(
            (m, profiles[m], ref, None, False) for m in cls if profiles[m] != ref)
    return rep
