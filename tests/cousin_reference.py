"""Block-scan stalk complex, the oracle of ``mbsheaf.cousin.stalk_complex``.

This is the assembly ``stalk_complex`` ran before it read its terms off
``ups(PRIME)`` and its differential blocks off ``cov[PRIME]``: for each
subset I of I(m), scan the block Xi(I, J(m)) for cells contracting to m,
and find the target of each block of the differential with ``phi``.  It
also keeps the d^2 = 0 check by products of consecutive differentials,
which ``stalk_complex`` reads off the squares instead.  It is kept so that
tests can compare both on the same cells (see test_cousin.py).
"""

from __future__ import annotations

import itertools

from mbsheaf.cousin import SignConventionError, StalkComplex, _insert_sign
from mbsheaf.linalg import RationalMatrix
from mbsheaf.xi import PRIME
from xi_reference import blocks


def block_scan_stalk_complex(E, m):
    """The stalk complex of the Cousin resolution at cell m, by block scans."""
    poset = E.poset
    r = poset.datum.rank
    I0, J = poset.elements[m].typeIJ
    labels = {}
    for size in range(len(I0) + 1):
        labels[size - r] = tuple((I, n) for I in itertools.combinations(I0, size)
                                 for n in blocks(poset).get((I, J), ())
                                 if poset.phi(n, PRIME, I0) == m)
    dims = {deg: sum(E.dims[n] for _I, n in terms) for deg, terms in labels.items()}
    diffs = {}
    for size in range(len(I0)):
        deg = size - r
        if dims[deg] == 0 or dims[deg + 1] == 0:
            diffs[deg] = RationalMatrix.zeros(dims[deg + 1], dims[deg])
            continue
        col_off, row_off = {}, {}
        for offsets, terms in ((col_off, labels[deg]), (row_off, labels[deg + 1])):
            off = 0
            for I, n in terms:
                offsets[(I, n)] = off
                off += E.dims[n]
        rows = [[] for _ in range(dims[deg + 1])]
        for I1, n1 in labels[deg]:
            for alpha in I0:
                if alpha in I1:
                    continue
                I2 = tuple(sorted(I1 + (alpha,)))
                n2 = poset.phi(n1, PRIME, I2)
                sign = _insert_sign(I1, alpha)
                ro, co = row_off[(I2, n2)], col_off[(I1, n1)]
                for i, row in enumerate(E.dprime[(n1, n2)].sparse_rows):
                    rows[ro + i].extend([(co + j, sign * x) for j, x in row])
        diffs[deg] = RationalMatrix.from_sparse(rows, dims[deg])
    for deg in diffs:
        nxt = diffs.get(deg + 1)
        if nxt is not None and not (nxt @ diffs[deg]).is_zero():
            raise SignConventionError(f"d^2 != 0 at cell {m}, degree {deg}")
    ranks = {deg: d.rank() for deg, d in diffs.items()}
    cohomology = {deg: dim - ranks.get(deg, 0) - ranks.get(deg - 1, 0)
                  for deg, dim in dims.items()}
    return StalkComplex(m, tuple(sorted(dims)), labels, dims, diffs, cohomology)
