"""Block-scan mixed supremum, the oracle of ``XiPoset.sup``.

This is the algorithm ``mbsheaf.xi`` ran before it intersected up-sets:
scan the block Xi(I(m'), J(n)) and keep each cell that contracts to m' in
its second coordinate and to n in its first.  It is kept so that tests can
compare the two on the same pairs (see test_faces_xi.py).
"""

from __future__ import annotations

from mbsheaf.xi import PRIME, SECOND


def block_scan_sup(xi, mp, n):
    """All m with mp <='' m >=' n, ascending as the block lists them."""
    emp, en = xi.elements[mp], xi.elements[n]
    I1, J2 = emp.typeIJ
    I2, J1 = en.typeIJ
    if not (set(I1) <= set(I2) and set(J1) <= set(J2)):
        return []
    return [m for m in xi.blocks.get((I1, J1), ())
            if xi.phi(m, SECOND, J2) == mp and xi.phi(m, PRIME, I2) == n]
