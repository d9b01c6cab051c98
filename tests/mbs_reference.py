"""Unmemoised axiom walk, the oracle of ``mbsheaf.sheaf.check_mbs``.

This is the walk ``check_mbs`` ran before it interned the covering maps by
value and memoised products, supremum sums and MBS3 verdicts by the
identity of interned operands: every square, every covering configuration
and every anodyne covering multiplies, adds and ranks its own maps, and
compares results with ``==``.  It stores no verdict on the sheaf.  It is
kept so that tests can compare both walks on sheaves whose maps share
objects or do not (see test_compose_differential.py).
"""

from __future__ import annotations

from mbsheaf.report import Report
from mbsheaf.sheaf import _covering_configurations
from mbsheaf.xi import PRIME, SECOND, SIDE_NAMES, arrow


def unmemoised_check_mbs(E):
    """check_mbs's Report for E, each product, sum and rank computed anew."""
    poset = E.poset
    rep = Report("shape", "MBS1", "MBS2", "MBS3")
    shape, mbs1, mbs2, mbs3 = rep.witnesses.values()
    for side, m, n in poset.coverings():
        mat = E.maps(side).get((m, n))
        src, dst = arrow(side, m, n)
        if mat is None or mat.shape != (E.dims[dst], E.dims[src]):
            shape.append((SIDE_NAMES[side], m, n, "missing or misshaped matrix"))
    if rep.ok:
        mbs1.extend(_mbs1_failures(E))
    if rep.ok:
        mbs2.extend(_mbs2_failures(E))
        for side, m, n in poset.coverings():
            if poset.elements[m].orbit_size == poset.elements[n].orbit_size:
                if not E.maps(side)[(m, n)].is_invertible():
                    mbs3.append((SIDE_NAMES[side], m, n))
    return rep


def _mbs1_failures(E):
    """Each (order, m, n) whose square does not commute, by m, then side,
    then (s, t)."""
    cov = E.poset.cov
    steps = [[dict(below) for below in cov[side]] for side in (PRIME, SECOND)]
    for m in range(len(E.poset.elements)):
        for side in (PRIME, SECOND):
            below, d, step = cov[side][m], E.maps(side), steps[side]
            for i, (_s, a) in enumerate(below):
                for t, b in below[i + 1:]:
                    n = step[a][t]
                    if (d[(a, n)] @ d[(m, a)] != d[(b, n)] @ d[(m, b)] if side == PRIME
                            else d[(m, a)] @ d[(a, n)] != d[(m, b)] @ d[(b, n)]):
                        yield SIDE_NAMES[side], m, n


def _mbs2_failures(E):
    """Each covering configuration (m', n', n) failing MBS2; each supremum
    sum starts at its first term."""
    prime, second = E.dprime, E.dsecond
    for mp, np_, n, sup in _covering_configurations(E.poset):
        lhs = second[(n, np_)] @ prime[(mp, np_)]
        terms = [prime[(m, n)] @ second[(m, mp)] for m in sup]
        if sum(terms[1:], terms[0]) != lhs if terms else not lhs.is_zero():
            yield mp, np_, n
