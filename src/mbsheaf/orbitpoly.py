"""Orbit-count polynomials from the affine-fibration structure.

Each cell's orbit fibers over the flag space of its horizontal reading with
affine fibers, so the point count is a q-power times the Poincare
polynomial of the reading; the vertical reading must give the same answer.
Counting over actual finite fields is demoted to validation (type A only).
"""

from __future__ import annotations

from .coxeter import poincare_poly
from .fq import FqContext, ResourceError
from .report import Report


class HorVerMismatchError(RuntimeError):
    """The horizontal and vertical fibration formulas disagree (theory forbids it)."""


def dim_orbit(poset, m):
    """Dimension of the orbit: |roots| minus the roots nonnegative on both faces."""
    c, d = poset.elements[m].pair
    nonneg_both = 0
    for sc, sd in zip(c.sign_vector, d.sign_vector):
        if sc >= 0 and sd >= 0:
            nonneg_both += 1
        if sc <= 0 and sd <= 0:
            nonneg_both += 1
    n_roots = 2 * len(poset.datum.positive_roots)
    return n_roots - nonneg_both


def dim_flag(datum, members):
    """Dimension of the flag space of type I: positive roots outside span(I)."""
    iset = set(members)
    inside = sum(1 for v in datum.positive_roots
                 if {i for i, x in enumerate(v) if x} <= iset)
    return len(datum.positive_roots) - inside


def is_compact(poset, m):
    """Orbit compactness: no root separates the two faces strictly."""
    c, d = poset.elements[m].pair
    for sc, sd in zip(c.sign_vector, d.sign_vector):
        if (sc > 0 and sd < 0) or (sc < 0 and sd > 0):
            return False
    return True


def orbit_poly(poset, m):
    """Point-count polynomial q^(dim gap) * Poincare(reading), Hor/Ver cross-checked."""
    datum = poset.datum
    e = poset.elements[m]
    d_orbit = dim_orbit(poset, m)
    via_hor = poincare_poly(datum, e.hor).shift(d_orbit - dim_flag(datum, e.hor))
    via_ver = poincare_poly(datum, e.ver).shift(d_orbit - dim_flag(datum, e.ver))
    if via_hor != via_ver:
        raise HorVerMismatchError(f"cell {m}: Hor gives {via_hor}, Ver gives {via_ver}")
    return via_hor


def property_suite(poset):
    """Degree, evaluation, divisibility, compactness, and anodyne q-power laws."""
    rep = Report("laws", checked=0)
    failures = rep.witnesses["laws"]
    polys = {}
    for m, e in enumerate(poset.elements):
        p = orbit_poly(poset, m)
        polys[m] = p
        rep.checked += 5
        if p.degree != dim_orbit(poset, m):
            failures.append((m, "degree != orbit dimension"))
        if p(1) != e.orbit_size:
            failures.append((m, "value at 1 != orbit size"))
        if p(1) == 0:
            failures.append((m, "divisible by q - 1"))
        compact = is_compact(poset, m)
        if (p.q_valuation() == 0) != compact:
            failures.append((m, "q-divisibility does not match compactness"))
        if compact and p(0) != 1:
            failures.append((m, "compact orbit with constant term != 1"))
    for m, n, _kind, ano in poset.comparable_pairs():
        if not ano:
            continue
        rep.checked += 1
        gap = dim_orbit(poset, m) - dim_orbit(poset, n)
        if gap < 0 or polys[m] != polys[n].shift(gap):
            failures.append(((m, n), "anodyne pair violates the q-power relation"))
    return rep


def validate_counts(poset, q):
    """Type A, n <= 3 only: orbit_poly evaluated at q against brute-force flag-pair counts."""
    datum = poset.datum
    if datum.type_label != "A":
        raise ValueError("point-count validation is a type A oracle")
    n = datum.rank + 1
    if n > 3:
        raise ResourceError(f"point-count validation supports n <= 3, not n = {n}")
    ctx = FqContext(n, q)
    rep = Report("counts", checked=len(poset.elements))
    for m in range(len(poset.elements)):
        expected = orbit_poly(poset, m)(q)
        got = len(ctx.orbit_points(poset, m))
        if expected != got:
            rep.witnesses["counts"].append((m, expected, got))
    return rep
