"""Orbit-count polynomials from the affine-fibration structure.

Each cell's orbit fibers over the flag space of its horizontal reading with
affine fibers, so the point count is a q-power times the Poincare
polynomial of the reading; the vertical reading must give the same answer.
Counting over actual finite fields is demoted to validation (type A only).
A polynomial in q is the tuple of its ascending integer coefficients, with
no trailing zeros (``coxeter.poincare_poly`` builds them); multiplying by
q**k prepends k zeros.
"""

from __future__ import annotations

from .coxeter import poincare_poly
from .fq import FqContext, ResourceError
from .report import Report


class HorVerMismatchError(RuntimeError):
    """The horizontal and vertical fibration formulas disagree (theory forbids it)."""


def poly_value(p, q):
    """The polynomial p at q, by Horner's rule."""
    acc = 0
    for c in reversed(p):
        acc = acc * q + c
    return acc


def poly_str(p):
    """p as text, nonzero terms by ascending degree ("1 + 2*q + q^2"); "0" if p is zero."""
    terms = [str(c) if i == 0 else ("" if c == 1 else f"{c}*") + ("q" if i == 1 else f"q^{i}")
             for i, c in enumerate(p) if c]
    return " + ".join(terms) or "0"


def dim_orbit(poset, m):
    """Dimension of the orbit: |roots| minus the roots nonnegative on both faces."""
    c, d = poset.elements[m].pair
    nonneg_both = sum((sc >= 0 and sd >= 0) + (sc <= 0 and sd <= 0)
                      for sc, sd in zip(c.sign_vector, d.sign_vector))
    return 2 * len(poset.datum.positive_roots) - nonneg_both


def dim_flag(datum, members):
    """Dimension of the flag space of type I: positive roots outside span(I)."""
    iset = set(members)
    inside = sum(1 for v in datum.positive_roots
                 if {i for i, x in enumerate(v) if x} <= iset)
    return len(datum.positive_roots) - inside


def is_compact(poset, m):
    """Orbit compactness: no root separates the two faces strictly."""
    c, d = poset.elements[m].pair
    return not any(sc * sd < 0 for sc, sd in zip(c.sign_vector, d.sign_vector))


def orbit_poly(poset, m):
    """Point-count polynomial q^(dim gap) * Poincare(reading), Hor/Ver cross-checked."""
    datum = poset.datum
    e = poset.elements[m]
    d_orbit = dim_orbit(poset, m)
    via_hor = (0,) * (d_orbit - dim_flag(datum, e.hor)) + poincare_poly(datum, e.hor)
    via_ver = (0,) * (d_orbit - dim_flag(datum, e.ver)) + poincare_poly(datum, e.ver)
    if via_hor != via_ver:
        raise HorVerMismatchError(f"cell {m}: Hor gives {poly_str(via_hor)}, "
                                  f"Ver gives {poly_str(via_ver)}")
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
        if len(p) - 1 != dim_orbit(poset, m):
            failures.append((m, "degree != orbit dimension"))
        at_one = poly_value(p, 1)
        if at_one != e.orbit_size:
            failures.append((m, "value at 1 != orbit size"))
        if at_one == 0:
            failures.append((m, "divisible by q - 1"))
        # compact exactly when q does not divide p
        compact = is_compact(poset, m)
        if (p[0] != 0) != compact:
            failures.append((m, "q-divisibility does not match compactness"))
        if compact and p[0] != 1:
            failures.append((m, "compact orbit with constant term != 1"))
    for m, n, _kind, ano in poset.comparable_pairs():
        if not ano:
            continue
        rep.checked += 1
        gap = dim_orbit(poset, m) - dim_orbit(poset, n)
        if gap < 0 or polys[m] != (0,) * gap + polys[n]:
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
        expected = poly_value(orbit_poly(poset, m), q)
        got = len(ctx.orbit_points(poset, m))
        if expected != got:
            rep.witnesses["counts"].append((m, expected, got))
    return rep
