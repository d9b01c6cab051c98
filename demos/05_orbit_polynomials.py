"""Point-count polynomials of the orbits, their laws, and brute-force checks.

Every orbit fibers over the flag space of its horizontal reading with
affine fibers, so its count is q^i times a Poincare polynomial; the
vertical reading must agree.  The polynomial is never divisible by q - 1,
is prime to q exactly for compact orbits, and anodyne pairs differ by the
q-power of their dimension gap.
"""

from mbsheaf import build_coxeter, enumerate_xi, orbit_poly, property_suite, validate_counts
from mbsheaf.orbitpoly import dim_orbit, is_compact, poly_str, poly_value

xi = enumerate_xi(build_coxeter("A", 1))
print("A1 orbits:")
for m, e in enumerate(xi.elements):
    p = orbit_poly(xi, m)
    print(f"  cell {m}: n(q) = {poly_str(p):<12} dim {dim_orbit(xi, m)} "
          f"compact {is_compact(xi, m)}  n(1) = {poly_value(p, 1)} = |orbit| {e.orbit_size}")

for label, rank in [("A", 2), ("B", 2), ("B", 3), ("G", 2)]:
    poset = enumerate_xi(build_coxeter(label, rank))
    report = property_suite(poset)
    compact = sum(1 for m in range(len(poset.elements)) if is_compact(poset, m))
    print(f"{label}{rank}: {len(poset.elements)} cells, {compact} compact, "
          f"laws {report.summary()}")

print("\nbrute-force validation against flag-pair counting (type A):")
for n in (2, 3):
    poset = enumerate_xi(build_coxeter("A", n - 1))
    for q in (2, 3):
        counts = validate_counts(poset, q)
        print(f"  n={n}, q={q}: {counts.summary()} over {counts.checked} orbits")
