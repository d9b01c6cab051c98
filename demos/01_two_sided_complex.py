"""Walk through the 2-sided complex of the smallest rank-one and rank-two groups.

The five cells of the rank-one picture carry two partial orders: one
contracts the imaginary coordinate, the other the real one.  Four of the
eight strict comparabilities stay inside a single stratum (anodyne); those
are the arrows along which every sheaf map must be invertible.
"""

from mbsheaf import build_coxeter, enumerate_xi
from mbsheaf.fq import xi_to_contingency
from mbsheaf.io import xi_id

xi = enumerate_xi(build_coxeter("A", 1))
print(f"A1: {len(xi.elements)} cells")
for m, e in enumerate(xi.elements):
    print(f"  {xi_id(xi, m):>8}  types {e.typeIJ}  orbit size {e.orbit_size} "
          f"flat dim {e.flat.dim}  hor {e.hor} ver {e.ver}")

print("\nstrict comparabilities (kind, anodyne):")
for m, n, kind, ano in xi.comparable_pairs():
    marker = "ano" if ano else "   "
    print(f"  {xi_id(xi, m):>8} > {xi_id(xi, n):<8}  {kind:<6} {marker}")

print("\nA2: cells are contingency matrices of content 3 with no zero lines")
xi2 = enumerate_xi(build_coxeter("A", 2))
print(f"  element count: {len(xi2.elements)}")
by_shape = {}
for m in range(len(xi2.elements)):
    mat = xi_to_contingency(xi2, m)
    shape = (len(mat), len(mat[0]))
    by_shape.setdefault(shape, []).append(mat)
for shape in sorted(by_shape):
    print(f"  {shape[0]}x{shape[1]} matrices: {len(by_shape[shape])}")

s0, s1, tau_s1 = xi2.stratification_classes()
print(f"\nA2 stratification classes: {len(s0)} "
      "(open stratum, cuspidal-cubic stratum, origin)")
for cls in s0:
    dims = xi2.elements[cls[0]].flat.dim
    print(f"  flat dim {dims}: {len(cls)} cells")
print(f"S1 classes by (I, Hor): {len(s1)}; tau-S1 classes by (J, Ver): {len(tau_s1)}")
