"""Local-system transport, braid loops, and the rank-one reduction.

Anodyne steps inside one stratum transport stalks by invertible maps.  The
open stratum's local system is a representation of the braid group of W:
transport along braid_loops(poset)[s], a loop at W(C0, C0) around the wall
of the dominant chamber fixed by s, is the generator sigma_s.  It is the
regular swap for orbit functions, a Hecke operator with eigenvalues q and
-1 for finite-field functions, and on B2 the generators satisfy the braid
relation of length 4.  The rank-one reduction packages a sheaf into two
spaces with maps both ways and an invertible Id - uv.
"""

from mbsheaf import (
    RationalMatrix, braid_loops, build_coxeter, build_e1, build_e1v, build_eq, enumerate_xi,
    phi_psi, rep_catalog, transport,
)
from mbsheaf.io import xi_id

xi = enumerate_xi(build_coxeter("A", 1))
(loop,) = braid_loops(xi)
print("the A1 braid loop visits:", " -> ".join(xi_id(xi, m) for m in loop))

e1 = build_e1(xi)
print("\nE_1 braid generator (regular representation of Z/2):")
for row in transport(e1, loop).rows:
    print(f"  {row}")

for q in (2, 3):
    sigma = transport(build_eq(2, q, poset=xi), loop)
    ident = RationalMatrix.identity(sigma.nrows)
    first = ((sigma - ident.scale(q)) @ (sigma + ident)).is_zero()
    print(f"\nE_q braid generator for q={q} on Fun(P^1(F_{q})) "
          f"satisfies (sigma-{q})(sigma+1)=0: {first}")

print("\nrank-one reductions (Phi, Psi, T = Id - uv):")
for name, sheaf in [("E_1", e1),
                    ("E_1^sign", build_e1v(xi, rep_catalog(xi.datum, "sign"))),
                    ("E_q(q=2)", build_eq(2, 2, poset=xi)),
                    ("E_q(q=3)", build_eq(2, 3, poset=xi))]:
    pp = phi_psi(sheaf)
    print(f"  {name:<10} Phi dim {pp.phi_dim}, Psi dim {pp.psi_dim}, "
          f"T invertible: {pp.t_invertible}")

print("\nB2 braid loops (one per simple reflection):")
xi_b2 = enumerate_xi(build_coxeter("B", 2))
e1_b2 = build_e1(xi_b2)
sigmas = []
for s, lp in enumerate(braid_loops(xi_b2)):
    sigma = transport(e1_b2, lp)
    sigmas.append(sigma)
    order = 1
    acc = sigma
    ident = RationalMatrix.identity(sigma.nrows)
    while acc != ident:
        acc = acc @ sigma
        order += 1
    print(f"  s{s}: {' -> '.join(xi_id(xi_b2, m) for m in lp)}; "
          f"sigma_{s} on E_1 has order {order}")
a, b = sigmas
print(f"  sigma_0 sigma_1 sigma_0 sigma_1 = sigma_1 sigma_0 sigma_1 sigma_0: "
      f"{a @ b @ a @ b == b @ a @ b @ a}")
