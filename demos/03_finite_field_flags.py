"""Flags over a prime field, relative position, E_q, and the Hecke relations.

Flags are keyed by their type, a tuple of simple reflections of A_{n-1}.
Pairs of flags fall into orbits labeled by contingency matrices; E_q puts
functions on the flags of each orbit's Hor type.  The
intertwiners on full-flag functions satisfy the quadratic relation with
eigenvalues q and -1, and adjacent ones braid.
"""

from mbsheaf import (
    FqContext, RationalMatrix, b_invariant_sub, build_coxeter, build_eq,
    check_mbs, enumerate_xi, hecke_generators,
)
from mbsheaf.fq import xi_to_contingency

n, q = 3, 2
ctx = FqContext(n, q)
full = ctx.chains(())    # type (): no simple reflection, the full flags
print(f"full flags of F_{q}^{n}: {len(full)}")
f, g = full[0], full[7]
print(f"relative position of two of them: {ctx.relative_position(f, g)}")
print(f"transposed the other way around:  {ctx.relative_position(g, f)}")

xi = enumerate_xi(build_coxeter("A", n - 1))
eq = build_eq(n, q, poset=xi)
print(f"\nE_q({n},{q}): axioms {check_mbs(eq).summary()}")
print("orbit sizes vs reading dimensions for a few cells:")
for m in range(0, len(xi.elements), 7):
    mat = xi_to_contingency(xi, m)
    print(f"  cell {m:2d} position {mat}: |O| = {len(eq.orbit_tables[m]):3d},"
          f" dim E_q = {eq.dims[m]:2d} = |flags of Hor type {xi.elements[m].hor}|")

sub = b_invariant_sub(eq)
print(f"\nBorel-invariant subsheaf dims equal orbit sizes: "
      f"{list(sub.dims) == [e.orbit_size for e in xi.elements]}")
print(f"its axioms: {check_mbs(sub).summary()}")

print("\nHecke generators on Fun(full flags):")
gens = hecke_generators(n, q)
size = gens[0].nrows
ident = RationalMatrix.identity(size)
for k, s in enumerate(gens):
    ok = ((s + ident) @ (s - ident.scale(q))).is_zero()
    print(f"  (sigma_{k}+1)(sigma_{k}-{q}) = 0: {ok}")
s1, s2 = gens
print(f"  braid sigma_1 sigma_2 sigma_1 = sigma_2 sigma_1 sigma_2: "
      f"{s1 @ s2 @ s1 == s2 @ s1 @ s2}")
