"""The function sheaf on orbits: axioms, duality, the bicube, subsheaves.

E_1 assigns to each cell the functions on its points; pushforward along
the point projections in the first order, pullback in the second.  The
checker verifies transitivity, the mixed-supremum sum, and invertibility
across anodyne relations; scaling a single diagonal map breaks exactly
the supremum identity at one configuration.
"""

from mbsheaf import (
    bicube, build_coxeter, build_e1, build_e1v, check_mbs, dual, enumerate_xi,
    generated_sub, is_simple, rep_catalog,
)

xi = enumerate_xi(build_coxeter("A", 2))
e1 = build_e1(xi)
print(f"E_1 on A2: dims {sorted(set(e1.dims))}, total {e1.total_dim}")
print(f"axioms: {check_mbs(e1).summary()}")
print(f"twisted dual passes too: {check_mbs(dual(e1)).summary()}")

q = bicube(e1)
print("\nbicube dimensions per parabolic type:")
for I in sorted(q.spaces, key=lambda t: (len(t), t)):
    print(f"  Q_{set(I) or '{}'} = {q.spaces[I]}")
print(f"bicube transitivity: {q.transitive()}")

print("\nbreaking the supremum identity on A1:")
xi1 = enumerate_xi(build_coxeter("A", 1))
e1_a1 = build_e1(xi1)
key = next(k for k, mat in e1_a1.dprime.items() if mat.is_invertible())
bad = e1_a1.copy_with(e1_a1.dims, {**e1_a1.dprime, key: e1_a1.dprime[key].scale(2)},
                      e1_a1.dsecond)
report = check_mbs(bad)
print(f"  after scaling one anodyne map: {report.summary()}")
print(f"  failing configurations: {report.witnesses['MBS2']}")

print("\nE_1 is not simple: the invariant functions split off")
print(f"  is_simple(E_1(A1)) = {is_simple(e1_a1)}")
m0 = next(m for m in range(len(xi1.elements)) if e1_a1.dims[m] == 1)
sub = generated_sub(e1_a1, {m0: [(1,)]})
print(f"  subsheaf generated by the constant vector: dims {list(sub.dims)}")

print("\nmultiplicity sheaves for explicit representations:")
for name in ("trivial", "sign", "reflection"):
    rep = rep_catalog(xi.datum, name)
    sheaf = build_e1v(xi, rep)
    print(f"  E_1^{name:<10} dims {list(sheaf.dims)}  "
          f"axioms {check_mbs(sheaf).summary()}")
