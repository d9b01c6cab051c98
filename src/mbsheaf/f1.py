"""Function sheaves on the W-orbits themselves and their isotypic pieces.

build_e1 carries the space of functions on each orbit, with pushforward
along the point projections in the first order and pullback in the second,
each built once per distinct key (side, dims[n], pi_map(m, n)) and interned
by value: every covering with an equal map holds one object.
build_e1v computes the W-invariants of E_1 tensor V for an explicit
representation V at the base points: an invariant on an orbit W/H is fixed
by its value there, so (Fun(W/H) tensor V)^W = V^H (Frobenius reciprocity).
"""

from __future__ import annotations

import itertools
import math

from .coxeter import UnsupportedTypeError
from .linalg import RationalMatrix, column_space_basis
from .sheaf import MixedBruhatSheaf
from .xi import PRIME, SECOND


class E1Sheaf(MixedBruhatSheaf):
    """E_1 with its W-action: permutation matrices on every orbit."""

    def action_matrix(self, w, m):
        """Permutation matrix of w on the point basis of cell m."""
        return RationalMatrix.pushforward(self.poset.point_action(w, m), self.dims[m])


def build_e1(poset):
    """Functions on orbits: dims are orbit sizes, maps are (pi)_* and pi^*, shared as
    the module docstring says (pi_* of a bijection is pi^* of its inverse)."""
    dims, maps, built, canon = [e.orbit_size for e in poset.elements], ({}, {}), {}, {}
    move = (RationalMatrix.pushforward, RationalMatrix.pullback)    # by side
    for side, m, n in poset.coverings():
        key = side, dims[n], tuple(poset.pi_map(m, n))
        if key not in built:
            mat = move[side](key[2], dims[n])
            built[key] = canon.setdefault(mat, mat)
        maps[side][(m, n)] = built[key]
    return E1Sheaf(poset, dims, *maps)


# -- explicit W-representations -----------------------------------------------

class WRepresentation:
    """Exact matrix representation given on the simple reflections."""

    def __init__(self, datum, name, gen_mats):
        self.datum = datum
        self.name = name
        self.gen_mats = tuple(gen_mats)
        self.dim = gen_mats[0].nrows if gen_mats else 0
        self._cache = {0: RationalMatrix.identity(self.dim)}
        self._verify_relations()

    def _verify_relations(self):
        ident = RationalMatrix.identity(self.dim)
        for i in range(self.datum.rank):
            for j in range(self.datum.rank):
                order = self.datum.coxeter_order(i, j)
                prod = self.gen_mats[i] @ self.gen_mats[j]
                acc = ident
                for _ in range(order):
                    acc = prod @ acc
                if acc != ident:
                    raise ValueError(
                        f"defining relation (s{i} s{j})^{order} fails for {self.name}")

    def evaluate(self, w):
        """Matrix of the element with index w, by word evaluation."""
        got = self._cache.get(w)
        if got is None:
            got = RationalMatrix.identity(self.dim)
            for s in self.datum.word_of(w):
                got = got @ self.gen_mats[s]
            self._cache[w] = got
        return got

    def character(self):
        """Class representative index -> trace; constant on conjugacy classes."""
        out = {}
        for cls in self.datum.conjugacy_classes():
            rep = cls[0]
            mat = self.evaluate(rep)
            out[rep] = mat.trace()
        return out

    def trace(self, w):
        return self.evaluate(w).trace()


def _specht(datum, shape):
    """Specht module for S_n (type A datum of rank n-1) via polytabloids;
    shape is a partition of n, as rep_catalog ensures.

    A standard tableau is the tuple of the cells holding 0..n-1, in the
    lexicographic order of permutations of the cells; a tabloid is the
    tuple of each entry's row, so s_k swaps its places k and k+1.  The
    polytabloid of a tableau sums the tabloids of its column permutations,
    each signed by its parity.  Generator matrices are solved in that
    explicit basis, so no straightening is needed.
    """
    cells = [(r, c) for r, row in enumerate(shape) for c in range(row)]
    # standard: each cell's left and upper neighbours hold smaller entries
    tableaux = [t for t in itertools.permutations(cells)
                if all((c == 0 or (r, c - 1) in t[:k]) and (r == 0 or (r - 1, c) in t[:k])
                       for k, (r, c) in enumerate(t))]
    tabloids = {}
    for rows in itertools.permutations(r for r, _c in cells):
        tabloids.setdefault(rows, len(tabloids))

    def parity(p):
        return (-1) ** sum(a > b for a, b in itertools.combinations(p, 2))

    # a column permutation f moves the entry of cell (r, c) to row f[c][r]
    heights = [sum(row > c for row in shape) for c in range(shape[0])]
    flips = [(f, math.prod(map(parity, f)))
             for f in itertools.product(*(itertools.permutations(range(h)) for h in heights))]
    cols = []
    for t in tableaux:
        vec = [0] * len(tabloids)
        for f, sign in flips:
            vec[tabloids[tuple(f[c][r] for r, c in t)]] += sign
        cols.append(vec)
    basis = RationalMatrix.from_columns(cols, len(tabloids))
    solve, gen_mats = basis.solver(), []
    for k in range(datum.rank):
        swapped = [tabloids[t[:k] + (t[k + 1], t[k]) + t[k + 2:]] for t in tabloids]
        gen_mats.append(solve(RationalMatrix.pushforward(swapped, len(tabloids)) @ basis))
    return gen_mats


def rep_catalog(datum, name):
    """Explicit representations: trivial, sign, reflection, reflection*sign,
    and specht:<parts> for type A, spelled as catalog_names spells it
    (for example specht:2,1)."""
    if name == "trivial":
        gens = [RationalMatrix(((1,),)) for _ in range(datum.rank)]
    elif name == "sign":
        gens = [RationalMatrix(((-1,),)) for _ in range(datum.rank)]
    elif name in ("reflection", "reflection*sign"):
        gens = [RationalMatrix(datum.elements[g]) for g in datum.tables["right"][0]]
        if name == "reflection*sign":
            gens = [g.scale(-1) for g in gens]
    elif name.startswith("specht:") and datum.type_label != "A":
        raise UnsupportedTypeError("Specht modules require a type A datum")
    elif name.startswith("specht:") and name in catalog_names(datum):
        gens = _specht(datum, tuple(map(int, name[7:].split(","))))
    else:
        raise UnsupportedTypeError(f"unknown representation name {name!r}")
    return WRepresentation(datum, name, gens)


def catalog_names(datum):
    names = ["trivial", "sign", "reflection", "reflection*sign"]
    if datum.type_label == "A":
        n = datum.rank + 1
        for shape in _partitions(n):
            names.append("specht:" + ",".join(map(str, shape)))
    return names


def _partitions(n, maxpart=None):
    if n == 0:
        yield ()
        return
    maxpart = maxpart or n
    for first in range(min(n, maxpart), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


# -- multiplicity sheaves -------------------------------------------------------

def build_e1v(poset, rep):
    """The invariants (E_1 tensor V)^W, computed at each cell's base point.

    One pass over W gives the stabilizer H of x0 = e.points[0] and some g_k
    with g_k.x0 = x_k for each point.  ``.bases[m]`` is B, the pivot columns
    of P = sum_{h in H} rho(h); its column i stands for the invariant whose
    value at x_k is rho(g_k) B e_i, whichever g_k, as rho(h) P = P.  B and
    its solver depend on H alone and are cached by it (4 stabilizers on
    each rank-2 type).  Pivots: column (x0, i) of sum_w A_w tensor rho(w)
    has the block rho(g_k) P e_i at x_k, so these columns satisfy P's
    linear relations and have P's pivots.  Maps: an invariant is fixed by
    its value at x0, so a covering map's unique solution in the whole,
    full-rank bases is that of its x0 block, with pi = pi_map(m, n):
      dprime, the pushforward:  B_n X = (sum_{k : pi(k) = 0} rho(g_k)) B_m,
      dsecond, the pullback:    B_m X = rho(g^n_{pi(0)}) B_n.
    pi commutes with W, so with j = pi(0) (``pi_base``) the fibre
    {k : pi(k) = 0} is the set of points w.x0, w in H_n (g^n_j)^-1, read
    off the product table: no covering needs the whole of pi.  A map is
    fixed by its side, the stabilizers at m and n and the coset elements it
    uses (the sorted g_k of the fibre, or g^n_j); each distinct key is
    solved once, and every covering with that key holds the one matrix (81
    solves for the 1,110 coverings of A3).
    """
    order, act, dim = poset.datum.order, poset.complex.action, rep.dim
    mul, inv = poset.datum.tables["mul"], poset.datum.tables["inv"]
    blocks, block_of, stabs, at, g = {}, [], [], [], []
    for e in poset.elements:
        c, d = e.points[0]
        at.append([e.point_index[(act[w][c], act[w][d])] for w in range(order)])
        stab = tuple(w for w, k in enumerate(at[-1]) if k == 0)
        if stab not in blocks:
            p = sum(map(rep.evaluate, stab[1:]), rep.evaluate(stab[0]))
            b = RationalMatrix.from_columns(column_space_basis(p), dim)
            blocks[stab] = len(blocks), b, b.solver()
        block_of.append(blocks[stab])    # (index, B, its solver)
        stabs.append(stab)
        g.append(dict(zip(at[-1], range(order))))
    maps, solved = ({}, {}), {}
    for side, m, n in poset.coverings():
        j = poset.pi_base(m, n)
        if side == PRIME:
            # the fibre over n's base point: the points of H_n (g^n_j)^-1
            t = inv[g[n][j]]
            used = tuple(sorted({g[m][at[m][mul[h][t]]] for h in stabs[n]}))
        else:
            used = g[n][j]
        key = side, block_of[m][0], block_of[n][0], used
        got = solved.get(key)
        if got is None:
            if side == PRIME:
                fibre = list(map(rep.evaluate, used))
                got = block_of[n][2](sum(fibre[1:], fibre[0]) @ block_of[m][1])
            else:
                got = block_of[m][2](rep.evaluate(used) @ block_of[n][1])
            solved[key] = got
        maps[side][(m, n)] = got
    bases = [b for _i, b, _solve in block_of]
    sheaf = MixedBruhatSheaf(poset, [b.ncols for b in bases], *maps)
    sheaf.bases = bases
    return sheaf
