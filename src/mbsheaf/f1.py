"""Function sheaves on the W-orbits themselves and their isotypic pieces.

build_e1 carries the space of functions on each orbit, with pushforward
along the point projections in the first order and pullback in the second.
A projection is read off the coset tables of m and n and the image g.x0 of
m's base point (``XiPoset.pi_map``), so each map is built once per distinct
key (side, table of m, table of n, g) and interned by value: every covering
with an equal map holds one object.
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
    tables, mul = poset.coset_tables, poset.datum.tables["mul"]
    table = [e.table for e in poset.elements]
    for side, m, n, j in poset.based_coverings():
        key = side, table[m], table[n], tables[table[n]][1][j]
        if key not in built:
            at, g = tables[table[n]][0], key[3]
            mat = move[side]([at[mul[h][g]] for h in tables[table[m]][1]], dims[n])
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
        return {cls[0]: self.evaluate(cls[0]).trace() for cls in self.datum.conjugacy_classes()}

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
        names += ["specht:" + ",".join(map(str, shape)) for shape in _partitions(datum.rank + 1)]
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

    A cell's coset table (``XiPoset.coset_tables``) gives the stabilizer H
    of x0 = e.points[0] and some g_k with g_k.x0 = x_k for each point.
    ``.bases[m]`` is B, the pivot columns of P = sum_{h in H} rho(h); its
    column i stands for the invariant whose value at x_k is rho(g_k) B e_i,
    whichever g_k, as rho(h) P = P.  B and its solver depend on H alone and
    are cached by it (4 stabilizers on each rank-2 type).  Pivots: column
    (x0, i) of sum_w A_w tensor rho(w) has the block rho(g_k) P e_i at x_k,
    so these columns satisfy P's linear relations and have P's pivots.
    Maps: an invariant is fixed by its value at x0, so a covering map's
    unique solution in the whole, full-rank bases is that of its x0 block,
    with pi = pi_map(m, n):
      dprime, the pushforward:  B_n X = (sum_{k : pi(k) = 0} rho(g_k)) B_m,
      dsecond, the pullback:    B_m X = rho(g^n_{pi(0)}) B_n.
    pi commutes with W, so with j = pi(0), which ``cov_base`` records for
    each covering, the fibre {k : pi(k) = 0} is the set of points w.x0, w in
    H_n (g^n_j)^-1, read off the product table: no covering needs the whole
    of pi.  A map is fixed by its side, the stabilizers at m and n and the
    coset elements it uses (the sorted g_k of the fibre, or g^n_j); each
    distinct key is solved once, and every covering with that key holds the
    one matrix (81 solves for the 1,110 coverings of A3).
    """
    dim, tables, table = rep.dim, poset.coset_tables, [e.table for e in poset.elements]
    mul, inv = poset.datum.tables["mul"], poset.datum.tables["inv"]
    blocks, block_of = {}, []     # per coset table: (index, B, its solver, H)
    for at, _reps in tables:
        stab = tuple(w for w, k in enumerate(at) if k == 0)
        if stab not in blocks:
            p = sum(map(rep.evaluate, stab[1:]), rep.evaluate(stab[0]))
            b = RationalMatrix.from_columns(column_space_basis(p), dim)
            blocks[stab] = len(blocks), b, b.solver(), stab
        block_of.append(blocks[stab])
    maps, solved = ({}, {}), {}
    for side, m, n, j in poset.based_coverings():
        (at, reps), g = tables[table[m]], tables[table[n]][1][j]
        bm, bn = block_of[table[m]], block_of[table[n]]
        # dprime: the fibre over n's base point, the points of H_n g^-1
        used = tuple(sorted({reps[at[mul[h][inv[g]]]] for h in bn[3]})) if side == PRIME else g
        key = side, bm[0], bn[0], used
        got = solved.get(key)
        if got is None:
            if side == PRIME:
                fibre = list(map(rep.evaluate, used))
                got = bn[2](sum(fibre[1:], fibre[0]) @ bm[1])
            else:
                got = bm[2](rep.evaluate(used) @ bn[1])
            solved[key] = got
        maps[side][(m, n)] = got
    bases = [block_of[t][1] for t in table]
    sheaf = MixedBruhatSheaf(poset, [b.ncols for b in bases], *maps)
    sheaf.bases = bases
    return sheaf
