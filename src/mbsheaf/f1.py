"""Function sheaves on the W-orbits themselves and their isotypic pieces.

build_e1 carries the space of functions on each orbit, with pushforward
along the point projections in the first order and pullback in the second.
build_e1v cuts out the W-invariants of E_1 tensor V for an explicit
representation V by Frobenius reciprocity: on an orbit W/H,
(Fun(W/H) tensor V)^W = V^H, so each cell's basis is built from values at
its base point, and E_1's maps tensor 1_V are solved in those bases.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .coxeter import UnsupportedTypeError, _simple_reflections
from .linalg import RationalMatrix, column_space_basis
from .sheaf import MixedBruhatSheaf, subsheaf
from .xi import PRIME, SECOND


class E1Sheaf(MixedBruhatSheaf):
    """E_1 with its W-action: permutation matrices on every orbit."""

    def action_matrix(self, w, m):
        """Permutation matrix of w on the point basis of cell m."""
        poset = self.poset
        act = poset.complex.action
        e = poset.elements[m]
        rows = [()] * e.orbit_size
        for k, (c, d) in enumerate(e.points):
            rows[e.point_index[(act[w][c], act[w][d])]] = ((k, 1),)
        return RationalMatrix.from_sparse(rows, e.orbit_size)


def build_e1(poset):
    """Functions on orbits: dims are orbit sizes, maps are (pi)_* and pi^*."""
    dims = [e.orbit_size for e in poset.elements]
    dprime = {}
    dsecond = {}
    for m in range(len(poset.elements)):
        for _s, n in poset.cov[PRIME][m]:
            rows = [[] for _ in range(dims[n])]
            for src, dst in enumerate(poset.pi_map(m, n)):
                rows[dst].append((src, 1))
            dprime[(m, n)] = RationalMatrix.from_sparse(rows, dims[m])
        for _s, n in poset.cov[SECOND][m]:
            dsecond[(m, n)] = RationalMatrix.from_sparse(
                [((dst, 1),) for dst in poset.pi_map(m, n)], dims[n])
    return E1Sheaf(poset, dims, dprime, dsecond)


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


def _standard_tableaux(shape):
    """Standard Young tableaux of the given partition shape."""
    cells = [(r, c) for r, row in enumerate(shape) for c in range(row)]
    n = len(cells)
    out = []

    def grow(filling):
        if len(filling) == n:
            out.append(dict(filling))
            return
        k = len(filling) + 1
        for (r, c) in cells:
            if (r, c) in filling:
                continue
            if c > 0 and (r, c - 1) not in filling:
                continue
            if r > 0 and (r - 1, c) not in filling:
                continue
            filling[(r, c)] = k
            grow(filling)
            del filling[(r, c)]

    grow({})
    return out


def _sign_of(orig, img):
    """Sign of the permutation taking the list orig to the list img."""
    inv = sum(1 for i in range(len(img)) for j in range(i + 1, len(img))
              if orig.index(img[i]) > orig.index(img[j]))
    return (-1) ** inv


def _specht(datum, shape):
    """Specht module for S_n (type A datum of rank n-1) via polytabloids.

    Basis: polytabloids of standard tableaux inside the tabloid module;
    generator matrices are obtained by solving in that explicit basis, so
    no straightening is needed.
    """
    n = datum.rank + 1
    if sum(shape) != n:
        raise UnsupportedTypeError(f"partition {shape} is not a partition of {n}")
    if any(a < b for a, b in zip(shape, shape[1:])) or any(a <= 0 for a in shape):
        raise UnsupportedTypeError(f"{shape} is not a partition")

    def fill_rows(rows, remaining):
        if not rows:
            yield ()
            return
        head, *tail = rows
        for combo in itertools.combinations(sorted(remaining), head):
            for rest in fill_rows(tail, remaining - set(combo)):
                yield (frozenset(combo),) + rest

    tabloids = list(fill_rows(list(shape), set(range(1, n + 1))))
    tab_index = {t: i for i, t in enumerate(tabloids)}

    def apply_perm(perm, tabloid):
        return tuple(frozenset(perm.get(x, x) for x in row) for row in tabloid)

    def tabloid_of(filling):
        rows = {}
        for (r, _c), val in filling.items():
            rows.setdefault(r, set()).add(val)
        return tuple(frozenset(rows[r]) for r in range(len(shape)))

    def polytabloid(filling):
        cols = {}
        for (r, c), val in filling.items():
            cols.setdefault(c, []).append((r, val))
        col_lists = [[val for _r, val in sorted(cl)] for cl in cols.values()]
        base = tabloid_of(filling)
        vec = [0] * len(tabloids)
        for perms in itertools.product(*[itertools.permutations(cl) for cl in col_lists]):
            perm = {}
            sign = 1
            for orig, img in zip(col_lists, perms):
                perm.update(dict(zip(orig, img)))
                sign *= _sign_of(orig, list(img))
            vec[tab_index[apply_perm(perm, base)]] += sign
        return vec

    std = _standard_tableaux(shape)
    basis = RationalMatrix.from_columns([tuple(polytabloid(t)) for t in std],
                                        len(tabloids))
    gen_mats = []
    for s in range(datum.rank):
        perm = {s + 1: s + 2, s + 2: s + 1}
        rows = [()] * len(tabloids)
        for i, t in enumerate(tabloids):
            rows[tab_index[apply_perm(perm, t)]] = ((i, 1),)
        big = RationalMatrix.from_sparse(rows, len(tabloids))
        gen_mats.append(basis.solve(big @ basis))
    return gen_mats


def rep_catalog(datum, name):
    """Explicit representations: trivial, sign, reflection, reflection*sign,
    and specht:<parts> for type A (for example specht:2,1)."""
    key = name.strip().lower().replace("⊗", "*")
    if key == "trivial":
        gens = [RationalMatrix(((1,),)) for _ in range(datum.rank)]
    elif key == "sign":
        gens = [RationalMatrix(((-1,),)) for _ in range(datum.rank)]
    elif key == "reflection":
        gens = [RationalMatrix(g) for g in _simple_reflections(datum.cartan)]
    elif key in ("reflection*sign", "reflection-sign", "reflection_sign"):
        gens = [RationalMatrix(g).scale(-1) for g in _simple_reflections(datum.cartan)]
    elif key.startswith("specht:") or key.startswith("specht("):
        if datum.type_label != "A":
            raise UnsupportedTypeError("Specht modules require a type A datum")
        parts = key.split(":", 1)[1] if ":" in key else key[7:].rstrip(")")
        shape = tuple(int(p) for p in parts.replace("(", "").replace(")", "").split(","))
        gens = _specht(datum, shape)
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

def _kron(a, b):
    bn = b.ncols
    rows = [[(ja * bn + jb, x * y) for ja, x in ra for jb, y in rb]
            for ra in a.sparse_rows for rb in b.sparse_rows]
    return RationalMatrix.from_sparse(rows, a.ncols * bn)


def pair_stabilizer(poset, m):
    """Indices of the elements fixing the canonical pair of cell m."""
    act = poset.complex.action
    c, d = poset.elements[m].pair
    return [w for w in range(poset.datum.order)
            if act[w][c.index] == c.index and act[w][d.index] == d.index]


def invariant_dim(rep, subgroup):
    """dim V^H for an explicit subgroup, via the averaging projector rank."""
    if rep.dim == 0:
        return 0
    acc = RationalMatrix.zeros(rep.dim, rep.dim)
    for w in subgroup:
        acc = acc + rep.evaluate(w)
    return acc.scale(Fraction(1, len(subgroup))).rank()


def build_e1v(poset, rep):
    """The invariants (E_1 tensor V)^W, each basis built at the base point.

    An invariant is fixed by its value at x0 = e.points[0], so the columns
    (x0, i) of the projector P = (1/|W|) sum_w A_w tensor rho(w), namely
    (1/|W|) sum_w e_{w.x0} tensor rho(w) e_i, summed here over W, span P's
    image.  They are P's first dim V columns: P's pivot columns are theirs.
    """
    order, act, dim = poset.datum.order, poset.complex.action, rep.dim
    bases = []
    for e in poset.elements:
        c, d = e.points[0]
        rows = [[] for _ in range(e.orbit_size * dim)]
        for w in range(order):
            off = e.point_index[(act[w][c], act[w][d])] * dim
            for r, row in enumerate(rep.evaluate(w).sparse_rows):
                rows[off + r] += row
        x0_cols = RationalMatrix.from_sparse(rows, dim).scale(Fraction(1, order))
        bases.append(RationalMatrix.from_columns(column_space_basis(x0_cols),
                                                 e.orbit_size * dim))
    ident_v = RationalMatrix.identity(dim)
    return subsheaf(build_e1(poset), bases, lambda mat: _kron(mat, ident_v))
