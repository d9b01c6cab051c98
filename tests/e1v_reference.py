"""The averaging-projector construction of E_1^V, kept as a test oracle.

For every cell this sums the |W| Kronecker products A_w tensor rho(w) into
the projector onto (E_1(m) tensor V)^W, takes its pivot columns as the
basis, and solves each covering map, lifted to A tensor 1_V by an explicit
Kronecker product (``_kron``), by a dense augmented rref
(``dense_reference.RationalMatrix.solve``).  ``mbsheaf.f1.build_e1v``
must give the same dimensions and matrices, and |W| times these bases.

``build_e1v_ambient`` is the construction that ``build_e1v`` replaced: the
ambient sheaf E_1 tensor V, of Q^dim V-valued functions on the orbits, and
each of its covering maps solved in bases of the whole of E_1(m) tensor V.
``lift_bases`` spells a base-point block of ``build_e1v`` as that whole
basis, so the two constructions compare basis for basis.

``pair_stabilizer`` and ``invariant_dim`` give dim V^H for the stabilizer H
of each cell's pair, the Frobenius-reciprocity count of the same dimension.
"""

from fractions import Fraction

from dense_reference import RationalMatrix as Dense
from mbsheaf.f1 import build_e1
from mbsheaf.linalg import RationalMatrix, column_space_basis
from mbsheaf.sheaf import MixedBruhatSheaf, subsheaf
from mbsheaf.xi import PRIME, SECOND


def _kron(a, b):
    """The Kronecker product a tensor b, entry by entry."""
    bn = b.ncols
    rows = [[(ja * bn + jb, x * y) for ja, x in ra for jb, y in rb]
            for ra in a.sparse_rows for rb in b.sparse_rows]
    return RationalMatrix.from_sparse(rows, a.ncols * bn)


def _dense_solve(basis, rhs):
    x = Dense(basis.rows, basis.ncols).solve(Dense(rhs.rows, rhs.ncols))
    return RationalMatrix(x.rows, x.ncols)


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


def build_e1v_projector(poset, rep):
    """(E_1 tensor V)^W with bases from the image of the averaging projector."""
    e1 = build_e1(poset)
    order = poset.datum.order
    bases = []
    dims = []
    for m in range(len(poset.elements)):
        big = RationalMatrix.zeros(e1.dims[m] * rep.dim, e1.dims[m] * rep.dim)
        for w in range(order):
            big = big + _kron(e1.action_matrix(w, m), rep.evaluate(w))
        proj = big.scale(Fraction(1, order))
        cols = column_space_basis(proj)
        bases.append(RationalMatrix.from_columns(cols, e1.dims[m] * rep.dim))
        dims.append(len(cols))
    ident_v = RationalMatrix.identity(rep.dim)
    dprime = {}
    dsecond = {}
    for m in range(len(poset.elements)):
        for _s, n in poset.cov[PRIME][m]:
            big = _kron(e1.dprime[(m, n)], ident_v)
            dprime[(m, n)] = _dense_solve(bases[n], big @ bases[m])
        for _s, n in poset.cov[SECOND][m]:
            big = _kron(e1.dsecond[(m, n)], ident_v)
            dsecond[(m, n)] = _dense_solve(bases[m], big @ bases[n])
    sheaf = MixedBruhatSheaf(poset, dims, dprime, dsecond)
    sheaf.bases = bases
    return sheaf


def _orbit_functions(poset, dim):
    """Q^dim-valued functions on the orbits: the dims, and the pushforward
    (dprime) and pullback (dsecond) along each covering's point projection.

    Point k's values are the coordinates k*dim .. k*dim + dim - 1, so for
    the point map f each map is E_1's tensor 1_{Q^dim}: the pushforward or
    pullback along k*dim + a -> f(k)*dim + a.
    """
    dims = [e.orbit_size * dim for e in poset.elements]
    maps = ({}, {})
    move = (RationalMatrix.pushforward, RationalMatrix.pullback)    # by side
    for side, m, n in poset.coverings():
        f = [y * dim + a for y in poset.pi_map(m, n) for a in range(dim)]
        maps[side][(m, n)] = move[side](f, dims[n])
    return dims, *maps


def build_e1v_ambient(poset, rep):
    """(E_1 tensor V)^W as a subsheaf of the ambient sheaf E_1 tensor V.

    Each basis is the pivot columns of the columns (x0, i) of
    sum_w A_w tensor rho(w), namely sum_w e_{w.x0} tensor rho(w) e_i, and
    every covering map of ``_orbit_functions(poset, dim V)`` is solved in
    those bases by ``subsheaf``.
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
        x0_cols = RationalMatrix.from_sparse(rows, dim)
        bases.append(RationalMatrix.from_columns(column_space_basis(x0_cols),
                                                 e.orbit_size * dim))
    return subsheaf(MixedBruhatSheaf(poset, *_orbit_functions(poset, dim)), bases)


def lift_bases(sheaf, rep):
    """The whole bases of E_1^V from build_e1v's base-point blocks B_m: the
    block of point x_k is rho(g_k) B_m, for any g_k taking x0 to x_k."""
    poset = sheaf.poset
    act = poset.complex.action
    out = []
    for e, block in zip(poset.elements, sheaf.bases):
        c, d = e.points[0]
        reps = {}
        for w in range(poset.datum.order):
            reps.setdefault(e.point_index[(act[w][c], act[w][d])], w)
        rows = [r for k in range(e.orbit_size)
                for r in (rep.evaluate(reps[k]) @ block).sparse_rows]
        out.append(RationalMatrix.from_sparse(rows, block.ncols))
    return out
