"""The averaging-projector construction of E_1^V, kept as a test oracle.

For every cell this sums the |W| Kronecker products A_w tensor rho(w) into
the projector onto (E_1(m) tensor V)^W, takes its pivot columns as the
basis, and solves each covering map, lifted to A tensor 1_V by an explicit
Kronecker product (``_kron``), by a dense augmented rref
(``dense_reference.RationalMatrix.solve``).  ``mbsheaf.f1.build_e1v``
must give the same dimensions and matrices, and |W| times these bases.

``pair_stabilizer`` and ``invariant_dim`` give dim V^H for the stabilizer H
of each cell's pair, the Frobenius-reciprocity count of the same dimension.
"""

from fractions import Fraction

from dense_reference import RationalMatrix as Dense
from mbsheaf.f1 import build_e1
from mbsheaf.linalg import RationalMatrix, column_space_basis
from mbsheaf.sheaf import MixedBruhatSheaf
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
