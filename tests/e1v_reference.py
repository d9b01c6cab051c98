"""The averaging-projector construction of E_1^V, kept as a test oracle.

For every cell this sums the |W| Kronecker products A_w tensor rho(w) into
the projector onto (E_1(m) tensor V)^W, takes its pivot columns as the
basis, and solves each lifted covering map by a dense augmented rref
(``dense_reference.RationalMatrix.solve``).  ``mbsheaf.f1.build_e1v``
must give the same bases, dimensions and matrices.
"""

from fractions import Fraction

from dense_reference import RationalMatrix as Dense
from mbsheaf.f1 import _kron, build_e1
from mbsheaf.linalg import RationalMatrix, column_space_basis
from mbsheaf.sheaf import MixedBruhatSheaf
from mbsheaf.xi import PRIME, SECOND


def _dense_solve(basis, rhs):
    x = Dense(basis.rows, basis.ncols).solve(Dense(rhs.rows, rhs.ncols))
    return RationalMatrix(x.rows, x.ncols)


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
