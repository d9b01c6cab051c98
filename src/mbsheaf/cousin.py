"""Stalk complexes of the Cousin resolution and the perversity support checks.

One algorithm serves both orders.  On a side, with T(n) the type of n there,
the stalk complex at a cell m collects the spaces at its up-set on that side,
each n in degree |T(n)| - r.  Its blocks are the side's coverings adding an
index of T(m), signed by the sign of inserting it: dprime maps on PRIME,
transposed dsecond maps on SECOND, so the SECOND complex at m is the PRIME
complex of the twisted dual at tau(m).  d^2 = 0 is read off MBS1's squares.

The suite reads one verdict, E._axioms: the Report that check_mbs stores
on E once it has finished, run on first use where there is none.  On a
sheaf that passed, a side's stalk cohomology is constant on its stratum
classes (``XiPoset.stratification_classes``): PRIME on the S1 classes,
keyed by (I, Hor), and SECOND on the tau-S1 classes, keyed by (J, Ver).
So the suite builds one complex per class, at the class's cell with the
fewest term dimensions, and files its cohomology under every cell of the
class; a report still names every failing cell, in cell order.  The lemma
rests on MBS1-3, so a sheaf that failed an axiom has a complex built at
every cell: a reduced scan is no proof there.

The lemma.  Let m = W(c, d_m) >'' n = W(c, d_n) be an anodyne covering; S1
is generated by these, so it is enough that the PRIME complexes at n and m
have the same cohomology.
- Terms.  Those at n are the cells x = W(c', d_n) with c' a face having c
  in its closure, and those at m the cells x' = W(c', d_m), each c' taken
  up to Stab c & Stab d_n, resp. Stab c & Stab d_m.  Both groups are
  Stab(c o d_n) = Stab(c o d_m), as the covering is anodyne, so x -> x' is
  a bijection.  It keeps c', hence the type, the degree and _insert_sign,
  and it takes the block from x to y = W(c'', d_n) to the block from x' to
  y' = W(c'', d_m).
- Each x' >'' x is an anodyne covering: c' o c = c', so by associativity of
  the Tits product c' o d_m = c' o (c o d_m) = c' o (c o d_n) = c' o d_n.
- For each block, x >=' y <='' y' is a covering configuration whose SECOND
  leg is anodyne, and there sup(x, y') is the one cell x', anodyne over x
  (checked on every supported type by tests/test_faces_xi.py).  So MBS2
  reads C''(y', y) C'(x, y) = C'(x', y') C''(x', x): the maps C''(x', x)
  form a chain map from the complex at n to the one at m, invertible term
  by term by MBS3.
tau swaps the orders and takes sup(m', n) to sup(tau n, tau m'), so the
mirror argument runs through the configurations whose PRIME leg is anodyne:
along an anodyne PRIME covering W(c_m, d) >' W(c_n, d), the maps
C'(W(c_m, d'), W(c_n, d')), transposed, form a chain map between the SECOND
complexes, and SECOND cohomology is constant on tau-S1 classes.
"""

from __future__ import annotations

from .linalg import RationalMatrix
from .report import Report
from .sheaf import check_mbs
from .xi import PRIME, SECOND, SIDE_NAMES, xi_id


class SignConventionError(RuntimeError):
    """d^2 != 0: the sheaf violates transitivity or the sign bookkeeping."""


def _insert_sign(I1, alpha):
    """Sign of wedging e_alpha onto det(I1), indices in the global root order."""
    return (-1) ** sum(1 for beta in I1 if beta > alpha)


class StalkComplex:
    """One cell's stalk of the Cousin complex, with exact differentials."""

    def __init__(self, cell, degrees, labels, dims, differentials, cohomology):
        self.cell = cell
        self.degrees = degrees              # sorted tuple of degrees present
        self.labels = labels                # degree -> tuple of (type, element) blocks
        self.dims = dims                    # degree -> total dimension
        self.differentials = differentials  # degree -> matrix deg -> deg+1
        self.cohomology = cohomology        # degree -> cohomology dimension

    def euler_characteristic(self):
        return sum((1 if d % 2 == 0 else -1) * dim for d, dim in self.dims.items())

    def cohomology_profile(self):
        """Nonzero cohomology as a sorted tuple of (degree, dimension)."""
        return _profile(self.cohomology)


def _profile(cohomology):
    return tuple(sorted((d, h) for d, h in cohomology.items() if h))


def stalk_complex(E, m, side=PRIME):
    """The stalk complex at cell m on `side`, its terms ordered by (T(n), n).

    E's axiom report (module docstring) must hold no shape witness and no
    failing square of `side`: d^2 = 0 exactly when the side's squares commute.
    With e(I, a) = (-1)^#{b in I : b > a} and a < b, e(I + a, b) = e(I, b)
    and e(I + b, a) = -e(I, a): the two paths round a square carry opposite
    signs, and the block of d^2 from n to phi_b phi_a n is their difference.
    Every square of a side lies in the complex at its last cell.
    """
    poset = E.poset
    axioms = (check_mbs(E) if E._axioms is None else E._axioms).witnesses
    if axioms["shape"]:
        order, top, bottom, message = axioms["shape"][0]
        raise ValueError(f"{message}: the {order} covering from {xi_id(poset, top)} "
                         f"to {xi_id(poset, bottom)}")
    for order, top, bottom in axioms["MBS1"]:
        if order == SIDE_NAMES[side]:
            raise SignConventionError(f"d^2 != 0: the {order} square from {xi_id(poset, top)} "
                                      f"to {xi_id(poset, bottom)} does not commute")
    r = poset.datum.rank
    T0 = poset.elements[m].typeIJ[side]
    labels = {size - r: [] for size in range(len(T0) + 1)}
    dims = dict.fromkeys(labels, 0)
    offset = {}                     # term -> its first index in its degree's space
    terms = [(poset.elements[n].typeIJ[side], n) for n in poset.ups(side)[m]]
    for T, n in sorted(terms, key=lambda t: (len(t[0]), t)):
        deg = len(T) - r
        labels[deg].append((T, n))
        offset[n] = dims[deg]
        dims[deg] += E.dims[n]
    diffs = {}
    for deg in list(labels)[:-1]:
        rows = [[] for _ in range(dims[deg + 1])]
        for T1, n1 in labels[deg]:
            for alpha, n2 in poset.cov[side][n1]:
                if alpha not in T0:
                    continue
                sign = _insert_sign(T1, alpha)
                ro, co = offset[n2], offset[n1]
                # entry (i, j) of a dsecond block lands at (j, i): its transpose
                for i, row in enumerate(E.maps(side)[(n1, n2)].sparse_rows):
                    for j, x in row:
                        dst, src = (i, j) if side == PRIME else (j, i)
                        rows[ro + dst].append((co + src, sign * x))
        diffs[deg] = RationalMatrix.from_sparse(rows, dims[deg])
    labels = {deg: tuple(blocks) for deg, blocks in labels.items()}
    ranks = {deg: d.rank() for deg, d in diffs.items()}
    cohomology = {deg: dim - ranks.get(deg, 0) - ranks.get(deg - 1, 0)
                  for deg, dim in dims.items()}
    return StalkComplex(m, tuple(sorted(dims)), labels, dims, diffs, cohomology)


def _stalk_cohomology(E, side, m):
    """Cohomology of the stalk complex at m on `side`, by degree, memoised per
    sheaf; the differentials are not kept.  On a sheaf that passed check_mbs,
    the first call on a side builds one complex per class of the side and
    files it under each cell of the class (module docstring); on one that
    failed, each call builds the complex at its own cell."""
    if (side, m) not in E._stalks:
        if (check_mbs(E) if E._axioms is None else E._axioms).ok:
            ups = E.poset.ups(side)
            for cls in E.poset.stratification_classes()[1 + side]:
                rep = min(cls, key=lambda n: sum(E.dims[k] for k in ups[n]))
                E._stalks.update(dict.fromkeys([(side, n) for n in cls],
                                               stalk_complex(E, rep, side).cohomology))
        else:
            E._stalks[(side, m)] = stalk_complex(E, m, side).cohomology
    return E._stalks[(side, m)]


def support_check(E, side=PRIME):
    """Perversity support on `side`: nonzero H^d at a cell forces stratum
    dimension <= -d.  Every cell and degree is examined, its cohomology read
    off its class's complex once check_mbs passed; a witness is (cell,
    degree, h_dim, stratum_dim, False).  A degree with no terms has none.
    """
    rep = Report("support")
    for m in range(len(E.poset.elements)):
        stratum_dim = E.poset.elements[m].flat.dim
        for deg, h in sorted(_stalk_cohomology(E, side, m).items()):
            if h and stratum_dim > -deg:
                rep.witnesses["support"].append((m, deg, h, stratum_dim, False))
    return rep


def coperversity_check(E):
    """The dual-side support condition, on the SECOND stalks of E itself."""
    return support_check(E, SECOND)


def constructibility_check(E):
    """Stalk cohomology profiles must be constant along every flat class.

    Once check_mbs passed, each cell's PRIME profile is its S1 class's, so
    this compares the classes' profiles within each flat.  A witness is
    (cell, its profile, the class's first profile, None, False).
    """
    profiles = [_profile(_stalk_cohomology(E, PRIME, m)) for m in range(len(E.poset.elements))]
    rep = Report("constructibility")
    for cls in E.poset.stratification_classes()[0]:     # S0: cells by flat
        ref = profiles[cls[0]]
        rep.witnesses["constructibility"].extend(
            (m, profiles[m], ref, None, False) for m in cls if profiles[m] != ref)
    return rep
