"""Mixed Bruhat sheaves: exact matrix data on the 2-sided complex.

A sheaf assigns a dimension to every cell, a matrix to every covering
relation of >=' (covariant) and of >='' (contravariant).  The three axioms:
transitivity of both families (MBS1), the mixed-supremum commutation rule
(MBS2), and invertibility across anodyne relations (MBS3).
"""

from __future__ import annotations

import itertools

from .linalg import RationalMatrix, Span
from .report import Report
from .xi import PRIME, SECOND, SIDE_NAMES, OrderError, arrow


class PathDependenceError(RuntimeError):
    """Two covering chains between the same cells compose differently."""


class OpenLoopError(RuntimeError):
    """A cell path meant to be a loop ends away from its start."""


class MixedBruhatSheaf:
    """Dimensions per cell plus covering matrices for both orders."""

    def __init__(self, poset, dims, dprime, dsecond):
        self.poset = poset
        self.dims = tuple(dims)
        self.dprime = dict(dprime)      # (m, n) with m >=' n covering: E(m) -> E(n)
        self.dsecond = dict(dsecond)    # (m, n) with m >='' n covering: E(n) -> E(m)
        self._composites = ({}, {})     # per side: (m, n) -> chain-checked composite
        self._stalks = {}               # cell -> cohomology of its stalk complex

    @property
    def total_dim(self):
        return sum(self.dims)

    def copy_with(self, dims, dprime, dsecond):
        return MixedBruhatSheaf(self.poset, dims, dprime, dsecond)

    def maps(self, side):
        """The covering matrices of one side: dprime for PRIME, dsecond for SECOND."""
        return (self.dprime, self.dsecond)[side]


def _compose(E, side, m, n):
    """Composite matrix along m >= n on `side`: E(m) -> E(n) or E(n) -> E(m).

    On first use the interval is checked for path independence, and a
    disagreement raises PathDependenceError (a transitivity violation).
    The maximal covering chains of an interval with k added generators are
    the k! orders of adding them, but k products suffice: every chain starts
    with one covering step m -> phi_s m and goes on by a maximal chain of
    [phi_s m, n].  Once each such shorter interval is path independent
    (checked recursively), every chain through step s has the product
    C(phi_s m, n) o d(m -> phi_s m), so the chain products are exactly these
    k products.  If a shorter interval raises PathDependenceError, that
    argument fails, and all k! chain products are compared instead.
    """
    if m == n:
        return RationalMatrix.identity(E.dims[m])
    cache = E._composites[side]
    got = cache.get((m, n))
    if got is None:
        if not E.poset.leq_side(side, n, m):
            order = ">=" + "'" * (side + 1)
            raise OrderError(f"compose_{SIDE_NAMES[side]} requires m {order} n")
        try:
            prods = _first_step_products(E, side, m, n)
        except PathDependenceError:
            prods = _all_chain_products(E, side, m, n)
        if any(p != prods[0] for p in prods[1:]):
            raise PathDependenceError((SIDE_NAMES[side], m, n))
        got = cache[(m, n)] = prods[0]
    return got


def _first_step_products(E, side, m, n):
    """C(phi_s m, n) o d(m -> phi_s m) for every generator s added from m to n.

    A dprime map runs down the interval, so the first step comes first in
    the product; a dsecond map runs up it, so the first step comes last.
    """
    target = E.poset.elements[n].typeIJ[side]
    step = E.maps(side)
    out = []
    for s, t in E.poset.cov[side][m]:
        if s in target:
            rest = _compose(E, side, t, n)
            out.append(rest @ step[(m, t)] if side == PRIME else step[(m, t)] @ rest)
    return out


def compose_prime(E, m, n):
    """Composite matrix E(m) -> E(n) for m >=' n."""
    return _compose(E, PRIME, m, n)


def compose_second(E, m, n):
    """Composite matrix E(n) -> E(m) for m >='' n."""
    return _compose(E, SECOND, m, n)


def _all_chain_products(E, side, m, n):
    """Products over every maximal covering chain from m down to n on `side`.

    The chains are the permutations of the added generators.  A dprime map
    runs down the chain, so its product takes the steps in chain order; a
    dsecond map runs up it, so its product takes them in reverse.
    """
    poset, maps = E.poset, E.maps(side)
    added = tuple(sorted(set(poset.elements[n].typeIJ[side])
                         - set(poset.elements[m].typeIJ[side])))
    out = []
    for perm in itertools.permutations(added):
        steps = []
        cur = m
        for s in perm:
            nxt = poset.phi(cur, side,
                            tuple(sorted(set(poset.elements[cur].typeIJ[side]) | {s})))
            steps.append(maps[(cur, nxt)])
            cur = nxt
        if side == SECOND:
            steps.reverse()
        mat = RationalMatrix.identity(E.dims[arrow(side, m, n)[0]])
        for step in steps:
            mat = step @ mat
        out.append(mat)
    return out


def check_mbs(E):
    """Verify MBS1-3; ok means E is a mixed Bruhat sheaf.  Witnesses: shape (order, m,
    n, message), MBS1 (order, m, n) with path-dependent composites, MBS2 (m', n', n)
    failing the supremum sum, MBS3 (order, m, n) anodyne covering not invertible.

    MBS1 checks k first-step products per interval, not k! chains (``_compose``);
    MBS2 takes suprema as intersections of up-sets built once (``XiPoset.sup``);
    MBS3 passes a monomial covering matrix without elimination (``is_invertible``).
    """
    from .faces import subsets_sorted
    poset = E.poset
    rep = Report("shape", "MBS1", "MBS2", "MBS3")
    shape, mbs1, mbs2, mbs3 = rep.witnesses.values()

    # shapes on every covering relation
    for side, m, n in poset.coverings():
        mat = E.maps(side).get((m, n))
        src, dst = arrow(side, m, n)
        if mat is None or mat.shape != (E.dims[dst], E.dims[src]):
            shape.append((SIDE_NAMES[side], m, n, "missing or misshaped matrix"))
    if shape:
        return rep

    # MBS1: path independence of composites, both orders; the entry points
    # are looked up per call, so rebinding compose_prime/compose_second works
    compose = (compose_prime, compose_second)
    rank = poset.datum.rank
    for m, e in enumerate(poset.elements):
        for side in (PRIME, SECOND):
            K = e.typeIJ[side]
            for K2 in subsets_sorted(rank):
                if not set(K) < set(K2) or len(K2) - len(K) < 2:
                    continue
                try:
                    compose[side](E, m, poset.phi(m, side, K2))
                except PathDependenceError as exc:
                    mbs1.append(exc.args[0])
    if mbs1:
        return rep

    # MBS2: the supremum sum over every configuration m' >=' n' <='' n
    pups = poset.ups(PRIME)
    sups = poset.ups(SECOND)
    for np_ in range(len(poset.elements)):
        for mp in pups[np_]:
            d_prime = compose_prime(E, mp, np_)
            for n in sups[np_]:
                if mp == np_ == n:
                    continue
                lhs = compose_second(E, n, np_) @ d_prime
                rhs = RationalMatrix.zeros(E.dims[n], E.dims[mp])
                for m in poset.sup(mp, n):
                    rhs = rhs + (compose_prime(E, m, n) @ compose_second(E, m, mp))
                if lhs != rhs:
                    mbs2.append((mp, np_, n))

    # MBS3: anodyne coverings must be invertible
    for side, m, n in poset.coverings():
        if poset.elements[m].orbit_size == poset.elements[n].orbit_size:
            mat = E.maps(side)[(m, n)]
            if not mat.is_invertible():
                mbs3.append((SIDE_NAMES[side], m, n))
    return rep


def dual(E):
    """The twisted dual: spaces at the coordinate swap, transposed matrices."""
    tau = E.poset.tau
    dims = [E.dims[tau(m)] for m in range(len(E.poset.elements))]
    maps = ({}, {})
    for side, m, n in E.poset.coverings():
        maps[side][(m, n)] = E.maps(1 - side)[(tau(m), tau(n))].transpose()
    return E.copy_with(dims, *maps)


class BicubeData:
    """Induction/restriction family on the cube of standard parabolic types."""

    def __init__(self, spaces, v, u):
        self.spaces = spaces    # I -> dimension
        self.v = v              # (I, J) -> matrix Q_I -> Q_J for I subset J
        self.u = u              # (I, J) -> matrix Q_J -> Q_I

    def transitive(self):
        subsets = list(self.spaces)
        for I in subsets:
            if self.v[(I, I)] != RationalMatrix.identity(self.spaces[I]):
                return False
            if self.u[(I, I)] != RationalMatrix.identity(self.spaces[I]):
                return False
        for I in subsets:
            for J in subsets:
                if not set(I) <= set(J):
                    continue
                for K in subsets:
                    if not set(J) <= set(K):
                        continue
                    if self.v[(I, K)] != self.v[(J, K)] @ self.v[(I, J)]:
                        return False
                    if self.u[(I, K)] != self.u[(I, J)] @ self.u[(J, K)]:
                        return False
        return True


def bicube(E):
    """Collapse a sheaf to its bicube on the corner cells W(0,K_I), W(K_I,K_I), W(K_I,0).

    With the first coordinate playing the imaginary role, W(0,K_I) >='' W(0,K_J)
    and W(K_I,0) >=' W(K_J,0) for I inside J; u is read off the first chain
    directly and v is conjugated through the anodyne zig-zag phi_I.
    """
    poset = E.poset
    cx = poset.complex
    zero = cx.zero_face()
    from .faces import subsets_sorted
    subsets = subsets_sorted(poset.datum.rank)
    m_prime = {}
    m_diag = {}
    m_second = {}
    for I in subsets:
        ki = cx.dominant_face(I)
        m_prime[I] = poset.xi_orbit(zero, ki).index
        m_diag[I] = poset.xi_orbit(ki, ki).index
        m_second[I] = poset.xi_orbit(ki, zero).index
    phi = {}
    for I in subsets:
        a = compose_prime(E, m_diag[I], m_prime[I])      # E(m_I) -> E(m'_I), anodyne
        b = compose_second(E, m_diag[I], m_second[I])    # E(m''_I) -> E(m_I), anodyne
        phi[I] = b.inverse() @ a.inverse()               # Q_I -> E(m''_I)
    spaces = {I: E.dims[m_prime[I]] for I in subsets}
    v = {}
    u = {}
    for I in subsets:
        for J in subsets:
            if not set(I) <= set(J):
                continue
            u[(I, J)] = compose_second(E, m_prime[I], m_prime[J])
            v[(I, J)] = phi[J].inverse() @ compose_prime(E, m_second[I], m_second[J]) @ phi[I]
    return BicubeData(spaces, v, u)


class PhiPsi:
    """Rank-one reduction data: the nearby/vanishing style presentation."""

    def __init__(self, phi_dim, psi_dim, u, v, t, t_invertible):
        self.phi_dim = phi_dim
        self.psi_dim = psi_dim
        self.u = u                  # Q_S -> Q_0 (phi -> psi)
        self.v = v                  # Q_0 -> Q_S (psi -> phi)
        self.t = t                  # Id_psi - u v
        self.t_invertible = t_invertible


def phi_psi(E):
    """The (Phi, Psi) reduction for a rank-1 datum; T = Id_Psi - uv must be invertible."""
    poset = E.poset
    if poset.datum.rank != 1:
        raise ValueError("phi_psi is defined for rank-1 data only")
    q = bicube(E)
    full = (0,)
    u = q.u[((), full)]
    v = q.v[((), full)]
    t = RationalMatrix.identity(q.spaces[()]) - (u @ v)
    return PhiPsi(q.spaces[full], q.spaces[()], u, v, t, t.is_invertible())


# -- local system transport ------------------------------------------------------

def validate_path(poset, path):
    """Check a cell path: one stratum, consecutive pure anodyne steps.

    Returns (side, hi, lo) per step: the step runs up from lo to hi or
    down from hi to lo, with hi >= lo on that side.
    """
    if len(path) < 1:
        raise ValueError("empty path")
    flat = poset.elements[path[0]].flat
    for m in path:
        if poset.elements[m].flat != flat:
            raise ValueError("path leaves its stratum")
    steps = []
    for a, b in zip(path, path[1:]):
        step = next(((side, hi, lo) for hi, lo in ((b, a), (a, b)) for side in (PRIME, SECOND)
                     if poset.leq_side(side, lo, hi)), None)
        if step is None:
            raise ValueError(f"step {a} -> {b} is not a pure <=' or <='' step")
        if poset.elements[step[1]].orbit_size != poset.elements[step[2]].orbit_size:
            raise ValueError(f"step {a} -> {b} is not anodyne")
        steps.append(step)
    return steps


def transport(E, path):
    """Ordered product of generalization maps along an anodyne cell path.

    A PRIME map runs hi -> lo and a SECOND map lo -> hi, so a step against
    its map's direction takes the inverse.
    """
    steps = validate_path(E.poset, path)
    mat = RationalMatrix.identity(E.dims[path[0]])
    compose = (compose_prime, compose_second)
    for (side, hi, lo), a in zip(steps, path):
        step = compose[side](E, hi, lo)
        mat = (step.inverse() if arrow(side, hi, lo)[0] != a else step) @ mat
    return mat


def monodromy(E, loop):
    if loop[0] != loop[-1]:
        raise ValueError("monodromy requires a closed path")
    return transport(E, loop)


def standard_loops(poset):
    """One generating loop in the open stratum around each W-orbit of walls.

    The loop around a wall face P with adjacent chambers C, C' visits
    W(P,C) -> W(C,C) -> W(C,P) -> W(C,C') -> W(P,C') = W(P,C).
    """
    cx = poset.complex
    loops = []
    seen_flats = set()
    walls = [f for f in cx.faces if cx.face_dim(f) == poset.datum.rank - 1]
    chambers = [f for f in cx.faces if f.type_I == ()]
    for p in sorted(walls, key=lambda f: f.key):
        flat = poset._flat_canonical(cx.span_closure(p.zero_set))
        if flat in seen_flats:
            continue
        seen_flats.add(flat)
        adj = [c for c in chambers if cx.face_leq(p, c)]
        loops.append(_wall_loop(poset, p, adj[0], adj[1]))
    return loops


def _wall_loop(poset, p, c, cp):
    """The cell path W(P,C) -> W(C,C) -> W(C,P) -> W(C,C') -> W(P,C').

    It closes when C and C' are the chambers on the two sides of the wall
    P; a path that does not close raises OpenLoopError.
    """
    loop = [poset.xi_orbit(p, c).index,
            poset.xi_orbit(c, c).index,
            poset.xi_orbit(c, p).index,
            poset.xi_orbit(c, cp).index,
            poset.xi_orbit(p, cp).index]
    if loop[0] != loop[-1]:
        raise OpenLoopError(f"path around wall {p!r} ends at cell {loop[-1]}, not {loop[0]}")
    return loop


# -- subobjects --------------------------------------------------------------------

def generated_sub(E, seeds):
    """Smallest subsheaf containing the seed vectors.

    seeds: mapping element index -> iterable of vectors in E(m).  The result
    is closed under all covering maps of both orders and under inverses of
    anodyne covering maps.
    """
    poset = E.poset
    spans = [Span(E.dims[m]) for m in range(len(poset.elements))]
    for m, vecs in seeds.items():
        for v in vecs:
            spans[m].add(v)
    moves = []
    for side, m, n in poset.coverings():
        mat = E.maps(side)[(m, n)]
        src, dst = arrow(side, m, n)
        moves.append((src, dst, mat))
        if (poset.elements[m].orbit_size == poset.elements[n].orbit_size
                and mat.is_invertible()):
            moves.append((dst, src, mat.inverse()))
    changed = True
    while changed:
        changed = False
        for src, dst, mat in moves:
            for row in list(spans[src].rows):
                if spans[dst].add(mat.apply(row)):
                    changed = True
    return subsheaf(E, [s.basis_matrix() for s in spans])


def subsheaf(E, bases, lift=None):
    """The subsheaf whose stalk at cell m is the column span of bases[m] (kept as .bases).

    Each covering map of E (through lift, if given) is applied to its source
    basis and solved against its target basis, which is factored once; the
    solves are exact, so a span that a map does not preserve raises ValueError.
    """
    solve = [b.solver() for b in bases]
    lift = lift or (lambda mat: mat)
    maps = ({}, {})
    for side, m, n in E.poset.coverings():
        src, dst = arrow(side, m, n)
        maps[side][(m, n)] = solve[dst](lift(E.maps(side)[(m, n)]) @ bases[src])
    sub = MixedBruhatSheaf(E.poset, [b.ncols for b in bases], *maps)
    sub.bases = bases
    return sub


def is_simple(E):
    """Whether no proper nonzero subsheaf is generated by any basis vector.

    A cyclic search over basis vectors of every cell: sufficient at this
    scale, a semi-decision in general.
    """
    total = E.total_dim
    if total == 0:
        return False
    for m in range(len(E.poset.elements)):
        for k in range(E.dims[m]):
            vec = tuple(1 if i == k else 0 for i in range(E.dims[m]))
            sub = generated_sub(E, {m: [vec]})
            if 0 < sub.total_dim < total:
                return False
    return True
