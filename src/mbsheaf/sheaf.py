"""Mixed Bruhat sheaves: exact matrix data on the 2-sided complex.

A sheaf assigns a dimension to every cell, a matrix to every covering
relation of >=' (covariant) and of >='' (contravariant).  The three axioms:
transitivity of both families (MBS1), the mixed-supremum commutation rule
(MBS2), and invertibility across anodyne relations (MBS3).
"""

from __future__ import annotations

import itertools

from .linalg import RationalMatrix, Span
from .xi import OrderError


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
        self._cp = {}
        self._cs = {}

    @property
    def total_dim(self):
        return sum(self.dims)

    def copy_with(self, dims, dprime, dsecond):
        return MixedBruhatSheaf(self.poset, dims, dprime, dsecond)


def compose_prime(E, m, n):
    """Composite matrix E(m) -> E(n) for m >=' n.

    All maximal covering chains are compared on first use; disagreement
    raises PathDependenceError (a transitivity violation).
    """
    if m == n:
        return RationalMatrix.identity(E.dims[m])
    key = (m, n)
    got = E._cp.get(key)
    if got is None:
        if not E.poset.leq_prime(n, m):
            raise OrderError("compose_prime requires m >=' n")
        prods = _all_chain_products_prime(E, m, n)
        if any(p != prods[0] for p in prods[1:]):
            raise PathDependenceError(("prime", m, n))
        got = E._cp[key] = prods[0]
    return got


def compose_second(E, m, n):
    """Composite matrix E(n) -> E(m) for m >='' n, chain-checked like compose_prime."""
    if m == n:
        return RationalMatrix.identity(E.dims[m])
    key = (m, n)
    got = E._cs.get(key)
    if got is None:
        if not E.poset.leq_second(n, m):
            raise OrderError("compose_second requires m >='' n")
        prods = _all_chain_products_second(E, m, n)
        if any(p != prods[0] for p in prods[1:]):
            raise PathDependenceError(("second", m, n))
        got = E._cs[key] = prods[0]
    return got


class MbsReport:
    """Verification report for the three axioms plus shape checks."""

    def __init__(self):
        self.shape = []     # (order, m, n, message)
        self.mbs1 = []      # (order, m, n) with path-dependent composites
        self.mbs2 = []      # (m_prime, n_prime, n) failing the supremum sum
        self.mbs3 = []      # (order, m, n) anodyne covering not invertible

    @property
    def ok(self):
        return not (self.shape or self.mbs1 or self.mbs2 or self.mbs3)

    def summary(self):
        if self.ok:
            return "PASS"
        parts = []
        for name, lst in (("shape", self.shape), ("MBS1", self.mbs1),
                          ("MBS2", self.mbs2), ("MBS3", self.mbs3)):
            if lst:
                parts.append(f"{name}: {len(lst)} failure(s)")
        return "FAIL (" + "; ".join(parts) + ")"

    def __repr__(self):
        return f"MbsReport({self.summary()})"


def _all_chain_products_prime(E, m, n):
    """Products over every maximal covering chain m ->' n (permutations of steps)."""
    poset = E.poset
    added = tuple(sorted(set(poset.elements[n].typeIJ[0])
                         - set(poset.elements[m].typeIJ[0])))
    out = []
    for perm in itertools.permutations(added):
        cur = m
        mat = RationalMatrix.identity(E.dims[m])
        for s in perm:
            nxt = poset.phi_prime(
                cur, tuple(sorted(set(poset.elements[cur].typeIJ[0]) | {s})))
            mat = E.dprime[(cur, nxt)] @ mat
            cur = nxt
        out.append(mat)
    return out


def _all_chain_products_second(E, m, n):
    poset = E.poset
    added = tuple(sorted(set(poset.elements[n].typeIJ[1])
                         - set(poset.elements[m].typeIJ[1])))
    out = []
    for perm in itertools.permutations(added):
        steps = []
        cur = m
        for s in perm:
            nxt = poset.phi_second(
                cur, tuple(sorted(set(poset.elements[cur].typeIJ[1]) | {s})))
            steps.append((cur, nxt))
            cur = nxt
        mat = RationalMatrix.identity(E.dims[cur])
        for a, b in reversed(steps):
            mat = E.dsecond[(a, b)] @ mat
        out.append(mat)
    return out


def _prime_ups(poset):
    """ups[n] = all m with m >=' n (including m = n)."""
    from .faces import subsets_sorted
    ups = [[] for _ in poset.elements]
    subsets = subsets_sorted(poset.datum.rank)
    for m, e in enumerate(poset.elements):
        for I2 in subsets:
            if set(e.typeIJ[0]) <= set(I2):
                ups[poset.phi_prime(m, I2)].append(m)
    return ups


def _second_ups(poset):
    from .faces import subsets_sorted
    ups = [[] for _ in poset.elements]
    subsets = subsets_sorted(poset.datum.rank)
    for m, e in enumerate(poset.elements):
        for J2 in subsets:
            if set(e.typeIJ[1]) <= set(J2):
                ups[poset.phi_second(m, J2)].append(m)
    return ups


def check_mbs(E):
    """Full verification of MBS1-3; an empty report means E is a mixed Bruhat sheaf."""
    from .faces import subsets_sorted
    poset = E.poset
    rep = MbsReport()

    # shapes on every covering relation
    for m in range(len(poset.elements)):
        for _s, n in poset.cov_prime[m]:
            mat = E.dprime.get((m, n))
            if mat is None or mat.shape != (E.dims[n], E.dims[m]):
                rep.shape.append(("prime", m, n, "missing or misshaped matrix"))
        for _s, n in poset.cov_second[m]:
            mat = E.dsecond.get((m, n))
            if mat is None or mat.shape != (E.dims[m], E.dims[n]):
                rep.shape.append(("second", m, n, "missing or misshaped matrix"))
    if rep.shape:
        return rep

    # MBS1: path independence of composites, both orders
    rank = poset.datum.rank
    for m, e in enumerate(poset.elements):
        I, J = e.typeIJ
        for I2 in subsets_sorted(rank):
            if not set(I) < set(I2) or len(I2) - len(I) < 2:
                continue
            try:
                compose_prime(E, m, poset.phi_prime(m, I2))
            except PathDependenceError as exc:
                rep.mbs1.append(exc.args[0])
        for J2 in subsets_sorted(rank):
            if not set(J) < set(J2) or len(J2) - len(J) < 2:
                continue
            try:
                compose_second(E, m, poset.phi_second(m, J2))
            except PathDependenceError as exc:
                rep.mbs1.append(exc.args[0])
    if rep.mbs1:
        return rep

    # MBS2: the supremum sum over every configuration m' >=' n' <='' n
    pups = _prime_ups(poset)
    sups = _second_ups(poset)
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
                    rep.mbs2.append((mp, np_, n))

    # MBS3: anodyne coverings must be invertible
    for m in range(len(poset.elements)):
        for _s, n in poset.cov_prime[m]:
            if poset.elements[m].orbit_size == poset.elements[n].orbit_size:
                mat = E.dprime[(m, n)]
                if not (mat.is_square() and mat.is_invertible()):
                    rep.mbs3.append(("prime", m, n))
        for _s, n in poset.cov_second[m]:
            if poset.elements[m].orbit_size == poset.elements[n].orbit_size:
                mat = E.dsecond[(m, n)]
                if not (mat.is_square() and mat.is_invertible()):
                    rep.mbs3.append(("second", m, n))
    return rep


def dual(E):
    """The twisted dual: spaces at the coordinate swap, transposed matrices."""
    poset = E.poset
    dims = [E.dims[poset.tau(m)] for m in range(len(poset.elements))]
    dprime = {}
    dsecond = {}
    for m in range(len(poset.elements)):
        for _s, n in poset.cov_prime[m]:
            dprime[(m, n)] = E.dsecond[(poset.tau(m), poset.tau(n))].transpose()
        for _s, n in poset.cov_second[m]:
            dsecond[(m, n)] = E.dprime[(poset.tau(m), poset.tau(n))].transpose()
    return E.copy_with(dims, dprime, dsecond)


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
    """Check a cell path: one stratum, consecutive pure anodyne steps."""
    if len(path) < 1:
        raise ValueError("empty path")
    flat = poset.elements[path[0]].flat
    for m in path:
        if poset.elements[m].flat != flat:
            raise ValueError("path leaves its stratum")
    for a, b in zip(path, path[1:]):
        up_p = poset.leq_prime(a, b)
        up_s = poset.leq_second(a, b)
        dn_p = poset.leq_prime(b, a)
        dn_s = poset.leq_second(b, a)
        if not (up_p or up_s or dn_p or dn_s):
            raise ValueError(f"step {a} -> {b} is not a pure <=' or <='' step")
        hi, lo = (b, a) if (up_p or up_s) else (a, b)
        if poset.elements[hi].orbit_size != poset.elements[lo].orbit_size:
            raise ValueError(f"step {a} -> {b} is not anodyne")


def transport(E, path):
    """Ordered product of generalization maps along an anodyne cell path."""
    poset = E.poset
    validate_path(poset, path)
    mat = RationalMatrix.identity(E.dims[path[0]])
    for a, b in zip(path, path[1:]):
        if poset.leq_prime(a, b):
            step = compose_prime(E, b, a).inverse()
        elif poset.leq_second(a, b):
            step = compose_second(E, b, a)
        elif poset.leq_prime(b, a):
            step = compose_prime(E, a, b)
        else:
            step = compose_second(E, a, b).inverse()
        mat = step @ mat
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
    for m in range(len(poset.elements)):
        for _s, n in poset.cov_prime[m]:
            mat = E.dprime[(m, n)]
            moves.append((m, n, mat))
            if (poset.elements[m].orbit_size == poset.elements[n].orbit_size
                    and mat.is_invertible()):
                moves.append((n, m, mat.inverse()))
        for _s, n in poset.cov_second[m]:
            mat = E.dsecond[(m, n)]
            moves.append((n, m, mat))
            if (poset.elements[m].orbit_size == poset.elements[n].orbit_size
                    and mat.is_invertible()):
                moves.append((m, n, mat.inverse()))
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
    poset = E.poset
    solve = [b.solver() for b in bases]
    lift = lift or (lambda mat: mat)
    dprime = {}
    dsecond = {}
    for m in range(len(poset.elements)):
        for _s, n in poset.cov_prime[m]:
            dprime[(m, n)] = solve[n](lift(E.dprime[(m, n)]) @ bases[m])
        for _s, n in poset.cov_second[m]:
            dsecond[(m, n)] = solve[m](lift(E.dsecond[(m, n)]) @ bases[n])
    sub = MixedBruhatSheaf(poset, [b.ncols for b in bases], dprime, dsecond)
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
