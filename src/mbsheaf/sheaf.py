"""Mixed Bruhat sheaves: exact matrix data on the 2-sided complex.

A sheaf assigns a dimension to every cell, a matrix to every covering
relation of >=' (covariant) and of >='' (contravariant).  The three axioms:
transitivity of both families (MBS1), the mixed-supremum commutation rule
(MBS2), and invertibility across anodyne relations (MBS3).
"""

from __future__ import annotations

from types import MappingProxyType

from .linalg import RationalMatrix
from .report import Report
from .xi import PRIME, SECOND, SIDE_NAMES, OrderError, arrow, xi_id


class PathDependenceError(RuntimeError):
    """Two covering chains between the same cells compose differently."""


class MixedBruhatSheaf:
    """Dimensions per cell plus covering matrices for both orders."""

    def __init__(self, poset, dims, dprime, dsecond):
        self.poset = poset
        self.dims = tuple(dims)
        # read-only (copy_with makes a sheaf with other maps): the verdict,
        # stalks and composites cached below read them
        self.dprime = MappingProxyType(dict(dprime))    # m >=' n covering: E(m) -> E(n)
        self.dsecond = MappingProxyType(dict(dsecond))  # m >='' n covering: E(n) -> E(m)
        self._composites = ({}, {})     # per side: (m, n) -> composite matrix
        self._stalks = {}               # (side, cell) -> cohomology of its (class's) stalk complex
        self._axioms = None             # check_mbs's finished Report: the Cousin suite's verdict
        self._moves = None              # generated_sub's moves, built on first use

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

    Every maximal covering chain of [m, n] starts with a covering step
    m -> phi_s m and goes on by a maximal chain of [phi_s m, n], so the
    composite is that of [phi_s m, n] times d(m -> phi_s m), memoised per
    interval.  A dprime map runs down the interval, so the first step comes
    first in the product; a dsecond map runs up it, so it comes last.  Two
    first steps with different products raise PathDependenceError (a
    transitivity violation) naming their interval: [m, n], or the first
    path-dependent [t, n] below it that the recursion meets.
    """
    if m == n:
        return RationalMatrix.identity(E.dims[m])
    cache = E._composites[side]
    got = cache.get((m, n))
    if got is None:
        if not E.poset.leq_side(side, n, m):
            order = ">=" + "'" * (side + 1)
            raise OrderError(f"compose_{SIDE_NAMES[side]} requires m {order} n, not "
                             f"{xi_id(E.poset, m)} and {xi_id(E.poset, n)}")
        target = E.poset.elements[n].typeIJ[side]
        step = E.maps(side)
        for s, t in E.poset.cov[side][m]:
            if t == n:
                got = step[(m, t)]
                break
            if s in target:
                rest = _compose(E, side, t, n)
                p = rest @ step[(m, t)] if side == PRIME else step[(m, t)] @ rest
                if got is not None and p != got:
                    raise PathDependenceError((SIDE_NAMES[side], m, n))
                got = p
        cache[(m, n)] = got
    return got


def compose_prime(E, m, n):
    """Composite matrix E(m) -> E(n) for m >=' n."""
    return _compose(E, PRIME, m, n)


def compose_second(E, m, n):
    """Composite matrix E(n) -> E(m) for m >='' n."""
    return _compose(E, SECOND, m, n)


def check_mbs(E):
    """Verify MBS1-3; ok means E is a mixed Bruhat sheaf.  Witnesses: shape (order, m,
    n, message), MBS1 (order, m, n) a square that does not commute, n two
    generators below m, MBS2 (m', n', n) a covering configuration failing the
    supremum sum, MBS3 (order, m, n) anodyne covering not invertible.

    Passing or failing, a sheaf is read off the covering tables and maps
    alone: MBS1 on the squares, MBS2 on the covering configurations, which
    fail exactly when the axioms do (proofs below); MBS3 passes a monomial
    matrix without elimination and any other by its full rank modulo a prime,
    a proof of invertibility over Q; a map it cannot certify there is ranked
    exactly, so every MBS3 witness is exact (``is_invertible``).  No composite, up-set or
    supremum is built, and each witness names covering maps to repair.
    The finished report is stored as E._axioms, and the Cousin suite reads
    it (``cousin`` docstring); a check that raises partway stores nothing.

    Each distinct product is computed once.  The covering maps are interned
    by identity, then by value: each distinct map object (the builders hold
    one per distinct map) is looked up once in a dict keyed by
    RationalMatrix's content hash and equality.  In each stage a product is
    memoised by the ids of its interned factors, a supremum sum by those of
    its terms and MBS3's verdict by the id of its map; each result is
    interned in turn, so two results are equal exactly when they are one
    object (``is``).  A memo lives for one stage of one call, and nothing is
    kept on the sheaf.  The witnesses, their order and the stop after a
    failed stage are those of the walk that multiplies every square and
    configuration anew (tests/mbs_reference.py).

    MBS1 on squares.  On a side, with T(x) the type of x there, [m, n] is the
    Boolean lattice of the cells phi(m, side, K), T(m) <= K <= T(n): its
    maximal chains are the k! orders of adding the generators of T(n) - T(m).
    Two orders that differ by one adjacent swap s, t share a prefix ending
    at p and a suffix starting at q = phi_t phi_s p = phi_s phi_t p, and
    differ only on the square between them; adjacent swaps link all k!
    orders.  So if d(a, q) d(p, a) = d(b, q) d(p, b) on every square,
    a = phi_s p, b = phi_t p (the other way round on dsecond, which runs
    up), every interval has one chain product; a square that does not
    commute is itself a path-dependent interval.

    MBS2, the paper's mixed-supremum axiom, asks for every configuration
    m' >=' n' <='' n that

        C''(n, n') C'(m', n') = sum over m in sup(m', n) of C'(m, n) C''(m, m'),

    where sup(m', n) is the set of m with m' <='' m >=' n; an empty supremum
    asks for a zero lhs.  Its legs have lengths k = |I(n')| - |I(m')| and
    l = |J(n')| - |J(n)|.  Given MBS1, the covering configurations (k = l = 1)
    imply all the others, so the loop runs over those alone.
    There every m in sup(m', n) has I_m = I(m') and J_m = J(n), so both its
    legs have length 1: sup(m', n) = up_covers[PRIME][n] & up_covers[SECOND][m'].

    Identity legs hold for any data.  Where m' = n', every m in sup(n', n)
    has I_m = I(n') = I(n) (both lie over n' on SECOND) and m >=' n, so
    m = phi(m, PRIME, I(n)) = n: both sides are C''(n, n'), times an
    identity.  Where n = n', likewise sup(m', n') = [m'] and both sides are
    C'(m', n').

    Pasting lemma: for m' >=' a >=' n', sup(m', n) is the disjoint union,
    over b in sup(a, n), of sup(m', b); for n >='' c >='' n', it is the
    disjoint union, over d in sup(m', c), of sup(d, n).  Each union lies in
    sup(m', n) by transitivity of the orders; that it is all of sup(m', n),
    each m once, is checked exhaustively on every supported type by
    tests/test_faces_xi.py.

    Induction on k + l.  If k >= 2, pick a strictly between m' and n'.  By
    MBS1 the lhs is C''(n, n') C'(a, n') C'(m', a).  MBS2 on (a, n', n), whose
    first leg is shorter, makes it the sum over b in sup(a, n) of
    C'(b, n) C''(b, a) C'(m', a).  MBS2 on each (m', a, b) makes it the
    double sum over b and m in sup(m', b) of C'(b, n) C'(m, b) C''(m, m'):
    b >=' n keeps J(b) = J(n), so the second leg keeps length l, and I(a)
    is strictly between, so the first is shorter.  MBS1 gives
    C'(b, n) C'(m, b) = C'(m, n), and the lemma makes the double sum the sum
    over sup(m', n).  If l >= 2, the mirror argument through c and
    d in sup(m', c), on (m', n', c) and (d, c, n), shortens the second leg
    and keeps the first.  Every step composes along chains, so it needs
    MBS1; check_mbs skips MBS2 and MBS3 whenever MBS1 fails.
    """
    poset = E.poset
    rep = Report("shape", "MBS1", "MBS2", "MBS3")
    shape, mbs1, mbs2, mbs3 = rep.witnesses.values()

    # shapes on every covering relation; each map interned by identity, then by value
    canon, maps = {}, ({}, {})
    intern = _per_object(lambda mat: canon.setdefault(mat, mat))
    for side, m, n in poset.coverings():
        mat = E.maps(side).get((m, n))
        src, dst = arrow(side, m, n)
        if mat is None or mat.shape != (E.dims[dst], E.dims[src]):
            shape.append((SIDE_NAMES[side], m, n, "missing or misshaped matrix"))
        else:
            maps[side][(m, n)] = intern(mat)
    # each stage runs only on a sheaf that passed every stage before it
    if rep.ok:
        mbs1.extend(_mbs1_failures(poset, maps))
    if rep.ok:
        mbs2.extend(_mbs2_failures(poset, maps))
        mbs3.extend(_mbs3_failures(poset, maps))
    E._axioms = rep
    return rep


def _per_object(fn):
    """fn memoised by the identity of its argument, each distinct object
    passed to fn once; the memo holds every argument, so no id is reused."""
    memo = {}
    return lambda x: (memo.get(id(x)) or memo.setdefault(id(x), (x, fn(x))))[1]


class _Memo:
    """One stage's products and sums of interned matrices, each distinct one
    computed once.

    Operands are interned, one object per value, so a product is keyed by
    the ids of its factors and a sum by those of its terms; each result is
    interned in turn, so two results are equal exactly when they are one
    object.  The ids stay unique while the memo lives: it holds its
    results, and check_mbs's interned maps outlive every stage.
    """

    def __init__(self):
        self.seen, self.products, self.sums = {}, {}, {}

    def mul(self, a, b):
        key = id(a), id(b)
        got = self.products.get(key)
        if got is None:
            p = a @ b
            got = self.products[key] = self.seen.setdefault(p, p)
        return got

    def total(self, terms):
        """The sum of a nonempty list, starting at its first term."""
        key = tuple(map(id, terms))
        got = self.sums.get(key)
        if got is None:
            s = sum(terms[1:], terms[0])
            got = self.sums[key] = self.seen.setdefault(s, s)
        return got


def _mbs1_failures(poset, maps):
    """Each (order, m, n) whose square does not commute: the two chains from
    m through a = phi_s m and b = phi_t m, s < t, to n = phi_t a = phi_s b;
    by m, then side, then (s, t).  maps are check_mbs's interned maps."""
    cov, memo = poset.cov, _Memo()
    steps = [[dict(below) for below in cov[side]] for side in (PRIME, SECOND)]
    # the product of a chain's first step, then its second: a dprime map
    # runs down the chain and a dsecond map up it
    chain = (lambda x, y: memo.mul(y, x), memo.mul)
    for m in range(len(poset.elements)):
        for side in (PRIME, SECOND):
            below, d, step, mul = cov[side][m], maps[side], steps[side], chain[side]
            for i, (_s, a) in enumerate(below):
                for t, b in below[i + 1:]:
                    n = step[a][t]
                    if mul(d[(m, a)], d[(a, n)]) is not mul(d[(m, b)], d[(b, n)]):
                        yield SIDE_NAMES[side], m, n


def _covering_configurations(poset):
    """Each (m', n', n, sup(m', n)) with m' covering n' in >=' and n covering
    n' in >='': by n', then m', then n, the supremum ascending."""
    ups_p, ups_s = poset.up_covers
    for np_, (mps, ns) in enumerate(zip(ups_p, ups_s)):
        for mp in mps:
            for n in ns:
                yield mp, np_, n, [m for m in ups_p[n] if m in ups_s[mp]]


def _mbs2_failures(poset, maps):
    """Each covering configuration (m', n', n) failing MBS2, read off
    check_mbs's interned maps; each supremum sum starts at its first term."""
    (prime, second), memo = maps, _Memo()
    for mp, np_, n, sup in _covering_configurations(poset):
        lhs = memo.mul(second[(n, np_)], prime[(mp, np_)])
        terms = [memo.mul(prime[(m, n)], second[(m, mp)]) for m in sup]
        if memo.total(terms) is not lhs if terms else not lhs.is_zero():
            yield mp, np_, n


def _mbs3_failures(poset, maps):
    """Each anodyne covering (order, m, n) whose map is not invertible, by m,
    then side; each distinct map of check_mbs's interned ones ranked once."""
    invertible = _per_object(RationalMatrix.is_invertible)
    for side, m, n in poset.coverings():
        if (poset.elements[m].orbit_size == poset.elements[n].orbit_size
                and not invertible(maps[side][(m, n)])):
            yield SIDE_NAMES[side], m, n


def dual(E):
    """The twisted dual: spaces at the coordinate swap, each map object transposed once."""
    tau, transpose = E.poset.tau, _per_object(RationalMatrix.transpose)
    dims = [E.dims[tau(m)] for m in range(len(E.poset.elements))]
    maps = ({}, {})
    for side, m, n in E.poset.coverings():
        maps[side][(m, n)] = transpose(E.maps(1 - side)[(tau(m), tau(n))])
    return E.copy_with(dims, *maps)


class BicubeData:
    """Induction/restriction family on the cube of standard parabolic types."""

    def __init__(self, spaces, v, u):
        self.spaces = spaces    # I -> dimension
        self.v = v              # (I, J) -> matrix Q_I -> Q_J for I subset J
        self.u = u              # (I, J) -> matrix Q_J -> Q_I

    def transitive(self):
        """v and u are identities at I = J and compose along every I <= J <= K."""
        v, u, subsets = self.v, self.u, list(self.spaces)
        return (all(v[(I, I)] == u[(I, I)] == RationalMatrix.identity(d)
                    for I, d in self.spaces.items())
                and all(v[(I, K)] == v[(J, K)] @ v[(I, J)] and u[(I, K)] == u[(I, J)] @ u[(J, K)]
                        for I in subsets for J in subsets if set(I) <= set(J)
                        for K in subsets if set(J) <= set(K)))


def bicube(E):
    """Collapse a sheaf to its bicube on the corner cells W(0,K_I), W(K_I,K_I), W(K_I,0).

    With the first coordinate playing the imaginary role, W(0,K_I) >='' W(0,K_J)
    and W(K_I,0) >=' W(K_J,0) for I inside J; u is read off the first chain
    directly and v is conjugated through the anodyne zig-zag phi_I.
    """
    poset = E.poset
    cx = poset.complex
    zero = cx.zero_face()
    subsets = cx.subsets
    ki = {I: cx.dominant_face(I) for I in subsets}
    m_prime = {I: poset.xi_orbit(zero, k).index for I, k in ki.items()}
    m_diag = {I: poset.xi_orbit(k, k).index for I, k in ki.items()}
    m_second = {I: poset.xi_orbit(k, zero).index for I, k in ki.items()}
    # E(m''_I) -> E(m_I) -> E(m'_I) = Q_I, the inverse of phi_I
    phi_inv = {I: transport(E, [m_second[I], m_diag[I], m_prime[I]]) for I in subsets}
    phi = {I: x.inverse() for I, x in phi_inv.items()}   # Q_I -> E(m''_I)
    spaces = {I: E.dims[m_prime[I]] for I in subsets}
    v, u = {}, {}
    for I, J in ((I, J) for I in subsets for J in subsets if set(I) <= set(J)):
        u[(I, J)] = compose_second(E, m_prime[I], m_prime[J])
        v[(I, J)] = phi_inv[J] @ compose_prime(E, m_second[I], m_second[J]) @ phi[I]
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
    """Check a cell path: one stratum, consecutive pure steps, which are then
    anodyne, since the cells of a stratum share their orbit size.

    Returns (side, hi, lo) per step: the step runs up from lo to hi or
    down from hi to lo, with hi >= lo on that side.
    """
    if not path:
        raise ValueError("empty path")
    flat = poset.elements[path[0]].flat
    for m in path:
        if poset.elements[m].flat != flat:
            raise ValueError(f"path leaves the stratum of {xi_id(poset, path[0])} "
                             f"at {xi_id(poset, m)}")
    steps = []
    for a, b in zip(path, path[1:]):
        step = next(((side, hi, lo) for hi, lo in ((b, a), (a, b)) for side in (PRIME, SECOND)
                     if poset.leq_side(side, lo, hi)), None)
        if step is None:
            raise ValueError(f"step {xi_id(poset, a)} -> {xi_id(poset, b)} "
                             "is not a pure <=' or <='' step")
        steps.append(step)
    return steps


def transport(E, path):
    """Ordered product of generalization maps along an anodyne cell path.

    A PRIME map runs hi -> lo and a SECOND map lo -> hi, so a step against
    its map's direction takes the inverse.  Around braid_loops(poset)[s] it
    is the braid generator sigma_s, the monodromy of the open stratum.
    """
    steps = validate_path(E.poset, path)
    mat = RationalMatrix.identity(E.dims[path[0]])
    compose = (compose_prime, compose_second)
    for (side, hi, lo), a in zip(steps, path):
        step = compose[side](E, hi, lo)
        mat = (step.inverse() if arrow(side, hi, lo)[0] != a else step) @ mat
    return mat


def braid_loops(poset):
    """One loop per simple reflection s, in ascending order, all based at
    d = W(C0, C0): [d, W(C0, P_s), W(C0, sC0), W(P_s, sC0), d].

    C0 is the dominant chamber, P_s its wall K_{s}, and sC0 the chamber
    across that wall.  The loop closes by construction: s fixes P_s, so
    W(P_s, sC0) = W(P_s, C0), which d covers on the first side.  Its
    transport(E, loop) is the braid generator sigma_s of E's local system
    on the open stratum.
    """
    cx = poset.complex
    c0 = cx.dominant_face(())
    d = poset.xi_orbit(c0, c0).index
    loops = []
    for s in range(poset.datum.rank):
        p, sc0 = cx.dominant_face((s,)), cx.face((), poset.datum.tables["right"][0][s])
        loops.append([d, poset.xi_orbit(c0, p).index, poset.xi_orbit(c0, sc0).index,
                      poset.xi_orbit(p, sc0).index, d])
    return loops


# -- subobjects --------------------------------------------------------------------

def _row_span(rows, ncols):
    """The span of the sparse rows as the ncols x ncols matrix S that holds its
    reduced echelon rows at their pivot rows.

    A block V of rows lies in the span iff V @ S == V, exactly: V @ S is
    V[:, pivots] @ rref, and the rref is the identity on its pivots.
    """
    red, pivots = RationalMatrix.from_sparse([r for r in rows if r], ncols).rref()
    out = [()] * ncols
    for row, p in zip(red.sparse_rows, pivots):
        out[p] = row
    return RationalMatrix.from_sparse(out, ncols)


def generated_sub(E, seeds):
    """Smallest subsheaf containing the seed vectors.

    seeds: mapping element index -> iterable of vectors in E(m); a vector
    whose length is not dim E(m) raises ValueError.
    """
    canon = {}      # equal bases become one object, which subsheaf factors once
    bases = [RationalMatrix.from_sparse(rows, d).transpose()
             for rows, d in zip(_span_closure(E, seeds), E.dims)]
    return subsheaf(E, [canon.setdefault(b, b) for b in bases])


def _span_closure(E, seeds):
    """Per cell, the reduced echelon rows spanning generated_sub(E, seeds) there.

    The spans are closed under all covering maps of both orders and under
    inverses of anodyne covering maps; these moves are built once per sheaf,
    each transpose and inverse transpose once per distinct map object.
    Each cell's span is kept in reduced echelon form (see _row_span); a cell
    whose span grew sends it along its moves, and only an image that fails
    the membership test is reduced again.
    """
    poset, dims, moves = E.poset, E.dims, E._moves
    if moves is None:
        moves = E._moves = [[] for _ in dims]   # per source cell: (target, transposed map)
        transpose = _per_object(RationalMatrix.transpose)
        back = _per_object(lambda mat: mat.is_invertible() and mat.inverse().transpose())
        for side, m, n in poset.coverings():
            mat = E.maps(side)[(m, n)]
            src, dst = arrow(side, m, n)
            moves[src].append((dst, transpose(mat)))
            if (poset.elements[m].orbit_size == poset.elements[n].orbit_size
                    and (inv_t := back(mat)) is not False):
                moves[dst].append((src, inv_t))
    spans = [RationalMatrix.zeros(d, d) for d in dims]
    pending = [[] for _ in dims]    # per cell: image rows that failed its membership test
    for m, vecs in seeds.items():
        vecs = [tuple(v) for v in vecs]
        for v in vecs:
            if len(v) != dims[m]:
                raise ValueError(f"seed vector of length {len(v)} at cell {m} "
                                 f"({xi_id(poset, m)}), whose stalk has dimension {dims[m]}")
        pending[m] = list(RationalMatrix(vecs, dims[m]).sparse_rows)
    work = list(seeds)
    while work:
        src = work.pop(0)
        spans[src] = _row_span(spans[src].sparse_rows + tuple(pending[src]), dims[src])
        pending[src] = []
        for dst, mat_t in moves[src]:
            img = spans[src] @ mat_t
            if img @ spans[dst] != img:
                pending[dst].extend(img.sparse_rows)
                if dst not in work:
                    work.append(dst)
    return [[r for r in s.sparse_rows if r] for s in spans]


def subsheaf(E, bases):
    """The subsheaf whose stalk at cell m is the column span of bases[m].

    .bases holds the given bases unchanged.  A covering map of E is applied
    to its source basis and solved against its target basis once per
    distinct (map, source basis, target basis) object triple, each basis
    object factored once and equal solutions interned; the solves are exact,
    so a span that a map does not preserve raises ValueError.
    """
    solver, solved, canon, maps = _per_object(RationalMatrix.solver), {}, {}, ({}, {})
    for side, m, n in E.poset.coverings():
        src, dst = arrow(side, m, n)
        mat = E.maps(side)[(m, n)]
        key = id(mat), id(bases[src]), id(bases[dst])   # each held by E or bases
        if key not in solved:
            got = solver(bases[dst])(mat @ bases[src])
            solved[key] = canon.setdefault(got, got)
        maps[side][(m, n)] = solved[key]
    sub = MixedBruhatSheaf(E.poset, [b.ncols for b in bases], *maps)
    sub.bases = bases
    return sub


def is_simple(E):
    """Whether no proper nonzero subsheaf is generated by any basis vector.

    A cyclic search over basis vectors of every cell: sufficient at this
    scale, a semi-decision in general.  The dimension of each generated
    subsheaf is the sum of its span ranks.
    """
    total = E.total_dim
    if total == 0:
        return False
    for m in range(len(E.poset.elements)):
        for k in range(E.dims[m]):
            vec = tuple(1 if i == k else 0 for i in range(E.dims[m]))
            if 0 < sum(map(len, _span_closure(E, {m: [vec]}))) < total:
                return False
    return True
