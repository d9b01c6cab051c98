"""Finite-field flags, relative position, E_q, Hecke operators, Borel invariants."""

import itertools

import pytest

from fq_reference import subspaces
from mbsheaf.coxeter import build_coxeter
from mbsheaf.f1 import build_e1
from mbsheaf.fq import (
    FibrewiseConstancyError, FqContext, ResourceError, b_invariant_sub, borel_orbits, build_eq,
    composition_of_subset, contingency_to_xi, hecke_generators, orbit_point_checks,
    rref_fp, xi_to_contingency,
)
from mbsheaf.linalg import RationalMatrix
from mbsheaf.sheaf import check_mbs
from mbsheaf.xi import PRIME, SECOND, enumerate_xi


def gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def gaussian_multinomial(comp, q):
    n = sum(comp)
    out = 1
    rest = n
    for part in comp:
        out *= gaussian_binomial(rest, part, q)
        rest -= part
    return out


@pytest.fixture(scope="module")
def xi_a1():
    return enumerate_xi(build_coxeter("A", 1))


@pytest.fixture(scope="module")
def xi_a2():
    return enumerate_xi(build_coxeter("A", 2))


# -- enumeration ---------------------------------------------------------------

@pytest.mark.parametrize("n,q,comp,count", [
    (2, 2, (1, 1), 3), (3, 2, (1, 1, 1), 21), (3, 2, (3,), 1),
    (3, 3, (1, 1, 1), 52), (3, 3, (1, 2), 13), (4, 2, (1, 1, 1, 1), 315)])
def test_flag_counts(n, q, comp, count):
    ctx = FqContext(n, q)
    assert len(ctx.flags(comp)) == count == gaussian_multinomial(comp, q)


def test_subspace_table_guard():
    # F_7^4 has 3,652 subspaces, past what the meet and join tables hold
    with pytest.raises(ResourceError):
        FqContext(4, 7).flags((4,))


def test_rref_canonical():
    rows = ((1, 1, 0), (0, 1, 1))
    assert rref_fp(rows, 2) == ((1, 0, 1), (0, 1, 1))
    assert rref_fp(((2, 1),), 3) == ((1, 2),)


def test_poincare_counts_flags():
    # the length generating function of minimal coset representatives
    # evaluates to the finite-field flag count
    from mbsheaf.coxeter import poincare_poly
    for n, q in [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3)]:
        datum = build_coxeter("A", n - 1)
        ctx = FqContext(n, q)
        for members in [(), tuple(range(n - 1))] + [(s,) for s in range(n - 1)]:
            comp = composition_of_subset(set(members), n)
            assert poincare_poly(datum, members)(q) == len(ctx.flags(comp))


def test_larger_prime_fields():
    ctx = FqContext(2, 5)
    assert len(ctx.flags((1, 1))) == 6
    ctx7 = FqContext(2, 7)
    assert len(subspaces(ctx7.lattice, 1)) == 8
    from mbsheaf.fq import FqField
    from mbsheaf.coxeter import UnsupportedTypeError
    with pytest.raises(UnsupportedTypeError):
        FqField(4)
    with pytest.raises(UnsupportedTypeError):
        FqContext(2, 4)


def test_zassenhaus_full_sweep():
    ctx = FqContext(3, 2)
    full = ctx.flags((1, 1, 1))
    for f in full:
        for g in full:
            assert (ctx.relative_position(g, f).entries
                    == ctx.relative_position(f, g).transpose().entries)


# -- relative position ----------------------------------------------------------

def test_relpos_diagonal_and_transpose():
    ctx = FqContext(3, 2)
    flags = ctx.flags((1, 2))
    for f in flags:
        assert ctx.relative_position(f, f).entries == ((1, 0), (0, 2))
    other = ctx.flags((2, 1))
    for f in flags:
        for g in other:
            m = ctx.relative_position(f, g)
            assert ctx.relative_position(g, f).entries == m.transpose().entries
            assert m.row_margins == (1, 2) and m.col_margins == (2, 1)


def test_relpos_two_lines():
    ctx = FqContext(2, 2)
    lines = ctx.flags((1, 1))
    for f in lines:
        for g in lines:
            m = ctx.relative_position(f, g).entries
            if f == g:
                assert m == ((1, 0), (0, 1))
            else:
                assert m == ((0, 1), (1, 0))


# -- the contingency dictionary ----------------------------------------------------

def test_contingency_bijection_a1(xi_a1):
    mats = [((2,),), ((1,), (1,)), ((1, 1),), ((1, 0), (0, 1)), ((0, 1), (1, 0))]
    from mbsheaf.fq import ContingencyMatrix
    cells = {contingency_to_xi(xi_a1, ContingencyMatrix(m)).index for m in mats}
    assert len(cells) == 5
    assert contingency_to_xi(xi_a1, ContingencyMatrix(((2,),))).orbit_size == 1


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_contingency_round_trip(rank):
    xi = enumerate_xi(build_coxeter("A", rank))
    seen = set()
    for m in range(len(xi.elements)):
        mat = xi_to_contingency(xi, m)
        assert not mat.has_zero_line()
        assert mat.content == rank + 1
        assert contingency_to_xi(xi, mat).index == m
        seen.add(mat.entries)
    assert len(seen) == len(xi.elements)


def test_contingency_domain_errors(xi_a2):
    from mbsheaf.fq import ContingencyMatrix
    with pytest.raises(ValueError):
        contingency_to_xi(xi_a2, ContingencyMatrix(((2,),)))       # wrong content
    with pytest.raises(ValueError):
        contingency_to_xi(xi_a2, ContingencyMatrix(((3, 0), (0, 0))))   # zero line


def test_contingency_margins_match_types(xi_a2):
    n = 3
    for m, e in enumerate(xi_a2.elements):
        mat = xi_to_contingency(xi_a2, m)
        assert mat.row_margins == composition_of_subset(set(e.typeIJ[0]), n)
        assert mat.col_margins == composition_of_subset(set(e.typeIJ[1]), n)


def test_contingency_order_orientation(xi_a2):
    # m >=' n merges adjacent row groups of the matrix (first coordinate)
    for m in range(len(xi_a2.elements)):
        for _s, n in xi_a2.cov[PRIME][m]:
            mm, mn = xi_to_contingency(xi_a2, m), xi_to_contingency(xi_a2, n)
            assert len(mn.entries) < len(mm.entries)
            assert mn.entries[0] != () and len(mn.entries[0]) == len(mm.entries[0])
        for _s, n in xi_a2.cov[SECOND][m]:
            mm, mn = xi_to_contingency(xi_a2, m), xi_to_contingency(xi_a2, n)
            assert len(mn.entries[0]) < len(mm.entries[0])
            assert len(mn.entries) == len(mm.entries)


# -- E_q ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
def test_build_eq_passes_check(n, q):
    eq = build_eq(n, q)
    report = check_mbs(eq)
    assert report.ok, report.summary()


def test_eq_dims_a1(xi_a1):
    for q in (2, 3):
        eq = build_eq(2, q, poset=xi_a1)
        dims = sorted(eq.dims)
        assert dims == [1, q + 1, q + 1, q + 1, q + 1]


def test_eq_gate():
    with pytest.raises(ResourceError):
        build_eq(4, 3)
    assert build_eq(4, 2).total_dim == 69561


class MisreadContext(FqContext):
    """Moves the reading of some generic flag pairs to another full flag."""

    def refine(self, x, y):
        got = super().refine(x, y)
        full = self.chains((1,) * self.n)
        return full[1] if got == full[0] and x != y else got


def test_build_eq_rejects_readings_that_do_not_factor():
    with pytest.raises(FibrewiseConstancyError, match=r"pushforward .* is not pulled back"):
        build_eq(2, 2, ctx=MisreadContext(2, 2))


def test_eq_point_counts_match_e1_shape(xi_a2):
    eq = build_eq(3, 2, poset=xi_a2)
    e1 = build_e1(xi_a2)
    full = sum(1 for e in xi_a2.elements if e.typeIJ == ((), ()))
    # total F_q points partition: sum over the (0,0)-block equals |F|^2
    block = [m for m, e in enumerate(xi_a2.elements) if e.typeIJ == ((), ())]
    assert sum(len(eq.orbit_tables[m]) for m in block) == 21 * 21


def test_eq_reading_equivariance_gl3f2(xi_a2):
    # the refinement map commutes with all of GL_3(F_2) on representative
    # pairs from strata of every flavor (diagonal, intermediate, generic)
    ctx = FqContext(3, 2)
    gl = []
    for rows in itertools.product(itertools.product(range(2), repeat=3), repeat=3):
        if len(rref_fp(rows, 2)) == 3:
            gl.append(rows)
    assert len(gl) == 168
    flags = ctx.chains((1, 1, 1))
    partial = ctx.chains((1, 2))
    pairs = [(flags[0], flags[0]), (flags[3], flags[17]), (flags[0], partial[5])]
    tables = [ctx.lattice.image_table(mat) for mat in gl]
    for x, y in pairs:
        base = ctx.refine(x, y)
        for t in tables:
            gx, gy, gbase = (tuple(t[s] for s in chain) for chain in (x, y, base))
            assert ctx.refine(gx, gy) == gbase


def test_intertwiner_between_associated_faces_invertible(xi_a2):
    # for associated faces C, D the correspondence pushforward-of-pullback
    # on flag functions is a square invertible matrix
    cx = xi_a2.complex
    for q in (2, 3):
        ctx = FqContext(3, q)
        checked = 0
        for m, e in enumerate(xi_a2.elements):
            c, d = e.pair
            if c.index == d.index or not cx.associated(c, d):
                continue
            points = ctx.orbit_points(xi_a2, m)
            comp_c = composition_of_subset(set(e.typeIJ[0]), 3)
            comp_d = composition_of_subset(set(e.typeIJ[1]), 3)
            nc, nd = len(ctx.flags(comp_c)), len(ctx.flags(comp_d))
            assert nc == nd
            rows = [[0] * nc for _ in range(nd)]
            for (a, b) in points:
                rows[b][a] += 1
            mat = RationalMatrix(tuple(tuple(r) for r in rows), nc)
            assert mat.is_invertible(), (q, m)
            checked += 1
        assert checked > 0


class _ReversedContext(FqContext):
    """Deterministic alternative enumeration: flag lists reversed."""

    def flags(self, composition):
        if composition not in self._flags:
            self._flags[composition] = tuple(reversed(FqContext.flags(self, composition)))
        return self._flags[composition]


def _relabel_matrix(dst_perm, mat, src_perm):
    rows = [[0] * mat.ncols for _ in range(mat.nrows)]
    for i, row in enumerate(mat.rows):
        for j, x in enumerate(row):
            rows[dst_perm[i]][src_perm[j]] = x
    return RationalMatrix(tuple(tuple(r) for r in rows), mat.ncols)


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2)])
def test_eq_matrices_independent_of_enumeration_order(n, q):
    # rebuilding under a shuffled-but-deterministic flag order conjugates
    # every matrix by the permutation relabeling the bases, exactly
    poset = enumerate_xi(build_coxeter("A", n - 1))
    a = build_eq(n, q, poset=poset)
    b = build_eq(n, q, poset=poset, ctx=_ReversedContext(n, q))
    assert a.dims == b.dims
    perms = {}
    for m in range(len(poset.elements)):
        comp = a.hor_compositions[m]
        ib = b.ctx.chain_index(comp)
        perms[m] = [ib[x] for x in a.ctx.chains(comp)]
    for key, mat in a.dprime.items():
        m, nn = key
        assert b.dprime[key] == _relabel_matrix(perms[nn], mat, perms[m])
    for key, mat in a.dsecond.items():
        m, nn = key
        assert b.dsecond[key] == _relabel_matrix(perms[m], mat, perms[nn])


def test_eq_matrices_conjugate_point_level_maps(xi_a2):
    # embedding matrices realize each space inside Fun(O_m); the stored maps
    # must intertwine with the raw point-level pushforward and pullback
    eq = build_eq(3, 2, poset=xi_a2)
    ctx = eq.ctx
    n = 3
    pindex = [{p: k for k, p in enumerate(pts)} for pts in eq.orbit_tables]
    for m in range(len(xi_a2.elements)):
        em = xi_a2.elements[m]
        ci = composition_of_subset(set(em.typeIJ[0]), n)
        cj = composition_of_subset(set(em.typeIJ[1]), n)
        for _s, nn in xi_a2.cov[PRIME][m]:
            ti = composition_of_subset(set(xi_a2.elements[nn].typeIJ[0]), n)
            idx = ctx.chain_index(ti)
            fi = ctx.chains(ci)
            push = [[0] * len(eq.orbit_tables[m]) for _ in eq.orbit_tables[nn]]
            for k, (ai, bi) in enumerate(eq.orbit_tables[m]):
                tgt = pindex[nn][(idx[ctx.coarsen(fi[ai], ti)], bi)]
                push[tgt][k] = 1
            push_mat = RationalMatrix(tuple(tuple(r) for r in push),
                                      len(eq.orbit_tables[m]))
            assert eq.embeddings[nn] @ eq.dprime[(m, nn)] == push_mat @ eq.embeddings[m]
        for _s, nn in xi_a2.cov[SECOND][m]:
            tj = composition_of_subset(set(xi_a2.elements[nn].typeIJ[1]), n)
            idx = ctx.chain_index(tj)
            fj = ctx.chains(cj)
            pull = [[0] * len(eq.orbit_tables[nn]) for _ in eq.orbit_tables[m]]
            for k, (ai, bi) in enumerate(eq.orbit_tables[m]):
                src = pindex[nn][(ai, idx[ctx.coarsen(fj[bi], tj)])]
                pull[k][src] = 1
            pull_mat = RationalMatrix(tuple(tuple(r) for r in pull),
                                      len(eq.orbit_tables[nn]))
            assert eq.embeddings[m] @ eq.dsecond[(m, nn)] == pull_mat @ eq.embeddings[nn]


def test_dual_of_eq_passes():
    from mbsheaf.sheaf import dual
    eq = build_eq(3, 2)
    assert check_mbs(dual(eq)).ok


# -- Hecke -------------------------------------------------------------------------

def test_hecke_n2():
    for q in (2, 3):
        (sigma,) = hecke_generators(2, q)
        size = q + 1
        ones = RationalMatrix(tuple(tuple(1 for _ in range(size)) for _ in range(size)))
        assert sigma == ones - RationalMatrix.identity(size)
        ident = RationalMatrix.identity(size)
        assert (sigma + ident) @ (sigma - ident.scale(q)) == RationalMatrix.zeros(size, size)


@pytest.mark.parametrize("n,q", [(3, 2), (3, 3)])
def test_hecke_quadratic_and_braid(n, q):
    gens = hecke_generators(n, q)
    size = gens[0].nrows
    ident = RationalMatrix.identity(size)
    zero = RationalMatrix.zeros(size, size)
    for s in gens:
        assert (s + ident) @ (s - ident.scale(q)) == zero
    s1, s2 = gens
    assert s1 @ s2 @ s1 == s2 @ s1 @ s2


def test_hecke_eigenvalues():
    # (sigma + 1)(sigma - q) = 0 with both factors proper: spectrum is {q, -1}
    for n, q in [(2, 2), (2, 3), (3, 2)]:
        for s in hecke_generators(n, q):
            size = s.nrows
            assert not (s - RationalMatrix.identity(size).scale(q)).is_invertible()
            assert not (s + RationalMatrix.identity(size)).is_invertible()


# -- Borel invariants -----------------------------------------------------------------

def test_borel_orbit_counts():
    ctx = FqContext(3, 2)
    assert len(borel_orbits(ctx, (1, 1, 1))) == 6      # |W| = 3!
    assert len(borel_orbits(ctx, (1, 2))) == 3
    assert len(borel_orbits(ctx, (3,))) == 1


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
def test_b_invariant_dims_match_e1(n, q):
    poset = enumerate_xi(build_coxeter("A", n - 1))
    eq = build_eq(n, q, poset=poset)
    sub = b_invariant_sub(eq)
    assert list(sub.dims) == [e.orbit_size for e in poset.elements]
    assert check_mbs(sub).ok


# -- point-level geometry ---------------------------------------------------------------

@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
def test_orbit_point_checks(n, q):
    report = orbit_point_checks(n, q)
    assert report.ok, report.summary()
    assert report.checked > 0


def test_fiber_product_counts_n2():
    # over the origin, the two axes fiber to (q+1)^2 = (q+1) + q(q+1)
    for q in (2, 3):
        xi = enumerate_xi(build_coxeter("A", 1))
        ctx = FqContext(2, q)
        sizes = sorted(len(ctx.orbit_points(xi, m)) for m in range(5))
        assert sizes == sorted([1, q + 1, q + 1, q + 1, q * (q + 1)])
        assert (q + 1) ** 2 == (q + 1) + q * (q + 1)
