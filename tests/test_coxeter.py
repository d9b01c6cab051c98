"""Root system and Weyl group tests, checked against independent brute-force oracles."""

import itertools

import pytest

from mbsheaf.coxeter import (
    SUPPORTED, UnsupportedTypeError, build_coxeter, bruhat_leq, min_coset_reps,
    poincare_poly,
)
from mbsheaf.orbitpoly import poly_value
from tables_reference import mul_idx


# -- oracles ----------------------------------------------------------------

def closure_oracle(cartan):
    """The positive roots by naive reflection closure on raw tuples, sorted by
    (height, vector): the closure CoxeterDatum ran before it read the roots
    off its group elements."""
    rank = len(cartan)

    def refl(i, v):
        out = list(v)
        out[i] = -v[i] - sum(cartan[i][j] * v[j] for j in range(rank) if j != i)
        return tuple(out)

    pos = {tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)}
    changed = True
    while changed:
        changed = False
        for v in list(pos):
            for i in range(rank):
                w = refl(i, v)
                if all(x >= 0 for x in w) and w not in pos:
                    pos.add(w)
                    changed = True
    return tuple(sorted(pos, key=lambda v: (sum(v), v)))


def group_order_oracle(datum):
    """Generator-closure of matrices, independent of the datum's own enumeration."""
    gens = [m for m, n in zip(datum.elements, datum.lengths) if n == 1]
    ident = tuple(tuple(1 if i == j else 0 for j in range(datum.rank))
                  for i in range(datum.rank))
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                prod = tuple(tuple(sum(m[i][k] * g[k][j] for k in range(datum.rank))
                                   for j in range(datum.rank)) for i in range(datum.rank))
                if prod not in seen:
                    seen.add(prod)
                    new.append(prod)
        frontier = new
    return len(seen)


def subword_ideal(datum, w_idx):
    """All v <= w by the subword property: evaluate every subword of a reduced word."""
    word = datum.word_of(w_idx)
    ident = datum.lengths.index(0)
    ideal = set()
    for r in range(len(word) + 1):
        for positions in itertools.combinations(range(len(word)), r):
            v = ident
            for p in positions:
                v = datum.tables["right"][v][word[p]]
            ideal.add(v)
    return ideal


# -- construction -----------------------------------------------------------

EXPECTED_POSITIVE = {("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 4): 10,
                     ("B", 2): 4, ("B", 3): 9, ("C", 3): 9, ("G", 2): 6}
EXPECTED_ORDER = {("A", 1): 2, ("A", 2): 6, ("A", 3): 24, ("A", 4): 120,
                  ("B", 2): 8, ("B", 3): 48, ("C", 3): 48, ("G", 2): 12}


@pytest.mark.parametrize("type_label,rank", SUPPORTED)
def test_positive_root_counts(type_label, rank):
    datum = build_coxeter(type_label, rank)
    assert len(datum.positive_roots) == EXPECTED_POSITIVE[(type_label, rank)]
    assert datum.positive_roots == closure_oracle(datum.cartan)


def test_unsupported_type():
    with pytest.raises(UnsupportedTypeError):
        build_coxeter("H", 3)
    with pytest.raises(UnsupportedTypeError):
        build_coxeter("A", 9)


@pytest.mark.parametrize("type_label,rank", SUPPORTED)
def test_group_enumeration(type_label, rank):
    datum = build_coxeter(type_label, rank)
    elems, lengths = datum.elements, datum.lengths
    assert len(elems) == len(lengths) == datum.order == EXPECTED_ORDER[(type_label, rank)]
    assert len(set(elems)) == len(elems)
    index = {m: i for i, m in enumerate(elems)}
    assert all(index[m] == i for i, m in enumerate(elems))
    assert lengths[0] == 0
    assert lengths.count(1) == rank
    assert group_order_oracle(datum) == len(elems)
    assert list(lengths) == sorted(lengths)


@pytest.mark.parametrize("type_label,rank", [("A", 2), ("B", 2), ("A", 3), ("G", 2)])
def test_length_equals_word_length(type_label, rank):
    datum = build_coxeter(type_label, rank)
    # BFS over generator words gives the minimal word length
    right = datum.tables["right"]
    ident = 0
    dist = {ident: 0}
    frontier = [ident]
    while frontier:
        new = []
        for i in frontier:
            for s in range(rank):
                j = right[i][s]
                if j not in dist:
                    dist[j] = dist[i] + 1
                    new.append(j)
        frontier = new
    for i, n in enumerate(datum.lengths):
        assert n == dist[i]
        assert len(datum.word_of(i)) == n


def test_tables_consistency():
    datum = build_coxeter("B", 2)
    n = datum.order
    for i in range(n):
        j = datum.inv_idx(i)
        assert mul_idx(datum, i, j) == 0
        assert mul_idx(datum, j, i) == 0
    for i in range(n):
        for j in range(n):
            k = mul_idx(datum, i, j)
            assert abs(datum.lengths[i] - datum.lengths[j]) <= datum.lengths[k]


# -- Bruhat order -------------------------------------------------------------

@pytest.mark.parametrize("type_label,rank", [("A", 2), ("B", 2), ("A", 3), ("G", 2), ("B", 3)])
def test_bruhat_vs_subword_oracle(type_label, rank):
    datum = build_coxeter(type_label, rank)
    n = datum.order
    for j in range(n):
        ideal = subword_ideal(datum, j)
        for i in range(n):
            assert bruhat_leq(datum, i, j) == (i in ideal)


def test_bruhat_extremes():
    datum = build_coxeter("A", 2)
    w0 = max(range(datum.order), key=lambda i: datum.lengths[i])
    for w in range(datum.order):
        assert bruhat_leq(datum, 0, w)
        assert bruhat_leq(datum, w0, w) == (w == w0)
    s1, s2 = (i for i, n in enumerate(datum.lengths) if n == 1)
    s1s2 = mul_idx(datum, s1, s2)
    s2s1s2 = mul_idx(datum, s2, s1s2)
    assert bruhat_leq(datum, s1, s1s2)
    assert not bruhat_leq(datum, s2s1s2, s1s2)


# -- cosets and Poincare polynomials ------------------------------------------

@pytest.mark.parametrize("type_label,rank", [("A", 2), ("B", 2), ("A", 3), ("G", 2)])
def test_min_coset_reps_partition(type_label, rank):
    datum = build_coxeter(type_label, rank)
    full = set(range(rank))
    for r in range(rank + 1):
        for members in itertools.combinations(range(rank), r):
            reps = min_coset_reps(datum, members)
            assert list(reps) == sorted(set(reps))
            # W_I as closure of its generators
            wi = {0}
            frontier = [0]
            while frontier:
                new = []
                for i in frontier:
                    for s in members:
                        j = datum.tables["right"][i][s]
                        if j not in wi:
                            wi.add(j)
                            new.append(j)
                frontier = new
            covered = set()
            for g in reps:
                coset = {mul_idx(datum, g, h) for h in wi}
                assert all(datum.lengths[g] <= datum.lengths[k] for k in coset)
                assert not (coset & covered)
                covered |= coset
            assert covered == set(range(datum.order))
            assert len(reps) * len(wi) == datum.order
    assert min_coset_reps(datum, full) == (0,)
    assert len(min_coset_reps(datum, ())) == datum.order


def test_poincare_examples():
    a1 = build_coxeter("A", 1)
    assert poincare_poly(a1, ()) == (1, 1)
    assert poincare_poly(a1, (0,)) == (1,)
    a2 = build_coxeter("A", 2)
    assert poincare_poly(a2, ()) == (1, 2, 2, 1)
    assert poincare_poly(a2, (0, 1)) == (1,)
    a2_reps = min_coset_reps(a2, (0,))
    assert sorted(a2.lengths[i] for i in a2_reps) == [0, 1, 2]


@pytest.mark.parametrize("type_label,rank", SUPPORTED)
def test_poincare_at_one(type_label, rank):
    datum = build_coxeter(type_label, rank)
    assert poly_value(poincare_poly(datum, ()), 1) == datum.order
    for s in range(rank):
        p = poincare_poly(datum, (s,))
        assert poly_value(p, 1) == datum.order // 2
        assert p[0] == 1

