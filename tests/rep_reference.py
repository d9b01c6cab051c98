"""Tableau search and generator BFS, the oracles of the representation layer.

``mbsheaf.f1._specht`` takes the standard tableaux of a shape from a
filtered permutation list and writes tabloids as the tuple of each entry's
row; ``CoxeterDatum.conjugacy_classes`` reads each class off the product
table.  The functions here are the constructions they replaced: a
depth-first tableau search, tabloids as tuples of frozenset rows with an
inversion-counting sign, and a breadth-first search over conjugation by the
simple reflections.  Tests compare both on every partition of n <= 5 and on
all eight supported types (see test_rep_differential.py).
"""

from __future__ import annotations

import itertools

from mbsheaf.linalg import RationalMatrix


def standard_tableaux(shape):
    """Standard Young tableaux of the given partition shape, as cell -> entry."""
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


def sign_of(orig, img):
    """Sign of the permutation taking the list orig to the list img."""
    inv = sum(1 for i in range(len(img)) for j in range(i + 1, len(img))
              if orig.index(img[i]) > orig.index(img[j]))
    return (-1) ** inv


def specht_generators(rank, shape):
    """Generator matrices of the Specht module S^shape of S_{rank+1}, by
    polytabloids of the searched standard tableaux in the tabloid module."""
    n = rank + 1

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
                sign *= sign_of(orig, list(img))
            vec[tab_index[apply_perm(perm, base)]] += sign
        return vec

    std = standard_tableaux(shape)
    basis = RationalMatrix.from_columns([tuple(polytabloid(t)) for t in std],
                                        len(tabloids))
    gen_mats = []
    for s in range(rank):
        perm = {s + 1: s + 2, s + 2: s + 1}
        big = RationalMatrix.pushforward(
            [tab_index[apply_perm(perm, t)] for t in tabloids], len(tabloids))
        gen_mats.append(basis.solve(big @ basis))
    return gen_mats


def bfs_conjugacy_classes(datum):
    """Conjugacy classes by breadth-first search over j -> s j s, each sorted,
    in order of least element."""
    seen = [False] * datum.order
    classes = []
    for i in range(datum.order):
        if seen[i]:
            continue
        orbit = {i}
        frontier = [i]
        while frontier:
            new = []
            for j in frontier:
                for s in range(datum.rank):
                    k = datum.tables["left"][s][datum.tables["right"][j][s]]
                    if k not in orbit:
                        orbit.add(k)
                        new.append(k)
            frontier = new
        cls = tuple(sorted(orbit))
        for j in cls:
            seen[j] = True
        classes.append(cls)
    return tuple(classes)
