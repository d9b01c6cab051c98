"""Finite crystallographic root systems and their Weyl groups, in exact arithmetic.

The Weyl group is held as index tables built once per datum.  Element i is
the integer matrix elements[i], acting on the root lattice in the basis of
simple roots; every group operation takes and returns such indices, never
matrices, and reads one of these tables (N = |W|, r = rank, P = |Phi+|):

- ``tables["right"]`` and ``tables["left"]``: the products w s and s w,
  N x r and r x N;
- ``tables["root_act"]``: the signed image of each positive root, N x P;
- ``tables["mul"]``: the product table, N x N, with ``tables["inv"]`` (N)
  read off it;
- ``coset_minima(I)``: the minimal representative of each coset w W_I, N
  per type I, built on first use.

The group is the one closure of the simple reflections, the generators
``elements[tables["right"][0][s]]``, and the positive roots are read off it:
every root is W-conjugate to a simple root, so the roots are the columns of
the group's matrices.  All enumeration orders are deterministic: positive
roots in graded lexicographic order, group elements by (length, matrix
entries).
"""

from __future__ import annotations


class UnsupportedTypeError(ValueError):
    """Requested Cartan type / rank outside the supported list."""


SUPPORTED = (("A", 1), ("A", 2), ("A", 3), ("A", 4),
             ("B", 2), ("B", 3), ("C", 3), ("G", 2))


def cartan_matrix(type_label, rank):
    """Cartan matrix a[i][j] = <alpha_i^vee, alpha_j> for the supported types."""
    if (type_label, rank) not in SUPPORTED:
        raise UnsupportedTypeError(f"unsupported Cartan type {type_label}{rank}")
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i in range(rank - 1):
        a[i][i + 1] = -1
        a[i + 1][i] = -1
    if type_label == "B":
        # last simple root short: <alpha_{r-1}^vee, alpha_r> stays -1,
        # <alpha_r^vee, alpha_{r-1}> = -2
        a[rank - 1][rank - 2] = -2
    elif type_label == "C":
        a[rank - 2][rank - 1] = -2
    elif type_label == "G":
        a[0][1] = -3
    return tuple(tuple(r) for r in a)


def _root_sign(vec):
    """+1 / -1 / 0 per the positive-cone decomposition of the root lattice."""
    if all(x >= 0 for x in vec) and any(x > 0 for x in vec):
        return 1
    if all(x <= 0 for x in vec) and any(x < 0 for x in vec):
        return -1
    return 0


def _simple_reflections(cartan):
    """Integer matrices of the simple reflections on the root lattice.

    s_i(alpha_j) = alpha_j - a[i][j] alpha_i: the identity except row i,
    which is -a[i][j] off the diagonal and -1 on it.
    """
    rank = len(cartan)
    return [tuple(tuple(1 if j == k else 0 for j in range(rank)) if k != i
                  else tuple(-cartan[i][j] if j != i else -1 for j in range(rank))
                  for k in range(rank))
            for i in range(rank)]


def _mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(r, c)) for c in bt) for r in a)


def _mat_apply(m, v):
    return tuple(sum(x * y for x, y in zip(r, v)) for r in m)


class CoxeterDatum:
    """Root datum plus the Weyl group as index tables, built once on construction.

    Element i is the matrix elements[i], of length lengths[i]; every other
    group operation takes and returns such indices.  Immutable by convention
    (the coset minima are filled in on first use, each the same whoever
    builds it), so instances are safe to share across threads.
    """

    def __init__(self, type_label, rank, cartan):
        self.type_label = type_label
        self.rank = rank
        self.cartan = cartan
        self.simple_roots = tuple(
            tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank))
        gens = _simple_reflections(cartan)
        products = {}                   # matrix -> its products with each generator
        frontier = [self.simple_roots]  # the identity matrix
        while frontier:
            for m in frontier:
                products[m] = tuple(_mat_mul(m, g) for g in gens)
            frontier = list({mg for m in frontier for mg in products[m] if mg not in products})
        # every root is W-conjugate to a simple one: column i of w is w(alpha_i)
        roots = {v for m in products for v in zip(*m) if _root_sign(v) > 0}
        self.positive_roots = tuple(sorted(roots, key=lambda v: (sum(v), v)))
        self.root_index = {v: i for i, v in enumerate(self.positive_roots)}
        self.simple_positions = tuple(self.root_index[s] for s in self.simple_roots)
        # w . alpha_a = sign * alpha_b, encoded as sign*(b+1)
        act = {}
        for m in products:
            row = []
            for a in self.positive_roots:
                img = _mat_apply(m, a)
                s = _root_sign(img)
                row.append(s * (self.root_index[img if s > 0 else tuple(-x for x in img)] + 1))
            act[m] = tuple(row)
        length = {m: sum(1 for v in act[m] if v < 0) for m in products}
        self.elements = tuple(sorted(products, key=lambda m: (length[m], m)))
        self.lengths = tuple(length[m] for m in self.elements)
        self.order = len(self.elements)
        index = {m: i for i, m in enumerate(self.elements)}
        right = [tuple(index[p] for p in products[m]) for m in self.elements]
        self.tables = {"right": right, "root_act": [act[m] for m in self.elements]}
        # column j of the product table is column j s pushed through right[.][s],
        # for a right descent s of j; columns are filled in length order
        cols = [tuple(range(self.order))]
        for j in range(1, self.order):
            s = next(k for k in range(rank) if self.has_right_descent(j, k))
            cols.append(tuple([right[x][s] for x in cols[right[j][s]]]))
        mul = tuple(zip(*cols))
        self.tables["mul"] = mul
        self.tables["left"] = [mul[g] for g in right[0]]     # s w = mul[s][w]
        self.tables["inv"] = tuple(row.index(0) for row in mul)
        self._coset_minima = {}

    def inv_idx(self, i):
        return self.tables["inv"][i]

    def word_of(self, i):
        """A reduced word for elements[i], greedy on right descents."""
        word = []
        while self.lengths[i] > 0:
            s = next(k for k in range(self.rank) if self.has_right_descent(i, k))
            word.append(s)
            i = self.tables["right"][i][s]
        word.reverse()
        return tuple(word)

    def has_right_descent(self, i, s):
        return self.tables["root_act"][i][self.simple_positions[s]] < 0

    def has_left_descent(self, i, s):
        return self.tables["root_act"][self.inv_idx(i)][self.simple_positions[s]] < 0

    def coset_minima(self, members):
        """Per element i, the index of the minimal-length element of
        elements[i] * W_I, for I the sorted tuple ``members``; built once per I.

        In length order, an element with no right descent in I is its own
        coset's minimum, and any other shares it with i s, one shorter, for a
        right descent s in I.
        """
        got = self._coset_minima.get(members)
        if got is None:
            right = self.tables["right"]
            got = []
            for i in range(self.order):
                s = next((s for s in members if self.has_right_descent(i, s)), None)
                got.append(i if s is None else got[right[i][s]])
            got = self._coset_minima[members] = tuple(got)
        return got

    def conjugacy_classes(self):
        """Conjugacy classes, each the sorted set {g i g^-1} read off the
        product table, in order of least element."""
        mul, inv = self.tables["mul"], self.tables["inv"]
        classes, seen = [], set()
        for i in range(self.order):
            if i not in seen:
                classes.append(tuple(sorted({mul[mul[g][i]][inv[g]] for g in range(self.order)})))
                seen.update(classes[-1])
        return tuple(classes)

    def coxeter_order(self, i, j):
        """Order of s_i s_j, read off the Cartan matrix."""
        if i == j:
            return 1
        return {0: 2, 1: 3, 2: 4, 3: 6}[self.cartan[i][j] * self.cartan[j][i]]


def build_coxeter(type_label, rank):
    """Construct the root datum for one of the supported (type, rank) pairs."""
    return CoxeterDatum(type_label, rank, cartan_matrix(type_label, rank))


def bruhat_leq(datum, i, j):
    """Bruhat order elements[i] <= elements[j] via the left lifting property."""
    left = datum.tables["left"]
    while datum.lengths[j] > 0:
        s = next(k for k in range(datum.rank) if datum.has_left_descent(j, k))
        if datum.has_left_descent(i, s):
            i = left[s][i]
        j = left[s][j]
    return datum.lengths[i] == 0


def min_coset_reps(datum, members):
    """Indices of the minimal-length representatives of the cosets W / W_I, ascending."""
    return tuple(i for i, m in enumerate(datum.coset_minima(tuple(sorted(members))))
                 if m == i)


def poincare_poly(datum, members):
    """Length generating function of the minimal coset representatives of W/W_I,
    as the tuple of its ascending integer coefficients.  The identity is one of
    them, so the tuple is never empty and its last entry is nonzero."""
    counts = {}
    for i in min_coset_reps(datum, members):
        counts[datum.lengths[i]] = counts.get(datum.lengths[i], 0) + 1
    return tuple(counts.get(d, 0) for d in range(max(counts) + 1))
