"""Finite crystallographic root systems and their Weyl groups, in exact arithmetic.

Group elements are integer matrices acting on the root lattice in the basis
of simple roots; equality is matrix equality.  All enumeration orders are
deterministic: positive roots in graded lexicographic order, group elements
by (length, matrix entries).
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


class GroupElement:
    """Weyl group element: integer matrix on the root lattice plus cached length."""

    __slots__ = ("mat", "length")

    def __init__(self, mat, length):
        self.mat = mat
        self.length = length

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self.mat == other.mat

    def __hash__(self):
        return hash(self.mat)

    def __repr__(self):
        return f"GroupElement(len={self.length})"


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
    """Root datum plus lazily built group tables.

    Immutable by convention: nothing mutates after the lazy caches fill,
    so instances are safe to share across threads.
    """

    def __init__(self, type_label, rank, cartan, positive_roots):
        self.type_label = type_label
        self.rank = rank
        self.cartan = cartan
        self.simple_roots = tuple(
            tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank))
        self.positive_roots = positive_roots
        self.root_index = {v: i for i, v in enumerate(positive_roots)}
        self.simple_positions = tuple(self.root_index[s] for s in self.simple_roots)
        self._elements = None
        self._tables = None

    # -- group enumeration ---------------------------------------------—

    def length_of(self, mat):
        return sum(1 for a in self.positive_roots if _root_sign(_mat_apply(mat, a)) < 0)

    @property
    def elements(self):
        if self._elements is None:
            gens = _simple_reflections(self.cartan)
            ident = tuple(tuple(1 if i == j else 0 for j in range(self.rank))
                          for i in range(self.rank))
            seen = {ident}
            frontier = [ident]
            while frontier:
                new = []
                for m in frontier:
                    for g in gens:
                        mg = _mat_mul(m, g)
                        if mg not in seen:
                            seen.add(mg)
                            new.append(mg)
                frontier = new
            elems = sorted(seen, key=lambda m: (self.length_of(m), m))
            self._elements = tuple(GroupElement(m, self.length_of(m)) for m in elems)
        return self._elements

    @property
    def order(self):
        return len(self.elements)

    def _build_tables(self):
        elems = self.elements
        n = len(elems)
        index = {g.mat: i for i, g in enumerate(elems)}
        gens = _simple_reflections(self.cartan)
        right = [tuple(index[_mat_mul(elems[i].mat, g)] for g in gens) for i in range(n)]
        left = [tuple(index[_mat_mul(g, elems[i].mat)] for i in range(n)) for g in gens]
        # w . alpha_a = sign * alpha_b, encoded as sign*(b+1)
        root_act = []
        for g in elems:
            row = []
            for a in self.positive_roots:
                img = _mat_apply(g.mat, a)
                s = _root_sign(img)
                b = self.root_index[img if s > 0 else tuple(-x for x in img)]
                row.append(s * (b + 1))
            root_act.append(tuple(row))
        inv = [None] * n
        ident_idx = index[elems[0].mat]
        for i in range(n):
            # i * d1 * ... * dk = e along right descents, so i^-1 = d1 ... dk
            j, w = i, ident_idx
            while elems[j].length > 0:
                s = next(k for k in range(self.rank)
                         if root_act[j][self.simple_positions[k]] < 0)
                j = right[j][s]
                w = right[w][s]
            inv[i] = w
        self._tables = {
            "index": index, "right": right, "left": left,
            "root_act": root_act, "inv": tuple(inv),
        }

    @property
    def tables(self):
        if self._tables is None:
            self._build_tables()
        return self._tables

    def index_of(self, g):
        return self.tables["index"][g.mat]

    def mul_idx(self, i, j):
        """Index of elements[i] * elements[j] (via the reduced word of j)."""
        right = self.tables["right"]
        for s in self.word_of(j):
            i = right[i][s]
        return i

    def inv_idx(self, i):
        return self.tables["inv"][i]

    def word_of(self, i):
        """A reduced word for elements[i], greedy on right descents."""
        t = self.tables
        word = []
        while self.elements[i].length > 0:
            s = next(k for k in range(self.rank)
                     if t["root_act"][i][self.simple_positions[k]] < 0)
            word.append(s)
            i = t["right"][i][s]
        word.reverse()
        return tuple(word)

    def has_right_descent(self, i, s):
        return self.tables["root_act"][i][self.simple_positions[s]] < 0

    def has_left_descent(self, i, s):
        return self.tables["root_act"][self.inv_idx(i)][self.simple_positions[s]] < 0

    def root_action(self, i, a):
        """Signed index: elements[i] . alpha_a = sign * alpha_b, returned as (sign, b)."""
        v = self.tables["root_act"][i][a]
        return (1, v - 1) if v > 0 else (-1, -v - 1)

    def min_in_coset(self, i, members):
        """Index of the minimal-length element of elements[i] * W_I."""
        moved = True
        while moved:
            moved = False
            for s in members:
                if self.has_right_descent(i, s):
                    i = self.tables["right"][i][s]
                    moved = True
        return i

    def conjugacy_classes(self):
        """Partition of element indices into conjugacy classes, deterministic order."""
        n = self.order
        seen = [False] * n
        classes = []
        for i in range(n):
            if seen[i]:
                continue
            orbit = {i}
            frontier = [i]
            while frontier:
                new = []
                for j in frontier:
                    for s in range(self.rank):
                        k = self.tables["left"][s][self.tables["right"][j][s]]
                        if k not in orbit:
                            orbit.add(k)
                            new.append(k)
                frontier = new
            cls = tuple(sorted(orbit))
            for j in cls:
                seen[j] = True
            classes.append(cls)
        return tuple(classes)

    def coxeter_order(self, i, j):
        """Order of s_i s_j, read off the Cartan matrix."""
        if i == j:
            return 1
        return {0: 2, 1: 3, 2: 4, 3: 6}[self.cartan[i][j] * self.cartan[j][i]]


def build_coxeter(type_label, rank):
    """Construct the root datum for one of the supported (type, rank) pairs."""
    cartan = cartan_matrix(type_label, rank)
    gens = _simple_reflections(cartan)
    roots = {tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)}
    frontier = set(roots)
    while frontier:
        new = set()
        for v in frontier:
            for g in gens:
                img = _mat_apply(g, v)
                if _root_sign(img) > 0 and img not in roots:
                    new.add(img)
        roots |= new
        frontier = new
    positive = tuple(sorted(roots, key=lambda v: (sum(v), v)))
    return CoxeterDatum(type_label, rank, cartan, positive)


def enumerate_group(datum):
    """All group elements, deterministically ordered by (length, matrix)."""
    return datum.elements


def bruhat_leq(datum, u, w):
    """Bruhat order u <= w via the left lifting property."""
    i = datum.index_of(u) if isinstance(u, GroupElement) else u
    j = datum.index_of(w) if isinstance(w, GroupElement) else w
    elems = datum.elements
    left = datum.tables["left"]
    while elems[j].length > 0:
        s = next(k for k in range(datum.rank) if datum.has_left_descent(j, k))
        if datum.has_left_descent(i, s):
            i = left[s][i]
        j = left[s][j]
    return elems[i].length == 0


def min_coset_reps(datum, members):
    """Minimal-length representatives of the cosets W / W_I, in enumeration order."""
    members = tuple(sorted(set(members)))
    reps = []
    for i, g in enumerate(datum.elements):
        if not any(datum.has_right_descent(i, s) for s in members):
            reps.append(g)
    return tuple(reps)


def poincare_poly(datum, members):
    """Length generating function of the minimal coset representatives of W/W_I,
    as the tuple of its ascending integer coefficients.  The identity is one of
    them, so the tuple is never empty and its last entry is nonzero."""
    counts = {}
    for g in min_coset_reps(datum, members):
        counts[g.length] = counts.get(g.length, 0) + 1
    return tuple(counts.get(d, 0) for d in range(max(counts) + 1))
