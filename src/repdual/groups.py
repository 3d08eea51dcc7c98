"""Finite groups as dense index tables.

Elements of a group of order N are the indices 0..N-1 with the identity
always at index 0.  A word in the n-fold direct product is a plain tuple of
n element indices; the product group is never materialized as a table.

Cayley tables, products and conjugacy classes run as numpy gathers on exact
integer index arrays.  Permutation closure gathers each BFS level's
neighbours at once and keys every element by its image bytes in a dict.
Besides the table itself and the axiom checks of group_from_table, building
a group makes no quadratic pass: the one power walk that gives the element
orders gives the inverses too, and conjugacy classes are orbits under
conjugation by the generators.  A permutation group keeps its image array
and writes an element's cycle notation only when the label is read.

Canonical conventions pinned here (everything downstream relies on them):
  * permutation closures index elements in BFS order from the identity,
    generators in input order;
  * conjugacy classes are ordered identity first, then by smallest element
    index;
  * the table digest (the name of a character-table cache file) is the
    sha256 of the order in decimal and the table's little-endian bytes in
    its index dtype.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from math import isqrt, lcm

import numpy as np

from .errors import ClosureCapExceeded, InvalidPermutation, NotAGroup

GroupWord = tuple[int, ...]

DEFAULT_GROUP_CAP = 5000

# Temporaries of the numpy kernels hold about this many entries per block.
TABLE_BLOCK = 2**14


def _index_dtype(order: int):
    """Smallest signed dtype that holds the indices 0..order-1."""
    return np.int16 if order < 2**15 else np.int32


def _orders_and_inverses(T: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray]:
    """Order and inverse of every element: the powers g^m of the elements
    not yet back at the identity advance together, one gather per step,
    within N - 1 steps at order N.  Each step first records m as the order
    and g^(m-1) as the inverse, which stay once g^m is the identity."""
    n = len(T)
    orders = np.ones(n, dtype=np.int64)
    inverse = np.zeros(n, dtype=np.intp)
    live = np.arange(1, n)
    x = live  # g^(m-1) for each g in live
    for m in range(2, n + 1):
        orders[live] = m
        inverse[live] = x
        y = T[x, live]
        keep = y != 0
        live, x = live[keep], y[keep]
        if not live.size:
            break
    if live.size:
        raise NotAGroup(f"powers of {labels[live[0]]} never reach the identity")
    return orders, inverse


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Immutable finite group over indices 0..order-1, identity at 0.

    cayley is the Cayley table as a read-only index array (it may be given
    as nested rows), and orders[g] is the order of element g.
    element_labels is a tuple of strings or, for a permutation group,
    CycleLabels.  generators, when given, must generate the group:
    conjugacy classes are orbits under them.  Groups are equal when their names, labels, generators and tables
    are.

    This is the trusted constructor: it checks none of the group axioms,
    and is for tables that are groups by construction (closures, products,
    Z<n>).  A table from outside the program goes through group_from_table,
    as every spec path does."""

    name: str
    cayley: np.ndarray
    element_labels: Sequence[str]
    inverse: tuple[int, ...] = field(init=False)
    orders: tuple[int, ...] = field(init=False)
    exponent: int = field(init=False)
    generators: tuple[int, ...] = ()

    def __post_init__(self):
        T = np.asarray(self.cayley)
        T = T.astype(_index_dtype(len(T)), copy=False)
        T.setflags(write=False)
        object.__setattr__(self, "cayley", T)
        orders, inverse = _orders_and_inverses(T, self.element_labels)
        orders = tuple(orders.tolist())
        object.__setattr__(self, "inverse", tuple(inverse.tolist()))
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "exponent", lcm(*set(orders)))

    def __eq__(self, other):
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return (self.name, self.element_labels, self.generators) == (
            other.name, other.element_labels, other.generators
        ) and np.array_equal(self.cayley, other.cayley)

    def __hash__(self):
        return hash((self.name, table_hash(self.cayley)))

    @property
    def order(self) -> int:
        return len(self.cayley)

    def labels_of(self, elements) -> list[str]:
        """The labels of elements, a permutation group's written in one
        batch."""
        labels = self.element_labels
        if isinstance(labels, CycleLabels):
            return labels.take(elements)
        return [labels[g] for g in elements]

    def element_order(self, g: int) -> int:
        return self.orders[g]

    def is_abelian(self) -> bool:
        """Whether the generators commute, which they do exactly when the
        group they generate is abelian."""
        g = self.generators or _small_generating_set(self.cayley)
        X = self.cayley[np.ix_(g, g)]
        return bool((X == X.T).all())

    def table_digest(self) -> str:
        return self._table_digest

    @cached_property
    def _table_digest(self) -> str:
        """sha256 of the order in decimal and then the Cayley table's
        row-major little-endian bytes in its index dtype (_index_dtype of
        the order), read from the array's own buffer on a little-endian
        machine."""
        # imported here: hashlib maps OpenSSL, which only a cache file name needs
        import hashlib

        T = self.cayley
        T = np.ascontiguousarray(T, dtype=T.dtype.newbyteorder("<"))
        h = hashlib.sha256(str(len(T)).encode())
        h.update(T)
        return h.hexdigest()

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


def table_hash(T: np.ndarray) -> int:
    """A hash of a Cayley table from its order and a few rows (row 0 of a
    group table is the identity's, so they start at row 1): equal tables
    hash equal, since the order fixes the dtype, and no order reads more
    than four rows."""
    return hash((len(T), T[1 :: max(1, len(T) // 4)][:4].tobytes()))


def _from_array(name: str, T: np.ndarray, labels, generators=None) -> FiniteGroup:
    """Wrap an index array; generators default to _small_generating_set."""
    if generators is None:
        generators = _small_generating_set(T)
    return FiniteGroup(name, T, labels, tuple(generators))


@dataclass(frozen=True)
class ClassData:
    """Conjugacy classes in canonical order (identity class first, then by
    smallest member index).  Class indices are 0-based internally and
    rendered 1-based in output."""

    num_classes: int
    class_of: tuple[int, ...]
    class_reps: tuple[int, ...]
    class_sizes: tuple[int, ...]

    def members(self, c: int) -> list[int]:
        return [g for g, cls in enumerate(self.class_of) if cls == c]


# -- permutation plumbing ----------------------------------------------------


def perm_from_cycles(cycles: list[list[int]], degree: int) -> tuple[int, ...]:
    """Image tuple of a product of disjoint cycles on 0-based points."""
    images = list(range(degree))
    for cycle in cycles:
        for pt in cycle:
            if not (0 <= pt < degree):
                raise InvalidPermutation(f"point {pt} outside 0..{degree - 1}")
        for i, pt in enumerate(cycle):
            if images[pt] != pt and len(cycle) > 1:
                raise InvalidPermutation(f"point {pt} appears in two cycles")
            images[pt] = cycle[(i + 1) % len(cycle)]
    return tuple(images)


def _cycle_labels(P: np.ndarray) -> list[str]:
    """The cycle notation of every row of the (N, degree) image array P, one
    walk per permutation: each cycle in parentheses from its smallest point,
    its points separated by spaces, cycles by their smallest points, fixed
    points left out, and "()" for the identity."""
    names = [str(i) for i in range(P.shape[1])]
    labels = []
    for perm in map(np.ndarray.tolist, P):
        seen = [False] * len(perm)
        parts = []
        for start, x in enumerate(perm):
            if x == start or seen[start]:
                continue
            cycle = [names[start]]
            while x != start:
                seen[x] = True
                cycle.append(names[x])
                x = perm[x]
            parts.append("(" + " ".join(cycle) + ")")
        labels.append("".join(parts) or "()")
    return labels


class CycleLabels(Sequence):
    """The labels of a permutation group: the cycle notation of each row of
    its (N, degree) image array, written the first time it is read and kept.
    An index reads one label; iteration, take and comparison read many and
    write the missing ones in one _cycle_labels batch.  Equal to a tuple or
    CycleLabels holding the same strings."""

    def __init__(self, images: np.ndarray):
        self.images = images
        self._written: list[str | None] = [None] * len(images)

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self.take(range(len(self))[i]))
        label = self._written[i]
        if label is None:
            label = self._written[i] = _cycle_labels(self.images[[i]])[0]
        return label

    def take(self, elements) -> list[str]:
        """The labels of elements, the missing ones written in one batch."""
        written = self._written
        missing = [g for g in elements if written[g] is None]
        if missing:
            for g, label in zip(missing, _cycle_labels(self.images[missing])):
                written[g] = label
        return [written[g] for g in elements]

    def __iter__(self):
        if None in self._written:
            self.take(range(len(self)))
        return iter(self._written)

    def __eq__(self, other):
        if isinstance(other, (tuple, CycleLabels)):
            return tuple(self) == tuple(other)
        return NotImplemented


def _closure(gens: np.ndarray, degree: int, cap: int):
    """BFS closure of the generator images gens, shape (r, degree).

    Each level's neighbours x o g, x-major and generator-minor, are one
    gather of the frontier's rows; a dict from an element's image bytes to
    its index tells the new ones from the known.  Returns the elements
    (N, degree) in BFS order, right (N, r) with right[x, s] the index of
    x o gens[s], and per BFS level the indices of the elements it found with
    the (parent, generator) that found each."""
    r = len(gens)
    frontier = np.arange(degree, dtype=_index_dtype(degree))[None, :]
    index = {frontier.tobytes(): 0}
    elements, right, levels = [frontier], [], []
    while len(frontier):
        count = len(index)
        Y = frontier[:, gens].reshape(-1, degree)
        data, width = Y.tobytes(), Y.itemsize * degree
        found, row = [], []
        for j in range(len(Y)):
            key = data[j * width : (j + 1) * width]
            if key not in index:
                if len(index) >= cap:
                    raise ClosureCapExceeded("group closure", cap + 1, cap)
                index[key] = len(index)
                found.append(j)
            row.append(index[key])
        found = np.array(found, dtype=np.intp)
        right.append(np.array(row, dtype=np.intp).reshape(len(frontier), r))
        # the frontier is the last len(frontier) elements found
        parents = count - len(frontier) + found // r
        levels.append((np.arange(count, len(index)), parents, found % r))
        frontier = Y[found]
        elements.append(frontier)
    return np.concatenate(elements), np.concatenate(right), levels


def _cayley_from_bfs(right: np.ndarray, levels) -> np.ndarray:
    """Cayley table from right multiplication by the generators: when
    b = parent o g_s, column b is right[column parent, s].  Each BFS level
    fills its columns as rows of the transposed table, row gathers through
    the flat index of right, a block of about TABLE_BLOCK entries at a time;
    the result is transposed in place."""
    n, r = right.shape
    U = np.empty((n, n), dtype=_index_dtype(n))  # U[b] is column b
    U[0] = np.arange(n)
    flat = right.astype(U.dtype).ravel()
    step = max(1, TABLE_BLOCK // n)
    for cols, parents, steps in levels:
        for s in range(0, len(cols), step):
            index = U[parents[s : s + step]].astype(np.intp)
            index *= r
            index += steps[s : s + step, None]
            U[cols[s : s + step]] = flat[index]
    _transpose_in_place(U)
    return U


def _transpose_in_place(U: np.ndarray) -> None:
    """Transpose the square array U by swapping blocks of about TABLE_BLOCK
    entries across the diagonal."""
    n, b = len(U), isqrt(TABLE_BLOCK)
    for i in range(0, n, b):
        for j in range(i, n, b):
            upper = U[i : i + b, j : j + b].copy()
            U[i : i + b, j : j + b] = U[j : j + b, i : i + b].T
            U[j : j + b, i : i + b] = upper.T


def group_from_generators(
    perms: list[tuple[int, ...]], cap: int = DEFAULT_GROUP_CAP, name: str | None = None
) -> FiniteGroup:
    """Closure of permutation generators under composition.

    Elements are indexed in BFS order from the identity, expanding by the
    generators in input order (neighbor of x is x o g)."""
    degree = len(perms[0]) if perms else 1
    for p in perms:
        if len(p) != degree:
            raise InvalidPermutation("generators act on different point sets")
        if sorted(p) != list(range(degree)):
            raise InvalidPermutation(f"{p} is not a bijection on 0..{degree - 1}")
    gens = np.array(perms, dtype=np.intp).reshape(len(perms), degree)
    elements, right, levels = _closure(gens, degree, cap)
    return _from_array(
        name or f"perm[{len(elements)}]",
        _cayley_from_bfs(right, levels),
        CycleLabels(elements),
        right[0].tolist(),  # identity o g = g
    )


# -- table validation ----------------------------------------------------------

EXHAUSTIVE_ASSOC_LIMIT = 200


def group_from_table(
    table: list[list[int]], labels: list[str] | None = None, name: str | None = None
) -> FiniteGroup:
    """Validate the group axioms and wrap the table.

    Associativity is exact at every order (Light's test on a generating
    set, _associativity_witness).  Each failing axiom names its first
    witness in lexicographic order; above order 200 an associativity
    witness is the first one Light's test meets."""
    n = len(table)
    if n == 0 or any(len(row) != n for row in table):
        raise NotAGroup("table is not square")
    T = _entry_array(table, n)
    idx = np.arange(n)
    bad = np.flatnonzero((T[0] != idx) | (T[:, 0] != idx))
    if len(bad):
        raise NotAGroup(f"identity axiom: index 0 does not fix {bad[0]}")
    bad = _not_permutations(T)
    if len(bad):
        raise NotAGroup(f"row {bad[0]} is not a permutation (not a Latin square)")
    bad = _not_permutations(T.T)
    if len(bad):
        raise NotAGroup(f"column {bad[0]} is not a permutation (not a Latin square)")
    right_inverse = np.argmin(T, axis=1)
    bad = np.flatnonzero(T[right_inverse, idx] != 0)
    if len(bad):
        g = bad[0]
        raise NotAGroup(f"inverse axiom: {right_inverse[g]} inverts {g} on the right only")
    gens = _small_generating_set(T)
    witness = _associativity_witness(T, gens)
    if witness is not None:
        raise NotAGroup("associativity fails at triple ({},{},{})".format(*witness))
    labs = tuple(labels) if labels else tuple(f"g{i}" for i in range(n))
    if len(labs) != n:
        raise NotAGroup("label count does not match order")
    return _from_array(name or f"table[{n}]", T.astype(_index_dtype(n)), labs, gens)


def _entry_array(table, n: int) -> np.ndarray:
    """The square table of order n as an intp array.  An entry may be a
    Python or numpy integer or bool (a bool counts as 0 or 1) in 0..n-1;
    the first other entry in row-major order is named.  The dtype and range
    are checked once on one np.array, and rows are scanned only to name the
    entry."""
    try:
        T = np.array(table)
    except ValueError:  # an entry that is itself a sequence
        T = None
    if T is not None and T.shape == (n, n) and T.dtype.kind in "biu":
        if 0 <= T.min() and T.max() < n:
            return T.astype(np.intp)
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            if not (isinstance(v, (int, np.integer, np.bool_)) and 0 <= v < n):
                raise NotAGroup(f"entry ({i},{j}) = {v} outside 0..{n - 1}")
    # integers that numpy promotes to float together, such as int64 and uint64
    return np.array(table, dtype=np.intp)


def _not_permutations(T: np.ndarray) -> np.ndarray:
    """The rows of the square array T, entries in 0..n-1, that miss a value,
    ascending: every entry is scattered into a boolean (n, n) mask of the
    values each row holds, so nothing is sorted."""
    n = len(T)
    seen = np.zeros((n, n), dtype=bool)
    seen.reshape(-1)[np.arange(n)[:, None] * n + T] = True
    return np.flatnonzero(~seen.all(axis=1))


def _associativity_witness(T: np.ndarray, gens) -> tuple[int, int, int] | None:
    """A triple (a, b, c) with (ab)c != a(bc), or None when the Latin square
    T with identity 0 is associative.

    Light's test (Clifford & Preston, The Algebraic Theory of Semigroups,
    vol. 1): the s with (xs)y = x(sy) for all x and y are closed under
    products, so T is associative exactly when every s in gens, which
    generate T under products, passes.  Each s is one comparison
    T[T[:, s]] == T[:, T[s]] over all (x, y), a block of rows at a time.
    When one fails, the witness is the lex-first triple of the exhaustive
    scan up to order 200, and the first failing (x, s, y) above it."""
    n = len(T)
    step = max(1, TABLE_BLOCK // n)
    for s in gens:
        for x0 in range(0, n, step):
            bad = T[T[x0 : x0 + step, s]] != T[x0 : x0 + step, T[s]]
            if bad.any():
                if n <= EXHAUSTIVE_ASSOC_LIMIT:
                    return _lex_first_witness(T)
                x, y = np.unravel_index(np.argmax(bad), bad.shape)
                return x0 + int(x), s, int(y)
    return None


def _lex_first_witness(T: np.ndarray) -> tuple[int, int, int]:
    """The lexicographically first triple (a, b, c) with (ab)c != a(bc), by
    a scan of all triples; T must have one."""
    n = len(T)
    step = max(1, TABLE_BLOCK // (n * n))
    for a0 in range(0, n, step):
        A = np.arange(a0, min(n, a0 + step))
        bad = T[T[A]] != T[A[:, None, None], T[None]]  # [a, b, c]
        if bad.any():
            i, b, c = np.unravel_index(np.argmax(bad), bad.shape)
            return a0 + int(i), int(b), int(c)
    raise AssertionError("table is associative")


def _span(T: np.ndarray, gens, mask: np.ndarray | None = None) -> np.ndarray:
    """Membership mask of the subgroup that the elements gens generate in
    the group with Cayley table T: each new element times every generator,
    one gather per round.  In a finite group every inverse is a positive
    power, so products alone close.  Given mask, the span of gens[:-1], it
    grows that mask in place: the old span is closed under the old
    generators, so only the last one moves it in the first round."""
    gens = np.asarray(gens, dtype=np.intp)
    if mask is None:
        mask = np.zeros(len(T), dtype=bool)
        mask[0] = True
        frontier, step = np.zeros(1, dtype=np.intp), gens
    else:
        frontier, step = np.flatnonzero(mask), gens[-1:]
    while len(frontier):
        Y = np.unique(T[frontier[:, None], step])
        frontier = Y[~mask[Y]]
        mask[frontier] = True
        step = gens
    return mask


def _small_generating_set(T: np.ndarray) -> tuple[int, ...]:
    """Greedy generating set: repeatedly adjoin the smallest element outside
    the current span, and grow the span from the previous one."""
    gens: list[int] = []
    span = _span(T, gens)
    while not span.all():
        gens.append(int(np.argmin(span)))
        _span(T, gens, span)
    return tuple(gens)


# -- conjugacy classes ----------------------------------------------------------


def conjugacy_classes(G: FiniteGroup) -> ClassData:
    """The class of g is its orbit under the maps g -> s g s^-1 for the
    generators s (G.generators, or _small_generating_set when there are
    none), found by orbit propagation (Holt, Eick & O'Brien, Handbook of
    Computational Group Theory, 4.1).  Every element carries a label, at
    first itself, that is always a member of its orbit no larger than it.
    Each round lowers a label to the least label among the element's images,
    one gather through all r maps T[T[s], inv[s]] at once, and then to its
    own label's label, until nothing changes; the fixed point labels each
    element with its orbit's smallest member.  Canonical class order
    (identity class first, then ascending smallest member index) is the
    order of those members."""
    T = G.cayley
    n = len(T)
    gens = list(G.generators or _small_generating_set(T))
    inv = np.array([G.inverse[s] for s in gens], dtype=np.intp)
    maps = T[T[gens], inv[:, None]].astype(np.intp)  # (r, n)
    label = np.arange(n)
    while True:
        lower = np.minimum(label, label[maps].min(axis=0, initial=n))
        lower = lower[lower]
        if (lower == label).all():
            break
        label = lower
    reps = np.flatnonzero(label == np.arange(n))
    class_of = reps.searchsorted(label)
    return ClassData(
        len(reps),
        tuple(class_of.tolist()),
        tuple(reps.tolist()),
        tuple(np.bincount(class_of).tolist()),
    )


# -- builtin groups ---------------------------------------------------------------


def cyclic_group(n: int, cap: int = DEFAULT_GROUP_CAP) -> FiniteGroup:
    if n > cap:
        raise ClosureCapExceeded("cyclic group order", n, cap)
    idx = np.arange(n, dtype=_index_dtype(2 * n))
    T = ((idx[:, None] + idx) % n).astype(_index_dtype(n), copy=False)
    gens = (1,) if n > 1 else ()
    return _from_array(f"Z{n}", T, tuple(map(str, range(n))), gens)


def symmetric_group(n: int, cap: int = DEFAULT_GROUP_CAP) -> FiniteGroup:
    if n <= 1:
        return group_from_generators([], cap, name=f"S{n}")
    if n == 2:
        return group_from_generators([perm_from_cycles([[0, 1]], 2)], cap, name="S2")
    gens = [
        perm_from_cycles([[0, 1]], n),
        perm_from_cycles([list(range(n))], n),
    ]
    return group_from_generators(gens, cap, name=f"S{n}")


def dihedral_group(n: int, cap: int = DEFAULT_GROUP_CAP) -> FiniteGroup:
    """Symmetries of the regular n-gon (order 2n), n >= 3."""
    if n < 3:
        raise ValueError("dihedral_group needs n >= 3")
    rot = perm_from_cycles([list(range(n))], n)
    refl = tuple((n - i) % n for i in range(n))
    return group_from_generators([rot, refl], cap, name=f"D{n}")


_QUATERNION_LABELS = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")


def quaternion_group() -> FiniteGroup:
    """Q8 as signed units: indices follow _QUATERNION_LABELS."""

    def unit_mul(a: int, b: int) -> int:
        sign = (a % 2) ^ (b % 2)
        ua, ub = a // 2, b // 2  # 0:1, 1:i, 2:j, 3:k
        if ua == 0:
            res = ub
        elif ub == 0:
            res = ua
        elif ua == ub:
            res, sign = 0, sign ^ 1
        else:
            # i*j=k, j*k=i, k*i=j and the reversals flip sign
            res = 6 - ua - ub
            if (ua, ub) in ((2, 1), (3, 2), (1, 3)):
                sign ^= 1
        return 2 * res + sign

    table = [[unit_mul(a, b) for b in range(8)] for a in range(8)]
    return group_from_table(table, labels=list(_QUATERNION_LABELS), name="Q8")


def product_group(
    factors: list[FiniteGroup], name: str | None = None, cap: int = DEFAULT_GROUP_CAP
) -> FiniteGroup:
    """Direct product with mixed-radix element indexing (last factor
    fastest)."""
    if not factors:
        return cyclic_group(1)
    total = 1
    for G in factors:
        total *= G.order
    if total > cap:
        raise ClosureCapExceeded("product group order", total, cap)
    T = np.zeros((1, 1), dtype=_index_dtype(total))
    for G in factors:
        o = G.order
        T = (T[:, None, :, None] * o + G.cayley[None, :, None, :]).reshape(len(T) * o, -1)
    labels = tuple(
        "(" + ",".join(parts) + ")"
        for parts in product(*(G.element_labels for G in factors))
    )
    return _from_array(name or "x".join(G.name for G in factors), T, labels)


def builtin_group(name: str, cap: int = DEFAULT_GROUP_CAP) -> FiniteGroup:
    """Named groups accepted by spec files and the CLI: Z<n>, S<n>, D<n>, Q8.
    cap bounds the order of Z<n> and the closures of S<n> and D<n>."""
    if name == "Q8":
        return quaternion_group()
    if len(name) >= 2 and name[0] in "ZSD" and name[1:].isdigit():
        n = int(name[1:])
        if n < 1:
            raise ValueError(f"builtin group {name!r} needs a positive parameter")
        if name[0] == "Z":
            return cyclic_group(n, cap)
        if name[0] == "S":
            return symmetric_group(n, cap)
        return dihedral_group(n, cap)
    raise ValueError(f"unknown builtin group {name!r}")
