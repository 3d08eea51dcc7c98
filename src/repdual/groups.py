"""Finite groups as dense index tables, plus componentwise word arithmetic.

Elements of a group of order N are the indices 0..N-1 with the identity
always at index 0.  A word in the n-fold direct product is a plain tuple of
n element indices; the product group is never materialized as a table.

Closure, Cayley tables, products and conjugacy classes run as numpy gathers
on exact integer index arrays.

Canonical conventions pinned here (everything downstream relies on them):
  * permutation closures index elements in BFS order from the identity,
    generators in input order;
  * conjugacy classes are ordered identity first, then by smallest element
    index.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product, repeat
from math import isqrt, lcm

import numpy as np

from .errors import ClosureCapExceeded, InvalidPermutation, LengthMismatch, NotAGroup

GroupWord = tuple[int, ...]

DEFAULT_GROUP_CAP = 5000

# Temporaries of the numpy kernels hold about this many entries per block.
TABLE_BLOCK = 2**14


def _index_dtype(order: int):
    """Smallest signed dtype that holds the indices 0..order-1."""
    return np.int16 if order < 2**15 else np.int32


def _inverses(T: np.ndarray) -> tuple[int, ...]:
    """Column of the identity 0 in each row, its smallest entry; argmin
    copies its operand, so it runs a block of rows at a time."""
    step = max(1, TABLE_BLOCK // len(T))
    blocks = [np.argmin(T[s : s + step], axis=1) for s in range(0, len(T), step)]
    return tuple(np.concatenate(blocks).tolist())


def _element_orders(T: np.ndarray, labels) -> np.ndarray:
    """Order of every element: all powers advance together, one gather per
    step, until each reaches the identity, within N - 1 steps at order N."""
    x = np.arange(len(T))
    orders = np.ones(len(T), dtype=np.int64)
    live = np.flatnonzero(x)
    for _ in range(len(T) - 1):
        if not live.size:
            break
        x[live] = T[x[live], live]
        orders[live] += 1
        live = live[x[live] != 0]
    if live.size:
        raise NotAGroup(f"powers of {labels[live[0]]} never reach the identity")
    return orders


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Immutable finite group over indices 0..order-1, identity at 0.

    cayley is the Cayley table as a read-only index array (it may be given
    as nested rows), table the same rows as tuples, built on first use, and
    orders[g] is the order of element g.  Groups are equal when their names,
    labels, generators and tables are."""

    name: str
    cayley: np.ndarray
    element_labels: tuple[str, ...]
    inverse: tuple[int, ...] = field(init=False)
    orders: tuple[int, ...] = field(init=False)
    exponent: int = field(init=False)
    generators: tuple[int, ...] = ()

    def __post_init__(self):
        T = np.asarray(self.cayley)
        T = T.astype(_index_dtype(len(T)), copy=False)
        T.setflags(write=False)
        object.__setattr__(self, "cayley", T)
        object.__setattr__(self, "inverse", _inverses(T))
        orders = tuple(_element_orders(T, self.element_labels).tolist())
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "exponent", lcm(*set(orders)))

    def __eq__(self, other):
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return (self.name, self.element_labels, self.generators) == (
            other.name, other.element_labels, other.generators
        ) and np.array_equal(self.cayley, other.cayley)

    def __hash__(self):
        return hash((self.name, self.table_digest()))

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.cayley.tolist()))

    @property
    def order(self) -> int:
        return len(self.cayley)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def element_order(self, g: int) -> int:
        return self.orders[g]

    def is_abelian(self) -> bool:
        return bool((self.cayley == self.cayley.T).all())

    def power(self, g: int, e: int) -> int:
        e %= self.element_order(g)
        x = 0
        for _ in range(e):
            x = self.table[x][g]
        return x

    def conjugate(self, g: int, by: int) -> int:
        """by * g * by^-1"""
        return self.table[self.table[by][g]][self.inverse[by]]

    def table_digest(self) -> str:
        return self._table_digest

    @cached_property
    def _table_digest(self) -> str:
        """sha256 of the order and the rows, each written "|" then its
        entries in decimal joined by ",".  Every entry becomes "," plus its
        digits, NUL-padded to one word (4 bytes, 8 above order 1000), so a
        block of rows is one gather of words; the leading "," of each row
        turns into "|" and the padding is dropped."""
        n = self.order
        h = hashlib.sha256(str(n).encode())
        size = 4 if n <= 1000 else 8
        cells = np.array([f",{v}".encode() for v in range(n)], dtype=f"S{size}")
        words = cells.view(f"u{size}")
        step = max(1, TABLE_BLOCK // n)
        for start in range(0, n, step):
            text = words[self.cayley[start : start + step]].view(np.uint8)
            text[:, 0] = ord("|")
            h.update(text[text != 0].tobytes())
        return h.hexdigest()

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


def _from_array(name: str, T: np.ndarray, labels, generators=None) -> FiniteGroup:
    """Wrap an index array; generators default to _small_generating_set."""
    if generators is None:
        generators = _small_generating_set(T)
    return FiniteGroup(name, T, tuple(labels), tuple(generators))


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


def cycle_notation(perm: tuple[int, ...]) -> str:
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        parts.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(parts) if parts else "()"


def _perm_keys(Y: np.ndarray, degree: int) -> np.ndarray:
    """An exact integer key per row of images: sum_i Y[:, i] * degree**i in
    int64 up to degree 15; above, where degree**degree passes 2**63, the
    row's uint32 bytes read as one Python int."""
    if degree**degree <= 2**63:
        return Y @ degree ** np.arange(degree, dtype=np.int64)
    data, width = Y.astype(np.uint32).tobytes(), 4 * degree
    keys = [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]
    return np.array(keys, dtype=object)


def _closure(gens: np.ndarray, degree: int, cap: int):
    """BFS closure of the generator images gens, shape (r, degree).

    Returns the elements (N, degree) in BFS order, right (N, r) with
    right[x, s] the index of x o gens[s], and per BFS level the indices of
    the elements it found with the (parent, generator) that found each."""
    r = len(gens)
    frontier = np.arange(degree)[None, :]
    seen = _perm_keys(frontier, degree)  # sorted keys of all elements so far
    seen_index = np.zeros(1, dtype=np.intp)  # element index of each key
    elements, right, levels = [frontier], [], []
    count, first_of_frontier = 1, 0
    while len(frontier):
        # the neighbours x o g in scan order: x-major, generator-minor
        Y = frontier[:, gens].reshape(-1, degree)
        keys, first, inverse = np.unique(
            _perm_keys(Y, degree), return_index=True, return_inverse=True
        )
        pos = np.minimum(np.searchsorted(seen, keys), len(seen) - 1)
        known = seen[pos] == keys
        index = np.empty(len(keys), dtype=np.intp)
        index[known] = seen_index[pos[known]]
        fresh = np.flatnonzero(~known)  # in key order
        new = fresh[np.argsort(first[fresh])]  # in order of first occurrence
        if count + len(new) > cap:
            raise ClosureCapExceeded("group closure", cap + 1, cap)
        index[new] = np.arange(count, count + len(new))
        right.append(index[inverse.reshape(-1)].reshape(len(frontier), r))
        found = first[new]
        levels.append((index[new], first_of_frontier + found // r, found % r))
        frontier = Y[found]
        elements.append(frontier)
        first_of_frontier, count = count, count + len(new)
        at = np.searchsorted(seen, keys[fresh])
        seen = np.insert(seen, at, keys[fresh])
        seen_index = np.insert(seen_index, at, index[fresh])
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
    labels = (cycle_notation(p) for p in elements.tolist())
    return _from_array(
        name or f"perm[{len(elements)}]",
        _cayley_from_bfs(right, levels),
        labels,
        right[0].tolist(),  # identity o g = g
    )


# -- table validation ----------------------------------------------------------

EXHAUSTIVE_ASSOC_LIMIT = 200


def group_from_table(
    table: list[list[int]], labels: list[str] | None = None, name: str | None = None
) -> FiniteGroup:
    """Validate the group axioms and wrap the table.

    Associativity is checked on all order^3 triples up to order 200 and on
    20*order seeded random triples above that.  Each failing axiom names its
    first witness in lexicographic (for random triples, drawing) order."""
    n = len(table)
    if n == 0 or any(len(row) != n for row in table):
        raise NotAGroup("table is not square")
    for i, row in enumerate(table):
        if not (all(map(isinstance, row, repeat(int))) and 0 <= min(row) and max(row) < n):
            j, v = next((j, v) for j, v in enumerate(row) if not (isinstance(v, int) and 0 <= v < n))
            raise NotAGroup(f"entry ({i},{j}) = {v} outside 0..{n - 1}")
    T = np.array(table, dtype=np.intp)
    idx = np.arange(n)
    bad = np.flatnonzero((T[0] != idx) | (T[:, 0] != idx))
    if len(bad):
        raise NotAGroup(f"identity axiom: index 0 does not fix {bad[0]}")
    bad = np.flatnonzero((np.sort(T, axis=1) != idx).any(axis=1))
    if len(bad):
        raise NotAGroup(f"row {bad[0]} is not a permutation (not a Latin square)")
    bad = np.flatnonzero((np.sort(T, axis=0) != idx[:, None]).any(axis=0))
    if len(bad):
        raise NotAGroup(f"column {bad[0]} is not a permutation (not a Latin square)")
    right_inverse = np.argmin(T, axis=1)
    bad = np.flatnonzero(T[right_inverse, idx] != 0)
    if len(bad):
        g = bad[0]
        raise NotAGroup(f"inverse axiom: {right_inverse[g]} inverts {g} on the right only")
    witness = _associativity_witness(T)
    if witness is not None:
        raise NotAGroup("associativity fails at triple ({},{},{})".format(*witness))
    labs = tuple(labels) if labels else tuple(f"g{i}" for i in range(n))
    if len(labs) != n:
        raise NotAGroup("label count does not match order")
    return _from_array(name or f"table[{n}]", T.astype(_index_dtype(n)), labs)


def _associativity_witness(T: np.ndarray):
    """First triple (a, b, c) with (ab)c != a(bc): over all triples in lex
    order up to order 200, over 20*order seeded random triples above."""
    n = len(T)
    if n <= EXHAUSTIVE_ASSOC_LIMIT:
        step = max(1, TABLE_BLOCK // (n * n))
        for a0 in range(0, n, step):
            A = np.arange(a0, min(n, a0 + step))
            bad = T[T[A]] != T[A[:, None, None], T[None]]  # [a, b, c]
            if bad.any():
                i, b, c = np.unravel_index(np.argmax(bad), bad.shape)
                return a0 + int(i), int(b), int(c)
        return None
    rng = random.Random(n)
    a, b, c = np.array(
        [(rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(20 * n)]
    ).T
    bad = np.flatnonzero(T[T[a, b], c] != T[a, T[b, c]])
    return (int(a[bad[0]]), int(b[bad[0]]), int(c[bad[0]])) if len(bad) else None


def _span(T: np.ndarray, gens) -> np.ndarray:
    """Membership mask of the subgroup that the elements gens generate in
    the group with Cayley table T: each new element times every generator,
    one gather per round.  In a finite group every inverse is a positive
    power, so products alone close."""
    mask = np.zeros(len(T), dtype=bool)
    mask[0] = True
    gens = np.asarray(gens, dtype=np.intp)
    frontier = np.zeros(1, dtype=np.intp)
    while len(frontier):
        Y = np.unique(T[frontier[:, None], gens])
        frontier = Y[~mask[Y]]
        mask[frontier] = True
    return mask


def _small_generating_set(T: np.ndarray) -> tuple[int, ...]:
    """Greedy generating set: repeatedly adjoin the smallest element outside
    the current span."""
    gens: list[int] = []
    span = _span(T, gens)
    while not span.all():
        gens.append(int(np.argmin(span)))
        span = _span(T, gens)
    return tuple(gens)


# -- conjugacy classes ----------------------------------------------------------


def conjugacy_classes(G: FiniteGroup) -> ClassData:
    """The class of g is {y g y^-1 : y in G}, so its smallest member is a
    running minimum over y of the conjugates (yg)y^-1, taken a block of rows
    y at a time as one gather through the flat table; canonical class order
    (identity class first, then ascending smallest member index) is the
    order of those minima."""
    n = G.order
    T = G.cayley
    flat = T.ravel()
    inv = np.array(G.inverse, dtype=np.intp)
    smallest = np.arange(n, dtype=T.dtype)
    step = max(1, TABLE_BLOCK // n)
    for y0 in range(0, n, step):
        index = T[y0 : y0 + step].astype(np.intp)  # yg
        index *= n
        index += inv[y0 : y0 + step, None]
        np.minimum(smallest, flat[index].min(axis=0), out=smallest)
    reps, class_of = np.unique(smallest, return_inverse=True)
    class_of = class_of.reshape(-1)
    return ClassData(
        len(reps),
        tuple(class_of.tolist()),
        tuple(reps.tolist()),
        tuple(np.bincount(class_of).tolist()),
    )


def commutator_subgroup(G: FiniteGroup) -> frozenset[int]:
    """Span of all commutators a b a^-1 b^-1, a block of rows a at a time
    (used to count the degree-1 characters independently of the character
    table)."""
    n, T = G.order, G.cayley
    inv = np.array(G.inverse)
    comms = np.zeros(n, dtype=bool)
    step = max(1, TABLE_BLOCK // n)
    for a0 in range(0, n, step):
        A = np.arange(a0, min(n, a0 + step))
        comms[T[T[A], T[inv[A]][:, inv]]] = True
    return frozenset(np.flatnonzero(_span(T, np.flatnonzero(comms))).tolist())


# -- words in the direct product ------------------------------------------------


def word_mul(G: FiniteGroup, a: GroupWord, b: GroupWord) -> GroupWord:
    if len(a) != len(b):
        raise LengthMismatch(f"word lengths {len(a)} and {len(b)}")
    t = G.table
    return tuple(t[x][y] for x, y in zip(a, b))


def word_inv(G: FiniteGroup, a: GroupWord) -> GroupWord:
    inv = G.inverse
    return tuple(inv[x] for x in a)


def word_weight(a: GroupWord) -> int:
    """n minus the number of identity coordinates."""
    return sum(1 for x in a if x != 0)


# -- builtin groups ---------------------------------------------------------------


def cyclic_group(n: int, cap: int = DEFAULT_GROUP_CAP) -> FiniteGroup:
    if n > cap:
        raise ClosureCapExceeded("cyclic group order", n, cap)
    idx = np.arange(n)
    T = ((idx[:, None] + idx) % n).astype(_index_dtype(n))
    gens = (1,) if n > 1 else ()
    return _from_array(f"Z{n}", T, (str(i) for i in range(n)), gens)


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
    labels = (
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
