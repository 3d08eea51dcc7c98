"""Finite groups as dense index tables, plus componentwise word arithmetic.

Elements of a group of order N are the indices 0..N-1 with the identity
always at index 0.  A word in the n-fold direct product is a plain tuple of
n element indices; the product group is never materialized as a table.

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
from math import lcm

from .errors import ClosureCapExceeded, InvalidPermutation, LengthMismatch, NotAGroup

GroupWord = tuple[int, ...]

DEFAULT_GROUP_CAP = 5000


@dataclass(frozen=True)
class FiniteGroup:
    """Immutable finite group over indices 0..order-1, identity at 0."""

    name: str
    table: tuple[tuple[int, ...], ...]
    element_labels: tuple[str, ...]
    inverse: tuple[int, ...] = field(init=False)
    exponent: int = field(init=False)
    generators: tuple[int, ...] = ()

    def __post_init__(self):
        inv = [0] * self.order
        for g, row in enumerate(self.table):
            inv[g] = row.index(0)
        object.__setattr__(self, "inverse", tuple(inv))
        object.__setattr__(
            self, "exponent", lcm(*(self.element_order(g) for g in range(self.order)))
        )

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def element_order(self, g: int) -> int:
        n, x = 1, g
        while x != 0:
            x = self.table[x][g]
            n += 1
        return n

    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.order) for b in range(self.order))

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
        h = hashlib.sha256()
        h.update(str(self.order).encode())
        for row in self.table:
            h.update(b"|" + ",".join(map(str, row)).encode())
        return h.hexdigest()

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


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


def _compose(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """(f o g)(x) = f(g(x))"""
    return tuple(f[x] for x in g)


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
    identity = tuple(range(degree))
    elements = [identity]
    index = {identity: 0}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in perms:
                y = _compose(x, g)
                if y not in index:
                    if len(elements) >= cap:
                        raise ClosureCapExceeded("group closure", len(elements) + 1, cap)
                    index[y] = len(elements)
                    elements.append(y)
                    nxt.append(y)
        frontier = nxt
    table = tuple(
        tuple(index[_compose(a, b)] for b in elements) for a in elements
    )
    labels = tuple(cycle_notation(p) for p in elements)
    gen_indices = tuple(index[p] for p in perms)
    return FiniteGroup(
        name or f"perm[{len(elements)}]", table, labels, generators=gen_indices
    )


# -- table validation ----------------------------------------------------------

EXHAUSTIVE_ASSOC_LIMIT = 200


def group_from_table(
    table: list[list[int]], labels: list[str] | None = None, name: str | None = None
) -> FiniteGroup:
    """Validate the group axioms and wrap the table.

    Associativity is checked on all order^3 triples up to order 200 and on
    20*order seeded random triples above that."""
    n = len(table)
    if n == 0 or any(len(row) != n for row in table):
        raise NotAGroup("table is not square")
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            if not isinstance(v, int) or not 0 <= v < n:
                raise NotAGroup(f"entry ({i},{j}) = {v} outside 0..{n - 1}")
    for g in range(n):
        if table[0][g] != g or table[g][0] != g:
            raise NotAGroup(f"identity axiom: index 0 does not fix {g}")
    for i, row in enumerate(table):
        if len(set(row)) != n:
            raise NotAGroup(f"row {i} is not a permutation (not a Latin square)")
    for j in range(n):
        if len({table[i][j] for i in range(n)}) != n:
            raise NotAGroup(f"column {j} is not a permutation (not a Latin square)")
    for g in range(n):
        h = table[g].index(0)
        if table[h][g] != 0:
            raise NotAGroup(f"inverse axiom: {h} inverts {g} on the right only")
    if n <= EXHAUSTIVE_ASSOC_LIMIT:
        triples = (
            (a, b, c) for a in range(n) for b in range(n) for c in range(n)
        )
    else:
        rng = random.Random(n)
        triples = (
            (rng.randrange(n), rng.randrange(n), rng.randrange(n))
            for _ in range(20 * n)
        )
    for a, b, c in triples:
        if table[table[a][b]][c] != table[a][table[b][c]]:
            raise NotAGroup(f"associativity fails at triple ({a},{b},{c})")
    tup = tuple(tuple(row) for row in table)
    labs = tuple(labels) if labels else tuple(f"g{i}" for i in range(n))
    if len(labs) != n:
        raise NotAGroup("label count does not match order")
    return FiniteGroup(name or f"table[{n}]", tup, labs, generators=_small_generating_set(tup))


def _small_generating_set(table: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Greedy generating set: repeatedly adjoin the smallest element outside
    the current closure."""
    n = len(table)
    gens: list[int] = []
    span = {0}
    while len(span) < n:
        g = min(set(range(n)) - span)
        gens.append(g)
        frontier = list(span | {g})
        span.add(g)
        while frontier:
            x = frontier.pop()
            for h in gens:
                for y in (table[x][h], table[h][x]):
                    if y not in span:
                        span.add(y)
                        frontier.append(y)
    return tuple(gens)


# -- conjugacy classes ----------------------------------------------------------


def conjugacy_classes(G: FiniteGroup) -> ClassData:
    """Orbit enumeration under conjugation; canonical class order is the
    identity class first, then ascending smallest member index."""
    n = G.order
    class_of = [-1] * n
    orbits: list[list[int]] = []
    for g in range(n):
        if class_of[g] >= 0:
            continue
        orbit = {g}
        stack = [g]
        while stack:
            x = stack.pop()
            for y in range(n):
                z = G.conjugate(x, y)
                if z not in orbit:
                    orbit.add(z)
                    stack.append(z)
        idx = len(orbits)
        orbits.append(sorted(orbit))
        for x in orbit:
            class_of[x] = idx
    # orbits are discovered in ascending min-element order already (identity
    # element is 0, so its class comes first)
    reps = tuple(orbit[0] for orbit in orbits)
    sizes = tuple(len(orbit) for orbit in orbits)
    return ClassData(len(orbits), tuple(class_of), reps, sizes)


def commutator_subgroup(G: FiniteGroup) -> frozenset[int]:
    """Closure of all commutators a b a^-1 b^-1 (used to count the degree-1
    characters independently of the character table)."""
    comms = {
        G.mul(G.mul(a, b), G.mul(G.inv(a), G.inv(b)))
        for a in range(G.order)
        for b in range(G.order)
    }
    span = {0}
    frontier = list(comms | {0})
    span |= comms
    while frontier:
        x = frontier.pop()
        for c in comms:
            y = G.mul(x, c)
            if y not in span:
                span.add(y)
                frontier.append(y)
    return frozenset(span)


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


def cyclic_group(n: int) -> FiniteGroup:
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    labels = tuple(str(i) for i in range(n))
    gens = (1,) if n > 1 else ()
    return FiniteGroup(f"Z{n}", table, labels, generators=gens)


def symmetric_group(n: int, cap: int = DEFAULT_GROUP_CAP) -> FiniteGroup:
    if n <= 1:
        return group_from_generators([], name=f"S{n}")
    if n == 2:
        return group_from_generators([perm_from_cycles([[0, 1]], 2)], cap, name="S2")
    gens = [
        perm_from_cycles([[0, 1]], n),
        perm_from_cycles([list(range(n))], n),
    ]
    return group_from_generators(gens, cap, name=f"S{n}")


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon (order 2n), n >= 3."""
    if n < 3:
        raise ValueError("dihedral_group needs n >= 3")
    rot = perm_from_cycles([list(range(n))], n)
    refl = tuple((n - i) % n for i in range(n))
    return group_from_generators([rot, refl], name=f"D{n}")


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


def product_group(factors: list[FiniteGroup], name: str | None = None) -> FiniteGroup:
    """Direct product with mixed-radix element indexing."""
    if not factors:
        return cyclic_group(1)
    orders = [G.order for G in factors]
    total = 1
    for o in orders:
        total *= o
    if total > DEFAULT_GROUP_CAP:
        raise ClosureCapExceeded("product group order", total, DEFAULT_GROUP_CAP)

    def split(x: int) -> tuple[int, ...]:
        parts = []
        for o in reversed(orders):
            x, r = divmod(x, o)
            parts.append(r)
        return tuple(reversed(parts))

    def join(parts) -> int:
        x = 0
        for p, o in zip(parts, orders):
            x = x * o + p
        return x

    table = tuple(
        tuple(
            join(G.mul(p, q) for G, p, q in zip(factors, split(a), split(b)))
            for b in range(total)
        )
        for a in range(total)
    )
    labels = tuple(
        "(" + ",".join(G.element_labels[p] for G, p in zip(factors, split(a))) + ")"
        for a in range(total)
    )
    return FiniteGroup(
        name or "x".join(G.name for G in factors),
        table,
        labels,
        generators=_small_generating_set(table),
    )


def builtin_group(name: str) -> FiniteGroup:
    """Named groups accepted by spec files and the CLI: Z<n>, S<n>, D<n>, Q8."""
    if name == "Q8":
        return quaternion_group()
    if len(name) >= 2 and name[0] in "ZSD" and name[1:].isdigit():
        n = int(name[1:])
        if n < 1:
            raise ValueError(f"builtin group {name!r} needs a positive parameter")
        if name[0] == "Z":
            return cyclic_group(n)
        if name[0] == "S":
            return symmetric_group(n)
        return dihedral_group(n)
    raise ValueError(f"unknown builtin group {name!r}")
