"""The direct kernels that the small-shape tables and the per-group arrays of
the package replaced, kept as they were: each computes, for one call, what
the package now gathers from a table built once per shape or per group.
Tests compare the package's helpers with these on both sides of the size
rule (groups.TABLE_BLOCK).
"""

from __future__ import annotations

import numpy as np

from repdual import zring
from repdual.groups import ClassData


def digits(flat: np.ndarray, radices, dtype) -> np.ndarray:
    """The mixed-radix digits of every flat index, most significant first,
    by one np.unravel_index call."""
    out = np.empty((len(flat), len(radices)), dtype=dtype)
    if len(radices):
        out.T[:] = np.unravel_index(flat, radices)
    return out


def tuple_products(values, tuples: np.ndarray, dtype) -> np.ndarray:
    """prod_a values[tuples[r, a]] for every row r, by a product along the
    rows (the Burnside check and the oracle's weights)."""
    return np.array(values, dtype=dtype)[tuples].prod(axis=1)


def dims(degrees, index: np.ndarray, n: int) -> np.ndarray:
    """The dimension of every irrep tuple of index, in the dtype that
    DualMultiset.dims has always had."""
    D = np.array(degrees, dtype=zring.exact_dtype(max(degrees) ** n))
    return np.multiply.reduce(D.take(index), axis=1)


def content_ranks(P: np.ndarray, k: int) -> np.ndarray:
    """The rank of every row's content: the entries of each row sorted,
    then one gather and add per column of the rank table."""
    S = np.sort(P, axis=1)
    F = zring._rank_table(k, P.shape[1])
    rank = np.zeros(len(P), dtype=F.dtype)
    for j, column in enumerate(F):
        rank += column[S[:, j]]
    return rank


def relabelling(phi: np.ndarray, n: int) -> np.ndarray:
    """The abelian check's back permutation of the contents: at the rank
    of every content E, the rank of phi^-1(E)."""
    k = len(phi)
    return np.argsort(content_ranks(phi[zring.content_tuples(k, n)], k))


def subset_powers(q: int, n: int, dtype) -> np.ndarray:
    """q^(n-|S|) for every bitmask S, one halving per bit."""
    power = np.array([q**n], dtype=dtype)
    for _ in range(n):
        power = np.concatenate([power, power // q])
    return power


def polymatroid_witness(card, n: int):
    """The first failing (S, i, j) of the monotonicity and local exchange
    tests, by slices of the (2,)*n view of card."""
    C = np.array(card, dtype=zring.exact_dtype(max(card) ** 2)).reshape((2,) * n)
    masks = np.arange(1 << n).reshape((2,) * n)
    found = []
    for i in range(n):
        a = n - 1 - i
        C0, C1, S0 = C.take(0, a), C.take(1, a), masks.take(0, a)
        found += [(int(S), i, i) for S in S0[C1 < C0][:1]]
        for j in range(i + 1, n):
            b = n - 1 - j
            bad = C1.take(0, b) * C0.take(1, b) < C1.take(1, b) * C0.take(0, b)
            found += [(int(S), i, j) for S in S0.take(0, b)[bad][:1]]
    return min(found, default=None)


def transversal(T: np.ndarray, member: np.ndarray):
    """None when the element set with the member mask is not closed under
    the product of the Cayley table T, else the least element of every left
    coset, ascending."""
    K = np.flatnonzero(member)
    closed = np.zeros(len(T), dtype=bool)
    closed[K] = True
    if not closed[T[K[:, None], K]].all():
        return None
    return (T[:, K].min(axis=1) == np.arange(len(T))).nonzero()[0]


def class_maps(classes: ClassData) -> np.ndarray:
    """(2, order) maps of the class representatives and of the last member
    of each class to their classes, -1 elsewhere, one class at a time."""
    order = len(classes.class_of)
    maps = np.full((2, order), -1, dtype=np.int64)
    for c in range(classes.num_classes):
        members = [g for g in range(order) if classes.class_of[g] == c]
        maps[0, classes.class_reps[c]] = c
        maps[1, members[-1]] = c
    return maps
