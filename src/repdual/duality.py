"""The representation-based dual R(H) of a group code, by two independent
routes that serve as mutual oracles.

Primary route (Frobenius reciprocity): the multiplicity of the irrep tuple
(j_1..j_n) is (1/|H|) sum over words of prod_m chi_{j_m}(h_m).  The sum only
depends on the words' class patterns, so it is organized as an axis-by-axis
contraction of the ordered pattern counts with the character table,
evaluated at the embeddings of Z[zeta_m] mod p (see zring): n integer
(k, k) matrix products mod p per embedding instead of k^n*|H| cyclotomic
products, and the multiplicities are read off where the embeddings agree.

Oracle route (permutation character): enumerate the left cosets x*H of
Gamma^n, count the cosets fixed by a representative of each class tuple
(g fixes x*H iff g lies in x*H*x^-1), and decompose the resulting class
function against the conjugate product character table through the same
integer kernel, at z^-a where the table is at z^a.  The coset BFS and the
fixed-coset counts are batched int64 gathers on the Cayley table, with
words encoded as base-|Gamma| integers:
O(|Gamma|^n * n^2 * |gens|) work, in blocks of about TABLE_BLOCK entries,
bounded by coset_cap * |H|.  No class-pattern count or character value
enters this route before the decomposition, so it stays independent of the
Frobenius route; nothing about it is floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod

import numpy as np

from . import groups, zring
from .chartable import CharacterTable
from .codes import (
    GroupCode,
    RankProfile,
    _content_enumerator,
    _distinct_rows,
    class_pattern_counts,
)
from .errors import CapExceeded, NonIntegerMultiplicity, RepdualError
from .groups import ClassData
from .polynomials import MultiPoly, UniPoly

DEFAULT_TUPLE_CAP = 10**7
DEFAULT_COSET_CAP = 10**5


@dataclass(frozen=True, eq=False)
class DualMultiset:
    """R(H) as two arrays: index, the (t, n) irrep-index tuples of nonzero
    multiplicity in lex order, and counts, their multiplicities.  Irrep
    index 0 is the trivial character; dim of a tuple is the product of the
    per-factor degrees."""

    n: int
    k: int
    degrees: tuple[int, ...]
    index: np.ndarray
    counts: np.ndarray

    @cached_property
    def mult(self) -> dict[tuple[int, ...], int]:
        """The same multiset as a dict, keys in lex order."""
        return dict(zip(map(tuple, self.index.tolist()), self.counts.tolist()))

    @cached_property
    def dims(self) -> np.ndarray:
        """dim of every row of index, exactly."""
        degrees = np.array(self.degrees, dtype=zring.exact_dtype(max(self.degrees) ** self.n))
        return degrees[self.index].prod(axis=1)

    @cached_property
    def weights(self) -> np.ndarray:
        """Number of nontrivial components of every row of index."""
        return (self.index != 0).sum(axis=1)

    @cached_property
    def _mass(self) -> np.ndarray:
        """mult * dim of every row, in a dtype that also holds their sum."""
        top = int(self.counts.max(initial=0)) * max(self.degrees) ** self.n
        dtype = zring.exact_dtype(top * len(self.counts))
        return self.counts.astype(dtype) * self.dims.astype(dtype)

    def total_dimension(self) -> int:
        return int(self._mass.sum())


def _multiplicities(
    values: np.ndarray, irrational: np.ndarray, shape: tuple[int, ...], divisor: int
) -> tuple[np.ndarray, np.ndarray]:
    """values: divisor * multiplicity of every tuple of shape, flat in C
    order, exact where irrational is False.  Every entry must be rational
    and divide to a nonnegative integer.  Returns the index and counts
    arrays of a DualMultiset."""
    bad = np.flatnonzero(irrational)
    if len(bad):
        key = tuple(int(x) for x in np.unravel_index(bad[0], shape))
        raise NonIntegerMultiplicity(f"multiplicity of {key} is not rational")
    nonzero = np.flatnonzero(values)
    index = np.stack(np.unravel_index(nonzero, shape), axis=1)
    values = values[nonzero]
    bad = np.flatnonzero((values % divisor != 0) | (values < 0))
    if len(bad):
        key = tuple(index[bad[0]].tolist())
        raise NonIntegerMultiplicity(
            f"multiplicity of {key} is {Fraction(int(values[bad[0]]), divisor)}"
        )
    return index, values // divisor


def _to_multiset(
    sums: tuple[np.ndarray, np.ndarray], divisor: int, code: GroupCode, ct: CharacterTable
) -> DualMultiset:
    shape = (ct.k,) * code.n
    dm = DualMultiset(code.n, ct.k, ct.degrees, *_multiplicities(*sums, shape, divisor))
    # the trivial tuple is the least in lex order
    trivial = int(dm.counts[0]) if len(dm.counts) and not dm.index[0].any() else 0
    if trivial != 1:
        raise NonIntegerMultiplicity(f"trivial tuple has multiplicity {trivial}, expected 1")
    cosets = ct.group.order**code.n // code.size
    if dm.total_dimension() != cosets:
        raise NonIntegerMultiplicity(
            f"total dimension {dm.total_dimension()} != coset count {cosets}"
        )
    return dm


def dual_multiset(
    code: GroupCode, ct: CharacterTable, cap: int = DEFAULT_TUPLE_CAP
) -> DualMultiset:
    """R(H) via the Frobenius sum over H, exactly."""
    k = ct.k
    if k**code.n > cap:
        raise CapExceeded("irrep tuple space", k**code.n, cap)
    patterns, counts = class_pattern_counts(code, ct.classes)
    sums = zring.contract(patterns, counts, ct.embedded)
    return _to_multiset(sums, code.size, code, ct)


# -- permutation-character oracle ------------------------------------------------


def _word_arrays(code: GroupCode) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The Cayley table, the words of H as an (|H|, n) array, the weights
    that encode a word as an integer in base |Gamma| (integer order is then
    lex order), and how many words' products with all of H fit one block:
    TABLE_BLOCK entries, or one coset's worth (|H|*n) when H is larger."""
    G = code.group
    if G.order**code.n > 2**63:
        raise CapExceeded("int64 word encoding", G.order**code.n, 2**63)
    MUL = G.cayley.astype(np.int64)
    weights = G.order ** np.arange(code.n - 1, -1, -1, dtype=np.int64)
    rows = max(1, groups.TABLE_BLOCK // (code.size * code.n))
    return MUL, code.word_array, weights, rows


def _in_sorted(a: np.ndarray, sorted_b: np.ndarray) -> np.ndarray:
    idx = np.minimum(np.searchsorted(sorted_b, a), len(sorted_b) - 1)
    return sorted_b[idx] == a


def _coset_representatives(code: GroupCode, cap: int) -> np.ndarray:
    """Canonical (lex-minimal) representatives of the left cosets x*H, as a
    sorted (cosets, n) array, found by BFS with left multiplication by
    per-coordinate generators.  A whole frontier block is expanded with one
    gather on the Cayley table, and each block of b neighbours is
    canonicalized by one (b, |H|, n) gather of x*h and a min over H of the
    encoded words."""
    G = code.group
    n = code.n
    n_cosets, rem = divmod(G.order**n, code.size)
    if rem:
        raise RepdualError("|H| does not divide |Gamma|^n; not a subgroup?")
    if n_cosets > cap:
        raise CapExceeded("coset enumeration", n_cosets, cap)
    MUL, H, weights, rows = _word_arrays(code)
    gens = np.array(G.generators or range(1, G.order), dtype=np.int64)
    moves = len(gens) * n
    move_coord = np.repeat(np.arange(n), len(gens))
    move_gen = np.tile(gens, n)[:, None]
    per_chunk = max(1, rows // max(moves, 1))

    def canonical(X: np.ndarray) -> np.ndarray:
        return np.concatenate(
            [(MUL[X[i : i + rows, None, :], H] @ weights).min(axis=1)
             for i in range(0, len(X), rows)]
        )

    seen = canonical(np.zeros((1, n), dtype=np.int64))
    frontier = seen
    while len(frontier) and moves:
        found = []
        for lo in range(0, len(frontier), per_chunk):
            X = frontier[lo : lo + per_chunk, None] // weights % G.order
            Y = np.repeat(X[None], moves, axis=0)
            Y[np.arange(moves), :, move_coord] = MUL[move_gen, X[:, move_coord].T]
            reps = np.unique(canonical(Y.reshape(-1, n)))
            found.append(reps[~_in_sorted(reps, seen)])
        frontier = np.unique(np.concatenate(found))
        seen = np.sort(np.concatenate([seen, frontier]))
    if len(seen) != n_cosets:
        raise RepdualError(
            f"coset BFS found {len(seen)} cosets, expected {n_cosets}"
        )
    return seen[:, None] // weights % G.order


def permutation_character(
    code: GroupCode,
    classes: ClassData,
    coset_cap: int = DEFAULT_COSET_CAP,
    tuple_cap: int = DEFAULT_TUPLE_CAP,
) -> dict[tuple[int, ...], int]:
    """Fixed-coset counts chi(g) = #{cosets xH : g xH = xH} per class tuple
    of Gamma^n (zero entries omitted).

    g fixes xH iff g lies in x H x^-1, and h -> x h x^-1 is injective, so
    chi(g) counts the pairs (x, h) with x h x^-1 = g.  Every conjugate is
    formed, one (b, |H|, n) gather per block of coset representatives, and
    tallied when it is the representative word of a class tuple, into a
    dense count over the k^n class tuples (bounded by tuple_cap).
    Class-constancy is verified by a second tally at the word of last class
    members; the Burnside total sum_g chi(g) = |Gamma|^n is checked too."""
    G = code.group
    k = classes.num_classes
    n = code.n
    if k**n > tuple_cap:
        raise CapExceeded("class tuple space", k**n, tuple_cap)
    X = _coset_representatives(code, coset_cap)
    MUL, H, _, rows = _word_arrays(code)
    INV = np.array(G.inverse, dtype=np.int64)
    shape = (k,) * n
    tallies = []
    for members in (classes.class_reps, [classes.members(c)[-1] for c in range(k)]):
        class_at = np.full(G.order, -1, dtype=np.int64)
        class_at[list(members)] = np.arange(k)
        tallies.append((class_at, np.zeros(k**n, dtype=np.int64)))
    for lo in range(0, len(X), rows):
        x = X[lo : lo + rows, None, :]
        conj = MUL[MUL[x, H], INV[x]]
        for class_at, counts in tallies:
            tup = class_at[conj]
            flat = np.ravel_multi_index(tuple(tup[(tup >= 0).all(axis=-1)].T), shape)
            keys, found = np.unique(flat, return_counts=True)
            counts[keys] += found
    (_, rep), (_, alt) = tallies
    differ = np.flatnonzero(rep != alt)
    if len(differ):
        tup = tuple(int(c) for c in np.unravel_index(differ[0], shape))
        raise RepdualError(f"permutation character not constant on class tuple {tup}")
    nonzero = np.flatnonzero(rep)
    tuples = np.stack(np.unravel_index(nonzero, shape), axis=1)
    out = dict(zip(map(tuple, tuples.tolist()), rep[nonzero].tolist()))
    sizes = classes.class_sizes
    burnside = sum(count * prod(sizes[c] for c in tup) for tup, count in out.items())
    if burnside != G.order**n:
        raise RepdualError("Burnside total of the permutation character is off")
    return out


def decompose_permutation_character(
    pc: dict[tuple[int, ...], int], ct: CharacterTable, n: int
) -> DualMultiset:
    """Inner product of the permutation character with every product
    character chi_j1 x ... x chi_jn, as exact rationals.  Must reproduce
    dual_multiset tuple-for-tuple (this is the oracle equivalence)."""
    tuples = np.array(list(pc), dtype=np.int64).reshape(len(pc), n)
    sizes = np.array(ct.classes.class_sizes, dtype=object)
    weighted = np.array(list(pc.values()), dtype=object) * sizes[tuples].prod(axis=1)
    sums = zring.contract(tuples, weighted, ct.embedded, conjugate=True)
    shape = (ct.k,) * n
    return DualMultiset(n, ct.k, ct.degrees, *_multiplicities(*sums, shape, ct.group.order**n))


# -- enumerators of the dual -----------------------------------------------------


def dual_weight_enumerator(dm: DualMultiset) -> UniPoly:
    """W_{R(H)}(z) = sum mult * dim * z^(n - #trivial components)."""
    weights, sums = _distinct_rows(dm.weights[:, None], dm._mass)
    return UniPoly(dict(zip(weights[:, 0].tolist(), sums.tolist())))


def dual_cwe(dm: DualMultiset) -> MultiPoly:
    """cwe_{R(H)}(x_1..x_k) = sum mult * prod x_{j_m}; no dimension factor."""
    return _content_enumerator(dm.index, dm.k, dm.counts)


@dataclass(frozen=True)
class ExtensionCheck:
    S: int
    passed: bool
    lhs: Fraction
    rhs: Fraction


def _trivial_dimension_sums(dm: DualMultiset) -> list[int]:
    """Entry S: sum of mult*dim over the tuples trivial on every coordinate
    of the bitmask S.  Such a tuple has its support inside the complement of
    S, so this is one histogram by support mask and one subset-sum (zeta)
    transform: a cumsum along each axis of the histogram viewed as
    (2,)*n, O(2^n * n) past the histogram."""
    n = dm.n
    support = (dm.index != 0) @ (1 << np.arange(n))
    masks, sums = _distinct_rows(support[:, None], dm._mass)
    hist = np.zeros(1 << n, dtype=sums.dtype)
    hist[masks[:, 0]] = sums
    hist = hist.reshape((2,) * n)
    for axis in range(n):
        hist = hist.cumsum(axis=axis, dtype=hist.dtype)
    # full & ~S = full - S, so entry S sits at the reversed position
    return hist.reshape(-1)[::-1].tolist()


def extension_lemma_checks(rp: RankProfile, dm: DualMultiset) -> list[ExtensionCheck]:
    """Dimension count of the dual tuples trivial on S against the coset
    count of the projection onto the complement, for every bitmask S (entry
    S of the list):
    sum_{j trivial on S} mult*dim = |Gamma|^(n-|S|) / |pr_{E-S}(H)|."""
    n, q = rp.n, rp.group_order
    full = (1 << n) - 1
    lhs = _trivial_dimension_sums(dm)
    rhs = [Fraction(q ** (n - S.bit_count()), rp.card[full & ~S]) for S in range(full + 1)]
    return [ExtensionCheck(S, a == b, Fraction(a), b) for S, (a, b) in enumerate(zip(lhs, rhs))]


def irrep_tuple_label(tup: tuple[int, ...]) -> str:
    return "(x)".join(f"rho{j + 1}" for j in tup)
