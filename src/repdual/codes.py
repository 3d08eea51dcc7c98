"""Group codes H <= Gamma^n: closure from generators, projections, the
projection-cardinality polymatroid, the Tutte evaluation and both enumerators.

|H| and the projection cardinalities are kept as exact integers throughout;
the real-exponent rank r(S) = log_q|pr_S(H)| only ever appears inside the
floating Tutte evaluation.  Subsets of coordinates are bitmasks.  The
rank profile is one subset-sum transform of the words' support histogram:
|pr_S(H)| = |H| / #{words trivial on S}, for all 2^n masks at once.
Enumerators are tallied by content rank (zring.content_ranks: one gather per
row for small shapes, else the entries of each row sorted, then one gather
and add per column) into count vectors over
all contents, which the identity checks compare as arrays; the polynomials
of the API come from the same vectors, or from the distinct rows where the
contents far outnumber the rows.  The words' class patterns are one gather
on the code's one word array; duality.dual_multiset tallies them by flat
index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import groups, zring
from .errors import (
    CapExceeded,
    ClosureCapExceeded,
    DomainError,
    LengthMismatch,
    NotAGroup,
    PolymatroidViolation,
)
from .groups import ClassData, FiniteGroup, GroupWord
from .polynomials import MultiPoly, UniPoly

DEFAULT_CODE_CAP = 10**6
RANK_PROFILE_MAX_N = 20


@dataclass(frozen=True, eq=False)
class GroupCode:
    """Subgroup of Gamma^n stored as its distinct words: a read-only
    (|H|, n) int64 array in lex order.  words are the same words as
    tuples, built on first use."""

    group: FiniteGroup
    n: int
    word_array: np.ndarray

    def __post_init__(self):
        self.word_array.setflags(write=False)

    def __eq__(self, other):
        if not isinstance(other, GroupCode):
            return NotImplemented
        return (self.group, self.n) == (other.group, other.n) and np.array_equal(
            self.word_array, other.word_array
        )

    def __hash__(self):
        return hash((self.group, self.n, self.size))

    @property
    def size(self) -> int:
        return len(self.word_array)

    @cached_property
    def words(self) -> tuple[GroupWord, ...]:
        return tuple(map(tuple, self.word_array.tolist()))

    def __repr__(self):
        return f"GroupCode({self.group.name}^{self.n}, size={self.size})"


def _make_code(group: FiniteGroup, n: int, A: np.ndarray) -> GroupCode:
    """The code whose words are the distinct rows of the (m, n) array A."""
    return GroupCode(group, n, _distinct_rows(A.astype(np.int64).reshape(len(A), n))[0])


def code_from_generators(
    G: FiniteGroup, n: int, gens: list[GroupWord], cap: int = DEFAULT_CODE_CAP
) -> GroupCode:
    """BFS closure of the generating words (identity word included).  Right
    multiplication by a letter s reads column s of the Cayley table, fetched
    once per distinct letter."""
    for g in gens:
        if len(g) != n:
            raise LengthMismatch(f"generator {g} does not have length {n}")
    columns = {s: G.cayley[:, s].tolist() for g in gens for s in g}
    steps = [[columns[s] for s in g] for g in gens]
    identity = (0,) * n
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for w in frontier:
            for step in steps:
                y = tuple([col[x] for col, x in zip(step, w)])
                if y not in seen:
                    if len(seen) >= cap:
                        raise ClosureCapExceeded("code closure", len(seen) + 1, cap)
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return _make_code(G, n, np.array(list(seen)))


def code_from_words(G: FiniteGroup, n: int, words) -> GroupCode:
    """Wrap an explicit word set, checked to be a subgroup outright
    (_check_subgroup) after every word is checked to have length n and
    entries in 0..|Gamma|-1."""
    words = list(map(tuple, words))
    short = next((w for w in words if len(w) != n), None)
    if short is not None:
        raise LengthMismatch(f"word {short} does not have length {n}")
    A = np.array(words, dtype=np.int64).reshape(len(words), n)
    bad = np.flatnonzero(((A < 0) | (A >= G.order)).any(axis=1))
    if len(bad):
        raise NotAGroup(f"word {words[bad[0]]} has an entry outside 0..{G.order - 1}")
    code = _make_code(G, n, A)
    _check_subgroup(code)
    return code


def _check_subgroup(code: GroupCode) -> None:
    """Raise NotAGroup at the first failing axiom of the word set: the
    identity word, then the inverse of each word, then the product of each
    pair (a, b), words in lex order.  Membership is one searchsorted into
    the sorted words, each row viewed as one void item; the products are
    gathered a block of about TABLE_BLOCK entries at a time."""
    T = code.group.cayley
    A = code.word_array.astype(T.dtype)
    m, n = A.shape
    if not m or A[0].any():  # rows in lex order: the identity comes first
        raise NotAGroup("word set lacks the identity word")
    item = np.dtype((np.void, A.itemsize * n))
    keys = np.sort(A.view(item).ravel())

    def missing(rows: np.ndarray) -> np.ndarray:
        """Flat indices of the rows of rows (last axis n) not in the set."""
        q = rows.view(item).ravel()
        at = np.minimum(keys.searchsorted(q), m - 1)
        return np.flatnonzero(keys[at] != q)

    bad = missing(np.array(code.group.inverse, dtype=T.dtype)[A])
    if len(bad):
        raise NotAGroup(f"word set not closed under inverse at {code.words[bad[0]]}")
    step = max(1, groups.TABLE_BLOCK // max(1, m * n))
    for a0 in range(0, m, step):
        bad = missing(T[A[a0 : a0 + step, None], A[None]])
        if len(bad):
            a, b = divmod(int(bad[0]), m)
            a, b = code.words[a0 + a], code.words[b]
            raise NotAGroup(f"word set not closed under product at {a},{b}")


def trivial_code(G: FiniteGroup, n: int) -> GroupCode:
    return GroupCode(G, n, np.zeros((1, n), dtype=np.int64))


def full_code(G: FiniteGroup, n: int, cap: int = DEFAULT_CODE_CAP) -> GroupCode:
    total = G.order**n
    if total > cap:
        raise ClosureCapExceeded("full code", total, cap)
    # lex order, the last coordinate fastest: column i of the (q,)*n view
    # is the letter on axis i, written by broadcasting, one column at a time
    words = np.empty((total, n), dtype=np.int64)
    view = words.reshape((G.order,) * n + (n,))
    for i in range(n):
        view[..., i] = np.arange(G.order).reshape((-1,) + (1,) * (n - 1 - i))
    return GroupCode(G, n, words)


def diagonal_code(G: FiniteGroup, n: int) -> GroupCode:
    return _make_code(G, n, np.arange(G.order)[:, None].repeat(n, axis=1))


# -- distinct rows ----------------------------------------------------------------


def _distinct_rows(A: np.ndarray, weights: np.ndarray | None = None):
    """The distinct rows of a 2-D integer array in lex order, with how often
    each occurs, or with the exact sum of weights over its occurrences (in
    a dtype that holds every sum).  Rows are sorted, never encoded as
    numbers; the sort runs on int16 keys when the entries fit (faster)."""
    fits = A.size and -(2**15) <= A.min() and A.max() < 2**15
    keys = A.astype(np.int16) if fits else A
    order = np.lexsort(keys.T[::-1]) if A.shape[1] else np.zeros(len(A), dtype=np.intp)
    S = keys.take(order, axis=0)
    # edges: where a run of equal rows starts, then len(A)
    new_run = np.ones(len(A) + 1, dtype=bool)
    new_run[1:-1] = (S[1:] != S[:-1]) @ np.ones(A.shape[1], dtype=bool)
    edges = new_run.nonzero()[0]
    starts = edges[:-1]
    rows = A[order[starts]]
    if weights is None:
        return rows, edges[1:] - starts
    return rows, np.add.reduceat(weights.astype(_sum_dtype(weights))[order], starts)


def _sum_dtype(weights: np.ndarray):
    """A dtype that holds every sum of entries of weights exactly."""
    top = max(int(weights.max(initial=0)), -int(weights.min(initial=0)))
    return zring.exact_dtype(top * len(weights))


def _tally(pos: np.ndarray, size: int, weights: np.ndarray | None = None) -> np.ndarray:
    """out[i]: how many entries of pos are i, or the exact sum of weights
    over them, added as integers (never bincount's float weights)."""
    if weights is None:
        return np.bincount(pos, minlength=size)
    out = np.zeros(size, dtype=_sum_dtype(weights))
    np.add.at(out, pos, weights.astype(out.dtype))
    return out


def support_masks(A: np.ndarray) -> np.ndarray:
    """The support of every row of a 2-D array as a bitmask (bit i set
    when entry i is nonzero), one matrix product per block of about
    TABLE_BLOCK entries, so the int64 cast of the mask is never whole."""
    bits = 1 << np.arange(A.shape[1])
    masks = np.empty(len(A), dtype=bits.dtype)
    step = max(1, groups.TABLE_BLOCK // max(1, A.shape[1]))
    for lo in range(0, len(A), step):
        np.matmul(A[lo : lo + step] != 0, bits, out=masks[lo : lo + step])
    return masks


def _subset_sums(support: np.ndarray, n: int, weights: np.ndarray | None = None) -> np.ndarray:
    """Entry S: how many rows (or the sum of weights over the rows) have a
    support mask disjoint from the bitmask S.  One histogram by support mask
    and one subset-sum (zeta) transform, a cumsum along each axis of the
    histogram viewed as (2,)*n, which counts the rows with support inside
    every mask; full & ~S = full - S, so entry S sits at the reversed
    position."""
    hist = _tally(support, 1 << n, weights).reshape((2,) * n)
    for axis in range(n):
        hist = hist.cumsum(axis=axis, dtype=hist.dtype)
    return hist.reshape(-1)[::-1]


def content_counts(P: np.ndarray, k: int, weights: np.ndarray | None = None) -> np.ndarray:
    """Entry i: how many rows of P (entries in range(k)) have the content of
    rank i (zring.content_tuples), or the exact sum of weights over them."""
    return _tally(zring.content_ranks(P, k), zring.n_contents(k, P.shape[1]), weights)


def content_poly(k: int, n: int, values: np.ndarray, divisor: int = 1) -> MultiPoly:
    """The polynomial with coefficient values[i] / divisor at the content of
    rank i, terms by rank, zero values dropped."""
    nonzero = np.flatnonzero(values)
    return _content_terms(k, zring.content_tuples(k, n)[nonzero], values[nonzero], divisor)


def _content_terms(k: int, tuples: np.ndarray, values: np.ndarray, divisor: int = 1) -> MultiPoly:
    exponents = zring.content_exponents(tuples, k)
    coeffs = (Fraction(v, divisor) for v in values.tolist())
    return MultiPoly(k, dict(zip(map(tuple, exponents.tolist()), coeffs)))


def content_enumerator(P: np.ndarray, k: int, weights: np.ndarray | None = None) -> MultiPoly:
    """sum_r w_r prod_m x_{P[r, m]} over the rows r of P, entries in
    range(k), with w_r = weights[r] (1 without weights); rows with equal
    content share a term, terms by rank.  Tallied over all contents
    (content_counts) while their table is no larger than P or TABLE_BLOCK
    entries; past that (cwe of diag S6^20: 30045015 contents, 11 terms) by
    the distinct rows of P with sorted entries."""
    n = P.shape[1]
    if zring.n_contents(k, n) * n <= max(P.size, groups.TABLE_BLOCK):
        return content_poly(k, n, content_counts(P, k, weights))
    rows, totals = _distinct_rows(np.sort(P, axis=1), weights)
    return _content_terms(k, rows, totals)


# -- projections and the polymatroid -------------------------------------------


@dataclass(frozen=True)
class RankProfile:
    """card(S) = |pr_S(H)| over all 2^n bitmasks; q = |Gamma| is carried so
    the rank r(S) = log_q card(S) is recoverable."""

    n: int
    group_order: int
    card: tuple[int, ...]  # indexed by bitmask

    @cached_property
    def ranks(self) -> tuple[float, ...]:
        """r(S) = log(card(S)) / log(q) for every bitmask S, computed once."""
        if self.group_order == 1:
            return (0.0,) * len(self.card)
        log_q = math.log(self.group_order)
        return tuple(math.log(c) / log_q for c in self.card)

    @cached_property
    def tutte_exponents(self) -> tuple[tuple[float, float], ...]:
        """(r(E) - r(S), |S| - r(S)) for every bitmask S, computed once."""
        r_full = self.ranks[-1]
        return tuple((r_full - r_S, bin(S).count("1") - r_S) for S, r_S in enumerate(self.ranks))

    def rank(self, S: int) -> float:
        return self.ranks[S]


def projection_cardinalities(code: GroupCode) -> list[int]:
    """|pr_S(H)| for every bitmask S, by one subset-sum transform.  The
    words trivial on S are the kernel of pr_S, so for a subgroup H
    |pr_S(H)| = |H| / #{h in H : h_i = e for all i in S}."""
    trivial = _subset_sums(support_masks(code.word_array), code.n)
    bad = np.flatnonzero(np.gcd(trivial, code.size) != trivial)
    if len(bad):
        S = int(bad[0])
        raise NotAGroup(
            f"rank profile: {trivial[S]} words are trivial on S={S}, which does not divide "
            f"|H| = {code.size}; not a subgroup?"
        )
    return (code.size // trivial).tolist()


def rank_profile(code: GroupCode) -> RankProfile:
    """The projection cardinalities of H by one subset-sum transform
    (projection_cardinalities), checked to be a polymatroid.  The transform
    assumes H is a subgroup: a count of trivial words that does not divide
    |H| raises NotAGroup.  Every public constructor checks or builds a
    subgroup; a word set wrapped by the trusted _make_code rests on its
    caller's promise."""
    n = code.n
    if n > RANK_PROFILE_MAX_N:
        raise CapExceeded("rank profile subsets", 2**n, 2**RANK_PROFILE_MAX_N)
    card = projection_cardinalities(code)
    # normalized by construction; monotone, submodular (local exchange form)
    witness = _polymatroid_witness(card, n)
    if witness is not None:
        S, i, j = witness
        if i == j:
            raise PolymatroidViolation(f"monotonicity fails at S={S}, i={i}")
        raise PolymatroidViolation(f"submodularity fails at S={S}, i={i}, j={j}")
    return RankProfile(n, code.group.order, tuple(card))


def _polymatroid_witness(card: list[int], n: int):
    """The first (S, i, j) over S ascending, then i ascending, at which
    card(S + i) < card(S) (reported with j = i, so before i's other tests)
    or, for j > i, card(S + i) card(S + j) < card(S + i + j) card(S), with
    i and j outside S; None when there is none.  For small n every test is
    one entry of a vectorized comparison over _exchange_index(n); past it,
    each test runs on slices of the (2,)*n view of card."""
    dtype = zring.exact_dtype(max(card) ** 2)
    # 7 entries for each of the 2^(n-3) n (n+3) tests (sum over S of
    # r(r+1)/2, r = n - |S|)
    if 7 * (n * (n + 3) << n) // 8 > groups.TABLE_BLOCK:
        return _sliced_witness(np.array(card, dtype=dtype), n)
    S, i, j, a, b, c, d = _exchange_index(n)
    # entry 2^n is 1: a monotonicity test reads card(S + i) * 1 < card(S) * 1
    C = np.append(np.array(card, dtype=dtype), np.ones(1, dtype=dtype))
    bad = np.flatnonzero(C[a] * C[b] < C[c] * C[d])
    return (int(S[bad[0]]), int(i[bad[0]]), int(j[bad[0]])) if len(bad) else None


@lru_cache(maxsize=64)
def _exchange_index(n: int) -> np.ndarray:
    """The (7, t) read-only int64 array of every test of
    _polymatroid_witness in its order, one column each: S, i and j, then the
    entries a, b, c, d of card (extended by a 1 at 2^n) with the test
    card[a] card[b] < card[c] card[d]."""
    masks = np.arange(1 << n)
    columns = []
    for i in range(n):
        for j in range(i, n):
            S = masks[(masks >> i & 1 == 0) & (masks >> j & 1 == 0)]
            Si, Sj = S | 1 << i, S | 1 << j
            one = np.full(len(S), 1 << n)
            abcd = (Si, one, S, one) if i == j else (Si, Sj, Si | Sj, S)
            columns.append(np.stack([S, np.full(len(S), i), np.full(len(S), j), *abcd]))
    index = np.concatenate(columns, axis=1) if columns else np.zeros((7, 0), dtype=np.int64)
    index = index[:, np.lexsort(index[2::-1])].astype(np.int64)
    index.setflags(write=False)
    return index


def _sliced_witness(card: np.ndarray, n: int):
    C = card.reshape((2,) * n)
    masks = np.arange(1 << n).reshape((2,) * n)
    found = []
    for i in range(n):
        a = n - 1 - i
        C0, C1, S0 = C.take(0, a), C.take(1, a), masks.take(0, a)
        found += [(int(S), i, i) for S in S0[C1 < C0][:1]]
        for j in range(i + 1, n):
            b = n - 1 - j  # < a, so removing axis a leaves it in place
            bad = C1.take(0, b) * C0.take(1, b) < C1.take(1, b) * C0.take(0, b)
            found += [(int(S), i, j) for S in S0.take(0, b)[bad][:1]]
    return min(found, default=None)


def tutte_evaluate(rp: RankProfile, x: float, y: float) -> float:
    """Corank-nullity sum with real exponents, in double precision.

    T(x,y) = sum_S (x-1)^(r(E)-r(S)) (y-1)^(|S|-r(S)); the exponents are
    log-ratios of projection cardinalities and are irrational in general,
    hence the x,y > 1 domain.  NaN and infinities are refused as well."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"tutte_evaluate needs finite x and y, got ({x}, {y})")
    if x <= 1 or y <= 1:
        raise DomainError(f"tutte_evaluate needs x > 1 and y > 1, got ({x}, {y})")
    total = 0.0
    for a, b in rp.tutte_exponents:
        total += (x - 1.0) ** a * (y - 1.0) ** b
    return total


# -- enumerators -----------------------------------------------------------------


def weight_counts(code: GroupCode) -> np.ndarray:
    """Entry w: how many words have weight w, for w = 0..n."""
    return np.bincount((code.word_array != 0).sum(axis=1), minlength=code.n + 1)


def weight_enumerator(code: GroupCode) -> UniPoly:
    """W_H(z) = sum over words of z^weight."""
    return UniPoly(dict(enumerate(weight_counts(code).tolist())))


def complete_weight_enumerator(code: GroupCode, classes: ClassData) -> MultiPoly:
    """cwe_H(y_1..y_k): coefficient of prod y_c^(e_c) counts the words whose
    coordinates hit class c exactly e_c times."""
    return content_enumerator(_class_patterns(code, classes), classes.num_classes)


def cwe_counts(code: GroupCode, classes: ClassData) -> np.ndarray:
    """The coefficients of cwe_H at every content, by rank."""
    return content_counts(_class_patterns(code, classes), classes.num_classes)


def _class_patterns(code: GroupCode, classes: ClassData) -> np.ndarray:
    """The class of every coordinate of every word, in the index dtype."""
    return np.array(classes.class_of, dtype=code.group.cayley.dtype)[code.word_array]

