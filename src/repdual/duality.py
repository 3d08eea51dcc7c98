"""The representation-based dual R(H) of a group code, by two independent
routes that serve as mutual oracles.

Primary route (Frobenius reciprocity): the multiplicity of the irrep tuple
(j_1..j_n) is (1/|H|) sum over words of prod_m chi_{j_m}(h_m).  The sum only
depends on the words' class patterns, so it is organized as an axis-by-axis
contraction of the ordered pattern counts with the character table, held as
an integer array over Z[C_m] (see zring): n integer matrix products per
nonzero coefficient position instead of k^n*|H| cyclotomic products, and
one reduction modulo Phi_m at the end.

Oracle route (permutation character): enumerate the left cosets x*H of
Gamma^n, count the cosets fixed by a representative of each class tuple
(g fixes x*H iff g lies in x*H*x^-1), and decompose the resulting class
function against the conjugate product character table through the same
integer kernel.  The coset BFS and the fixed-coset counts are batched int64
gathers on the Cayley table, with words encoded as base-|Gamma| integers:
O(|Gamma|^n * n^2 * |gens|) work, in blocks of about ORACLE_BLOCK entries,
bounded by coset_cap * |H|.  No class-pattern count or character value
enters this route before the decomposition, so it stays independent of the
Frobenius route; nothing about it is floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

import numpy as np

from . import zring
from .chartable import CharacterTable
from .codes import GroupCode, RankProfile, class_pattern_counts
from .errors import CapExceeded, NonIntegerMultiplicity, RepdualError
from .groups import ClassData
from .polynomials import MultiPoly, UniPoly

DEFAULT_TUPLE_CAP = 10**7
DEFAULT_COSET_CAP = 10**5


@dataclass(frozen=True)
class DualMultiset:
    """R(H) as a map from irrep-index tuples to multiplicities (zero entries
    omitted).  Irrep index 0 is the trivial character; dim of a tuple is the
    product of the per-factor degrees."""

    n: int
    k: int
    degrees: tuple[int, ...]
    mult: dict[tuple[int, ...], int]

    def dim(self, tup: tuple[int, ...]) -> int:
        d = 1
        for j in tup:
            d *= self.degrees[j]
        return d

    def weight(self, tup: tuple[int, ...]) -> int:
        return sum(1 for j in tup if j != 0)

    def total_dimension(self) -> int:
        return sum(m * self.dim(t) for t, m in self.mult.items())

    def items(self):
        return self.mult.items()


def _multiplicities(raw: np.ndarray, divisor: int) -> dict[tuple[int, ...], int]:
    """raw: reduced (k,)*n + (phi(m),) array of divisor * multiplicity.
    Every entry must divide to a nonnegative integer; zeros are omitted."""
    shape = raw.shape[:-1]
    irrational = np.flatnonzero(raw[..., 1:].any(axis=-1))
    if len(irrational):
        key = tuple(int(x) for x in np.unravel_index(irrational[0], shape))
        raise NonIntegerMultiplicity(f"multiplicity of {key} is not rational")
    const = raw[..., 0].reshape(-1)
    nonzero = np.flatnonzero(const)
    keys = zip(*(axis.tolist() for axis in np.unravel_index(nonzero, shape)))
    mult: dict[tuple[int, ...], int] = {}
    for key, c in zip(keys, const[nonzero].tolist()):
        value = Fraction(c, divisor)
        if value.denominator != 1 or value < 0:
            raise NonIntegerMultiplicity(f"multiplicity of {key} is {value}")
        mult[key] = int(value)
    return mult


def _to_multiset(
    raw: np.ndarray, divisor: int, code: GroupCode, ct: CharacterTable
) -> DualMultiset:
    dm = DualMultiset(code.n, ct.k, ct.degrees, _multiplicities(raw, divisor))
    trivial = (0,) * code.n
    if dm.mult.get(trivial) != 1:
        raise NonIntegerMultiplicity(
            f"trivial tuple has multiplicity {dm.mult.get(trivial, 0)}, expected 1"
        )
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
    counts = class_pattern_counts(code, ct.classes)
    raw = zring.reduce(zring.contract(counts, ct.zvalues, code.n))
    return _to_multiset(raw, code.size, code, ct)


# -- permutation-character oracle ------------------------------------------------

# Block temporaries of the oracle hold about this many int64 entries, and at
# least one coset's worth (|H|*n) when H is larger.
ORACLE_BLOCK = 2**14


def _word_arrays(code: GroupCode) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The Cayley table, the words of H as an (|H|, n) array, the weights
    that encode a word as an integer in base |Gamma| (integer order is then
    lex order), and how many words' products with all of H fit one block."""
    G = code.group
    if G.order**code.n > 2**63:
        raise CapExceeded("int64 word encoding", G.order**code.n, 2**63)
    MUL = G.cayley.astype(np.int64)
    H = np.array(code.words, dtype=np.int64).reshape(code.size, code.n)
    rows = max(1, ORACLE_BLOCK // (code.size * code.n))
    return MUL, H, _weights(G.order, code.n), rows


def _weights(base: int, n: int) -> np.ndarray:
    return base ** np.arange(n - 1, -1, -1, dtype=np.int64)


def _in_sorted(a: np.ndarray, sorted_b: np.ndarray) -> np.ndarray:
    idx = np.minimum(np.searchsorted(sorted_b, a), len(sorted_b) - 1)
    return sorted_b[idx] == a


class _KeyCounts:
    """Counts of nonnegative int64 keys, merged whenever the unmerged keys
    outgrow both ORACLE_BLOCK and the distinct keys so far."""

    def __init__(self):
        self.keys = self.counts = np.zeros(0, dtype=np.int64)
        self.pending: list[np.ndarray] = []
        self.pending_size = 0

    def add(self, keys: np.ndarray) -> None:
        self.pending.append(keys)
        self.pending_size += len(keys)
        if self.pending_size > max(ORACLE_BLOCK, len(self.keys)):
            self._merge()

    def _merge(self) -> None:
        ones = np.ones(self.pending_size, dtype=np.int64)
        keys, inverse = np.unique(np.concatenate([self.keys, *self.pending]), return_inverse=True)
        counts = np.zeros(len(keys), dtype=np.int64)
        np.add.at(counts, inverse, np.concatenate([self.counts, ones]))
        self.keys, self.counts = keys, counts
        self.pending, self.pending_size = [], 0

    def as_dict(self) -> dict[int, int]:
        """All counts so far, by key in ascending order."""
        self._merge()
        return dict(zip(self.keys.tolist(), self.counts.tolist()))


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
    tallied when it is the representative word of a class tuple.
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
    tuple_weights = _weights(k, n)
    tallies = []
    for members in (classes.class_reps, [classes.members(c)[-1] for c in range(k)]):
        class_at = np.full(G.order, -1, dtype=np.int64)
        class_at[list(members)] = np.arange(k)
        tallies.append((class_at, _KeyCounts()))
    for lo in range(0, len(X), rows):
        x = X[lo : lo + rows, None, :]
        conj = MUL[MUL[x, H], INV[x]]
        for class_at, tally in tallies:
            tup = class_at[conj]
            tally.add(tup[(tup >= 0).all(axis=-1)] @ tuple_weights)
    rep, alt = (tally.as_dict() for _, tally in tallies)
    if rep != alt:
        key = min(key for key in rep.keys() | alt.keys() if rep.get(key) != alt.get(key))
        tup = tuple((key // tuple_weights % k).tolist())
        raise RepdualError(f"permutation character not constant on class tuple {tup}")
    keys = np.fromiter(rep, dtype=np.int64, count=len(rep))
    out = dict(zip(map(tuple, (keys[:, None] // tuple_weights % k).tolist()), rep.values()))
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
    k = ct.k
    sizes = ct.classes.class_sizes
    weighted: dict[tuple[int, ...], int] = {}
    for tup, count in pc.items():
        w = count
        for c in tup:
            w *= sizes[c]
        weighted[tup] = w
    raw = zring.reduce(zring.contract(weighted, zring.conjugate(ct.zvalues), n))
    return DualMultiset(n, k, ct.degrees, _multiplicities(raw, ct.group.order**n))


# -- enumerators of the dual -----------------------------------------------------


def dual_weight_enumerator(dm: DualMultiset) -> UniPoly:
    """W_{R(H)}(z) = sum mult * dim * z^(n - #trivial components)."""
    out: dict[int, Fraction] = {}
    for tup, m in dm.items():
        w = dm.weight(tup)
        out[w] = out.get(w, Fraction(0)) + m * dm.dim(tup)
    return UniPoly(out)


def dual_cwe(dm: DualMultiset) -> MultiPoly:
    """cwe_{R(H)}(x_1..x_k) = sum mult * prod x_{j_m}; no dimension factor."""
    terms: dict[tuple[int, ...], Fraction] = {}
    for tup, m in dm.items():
        e = [0] * dm.k
        for j in tup:
            e[j] += 1
        key = tuple(e)
        terms[key] = terms.get(key, Fraction(0)) + m
    return MultiPoly(dm.k, terms)


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
    transform, O(2^n * n) past the histogram."""
    full = (1 << dm.n) - 1
    sums = [0] * (full + 1)
    for tup, m in dm.items():
        sums[sum(1 << c for c, j in enumerate(tup) if j)] += m * dm.dim(tup)
    for c in range(dm.n):
        bit = 1 << c
        for T in range(full + 1):
            if T & bit:
                sums[T] += sums[T ^ bit]
    return [sums[full & ~S] for S in range(full + 1)]


def extension_lemma_checks(
    rp: RankProfile, dm: DualMultiset, subsets=None
) -> list[ExtensionCheck]:
    """Dimension count of the dual tuples trivial on S against the coset
    count of the projection onto the complement, for each bitmask S in
    subsets (default: all 2^n):
    sum_{j trivial on S} mult*dim = |Gamma|^(n-|S|) / |pr_{E-S}(H)|."""
    n = rp.n
    full = (1 << n) - 1
    lhs = _trivial_dimension_sums(dm)
    out = []
    for S in range(full + 1) if subsets is None else subsets:
        rhs = Fraction(rp.group_order ** (n - bin(S).count("1")), rp.card[full & ~S])
        out.append(ExtensionCheck(S, lhs[S] == rhs, Fraction(lhs[S]), rhs))
    return out


def irrep_tuple_label(tup: tuple[int, ...]) -> str:
    return "(x)".join(f"rho{j + 1}" for j in tup)
