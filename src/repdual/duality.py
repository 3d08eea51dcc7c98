"""The representation-based dual R(H) of a group code, by two independent
routes that serve as mutual oracles.

Primary route (Frobenius reciprocity): the multiplicity of the irrep tuple
(j_1..j_n) is (1/|H|) sum over words of prod_m chi_{j_m}(h_m).  The sum only
depends on the words' class patterns, so it is organized as an axis-by-axis
contraction of the words' tally by ordered class pattern (one bincount by
flat index) with the character table, evaluated at the embeddings of
Z[zeta_m] mod p (see zring): n integer (k, k) matrix products mod p per
embedding instead of k^n*|H| cyclotomic products, and the multiplicities
are read off where the embeddings agree.

Oracle route (permutation character): enumerate the left cosets x*H of
Gamma^n, count the cosets fixed by a representative of each class tuple
(g fixes x*H iff g lies in x*H*x^-1), and decompose the resulting class
function through the same integer kernel.  The permutation character pi is
integer-valued, so sum pi chi is the complex conjugate of sum pi conj(chi)
and a rational multiplicity is the same either way: the decomposition
contracts with the product character table itself.  The lex-minimal coset
representatives are a product of per-coordinate transversals: with K_i the
letters i of the words of H whose letters 1..i-1 are the identity (a
subgroup of Gamma), they are T_1 x ... x T_n with T_i the least element of
every left coset of K_i.  Finding them reads H's words and the Cayley table
only, O(|H|*n + n*|Gamma|*max|K_i| + cosets*n) work; the fixed-coset
counts are batched int64 gathers on the Cayley table and bincounts,
O(cosets*|H|*n), bounded by coset_cap * |H|.  No class-pattern tally or
character value enters this route before the decomposition, so it stays
independent of the Frobenius route; nothing about it is floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import prod

import numpy as np

from . import groups, trace, zring
from .chartable import CharacterTable
from .codes import (
    GroupCode,
    RankProfile,
    _class_patterns,
    _subset_sums,
    _tally,
    content_enumerator,
    support_masks,
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
        """dim of every row of index, exactly, a block of about
        TABLE_BLOCK entries at a time, so the (t, n) gather of degrees is
        never whole.  _multiset seeds it for small shapes."""
        degrees = np.array(self.degrees, dtype=zring.exact_dtype(max(self.degrees) ** self.n))
        dims = np.empty(len(self.index), dtype=degrees.dtype)
        step = max(1, groups.TABLE_BLOCK // max(1, self.n))
        for lo in range(0, len(dims), step):
            block = degrees.take(self.index[lo : lo + step])
            np.multiply.reduce(block, axis=1, out=dims[lo : lo + step])
        return dims

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


def _digits(flat: np.ndarray, radices, dtype) -> np.ndarray:
    """The mixed-radix digits of every flat index, most significant first
    (C order), as a (len(flat), len(radices)) array of dtype, by one
    np.unravel_index call per TABLE_BLOCK indices: over all of them at once
    its len(radices) intp arrays would outgrow the result.  No radices give
    no columns."""
    out = np.empty((len(flat), len(radices)), dtype=dtype)
    if len(radices):
        step = groups.TABLE_BLOCK
        for lo in range(0, len(flat), step):
            out[lo : lo + step].T[:] = np.unravel_index(flat[lo : lo + step], radices)
    return out


def _tuple_digits(flat: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The tuples of shape at the flat C-order indices flat, in the index
    dtype of its largest radix: rows of _digit_table for small shapes,
    else _digits."""
    if prod(shape) * len(shape) <= groups.TABLE_BLOCK:
        return _digit_table(shape)[flat]
    return _digits(flat, shape, groups._index_dtype(max(shape, default=1)))


@lru_cache(maxsize=64)
def _digit_table(shape: tuple[int, ...]) -> np.ndarray:
    """Every tuple of shape in C order, in the index dtype of its largest
    radix, read-only."""
    D = _digits(np.arange(prod(shape)), shape, groups._index_dtype(max(shape, default=1)))
    D.setflags(write=False)
    return D


@lru_cache(maxsize=64)
def _product_table(values: tuple[int, ...], n: int) -> np.ndarray:
    """prod_a values[j_a] for every tuple j of (len(values),)*n, flat in C
    order, exactly in exact_dtype(max(values)**n), read-only: the
    dimensions of the irrep tuples or the sizes of the class tuples of a
    small shape."""
    v = np.array(values, dtype=zring.exact_dtype(max(values) ** n))
    P = np.ones(1, dtype=v.dtype)
    for _ in range(n):
        P = np.multiply.outer(P, v).reshape(-1)
    P.setflags(write=False)
    return P


def _tuple_products(values: tuple[int, ...], flat: np.ndarray, tuples: np.ndarray, dtype):
    """prod_a values[tuples[r, a]] for every row r, exactly in dtype: a
    gather at the rows' flat indices from _product_table for small shapes,
    else a product along the rows."""
    n = tuples.shape[1]
    if len(values) ** n <= groups.TABLE_BLOCK:
        return _product_table(values, n)[flat].astype(dtype, copy=False)
    return np.array(values, dtype=dtype)[tuples].prod(axis=1)


def _multiplicities(
    values: np.ndarray, irrational: np.ndarray, shape: tuple[int, ...], divisor: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """values: divisor * multiplicity of every tuple of shape, flat in C
    order, exact where irrational is False.  Every entry must be rational
    and divide to a nonnegative integer.  Returns the flat indices of the
    nonzero multiplicities, their tuples and the multiplicities: the flat
    index, index and counts of a DualMultiset."""
    with trace.span("reduction to multiplicities"):
        bad = irrational.nonzero()[0]
        if len(bad):
            key = tuple(_tuple_digits(bad[:1], shape)[0].tolist())
            raise NonIntegerMultiplicity(f"multiplicity of {key} is not rational")
        nonzero = values.nonzero()[0]
        trace.count("nonzero tuples", len(nonzero))
        index = _tuple_digits(nonzero, shape)
        values = values[nonzero]
        bad = ((values % divisor != 0) | (values < 0)).nonzero()[0]
        if len(bad):
            key = tuple(index[bad[0]].tolist())
            raise NonIntegerMultiplicity(
                f"multiplicity of {key} is {Fraction(int(values[bad[0]]), divisor)}"
            )
        return nonzero, index, values // divisor


def _multiset(
    sums: tuple[np.ndarray, np.ndarray], divisor: int, ct: CharacterTable, n: int
) -> DualMultiset:
    """The DualMultiset of the contracted sums over divisor (_multiplicities).
    For a small shape its dims are gathered from the degree product table,
    so later reads of dims and _mass reuse them."""
    flat, index, counts = _multiplicities(*sums, (ct.k,) * n, divisor)
    dm = DualMultiset(n, ct.k, ct.degrees, index, counts)
    if ct.k**n <= groups.TABLE_BLOCK:
        # seeds the cached_property, which then never runs its row products
        object.__setattr__(dm, "dims", _product_table(ct.degrees, n)[flat])
    return dm


def _to_multiset(
    sums: tuple[np.ndarray, np.ndarray], divisor: int, code: GroupCode, ct: CharacterTable
) -> DualMultiset:
    dm = _multiset(sums, divisor, ct, code.n)
    # the trivial tuple is the least in lex order
    trivial = int(dm.counts[0]) if len(dm.counts) and not dm.index[0].any() else 0
    if trivial != 1:
        raise NonIntegerMultiplicity(f"trivial tuple has multiplicity {trivial}, expected 1")
    cosets = ct.group.order**code.n // code.size
    total = dm.total_dimension()
    if total != cosets:
        raise NonIntegerMultiplicity(f"total dimension {total} != coset count {cosets}")
    return dm


def dual_multiset(
    code: GroupCode, ct: CharacterTable, cap: int = DEFAULT_TUPLE_CAP
) -> DualMultiset:
    """R(H) via the Frobenius sum over H, exactly.  The words are tallied by
    the flat index of their class pattern among the k^n class tuples, one
    bincount bounded by the tuple cap, and the nonzero tallies are
    contracted."""
    k, n = ct.k, code.n
    size = k**n
    if size > cap:
        raise CapExceeded("irrep tuple space", size, cap)
    counts = np.bincount(_class_patterns(code, ct.classes) @ zring.radix(k, n), minlength=size)
    flat = counts.nonzero()[0]
    counts = counts[flat]
    sums = zring.contract(flat, counts, ct.embedded, n)
    return _to_multiset(sums, code.size, code, ct)


# -- permutation-character oracle ------------------------------------------------


def _coset_representatives(code: GroupCode, cap: int) -> np.ndarray:
    """Canonical (lex-minimal) representatives of the left cosets x*H, as a
    sorted (cosets, n) int64 array.

    Let H_0 = H, H_i the words of H_{i-1} whose letter i is the identity,
    and K_i = pr_i(H_{i-1}), a subgroup of Gamma.  Once letters 1..i-1 of a
    word of xH are at their least, the words of xH that keep them are
    y*H_{i-1} for one such y, whose letter i ranges over y_i*K_i.  So the
    least word of a coset has at every letter the least element of that
    letter's own left coset of K_i, and the representatives are exactly
    T_1 x ... x T_n with T_i = {g : g = min(g*K_i)}; |H| = prod |K_i|.
    Each K_i is checked to be closed and its T_i found once per group and
    member mask (FiniteGroup._transversal).  Enumerated in mixed-radix
    order, the product is sorted."""
    G = code.group
    n = code.n
    n_cosets, rem = divmod(G.order**n, code.size)
    if rem:
        raise RepdualError("|H| does not divide |Gamma|^n; not a subgroup?")
    if n_cosets > cap:
        raise CapExceeded("coset enumeration", n_cosets, cap)
    # the tallies index class tuples, k^n <= |Gamma|^n of them, in int64
    if G.order**n > 2**63:
        raise CapExceeded("int64 word encoding", G.order**n, 2**63)
    H = code.word_array
    transversals = []
    for i in range(n):
        member = np.zeros(G.order, dtype=bool)
        member[H[:, i]] = True
        t = G._transversal(member.tobytes())
        if t is None:
            raise RepdualError(
                f"coset transversal: K_{i + 1} is not closed under the product; not a subgroup?"
            )
        transversals.append(t)
        H = H[H[:, i] == 0]
    sizes = [len(t) for t in transversals]
    if prod(sizes) != n_cosets:
        raise RepdualError(
            f"coset transversal has {prod(sizes)} cosets, expected {n_cosets}; not a subgroup?"
        )
    X = _digits(np.arange(n_cosets), sizes, np.int64)
    for i, t in enumerate(transversals):
        X[:, i] = t[X[:, i]]
    return X


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
    formed, one (n, b, |H|) gather per block of coset representatives, and
    tallied when it is the representative word of a class tuple into a
    dense count over the k^n class tuples (bounded by tuple_cap); a block
    holds about max(k^n, TABLE_BLOCK) letters.  Class-constancy is verified
    by a second tally at the word of last class members, offset by k^n in
    the same bincount; the Burnside total sum_g chi(g) = |Gamma|^n is
    checked too."""
    G = code.group
    k = classes.num_classes
    n = code.n
    size = k**n
    if size > tuple_cap:
        raise CapExceeded("class tuple space", size, tuple_cap)
    X = _coset_representatives(code, coset_cap)
    with trace.span("fixed-coset counts"):
        trace.count("cosets", len(X))
        # letter i of x h x^-1 for a block of cosets x and every h in H, as
        # (n, b, |H|) gathers from the flat Cayley table: the long axes last
        o = G.order
        MUL, INV = G._flat_cayley, G._inverse_array
        H = code.word_array.T[:, None, :]
        rows = max(1, max(size, groups.TABLE_BLOCK) // max(1, code.size * n))
        # class_at[0] maps the class representatives to their classes and
        # class_at[1] the last member of each class; any other letter maps
        # to 2 * size, so a word with one lands at 2 * size or beyond, and
        # at most 2 * size * max(size, n) + size (exact in int64 past any
        # tally that fits memory)
        maps = classes._class_maps
        class_at = np.where(maps < 0, 2 * size, maps)
        radix = zring.radix(k, n)
        tally = np.zeros(2 * size, dtype=np.int64)
        for lo in range(0, len(X), rows):
            x = X[lo : lo + rows].T[:, :, None]
            conj = MUL.take(MUL.take(x * o + H) * o + INV[x]).reshape(n, x.shape[1] * code.size)
            flat = np.concatenate([radix @ class_at[0].take(conj), radix @ class_at[1].take(conj)])
            flat[len(flat) // 2 :] += size
            tally += np.bincount(flat[flat < 2 * size], minlength=2 * size)
    rep, alt = tally[:size], tally[size:]
    differ = (rep != alt).nonzero()[0]
    if len(differ):
        tup = tuple(_tuple_digits(differ[:1], (k,) * n)[0].tolist())
        raise RepdualError(f"permutation character not constant on class tuple {tup}")
    nonzero = rep.nonzero()[0]
    tuples = _tuple_digits(nonzero, (k,) * n)
    counts = rep[nonzero]
    out = dict(zip(map(tuple, tuples.tolist()), counts.tolist()))
    # sum over the tuples of count * prod(class sizes) <= max(count) * |Gamma|^n
    sum_dtype = zring.exact_dtype(int(counts.max(initial=0)) * G.order**n)
    sizes = _tuple_products(classes.class_sizes, nonzero, tuples, sum_dtype)
    burnside = int(counts.astype(sum_dtype) @ sizes)
    if burnside != G.order**n:
        raise RepdualError("Burnside total of the permutation character is off")
    return out


def decompose_permutation_character(
    pc: dict[tuple[int, ...], int], ct: CharacterTable, n: int
) -> DualMultiset:
    """Inner product of the permutation character with every product
    character chi_j1 x ... x chi_jn, as exact rationals.  Must reproduce
    dual_multiset tuple-for-tuple (this is the oracle equivalence).  The
    integer-valued character is contracted with the table itself: a
    rational sum equals its conjugate (see zring)."""
    tuples = np.array(list(pc), dtype=np.int64).reshape(len(pc), n)
    flat = tuples @ zring.radix(ct.k, n)
    # a count times a product of n class sizes is at most max|pc| * |Gamma|^n
    dtype = zring.exact_dtype(max(map(abs, pc.values()), default=0) * ct.group.order**n)
    sizes = _tuple_products(ct.classes.class_sizes, flat, tuples, dtype)
    weighted = np.array(list(pc.values()), dtype=dtype) * sizes
    sums = zring.contract(flat, weighted, ct.embedded, n)
    return _multiset(sums, ct.group.order**n, ct, n)


# -- enumerators of the dual -----------------------------------------------------


def dual_weight_counts(dm: DualMultiset) -> np.ndarray:
    """Entry w: the sum of mult * dim over the tuples with w nontrivial
    components, for w = 0..n, exactly."""
    return _tally(dm.weights, dm.n + 1, dm._mass)


def dual_weight_enumerator(dm: DualMultiset) -> UniPoly:
    """W_{R(H)}(z) = sum mult * dim * z^(n - #trivial components)."""
    return UniPoly(dict(enumerate(dual_weight_counts(dm).tolist())))


def dual_cwe(dm: DualMultiset) -> MultiPoly:
    """cwe_{R(H)}(x_1..x_k) = sum mult * prod x_{j_m}; no dimension factor."""
    return content_enumerator(dm.index, dm.k, dm.counts)


@dataclass(frozen=True)
class ExtensionCheck:
    S: int
    passed: bool
    lhs: Fraction
    rhs: Fraction


def _trivial_dimension_sums(dm: DualMultiset) -> np.ndarray:
    """Entry S: sum of mult*dim over the tuples trivial on every coordinate
    of the bitmask S, the tuples whose support is disjoint from S: one
    subset-sum transform, O(2^n * n) past the histogram."""
    return _subset_sums(support_masks(dm.index), dm.n, dm._mass)


def _extension_sides(
    rp: RankProfile, dm: DualMultiset
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The extension lemma at every bitmask S at once, cross-multiplied:
    lhs[S], the dimension sum of the tuples trivial on S; card[S] =
    |pr_{E-S}(H)|; and power[S] = |Gamma|^(n-|S|).  The lemma holds at S iff
    lhs[S] * card[S] == power[S].  All three share one exact integer dtype
    that also holds that product."""
    n, q = rp.n, rp.group_order
    lhs = _trivial_dimension_sums(dm)
    dtype = zring.exact_dtype(max(q**n, int(np.abs(lhs).max()) * max(rp.card)))
    return lhs.astype(dtype), np.array(rp.card[::-1], dtype=dtype), _subset_powers(q, n, dtype)


def _subset_powers(q: int, n: int, dtype) -> np.ndarray:
    """q^(n-|S|) for every bitmask S, in dtype; kept per (q, n, dtype) while
    2^n <= TABLE_BLOCK."""
    if (1 << n) <= groups.TABLE_BLOCK:
        return _small_subset_powers(q, n, dtype)
    return _halving_powers(q, n, dtype)


def _halving_powers(q: int, n: int, dtype) -> np.ndarray:
    # bit i of S is the ith doubling, so the upper half divides by q once more
    power = np.array([q**n], dtype=dtype)
    for _ in range(n):
        power = np.concatenate([power, power // q])
    power.setflags(write=False)
    return power


_small_subset_powers = lru_cache(maxsize=64)(_halving_powers)


def extension_lemma_checks(rp: RankProfile, dm: DualMultiset) -> list[ExtensionCheck]:
    """Dimension count of the dual tuples trivial on S against the coset
    count of the projection onto the complement, for every bitmask S (entry
    S of the list):
    sum_{j trivial on S} mult*dim = |Gamma|^(n-|S|) / |pr_{E-S}(H)|."""
    sides = zip(*(side.tolist() for side in _extension_sides(rp, dm)))
    return [
        ExtensionCheck(S, a * card == b, Fraction(a), Fraction(b, card))
        for S, (a, card, b) in enumerate(sides)
    ]
