"""Per-word and per-tuple references for the array tallies of codes and duals.

These are the pure-Python implementations that the distinct-rows tallies
replaced, kept as they were: dict-of-tuples counts over the words of a code
(class patterns, W, cwe, projections), the subgroup check of
code_from_words as a scan over word pairs, the polymatroid check of the rank
profile as a loop over subsets, over the tuples of R(H) (its
multiplicities, W_R(H), cwe_R(H), the extension-lemma sums), the classical
dual by enumeration, the abelian relabelling and the content sums of the
Z[C_m] kernel.  R(H) is held in the dict-based LegacyMultiset, the class
DualMultiset used to be.  Tests compare the array versions with these
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from repdual.codes import DEFAULT_CODE_CAP, GroupCode, _make_code
from repdual.duality import DualMultiset
from repdual.errors import CapExceeded, NonIntegerMultiplicity, NotAGroup, PolymatroidViolation
from repdual.groups import TABLE_BLOCK, ClassData
from repdual.polynomials import MultiPoly, UniPoly

from reference_cyclotomic import Cyclotomic, values


def multiset_from_mult(n: int, k: int, degrees, mult) -> DualMultiset:
    """A DualMultiset with the multiplicities of a dict, rows in lex order."""
    keys = sorted(mult)
    index = np.array(keys, dtype=np.int64).reshape(len(keys), n)
    return DualMultiset(n, k, tuple(degrees), index, np.array([mult[t] for t in keys]))


def legacy(dm: DualMultiset) -> "LegacyMultiset":
    return LegacyMultiset(dm.n, dm.k, dm.degrees, dm.mult)


# -- codes ----------------------------------------------------------------------


def project_cardinality(code: GroupCode, S: int) -> int:
    """|pr_S(H)| for a coordinate-subset bitmask S."""
    coords = [m for m in range(code.n) if S >> m & 1]
    if not coords:
        return 1
    return len({tuple(w[m] for m in coords) for w in code.words})


def check_polymatroid(card, n: int) -> None:
    """The monotonicity and submodularity loop of rank_profile."""
    for S in range(1 << n):
        for i in range(n):
            if S >> i & 1:
                continue
            if card[S | 1 << i] < card[S]:
                raise PolymatroidViolation(f"monotonicity fails at S={S}, i={i}")
            for j in range(i + 1, n):
                if S >> j & 1:
                    continue
                lhs = card[S | 1 << i] * card[S | 1 << j]
                rhs = card[S | 1 << i | 1 << j] * card[S]
                if lhs < rhs:
                    raise PolymatroidViolation(
                        f"submodularity fails at S={S}, i={i}, j={j}"
                    )


def unchecked_code(G, n: int, words) -> GroupCode:
    """The words as a code through the trusted constructor, with no subgroup
    check: the oracle's and the identities' refusals of a word set that is
    not a subgroup are tested on these."""
    return _make_code(G, n, np.array(words, dtype=np.int64).reshape(len(words), n))


def check_subgroup(code: GroupCode) -> None:
    """code_from_words's validation as the scan over word tuples it was:
    the identity word, then the inverse of each word, then the product of
    each pair (a, b), words in lex order; NotAGroup names the first
    failure."""
    T, inv = code.group.cayley.tolist(), code.group.inverse
    word_set = set(code.words)
    if (0,) * code.n not in word_set:
        raise NotAGroup("word set lacks the identity word")
    for w in code.words:
        if tuple(inv[x] for x in w) not in word_set:
            raise NotAGroup(f"word set not closed under inverse at {w}")
    for a in code.words:
        for b in code.words:
            if tuple(T[x][y] for x, y in zip(a, b)) not in word_set:
                raise NotAGroup(f"word set not closed under product at {a},{b}")


def weight_enumerator(code: GroupCode) -> UniPoly:
    """W_H(z) = sum over words of z^weight."""
    counts: dict[int, int] = {}
    for w in code.words:
        wt = sum(1 for x in w if x != 0)
        counts[wt] = counts.get(wt, 0) + 1
    return UniPoly({d: Fraction(c) for d, c in counts.items()})


def complete_weight_enumerator(code: GroupCode, classes: ClassData) -> MultiPoly:
    """cwe_H(y_1..y_k): coefficient of prod y_c^(e_c) counts the words whose
    coordinates hit class c exactly e_c times."""
    k = classes.num_classes
    cls = classes.class_of
    counts: dict[tuple[int, ...], int] = {}
    for w in code.words:
        e = [0] * k
        for x in w:
            e[cls[x]] += 1
        key = tuple(e)
        counts[key] = counts.get(key, 0) + 1
    return MultiPoly(k, {e: Fraction(c) for e, c in counts.items()})


def class_pattern_counts(code: GroupCode, classes: ClassData) -> dict[tuple[int, ...], int]:
    """Ordered class-pattern counts: pattern (cls(h_1),..,cls(h_n)) -> number
    of words with that exact pattern.  Finer than the cwe (which forgets
    coordinate order); this is what the Frobenius sum consumes."""
    cls = classes.class_of
    counts: dict[tuple[int, ...], int] = {}
    for w in code.words:
        key = tuple(cls[x] for x in w)
        counts[key] = counts.get(key, 0) + 1
    return counts


def class_pattern_arrays(code: GroupCode, classes: ClassData) -> tuple[np.ndarray, np.ndarray]:
    """class_pattern_counts as arrays: the distinct patterns as a (p, n)
    array in lex order, and the number of words with each."""
    counts = class_pattern_counts(code, classes)
    keys = sorted(counts)
    patterns = np.array(keys, dtype=np.int64).reshape(len(keys), code.n)
    return patterns, np.array([counts[t] for t in keys], dtype=np.int64)


# -- duality --------------------------------------------------------------------


@dataclass(frozen=True)
class LegacyMultiset:
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


def dual_weight_enumerator(dm: LegacyMultiset) -> UniPoly:
    """W_{R(H)}(z) = sum mult * dim * z^(n - #trivial components)."""
    out: dict[int, Fraction] = {}
    for tup, m in dm.items():
        w = dm.weight(tup)
        out[w] = out.get(w, Fraction(0)) + m * dm.dim(tup)
    return UniPoly(out)


def dual_cwe(dm: LegacyMultiset) -> MultiPoly:
    """cwe_{R(H)}(x_1..x_k) = sum mult * prod x_{j_m}; no dimension factor."""
    terms: dict[tuple[int, ...], Fraction] = {}
    for tup, m in dm.items():
        e = [0] * dm.k
        for j in tup:
            e[j] += 1
        key = tuple(e)
        terms[key] = terms.get(key, Fraction(0)) + m
    return MultiPoly(dm.k, terms)


def _trivial_dimension_sums(dm: LegacyMultiset) -> list[int]:
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


# -- identities -----------------------------------------------------------------


def classical_dual_code(
    code: GroupCode, eps: list[list[int]], cap: int = DEFAULT_CODE_CAP
) -> GroupCode:
    """{x : pairing(x, h) = 1 for all h in H}, by brute-force enumeration."""
    G = code.group
    m = G.exponent
    total = G.order**code.n
    if total > cap:
        raise CapExceeded("classical dual enumeration", total, cap)
    dual_words = []
    for x in product(range(G.order), repeat=code.n):
        if all(
            sum(eps[a][b] for a, b in zip(x, h)) % m == 0 for h in code.words
        ):
            dual_words.append(x)
    return unchecked_code(G, code.n, dual_words)


def irrep_to_element(ct, eps) -> dict[int, int]:
    """irrep index -> group element with chi_irrep = beta(element, .)
    (classes of an abelian group are singletons in element order)"""
    G = ct.group
    m = G.exponent
    pairing_rows = {
        g: tuple(Cyclotomic.zeta(m, eps[g][j]) for j in range(G.order))
        for g in range(G.order)
    }
    out: dict[int, int] = {}
    for i, row in enumerate(values(ct)):
        matches = [g for g, prow in pairing_rows.items() if prow == row]
        if len(matches) != 1:
            raise NonIntegerMultiplicity(
                f"character row {i} matches {len(matches)} pairing characters"
            )
        out[i] = matches[0]
    return out


def relabeled_dual_cwe(dm: LegacyMultiset, irrep_to_element, order: int) -> MultiPoly:
    """cwe of R(H) after relabeling every irrep through phi."""
    relabeled_terms = {}
    for tup, mult in dm.mult.items():
        e = [0] * order
        for j in tup:
            e[irrep_to_element[j]] += 1
        key = tuple(e)
        relabeled_terms[key] = relabeled_terms.get(key, Fraction(0)) + mult
    return MultiPoly(order, relabeled_terms)


# -- zring ----------------------------------------------------------------------


def sum_by_content(A: np.ndarray, n: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Sums of the entries of a dense (k,)*n + (m,) array over index tuples
    with equal content (the multiset of indices).  Returns the contents as
    exponent vectors of length k, ascending by sorted tuple, and the
    matching (len(contents), m) sums."""
    k, m = A.shape[0], A.shape[-1]
    total = k**n
    # code[flat] = the sorted index tuple read in base k, built a chunk at a
    # time so that the (n, k^n) index array never exists at once
    code = np.empty(total, dtype=np.int64)
    for lo in range(0, total, TABLE_BLOCK):
        flat = np.arange(lo, min(lo + TABLE_BLOCK, total))
        chunk = np.zeros(len(flat), dtype=np.int64)
        for row in np.sort(np.unravel_index(flat, (k,) * n), axis=0):
            chunk = chunk * k + row
        code[lo : lo + len(flat)] = chunk
    keys, inverse = np.unique(code, return_inverse=True)
    sums = np.zeros((len(keys), m), dtype=A.dtype)
    np.add.at(sums, inverse.reshape(-1), A.reshape(-1, m))
    contents = []
    for c in keys.tolist():
        e = [0] * k
        for _ in range(n):
            c, j = divmod(c, k)
            e[j] += 1
        contents.append(tuple(e))
    return contents, sums
