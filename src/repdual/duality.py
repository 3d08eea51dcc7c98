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
(g fixes x*H iff x^-1*g*x lies in H), and decompose the resulting class
function against the conjugate product character table through the same
integer kernel.  numpy handles the integer index plumbing; nothing about
this route is floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from . import zring
from .chartable import CharacterTable
from .codes import GroupCode, class_pattern_counts, project_cardinality
from .errors import CapExceeded, NonIntegerMultiplicity, RepdualError
from .groups import ClassData, word_mul
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


def _coset_representatives(code: GroupCode, cap: int) -> list[tuple[int, ...]]:
    """Canonical (minimal-word) representatives of the left cosets x*H,
    found by BFS with left multiplication by per-coordinate generators."""
    G = code.group
    n_cosets, rem = divmod(G.order**code.n, code.size)
    if rem:
        raise RepdualError("|H| does not divide |Gamma|^n; not a subgroup?")
    if n_cosets > cap:
        raise CapExceeded("coset enumeration", n_cosets, cap)
    gens = list(G.generators) or list(range(1, G.order))

    def canonical(word):
        return min(word_mul(G, word, h) for h in code.words)

    start = canonical((0,) * code.n)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for m in range(code.n):
                for g in gens:
                    y = list(x)
                    y[m] = G.mul(g, y[m])
                    rep = canonical(tuple(y))
                    if rep not in seen:
                        seen.add(rep)
                        nxt.append(rep)
        frontier = nxt
    if len(seen) != n_cosets:
        raise RepdualError(
            f"coset BFS found {len(seen)} cosets, expected {n_cosets}"
        )
    return sorted(seen)


def permutation_character(
    code: GroupCode,
    classes: ClassData,
    coset_cap: int = DEFAULT_COSET_CAP,
    tuple_cap: int = DEFAULT_TUPLE_CAP,
) -> dict[tuple[int, ...], int]:
    """Fixed-coset counts chi(g) = #{cosets xH : g xH = xH} per class tuple
    of Gamma^n (zero entries omitted).

    Class-constancy is verified by recounting at a second representative
    tuple; the Burnside total sum_g chi(g) = |Gamma|^n is checked too."""
    G = code.group
    k = classes.num_classes
    n = code.n
    if k**n > tuple_cap:
        raise CapExceeded("class tuple space", k**n, tuple_cap)
    reps = _coset_representatives(code, coset_cap)

    X = np.array(reps, dtype=np.int64)
    MUL = np.array(G.table, dtype=np.int64)
    INV = np.array(G.inverse, dtype=np.int64)
    base = max(G.order, 2)
    weights = [base ** (n - 1 - m) for m in range(n)]
    h_enc = np.sort(
        np.array([sum(w[m] * weights[m] for m in range(n)) for w in code.words], dtype=np.int64)
    )

    def encoded_column(m: int, g: int) -> np.ndarray:
        col = X[:, m]
        conj = MUL[MUL[INV[col], g], col]
        return conj * weights[m]

    def count_fixed(word) -> int:
        enc = encoded_column(0, word[0])
        for m in range(1, n):
            enc = enc + encoded_column(m, word[m])
        idx = np.searchsorted(h_enc, enc)
        idx[idx == len(h_enc)] = len(h_enc) - 1
        return int((h_enc[idx] == enc).sum())

    alt_member = [classes.members(c)[-1] for c in range(k)]
    out: dict[tuple[int, ...], int] = {}
    burnside = 0
    for tup in product(range(k), repeat=n):
        rep_word = tuple(classes.class_reps[c] for c in tup)
        count = count_fixed(rep_word)
        alt_word = tuple(alt_member[c] for c in tup)
        if alt_word != rep_word and count_fixed(alt_word) != count:
            raise RepdualError(
                f"permutation character not constant on class tuple {tup}"
            )
        size = 1
        for c in tup:
            size *= classes.class_sizes[c]
        burnside += count * size
        if count:
            out[tup] = count
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


def extension_lemma_check(code: GroupCode, dm: DualMultiset, S: int) -> ExtensionCheck:
    """Dimension count of the dual tuples trivial on S against the coset
    count of the projection onto the complement:
    sum_{j trivial on S} mult*dim = |Gamma|^(n-|S|) / |pr_{E-S}(H)|."""
    n = code.n
    s_coords = [m for m in range(n) if S >> m & 1]
    lhs = Fraction(0)
    for tup, m in dm.items():
        if all(tup[c] == 0 for c in s_coords):
            lhs += m * dm.dim(tup)
    complement = ((1 << n) - 1) & ~S
    rhs = Fraction(
        code.group.order ** (n - len(s_coords)), project_cardinality(code, complement)
    )
    return ExtensionCheck(S, lhs == rhs, lhs, rhs)


def irrep_tuple_label(tup: tuple[int, ...]) -> str:
    return "(x)".join(f"rho{j + 1}" for j in tup)
