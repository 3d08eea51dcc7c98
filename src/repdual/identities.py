"""Exact verification of Greene's theorem and both MacWilliams identities.

Every identity is checked as an exact equality of integer vectors, never in
floating point.  The Tutte-form statements have irrational real exponents,
so they are verified in their subset-sum cardinality forms, where every
q-power collapses into a ratio of projection cardinalities:

  W_H(t)      = sum_S (|H| / |H_S|) t^(n-|S|) (1-t)^|S|
  W_R(H)(z)   = sum_S (|Gamma|^(n-|S|) / |H_{E-S}|) (1-z)^|S| z^(n-|S|)

The polynomial of a subset depends only on |S|, so each sum first adds its
coefficients by |S|, scaled by the lcm L of the cardinalities so that every
one is an integer, and then composes n+1 terms: sum_s c_s x^(n-s) (1-z)^s,
with x = z here and x = 1 + (q-1)z for MacWilliams #1, is the vector-matrix
product c @ K for an integer matrix K built once per (n, q) by the Pascal
recurrence.  Greene compares L times the weight counts of H and of R(H)
with those products, and MacWilliams #1 compares |H| times the weight
counts of R(H) with the weight counts of H times K.

MacWilliams #2 and the abelian specialization compare exact integer vectors
indexed by content rank (codes.content_counts), not polynomials: the content
counts of cwe_H, of cwe_R(H) and of the classical dual, and the transform's
sums, which must be nonnegative multiples of |H| equal to |H| times the
dual's counts.  The transform is computed once per code; the abelian check
reads it relabelled through phi.  Polynomials are built only for the API and
for failure messages, with the same text and order as a polynomial comparison.

A floating spot-check at z in {0.3, 0.5, 0.7} ties these back to the raw
corank-nullity sum through tutte_evaluate; it is the only non-exact step and
is labelled as such in the reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

import numpy as np

from . import groups, zring
from .chartable import CharacterTable, character_table
from .codes import (
    DEFAULT_CODE_CAP,
    GroupCode,
    RankProfile,
    _distinct_rows,
    content_counts,
    content_poly,
    cwe_counts,
    rank_profile,
    tutte_evaluate,
    weight_counts,
)
from .duality import (
    DEFAULT_TUPLE_CAP,
    DualMultiset,
    _digits,
    _extension_sides,
    dual_multiset,
    dual_weight_counts,
)
from .errors import CapExceeded, DomainError, NotRational
from .polynomials import MultiPoly, UniPoly

SPOT_CHECK_POINTS = (0.3, 0.5, 0.7)
SPOT_CHECK_REL_TOL = 1e-9


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.passed = False
        self.details.append(message)

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


class CodeAnalysis:
    """The artifacts of one code that the checks read, each computed on
    first use and then shared: the rank profile, the weight counts of H, the
    coefficients of cwe_H at every content and its transform, R(H), the
    weight counts of R(H) and the coefficients of cwe_R(H).  W and Wd are
    the two weight enumerators as polynomials, built from the counts on each
    access.  tuple_cap bounds the irrep tuple space of R(H)."""

    def __init__(
        self, code: GroupCode, ct: CharacterTable | None = None, tuple_cap: int = DEFAULT_TUPLE_CAP
    ):
        self.code = code
        self.ct = ct or character_table(code.group)
        self.tuple_cap = tuple_cap

    @cached_property
    def rp(self) -> RankProfile:
        return rank_profile(self.code)

    @cached_property
    def w_counts(self) -> np.ndarray:
        return weight_counts(self.code)

    @property
    def W(self) -> UniPoly:
        return _poly(self.w_counts.tolist())

    @cached_property
    def cwe_counts(self) -> np.ndarray:
        return cwe_counts(self.code, self.ct.classes)

    @cached_property
    def cwe_transform(self) -> tuple[np.ndarray, np.ndarray]:
        self.dm  # R(H) first: its tuple cap is checked before the transform
        return _cwe_transform(self.cwe_counts, self.ct.embedded, self.code.n)

    @cached_property
    def dm(self) -> DualMultiset:
        return dual_multiset(self.code, self.ct, cap=self.tuple_cap)

    @cached_property
    def dual_cwe_counts(self) -> np.ndarray:
        return content_counts(self.dm.index, self.dm.k, self.dm.counts)

    @cached_property
    def wd_counts(self) -> np.ndarray:
        return dual_weight_counts(self.dm)

    @property
    def Wd(self) -> UniPoly:
        return _poly(self.wd_counts.tolist())


# -- Greene ---------------------------------------------------------------------


@lru_cache(maxsize=64)
def _binomial_matrix(n: int, a: int, b: int) -> np.ndarray:
    """(n+1, n+1) object array of Python ints: K[s, d] is the coefficient
    of z^d in (a + b*z)^(n-s) (1-z)^s, each factor applied by the Pascal
    recurrence."""
    rows = []
    for s in range(n + 1):
        row = [1] + [0] * n
        for c0, c1 in [(1, -1)] * s + [(a, b)] * (n - s):
            row = [c0 * row[0]] + [c0 * row[d] + c1 * row[d - 1] for d in range(1, n + 1)]
        rows.append(row)
    K = np.array(rows, dtype=object)
    K.setflags(write=False)
    return K


def _binomial_sum(c: list, a: int, b: int) -> list:
    """The coefficients of sum_s c[s] (a + b*z)^(n-s) (1-z)^s for the n+1
    exact numbers c, as c @ K."""
    return (np.array(c, dtype=object) @ _binomial_matrix(len(c) - 1, a, b)).tolist()


def _poly(values: list, divisor: int = 1) -> UniPoly:
    """The polynomial with coefficient values[d] / divisor at z^d."""
    return UniPoly({d: Fraction(v, divisor) for d, v in enumerate(values)})


def _evaluate(values: list[int], z: float) -> float:
    """The polynomial with integer coefficients values at the float z: the
    nonzero terms added in ascending degree from z * 0."""
    total = z * 0
    for d, c in enumerate(values):
        if c:
            total += float(c) * z**d
    return total


def _scaled_subset_sums(code: GroupCode, rp: RankProfile) -> tuple[int, list[int], list[int]]:
    """L, the lcm of the projection cardinalities, and L times the
    coefficients c of the primal and the dual Greene subset forms:
    c[s] = sum over |S| = s of |H| / card[S], and of
    |Gamma|^(n-s) / card[E-S].  Every L / card[S] is an integer, and their
    sums by |S| serve both forms, since E-S has n - |S| elements."""
    n, q = code.n, code.group.order
    L = lcm(*set(rp.card))
    by_size = [0] * (n + 1)
    for S, card in enumerate(rp.card):
        by_size[S.bit_count()] += L // card
    primal = [code.size * x for x in by_size]
    dual = [q ** (n - s) * by_size[n - s] for s in range(n + 1)]
    return L, primal, dual


def greene_subset_form_H(code: GroupCode, rp: RankProfile) -> UniPoly:
    """Simplified right-hand side of the primal Greene identity."""
    L, primal, _ = _scaled_subset_sums(code, rp)
    return _poly(_binomial_sum(primal, 0, 1), L)


def greene_subset_form_dual(code: GroupCode, rp: RankProfile) -> UniPoly:
    """Simplified right-hand side of the dual Greene identity: the
    complement of S indexes the reversed card list."""
    L, _, dual = _scaled_subset_sums(code, rp)
    return _poly(_binomial_sum(dual, 0, 1), L)


def _relative_close(a: float, b: float) -> bool:
    return abs(a - b) <= SPOT_CHECK_REL_TOL * max(abs(a), abs(b), 1.0)


def verify_greene(a: CodeAnalysis) -> CheckResult:
    """Exact subset-form check of both Greene identities, as L times the
    weight counts against the scaled subset sums composed with K, plus the
    floating Tutte spot-check at z in {0.3, 0.5, 0.7}."""
    code, rp = a.code, a.rp
    result = CheckResult("greene", True)
    L, sums, dual_sums = _scaled_subset_sums(code, rp)
    w = a.w_counts.tolist()
    rhs = _binomial_sum(sums, 0, 1)
    if [L * x for x in w] != rhs:
        difference = _poly([L * x - r for x, r in zip(w, rhs)], L).render("t")
        result.fail(f"primal subset form differs by {difference}")
    wd = a.wd_counts.tolist()
    rhs = _binomial_sum(dual_sums, 0, 1)
    if [L * x for x in wd] != rhs:
        difference = _poly([L * x - r for x, r in zip(wd, rhs)], L).render("z")
        result.fail(f"dual subset form differs by {difference}")

    q = code.group.order
    n = code.n
    r_full = rp.rank((1 << n) - 1)
    for z in SPOT_CHECK_POINTS:
        growth = (1.0 + (q - 1) * z) / (1.0 - z)
        primal = z ** (n - r_full) * (1.0 - z) ** r_full * tutte_evaluate(
            rp, growth, 1.0 / z
        )
        if not _relative_close(_evaluate(w, z), primal):
            result.fail(f"primal Tutte spot-check off at z={z}: {_evaluate(w, z)} vs {primal}")
        dual = (1.0 - z) ** (n - r_full) * z**r_full * tutte_evaluate(
            rp, 1.0 / z, growth
        )
        if not _relative_close(_evaluate(wd, z), dual):
            result.fail(f"dual Tutte spot-check off at z={z}: {_evaluate(wd, z)} vs {dual}")
    return result


# -- MacWilliams ------------------------------------------------------------------


def macwilliams1_rhs(code: GroupCode, W: UniPoly) -> UniPoly:
    """(1/|H|) sum_w A_w (1-z)^w (1+(q-1)z)^(n-w) for W = W_H, exactly."""
    c = [W[w] for w in range(code.n + 1)]
    return _poly(_binomial_sum(c, 1, code.group.order - 1), code.size)


def verify_macwilliams1(a: CodeAnalysis) -> CheckResult:
    """|H| times the weight counts of R(H) against the weight counts of H
    composed with K, as integers."""
    result = CheckResult("macwilliams1", True)
    size = a.code.size
    rhs = _binomial_sum(a.w_counts.tolist(), 1, a.code.group.order - 1)
    lhs = [size * x for x in a.wd_counts.tolist()]
    if lhs != rhs:
        difference = _poly([x - r for x, r in zip(lhs, rhs)], size).render("z")
        result.fail(f"transform differs from dual enumerator by {difference}")
    return result


def _cwe_transform(counts: np.ndarray, table: zring.Embedded, n: int) -> tuple:
    """The cwe with coefficient counts[i] at the content of rank i
    evaluated at v_c = sum_p T[p, c] x_p, for the (k, k, m) table T over
    Z[C_m] of table: |H| times the transform, as the exact integer
    coefficient at every content, and the mask of the contents where it is
    not rational (see _rational).  The contraction's keys are the sorted
    tuples of the nonzero contents; it is summed by content at every
    embedding before the rationality gate, because a single ordered entry
    need not be rational."""
    k = table.T.shape[0]
    nonzero = np.flatnonzero(counts)
    flat = zring.content_tuples(k, n)[nonzero] @ zring.radix(k, n)
    return zring.contract(flat, counts[nonzero], table, n, zring.content_bins(k, n))


def _rational(sums: np.ndarray, irrational: np.ndarray, k: int, n: int) -> np.ndarray:
    """sums, or NotRational at the first content that irrational marks."""
    bad = np.flatnonzero(irrational)
    if len(bad):
        e = tuple(zring.content_exponents(zring.content_tuples(k, n)[bad[:1]], k)[0].tolist())
        raise NotRational(f"transformed coefficient at {e} is not rational")
    return sums


def _content_difference(k: int, n: int, sums: np.ndarray, divisor: int, counts: np.ndarray):
    """The polynomial sums / divisor - counts, over the contents of (k,)*n,
    rendered; None when it is zero.  The numerators are exact ints, since
    divisor * counts can pass int64."""
    if not ((sums % divisor != 0) | (sums // divisor != counts)).any():
        return None
    difference = sums.astype(object) - divisor * counts.astype(object)
    return content_poly(k, n, difference, divisor).render("x")


def macwilliams2_transform(code: GroupCode, ct: CharacterTable) -> MultiPoly:
    """(1/|H|) cwe_H evaluated at v_j = sum_p chi_p(c_j) x_p, every
    coefficient reduced to an exact rational."""
    k, n = ct.k, code.n
    sums = _rational(*_cwe_transform(cwe_counts(code, ct.classes), ct.embedded, n), k, n)
    return content_poly(k, n, sums, code.size)


def verify_macwilliams2(a: CodeAnalysis) -> CheckResult:
    result = CheckResult("macwilliams2", True)
    k, n, size = a.ct.k, a.code.n, a.code.size
    sums = _rational(*a.cwe_transform, k, n)
    bad = np.flatnonzero((sums % size != 0) | (sums < 0))
    if len(bad):  # past TABLE_BLOCK the content tuples are rebuilt
        exponents = zring.content_exponents(zring.content_tuples(k, n)[bad], k)
        for e, c in zip(map(tuple, exponents.tolist()), sums[bad].tolist()):
            result.fail(
                f"transformed coefficient at {e} is {Fraction(c, size)}, not a nonnegative integer"
            )
    difference = _content_difference(k, n, sums, size, a.dual_cwe_counts)
    if difference is not None:
        result.fail(f"cwe transform differs from dual cwe by {difference}")
    return result


# -- extension lemma over all subsets ----------------------------------------------


def verify_extension_lemma(a: CodeAnalysis) -> CheckResult:
    """The extension lemma at every bitmask S, compared as integer arrays;
    only a failing S is formatted, with its right side as a Fraction."""
    result = CheckResult("extension_lemma", True)
    lhs, card, power = _extension_sides(a.rp, a.dm)
    for S in np.flatnonzero(lhs * card != power).tolist():
        rhs = Fraction(int(power[S]), int(card[S]))
        result.fail(f"subset {S:#x}: dimension sum {int(lhs[S])} != {rhs}")
    return result


# -- abelian specialization ---------------------------------------------------------


def classical_dual_code(
    code: GroupCode, eps: list[list[int]], cap: int = DEFAULT_CODE_CAP
) -> GroupCode:
    """{x : pairing(x, h) = 1 for all h in H}, by brute-force enumeration:
    a block of candidate words at a time, paired with ever larger slices of
    H by one gather each, keeping the candidates every word so far pairs
    trivially with."""
    G, n = code.group, code.n
    m = G.exponent
    total = G.order**n
    if total > cap:
        raise CapExceeded("classical dual enumeration", total, cap)
    E = np.array(eps, dtype=np.int64)
    H = code.word_array
    step = max(1, groups.TABLE_BLOCK // max(n, 1))
    found = []
    for lo in range(0, total, step):
        flat = np.arange(lo, min(lo + step, total))
        X = _digits(flat, (G.order,) * n, np.int64)
        done = 0
        while len(X) and done < code.size:
            h = H[done : done + max(1, step // len(X))]
            X = X[(E[X[:, None, :], h].sum(axis=-1) % m == 0).all(axis=1)]
            done += len(h)
        found.append(X)
    # the candidates ascend in lex order, so the dual's words are already
    # distinct and sorted
    return GroupCode(G, n, np.concatenate(found))


def verify_abelian_specialization(a: CodeAnalysis) -> CheckResult:
    """For abelian Gamma: the dual multiset is 0/1-valued, its image under
    the pinned character-group isomorphism phi is the classical pairing
    dual, and the classical MacWilliams transform reproduces both cwes.

    That transform, at v_y = sum_g beta(g, y) x_g, is MacWilliams #2's with
    its contents relabelled through phi = irrep_to_element.  _abelian_pairing
    checks that row i has the reduced coefficients of beta(phi(i), .), so
    the same images at every embedding; the certified table has distinct
    rows, so phi is a bijection.  So at every embedding the coefficient at
    the element content E is #2's at the irrep content phi^-1(E), for the
    sums and the rationality mask alike."""
    code, ct = a.code, a.ct
    G = code.group
    if ct.k != G.order:
        raise DomainError("abelian specialization needs an abelian group")
    result = CheckResult("abelian_specialization", True)
    ab = ct.abelian_pairing
    eps, irrep_to_element = ab.eps, ab.irrep_to_element

    dm = a.dm
    if (dm.counts > 1).any():
        result.fail("dual multiset is not 0/1-valued over an abelian group")

    dual = classical_dual_code(code, eps)
    image = irrep_to_element[dm.index]
    rows = _distinct_rows(image)[0]
    if not np.array_equal(rows, dual.word_array):
        # tag 1: image only, 2: dual only, 3: both
        words, tag = _distinct_rows(
            np.concatenate([rows, dual.word_array]), np.repeat([1, 2], [len(rows), dual.size])
        )
        missing = list(map(tuple, words[tag == 2][:5].tolist()))
        extra = list(map(tuple, words[tag == 1][:5].tolist()))
        result.fail(f"phi-image mismatch; missing={missing} extra={extra}")

    # classical MacWilliams #2: #2's coefficients, at phi^-1 of every content
    k, n = ct.k, code.n
    back = _relabelling(irrep_to_element, n)
    cwe_dual = cwe_counts(dual, ct.classes)
    sums, irrational = a.cwe_transform
    transformed = _rational(sums[back], irrational[back], k, n)
    difference = _content_difference(k, n, transformed, code.size, cwe_dual)
    if difference is not None:
        result.fail(f"classical cwe transform differs from the brute-force dual by {difference}")

    # and the representation-route cwe agrees after relabeling through phi
    difference = _content_difference(k, n, a.dual_cwe_counts[back], 1, cwe_dual)
    if difference is not None:
        result.fail(f"relabeled dual cwe differs from the classical dual cwe by {difference}")
    return result


def _relabelling(phi: np.ndarray, n: int) -> np.ndarray:
    """The permutation of the contents of (k,)*n, k = len(phi), whose entry
    at the rank of every content E is the rank of phi^-1(E): kept per
    (phi, n) when there are at most TABLE_BLOCK contents."""
    small = zring.n_contents(len(phi), n) <= groups.TABLE_BLOCK
    return (_small_relabelling if small else _content_relabelling)(tuple(phi.tolist()), n)


def _content_relabelling(phi: tuple[int, ...], n: int) -> np.ndarray:
    k = len(phi)
    back = np.argsort(zring.content_ranks(np.array(phi)[zring.content_tuples(k, n)], k))
    back.setflags(write=False)
    return back


_small_relabelling = lru_cache(maxsize=64)(_content_relabelling)


# -- identity suite over a code ------------------------------------------------------


CHECKS = {
    "greene": verify_greene,
    "mw1": verify_macwilliams1,
    "mw2": verify_macwilliams2,
    "extension": verify_extension_lemma,
    "abelian": verify_abelian_specialization,
}


def verify_all(code: GroupCode, ct: CharacterTable | None = None) -> list[CheckResult]:
    """Every check of CHECKS in order; the abelian specialization only when
    Gamma is abelian."""
    a = CodeAnalysis(code, ct)
    abelian = a.ct.k == code.group.order
    return [check(a) for name, check in CHECKS.items() if abelian or name != "abelian"]
