"""Exact verification of Greene's theorem and both MacWilliams identities.

Every identity is checked as a coefficientwise equality of polynomials over
Q.  The Tutte-form statements have irrational real exponents, so they are
verified in their subset-sum cardinality forms, where every q-power collapses
into a ratio of projection cardinalities:

  W_H(t)      = sum_S (|H| / |H_S|) t^(n-|S|) (1-t)^|S|
  W_R(H)(z)   = sum_S (|Gamma|^(n-|S|) / |H_{E-S}|) (1-z)^|S| z^(n-|S|)

The polynomial of a subset depends only on |S|, so each sum first adds its
exact coefficients by |S| and then composes n+1 terms; MacWilliams #1 has
the same binomial shape.

A floating spot-check at z in {0.3, 0.5, 0.7} ties these back to the raw
corank-nullity sum through tutte_evaluate; it is the only non-exact step and
is labelled as such in the reports.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Mapping

import numpy as np

from . import zring
from .chartable import CharacterTable, character_table
from .codes import (
    DEFAULT_CODE_CAP,
    GroupCode,
    RankProfile,
    code_from_words,
    complete_weight_enumerator,
    rank_profile,
    tutte_evaluate,
    weight_enumerator,
)
from .cyclotomic import Cyclotomic
from .duality import (
    DEFAULT_TUPLE_CAP,
    DualMultiset,
    dual_cwe,
    dual_multiset,
    dual_weight_enumerator,
    extension_lemma_checks,
)
from .errors import CapExceeded, DomainError, NonIntegerMultiplicity, NotRational
from .groups import FiniteGroup
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
    first use and then shared: the rank profile, W_H, cwe_H, R(H) and
    W_R(H).
    tuple_cap bounds the irrep tuple space of R(H)."""

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
    def W(self) -> UniPoly:
        return weight_enumerator(self.code)

    @cached_property
    def cwe(self) -> MultiPoly:
        return complete_weight_enumerator(self.code, self.ct.classes)

    @cached_property
    def dm(self) -> DualMultiset:
        return dual_multiset(self.code, self.ct, cap=self.tuple_cap)

    @cached_property
    def Wd(self) -> UniPoly:
        return dual_weight_enumerator(self.dm)


# -- Greene ---------------------------------------------------------------------


def _binomial_sum(c: Mapping[int, Fraction], n: int, x: UniPoly) -> UniPoly:
    """sum_s c[s] x^(n-s) (1-z)^s: one term per distinct s."""
    one_minus_z = UniPoly.one() - UniPoly.monomial(1)
    out = UniPoly.zero()
    for s, coeff in c.items():
        out = out + coeff * (x ** (n - s) * one_minus_z**s)
    return out


def greene_subset_form_H(code: GroupCode, rp: RankProfile) -> UniPoly:
    """Simplified right-hand side of the primal Greene identity."""
    by_size = defaultdict(Fraction)
    for S in range(1 << code.n):
        by_size[S.bit_count()] += Fraction(code.size, rp.card[S])
    return _binomial_sum(by_size, code.n, UniPoly.monomial(1))


def greene_subset_form_dual(code: GroupCode, rp: RankProfile) -> UniPoly:
    """Simplified right-hand side of the dual Greene identity."""
    n = code.n
    q = code.group.order
    full = (1 << n) - 1
    by_size = defaultdict(Fraction)
    for S in range(1 << n):
        s = S.bit_count()
        by_size[s] += Fraction(q ** (n - s), rp.card[full & ~S])
    return _binomial_sum(by_size, n, UniPoly.monomial(1))


def _relative_close(a: float, b: float) -> bool:
    return abs(a - b) <= SPOT_CHECK_REL_TOL * max(abs(a), abs(b), 1.0)


def verify_greene(a: CodeAnalysis) -> CheckResult:
    """Exact subset-form check of both Greene identities, plus the floating
    Tutte spot-check at z in {0.3, 0.5, 0.7}."""
    code, rp, W = a.code, a.rp, a.W
    result = CheckResult("greene", True)
    rhs = greene_subset_form_H(code, rp)
    if W != rhs:
        result.fail(f"primal subset form differs by {(W - rhs).render('t')}")
    Wd = a.Wd
    rhs_d = greene_subset_form_dual(code, rp)
    if Wd != rhs_d:
        result.fail(f"dual subset form differs by {(Wd - rhs_d).render('z')}")

    q = code.group.order
    n = code.n
    r_full = rp.rank((1 << n) - 1)
    for z in SPOT_CHECK_POINTS:
        growth = (1.0 + (q - 1) * z) / (1.0 - z)
        primal = z ** (n - r_full) * (1.0 - z) ** r_full * tutte_evaluate(
            rp, growth, 1.0 / z
        )
        if not _relative_close(W.evaluate(z), primal):
            result.fail(f"primal Tutte spot-check off at z={z}: {W.evaluate(z)} vs {primal}")
        dual = (1.0 - z) ** (n - r_full) * z**r_full * tutte_evaluate(
            rp, 1.0 / z, growth
        )
        if not _relative_close(Wd.evaluate(z), dual):
            result.fail(f"dual Tutte spot-check off at z={z}: {Wd.evaluate(z)} vs {dual}")
    return result


# -- MacWilliams ------------------------------------------------------------------


def macwilliams1_rhs(code: GroupCode, W: UniPoly) -> UniPoly:
    """(1/|H|) sum_w A_w (1-z)^w (1+(q-1)z)^(n-w) for W = W_H, exactly."""
    growth = UniPoly.one() + (code.group.order - 1) * UniPoly.monomial(1)
    return Fraction(1, code.size) * _binomial_sum(W.coeffs, code.n, growth)


def verify_macwilliams1(a: CodeAnalysis) -> CheckResult:
    result = CheckResult("macwilliams1", True)
    rhs = macwilliams1_rhs(a.code, a.W)
    lhs = a.Wd
    if lhs != rhs:
        result.fail(f"transform differs from dual enumerator by {(lhs - rhs).render('z')}")
    return result


def _cwe_transform(cwe: MultiPoly, T: np.ndarray, size: int) -> MultiPoly:
    """(1/size) cwe evaluated at v_c = sum_p T[p, c] x_p, for a (k, k, m)
    table T over Z[C_m].  Each exponent vector of the cwe sits at its sorted
    class pattern; the contraction is summed by exponent content in Z[C_m]
    before the one reduction mod Phi_m, because a single ordered entry need
    not be rational."""
    k = cwe.nvars
    n = sum(next(iter(cwe.terms)))
    counts = {
        tuple(c for c in range(k) for _ in range(e[c])): int(coeff)
        for e, coeff in cwe.terms.items()
    }
    contents, sums = zring.sum_by_content(zring.contract(counts, T, n), n)
    terms = {}
    for e, coeffs in zip(contents, zring.reduce(sums).tolist()):
        if any(coeffs[1:]):
            raise NotRational(f"transformed coefficient at {e} is not rational")
        terms[e] = Fraction(coeffs[0], size)
    return MultiPoly(k, terms)


def macwilliams2_transform(code: GroupCode, ct: CharacterTable) -> MultiPoly:
    """(1/|H|) cwe_H evaluated at v_j = sum_p chi_p(c_j) x_p, every
    coefficient reduced to an exact rational."""
    cwe = complete_weight_enumerator(code, ct.classes)
    return _cwe_transform(cwe, ct.zvalues, code.size)


def verify_macwilliams2(a: CodeAnalysis) -> CheckResult:
    result = CheckResult("macwilliams2", True)
    # R(H) first: its tuple cap is checked before the transform runs
    expected = dual_cwe(a.dm)
    transformed = _cwe_transform(a.cwe, a.ct.zvalues, a.code.size)
    for e, c in transformed.terms.items():
        if Fraction(c).denominator != 1 or c < 0:
            result.fail(f"transformed coefficient at {e} is {c}, not a nonnegative integer")
    if transformed != expected:
        result.fail(
            f"cwe transform differs from dual cwe by {(transformed - expected).render('x')}"
        )
    return result


# -- extension lemma over all subsets ----------------------------------------------


def verify_extension_lemma(a: CodeAnalysis) -> CheckResult:
    result = CheckResult("extension_lemma", True)
    for res in extension_lemma_checks(a.rp, a.dm):
        if not res.passed:
            result.fail(f"subset {res.S:#x}: dimension sum {res.lhs} != {res.rhs}")
    return result


# -- abelian specialization ---------------------------------------------------------


def abelian_basis(G: FiniteGroup) -> tuple[list[int], list[int]]:
    """Cyclic basis (elements, orders) with every element uniquely a product
    of basis powers.  Greedy maximal quotient order with a lift fix-up; the
    classical basis theorem guarantees each step succeeds."""
    if not G.is_abelian():
        raise DomainError("abelian_basis needs an abelian group")
    basis: list[int] = []
    orders: list[int] = []
    span = {0}
    while len(span) < G.order:
        best_g, best_t = None, 0
        for g in range(G.order):
            if g in span:
                continue
            t, x = 1, g
            while x not in span:
                x = G.mul(x, g)
                t += 1
            if t > best_t:
                best_g, best_t = g, t
        g, t = best_g, best_t
        if G.power(g, t) != 0:
            target = G.inv(G.power(g, t))
            fix = next((s for s in sorted(span) if G.power(s, t) == target), None)
            if fix is None:
                raise NonIntegerMultiplicity("abelian basis lift failed")
            g = G.mul(g, fix)
        basis.append(g)
        orders.append(t)
        span = {G.mul(s, G.power(g, j)) for s in span for j in range(t)}
    return basis, orders


def abelian_pairing_exponents(G: FiniteGroup) -> list[list[int]]:
    """eps[x][y] with pairing beta(x, y) = zeta_m^eps[x][y], m = exponent(G),
    for the pinned basis decomposition.  Symmetric and nondegenerate."""
    basis, orders = abelian_basis(G)
    m = G.exponent
    coords: dict[int, tuple[int, ...]] = {}
    for mix in product(*(range(t) for t in orders)):
        x = 0
        for b, a in zip(basis, mix):
            x = G.mul(x, G.power(b, a))
        if x in coords:
            raise NonIntegerMultiplicity("abelian basis is not a direct decomposition")
        coords[x] = mix
    eps = [[0] * G.order for _ in range(G.order)]
    for x in range(G.order):
        for y in range(G.order):
            total = 0
            for a, b, t in zip(coords[x], coords[y], orders):
                total += a * b * (m // t)
            eps[x][y] = total % m
    return eps


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
    return code_from_words(G, code.n, dual_words, validate=False)


def verify_abelian_specialization(a: CodeAnalysis) -> CheckResult:
    """For abelian Gamma: the dual multiset is 0/1-valued, its image under
    the pinned character-group isomorphism is the classical pairing dual,
    and the elementwise MacWilliams transform reproduces both cwes."""
    code, ct = a.code, a.ct
    G = code.group
    if ct.k != G.order:
        raise DomainError("abelian specialization needs an abelian group")
    result = CheckResult("abelian_specialization", True)
    eps = abelian_pairing_exponents(G)
    m = G.exponent

    # irrep index -> group element with chi_irrep = beta(element, .)
    # (classes of an abelian group are singletons in element order)
    pairing_rows = {
        g: tuple(Cyclotomic.zeta(m, eps[g][j]) for j in range(G.order))
        for g in range(G.order)
    }
    irrep_to_element: dict[int, int] = {}
    for i in range(ct.k):
        row = tuple(ct.values[i])
        matches = [g for g, prow in pairing_rows.items() if prow == row]
        if len(matches) != 1:
            raise NonIntegerMultiplicity(
                f"character row {i} matches {len(matches)} pairing characters"
            )
        irrep_to_element[i] = matches[0]

    dm = a.dm
    if any(mult > 1 for mult in dm.mult.values()):
        result.fail("dual multiset is not 0/1-valued over an abelian group")

    dual = classical_dual_code(code, eps)
    mapped = {tuple(irrep_to_element[j] for j in tup) for tup in dm.mult}
    if mapped != dual.word_set:
        missing = sorted(dual.word_set - mapped)[:5]
        extra = sorted(mapped - dual.word_set)[:5]
        result.fail(f"phi-image mismatch; missing={missing} extra={extra}")

    # classical MacWilliams #2 with the element-indexed pairing matrix
    cwe_dual = complete_weight_enumerator(dual, ct.classes)
    # pairing[g, j] = zeta_m^eps[g][j], one-hot over Z[C_m]
    pairing = np.zeros((G.order, G.order, m), dtype=np.int64)
    pairing[(*np.indices((G.order, G.order)), np.array(eps))] = 1
    transformed = _cwe_transform(a.cwe, pairing, code.size)
    if transformed != cwe_dual:
        result.fail(
            "classical cwe transform differs from the brute-force dual by "
            + (transformed - cwe_dual).render("x")
        )

    # and the representation-route cwe agrees after relabeling through phi
    relabeled_terms = {}
    for tup, mult in dm.mult.items():
        e = [0] * G.order
        for j in tup:
            e[irrep_to_element[j]] += 1
        key = tuple(e)
        relabeled_terms[key] = relabeled_terms.get(key, Fraction(0)) + mult
    relabeled = MultiPoly(G.order, relabeled_terms)
    if relabeled != cwe_dual:
        result.fail(
            "relabeled dual cwe differs from the classical dual cwe by "
            + (relabeled - cwe_dual).render("x")
        )
    return result


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
