"""The Greene and MacWilliams #1 checks as they ran on polynomials, kept as
the differential reference for the checks on integer count vectors: W_H and
W_R(H) as UniPoly, the subset sums by |S| as Python ints or Fractions, each
composed by the Pascal matrix into a UniPoly, and the identities compared
as polynomials.  An analysis here is any object with the attributes code,
rp, W and Wd."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from repdual.codes import GroupCode, RankProfile, tutte_evaluate
from repdual.identities import SPOT_CHECK_POINTS, CheckResult, _relative_close
from repdual.polynomials import UniPoly

from reference_polynomials import plain_sum, scale, value


def _binomial_matrix(n: int, a: int, b: int) -> np.ndarray:
    """K[s, d]: the coefficient of z^d in (a + b*z)^(n-s) (1-z)^s."""
    rows = []
    for s in range(n + 1):
        row = [1] + [0] * n
        for c0, c1 in [(1, -1)] * s + [(a, b)] * (n - s):
            row = [c0 * row[0]] + [c0 * row[d] + c1 * row[d - 1] for d in range(1, n + 1)]
        rows.append(row)
    return np.array(rows, dtype=object)


def _binomial_sum(c: list, a: int, b: int) -> UniPoly:
    out = np.array(c, dtype=object) @ _binomial_matrix(len(c) - 1, a, b)
    return UniPoly(dict(enumerate(out.tolist())))


def _sums_by_size(numerators: list[int], cards) -> list:
    c = [0] * len(numerators)
    for S, card in enumerate(cards):
        s = S.bit_count()
        q, r = divmod(numerators[s], card)
        c[s] += Fraction(numerators[s], card) if r else q
    return c


def _difference(a: UniPoly, b: UniPoly) -> UniPoly:
    return UniPoly(plain_sum(a.coeffs, scale(b.coeffs, -1)))


def greene_subset_form_H(code: GroupCode, rp: RankProfile) -> UniPoly:
    c = _sums_by_size([code.size] * (code.n + 1), rp.card)
    return _binomial_sum(c, 0, 1)


def greene_subset_form_dual(code: GroupCode, rp: RankProfile) -> UniPoly:
    n, q = code.n, code.group.order
    c = _sums_by_size([q ** (n - s) for s in range(n + 1)], rp.card[::-1])
    return _binomial_sum(c, 0, 1)


def verify_greene(a) -> CheckResult:
    code, rp, W = a.code, a.rp, a.W
    result = CheckResult("greene", True)
    rhs = greene_subset_form_H(code, rp)
    if W != rhs:
        result.fail(f"primal subset form differs by {_difference(W, rhs).render('t')}")
    Wd = a.Wd
    rhs_d = greene_subset_form_dual(code, rp)
    if Wd != rhs_d:
        result.fail(f"dual subset form differs by {_difference(Wd, rhs_d).render('z')}")

    q = code.group.order
    n = code.n
    r_full = rp.rank((1 << n) - 1)
    for z in SPOT_CHECK_POINTS:
        growth = (1.0 + (q - 1) * z) / (1.0 - z)
        primal = z ** (n - r_full) * (1.0 - z) ** r_full * tutte_evaluate(
            rp, growth, 1.0 / z
        )
        if not _relative_close(value(W.coeffs, z), primal):
            result.fail(f"primal Tutte spot-check off at z={z}: {value(W.coeffs, z)} vs {primal}")
        dual = (1.0 - z) ** (n - r_full) * z**r_full * tutte_evaluate(
            rp, 1.0 / z, growth
        )
        if not _relative_close(value(Wd.coeffs, z), dual):
            result.fail(f"dual Tutte spot-check off at z={z}: {value(Wd.coeffs, z)} vs {dual}")
    return result


def macwilliams1_rhs(code: GroupCode, W: UniPoly) -> UniPoly:
    out = _binomial_sum([W[w] for w in range(code.n + 1)], 1, code.group.order - 1)
    return UniPoly({d: c / code.size for d, c in out.coeffs.items()})


def verify_macwilliams1(a) -> CheckResult:
    result = CheckResult("macwilliams1", True)
    rhs = macwilliams1_rhs(a.code, a.W)
    if a.Wd != rhs:
        difference = _difference(a.Wd, rhs).render("z")
        result.fail(f"transform differs from dual enumerator by {difference}")
    return result
