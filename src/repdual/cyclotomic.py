"""Cyclotomic plumbing for the character values: Phi_m, phi(m), the power
basis x^t mod Phi_m and the text of a coefficient vector.

A character value in Q(zeta_m) is stored as its integer coefficient vector
of length phi(m) in the power basis of Z[x]/(Phi_m(x)), where Phi_m is the
m-th cyclotomic polynomial.  Working modulo Phi_m (rather than x^m - 1)
makes the representation canonical: two values of one conductor are equal
iff their coefficient vectors are.  Every computation with character values
runs on integer arrays over Z[C_m] (see zring), reduced by the power basis
built here; a table's values are those arrays (CharacterTable.zvalues), and
render_coefficients writes one value as text.

Polynomials over the integers appear only as plumbing (dense tuples of ints,
constant term first).
"""

from __future__ import annotations

from functools import lru_cache

from .polynomials import _power, _render_terms

IntPoly = tuple[int, ...]


def prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, ascending, by trial division."""
    factors = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            factors.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        factors.append(n)
    return factors


def euler_phi(m: int) -> int:
    if m < 1:
        raise ValueError("phi is defined for positive integers")
    for q in prime_factors(m):
        m -= m // q
    return m


def _poly_divmod_exact(num: list[int], den: IntPoly) -> list[int]:
    """Exact quotient of integer polynomials (remainder must vanish)."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c, r = divmod(num[i + len(den) - 1], den[-1])
        if r:
            raise ArithmeticError("non-exact polynomial division")
        q[i] = c
        for j, d in enumerate(den):
            num[i + j] -= c * d
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> IntPoly:
    """Phi_m as a dense integer tuple, computed by the exact division
    Phi_m = (x^m - 1) / prod_{d|m, d<m} Phi_d.  Monic, degree phi(m)."""
    if m < 1:
        raise ValueError("conductor must be positive")
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    for d in range(1, m):
        if m % d == 0:
            num = _poly_divmod_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


@lru_cache(maxsize=None)
def _power_basis(m: int) -> tuple[tuple[int, ...], ...]:
    """x^t mod Phi_m for t = 0..m-1; each row is an integer vector of
    length phi(m)."""
    d = euler_phi(m)
    phi = cyclotomic_polynomial(m)
    rows: list[tuple[int, ...]] = []
    cur = [0] * d
    cur[0] = 1
    rows.append(tuple(cur))
    for _ in range(1, m):
        lead = cur[d - 1]
        nxt = [0] + cur[:-1]
        if lead:
            # x^d = -(c_0 + c_1 x + ... + c_{d-1} x^{d-1})
            for i in range(d):
                nxt[i] -= lead * phi[i]
        cur = nxt
        rows.append(tuple(cur))
    return tuple(rows)


def render_coefficients(m: int, coeffs) -> str:
    """Text of sum_i coeffs[i] zeta_m^i, highest power first, such as
    "-z8^3 + 2*z8"; the chartable text writes every value with it."""
    var = f"z{m}"
    terms = reversed(list(enumerate(coeffs)))
    return _render_terms((c, _power(var, i)) for i, c in terms if c)
