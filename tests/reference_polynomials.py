"""Plain-dict arithmetic on sparse polynomials, for tests that need a sum,
product or power of enumerators.  A polynomial here is a dict from
exponent key to nonzero coefficient: an int degree for one variable, a
tuple of exponents for several.  The package's UniPoly and MultiPoly carry
no arithmetic; a test builds its expected terms here and compares them
with .coeffs or .terms, or wraps them in a UniPoly or MultiPoly."""

from __future__ import annotations

from fractions import Fraction
from itertools import product


def nonzero(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c}


def _add_keys(e1, e2):
    """The key of the product of two monomials."""
    return e1 + e2 if isinstance(e1, int) else tuple(x + y for x, y in zip(e1, e2))


def plain_sum(*polys: dict) -> dict:
    out: dict = {}
    for a in polys:
        for e, c in a.items():
            out[e] = out.get(e, 0) + c
    return nonzero(out)


def scale(a: dict, s) -> dict:
    return nonzero({e: c * s for e, c in a.items()})


def plain_product(a: dict, b: dict) -> dict:
    out: dict = {}
    for (e1, c1), (e2, c2) in product(a.items(), b.items()):
        e = _add_keys(e1, e2)
        out[e] = out.get(e, 0) + c1 * c2
    return nonzero(out)


def power(a: dict, e: int, unit=0) -> dict:
    """a^e; unit is the key of the constant, (0,) * k for k variables."""
    out = {unit: 1}
    for _ in range(e):
        out = plain_product(out, a)
    return out


def substitute(terms: dict, images) -> dict:
    """A multivariate polynomial at x_i = c_i z^d_i, images[i] = (c_i, d_i),
    as a univariate one."""
    out: dict = {}
    for exps, c in terms.items():
        monomial = {0: Fraction(c)}
        for (ci, di), e in zip(images, exps):
            monomial = plain_product(monomial, power({di: Fraction(ci)}, e))
        out = plain_sum(out, monomial)
    return out


def value(coeffs: dict, z: float) -> float:
    """A univariate polynomial at the float z: its terms in dict order,
    added from z * 0."""
    total = z * 0
    for d, c in coeffs.items():
        total += float(c) * z**d
    return total
