"""Cyclotomic numbers as values: the entries of a character table.

An element of Q(zeta_m) is stored as a rational coefficient vector of length
phi(m) in the power basis of Q[x]/(Phi_m(x)), where Phi_m is the m-th
cyclotomic polynomial.  Working modulo Phi_m (rather than x^m - 1) makes the
representation canonical: two elements are equal iff their conductors agree
after promotion and their coefficient vectors match entrywise.  All
coefficients are fractions.Fraction, so nothing here ever rounds.

Cyclotomic is the value type of ct.values: it compares, prints, round-trips
through JSON and yields its rational value, but has no arithmetic.  Every
computation with character values runs on integer arrays over Z[C_m] (see
zring), reduced by the power basis x^t mod Phi_m built here.

Polynomials over the integers appear only as plumbing (dense tuples of ints,
constant term first).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import NotRational
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


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def render_coefficients(m: int, coeffs) -> str:
    """Text of sum_i coeffs[i] zeta_m^i, highest power first, such as
    "-z8^3 + 2*z8"; str(Cyclotomic) and the chartable text both use it."""
    var = f"z{m}"
    terms = reversed(list(enumerate(coeffs)))
    return _render_terms((c, _power(var, i)) for i, c in terms if c)


class Cyclotomic:
    """An element of Q(zeta_m), canonically reduced modulo Phi_m: a value
    with no arithmetic (that runs on zring arrays)."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        """coeffs may have any length; they are reduced modulo Phi_m here."""
        d = euler_phi(conductor)
        vec = [Fraction(0)] * d
        basis = None
        for i, c in enumerate(coeffs):
            c = _as_fraction(c)
            if not c:
                continue
            if i < d:
                vec[i] += c
            else:
                if basis is None:
                    basis = _power_basis(conductor)
                row = basis[i % conductor]
                for j, b in enumerate(row):
                    if b:
                        vec[j] += c * b
        self.conductor = conductor
        self.coeffs = tuple(vec)

    @classmethod
    def _raw(cls, conductor: int, reduced) -> "Cyclotomic":
        """Wrap an already-reduced coefficient vector without re-reduction."""
        self = object.__new__(cls)
        self.conductor = conductor
        self.coeffs = tuple(_as_fraction(c) for c in reduced)
        return self

    def promote(self, conductor: int) -> "Cyclotomic":
        """Re-express in Q(zeta_M) for a multiple M of the conductor, via
        zeta_m = zeta_M^(M/m)."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor:
            raise ValueError("can only promote to a multiple of the conductor")
        step = conductor // self.conductor
        out = [Fraction(0)] * conductor
        for i, c in enumerate(self.coeffs):
            if c:
                out[i * step] = c
        return type(self)(conductor, out)

    def __eq__(self, other):
        """Equal values, across conductors (both promoted to their lcm) and
        with ints and Fractions (a constant coefficient)."""
        if isinstance(other, (int, Fraction)):
            return self.coeffs == (other,) + (0,) * (len(self.coeffs) - 1)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        m = lcm(self.conductor, other.conductor)
        return self.promote(m).coeffs == other.promote(m).coeffs

    __hash__ = None  # value identity spans conductors; not intended as a key

    # -- extraction ----------------------------------------------------------

    def try_rational(self) -> Fraction | None:
        """The rational value, or None when any non-constant coefficient
        survives reduction."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def as_rational(self) -> Fraction:
        value = self.try_rational()
        if value is None:
            raise NotRational(f"{self} is not rational")
        return value

    # -- display / serialization ---------------------------------------------

    def __repr__(self):
        return f"Cyclotomic({self.conductor}, {self!s})"

    def __str__(self):
        return render_coefficients(self.conductor, self.coeffs)

    def to_json(self) -> dict:
        return {"conductor": self.conductor, "coeffs": [str(c) for c in self.coeffs]}

    @staticmethod
    def from_json(obj: dict) -> "Cyclotomic":
        return Cyclotomic(obj["conductor"], [Fraction(c) for c in obj["coeffs"]])

