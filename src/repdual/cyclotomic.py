"""Exact arithmetic in cyclotomic fields Q(zeta_m).

An element is stored as a rational coefficient vector of length phi(m) in the
power basis of Q[x]/(Phi_m(x)), where Phi_m is the m-th cyclotomic polynomial.
Working modulo Phi_m (rather than x^m - 1) makes the representation canonical:
two elements are equal iff their conductors agree after promotion and their
coefficient vectors match entrywise.  All coefficients are fractions.Fraction,
so nothing here ever rounds.

Polynomials over the integers appear only as plumbing (dense tuples of ints,
constant term first).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
import cmath

from .errors import NotCoprime, NotRational
from .polynomials import _power, _render_terms

IntPoly = tuple[int, ...]


def euler_phi(m: int) -> int:
    if m < 1:
        raise ValueError("phi is defined for positive integers")
    result = m
    p, rest = 2, m
    while p * p <= rest:
        if rest % p == 0:
            result -= result // p
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        result -= result // rest
    return result


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
    length phi(m).  Row m-1 is enough for Galois maps; multiplication needs
    only rows below 2*phi(m)-1."""
    d = euler_phi(m)
    phi = cyclotomic_polynomial(m)
    rows: list[tuple[int, ...]] = []
    cur = [0] * d
    cur[0] = 1
    rows.append(tuple(cur))
    for _ in range(1, max(m, 2 * d - 1)):
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
    """An element of Q(zeta_m), canonically reduced modulo Phi_m."""

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
                row = basis[i % conductor if i >= conductor else i]
                for j, b in enumerate(row):
                    if b:
                        vec[j] += c * b
        self.conductor = conductor
        self.coeffs = tuple(vec)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeta(m: int, power: int = 1) -> "Cyclotomic":
        """zeta_m^power."""
        power %= m
        d = euler_phi(m)
        if power < d:
            coeffs = [0] * (power + 1)
            coeffs[power] = 1
            return Cyclotomic(m, coeffs)
        return Cyclotomic._raw(m, _power_basis(m)[power])

    @staticmethod
    def from_rational(value, conductor: int = 1) -> "Cyclotomic":
        return Cyclotomic(conductor, [_as_fraction(value)])

    @classmethod
    def _raw(cls, conductor: int, reduced) -> "Cyclotomic":
        """Wrap an already-reduced coefficient vector without re-reduction."""
        self = object.__new__(cls)
        self.conductor = conductor
        self.coeffs = tuple(_as_fraction(c) for c in reduced)
        return self

    # -- conductor handling --------------------------------------------------

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
        return Cyclotomic(conductor, out)

    @staticmethod
    def _common(a: "Cyclotomic", b: "Cyclotomic"):
        if a.conductor == b.conductor:
            return a, b
        m = lcm(a.conductor, b.conductor)
        return a.promote(m), b.promote(m)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return self
            vec = list(self.coeffs)
            vec[0] += other
            return Cyclotomic._raw(self.conductor, vec)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = Cyclotomic._common(self, other)
        return Cyclotomic._raw(a.conductor, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._raw(self.conductor, [-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self + (-other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Cyclotomic._raw(self.conductor, [Fraction(0)] * len(self.coeffs))
            return Cyclotomic._raw(self.conductor, [c * other for c in self.coeffs])
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = Cyclotomic._common(self, other)
        d = len(a.coeffs)
        conv = [Fraction(0)] * (2 * d - 1)
        for i, x in enumerate(a.coeffs):
            if not x:
                continue
            for j, y in enumerate(b.coeffs):
                if y:
                    conv[i + j] += x * y
        vec = list(conv[:d])
        basis = _power_basis(a.conductor)
        for t in range(d, 2 * d - 1):
            c = conv[t]
            if c:
                for j, bcoef in enumerate(basis[t]):
                    if bcoef:
                        vec[j] += c * bcoef
        return Cyclotomic._raw(a.conductor, vec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(1) / _as_fraction(other)
            return self * q
        return NotImplemented

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative powers not supported")
        result = Cyclotomic.from_rational(1, self.conductor)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base if exponent > 1 else base
            exponent >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other, self.conductor)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = Cyclotomic._common(self, other)
        return a.coeffs == b.coeffs

    __hash__ = None  # value identity spans conductors; not intended as a key

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    # -- Galois action -------------------------------------------------------

    def galois(self, e: int) -> "Cyclotomic":
        """Apply zeta -> zeta^e (requires gcd(e, m) = 1).  With e = m-1 this
        is complex conjugation."""
        m = self.conductor
        e %= m
        if gcd(e, m) != 1 and m > 1:
            raise NotCoprime(f"exponent {e} not coprime to conductor {m}")
        if m <= 2 or e == 1:
            return self
        basis = _power_basis(m)
        vec = [Fraction(0)] * len(self.coeffs)
        for i, c in enumerate(self.coeffs):
            if c:
                for j, b in enumerate(basis[(i * e) % m]):
                    if b:
                        vec[j] += c * b
        return Cyclotomic._raw(m, vec)

    def conjugate(self) -> "Cyclotomic":
        return self.galois(self.conductor - 1) if self.conductor > 2 else self

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

    def complex_approx(self) -> complex:
        """Floating shadow: evaluate the coefficient vector at e^(2*pi*i/m)."""
        z = cmath.exp(2j * cmath.pi / self.conductor)
        total = 0j
        for i, c in enumerate(self.coeffs):
            if c:
                total += float(c) * z**i
        return total

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

