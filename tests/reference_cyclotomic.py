"""Cyclotomic numbers with the field arithmetic of Q(zeta_m), kept as the
independent reference for the integer kernels over Z[C_m] (zring): sums,
products, powers, Galois maps, complex conjugation and the floating
shadow, one Fraction coefficient at a time.

An element of Q(zeta_m) is stored as a rational coefficient vector of
length phi(m) in the power basis of Q[x]/(Phi_m(x)).  Working modulo Phi_m
(rather than x^m - 1) makes the representation canonical: two elements are
equal iff their conductors agree after promotion and their coefficient
vectors match entrywise.  values(ct) reads a character table's integer
array as one Cyclotomic per entry."""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd, lcm

from repdual.cyclotomic import _power_basis, euler_phi, render_coefficients
from repdual.errors import NotRational


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class Cyclotomic:
    """An element of Q(zeta_m), canonically reduced modulo Phi_m, with the
    field operations."""

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

    # -- constructors ------------------------------------------------------

    @classmethod
    def _raw(cls, conductor: int, reduced) -> "Cyclotomic":
        """Wrap an already-reduced coefficient vector without re-reduction."""
        self = object.__new__(cls)
        self.conductor = conductor
        self.coeffs = tuple(_as_fraction(c) for c in reduced)
        return self

    @classmethod
    def zeta(cls, m: int, power: int = 1) -> "Cyclotomic":
        """zeta_m^power."""
        power %= m
        d = euler_phi(m)
        if power < d:
            coeffs = [0] * (power + 1)
            coeffs[power] = 1
            return cls(m, coeffs)
        return cls._raw(m, _power_basis(m)[power])

    @classmethod
    def from_rational(cls, value, conductor: int = 1) -> "Cyclotomic":
        return cls(conductor, [_as_fraction(value)])

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

    # -- comparison and extraction -------------------------------------------

    def __eq__(self, other):
        """Equal values, across conductors (both promoted to their lcm) and
        with ints and Fractions (a constant coefficient)."""
        if isinstance(other, (int, Fraction)):
            return self.coeffs == (other,) + (0,) * (len(self.coeffs) - 1)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = Cyclotomic._common(self, other)
        return a.coeffs == b.coeffs

    __hash__ = None  # value identity spans conductors; not intended as a key

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
        d, m = len(a.coeffs), a.conductor
        conv = [Fraction(0)] * (2 * d - 1)
        for i, x in enumerate(a.coeffs):
            if not x:
                continue
            for j, y in enumerate(b.coeffs):
                if y:
                    conv[i + j] += x * y
        vec = list(conv[:d])
        basis = _power_basis(m)
        for t in range(d, 2 * d - 1):
            c = conv[t]
            if c:
                for j, bcoef in enumerate(basis[t % m]):
                    if bcoef:
                        vec[j] += c * bcoef
        return Cyclotomic._raw(m, vec)

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

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    # -- Galois action -------------------------------------------------------

    def galois(self, e: int) -> "Cyclotomic":
        """Apply zeta -> zeta^e (requires gcd(e, m) = 1).  With e = m-1 this
        is complex conjugation."""
        m = self.conductor
        e %= m
        if gcd(e, m) != 1 and m > 1:
            raise ValueError(f"exponent {e} not coprime to conductor {m}")
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


def values(ct) -> tuple[tuple[Cyclotomic, ...], ...]:
    """values[i][j] = chi_i on class j: one Cyclotomic per entry of the
    power-basis coefficients ct.zvalues[..., :phi(m)]."""
    m = ct.conductor
    return tuple(
        tuple(Cyclotomic._raw(m, c) for c in row)
        for row in ct.zvalues[..., : euler_phi(m)].tolist()
    )


def conjugate_row(ct, irrep: int) -> tuple[Cyclotomic, ...]:
    return tuple(v.conjugate() for v in values(ct)[irrep])


def inner_product(ct, f, irrep: int) -> Fraction:
    """(1/|G|) sum_j |C_j| f(c_j) conj(chi_irrep(c_j)), summed one
    Cyclotomic at a time (raises NotRational as as_rational does)."""
    total = Cyclotomic.from_rational(0, ct.conductor)
    conj_row = conjugate_row(ct, irrep)
    for j in range(ct.k):
        fj = f[j]
        if not isinstance(fj, Cyclotomic):
            fj = Cyclotomic.from_rational(fj, ct.conductor)
        total = total + ct.classes.class_sizes[j] * (fj * conj_row[j])
    return (total / ct.group.order).as_rational()
