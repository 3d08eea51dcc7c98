"""The field arithmetic of Q(zeta_m) on Cyclotomic values, kept as the
independent reference for the integer kernels over Z[C_m] (zring) and for
chartable.inner_product: sums, products, powers, Galois maps, complex
conjugation and the floating shadow, one Fraction coefficient at a time.

Cyclotomic here is the package's value type with these operations added;
its results are of this class, and they compare equal to the package's
values.  lift turns a package value (an entry of ct.values) into one."""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd, lcm

from repdual import cyclotomic
from repdual.cyclotomic import _as_fraction, _power_basis, euler_phi


class Cyclotomic(cyclotomic.Cyclotomic):
    """An element of Q(zeta_m) with the field operations."""

    __slots__ = ()

    # -- constructors ------------------------------------------------------

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

    @staticmethod
    def _common(a: "Cyclotomic", b: "Cyclotomic"):
        if a.conductor == b.conductor:
            return a, b
        m = lcm(a.conductor, b.conductor)
        return lift(a.promote(m)), lift(b.promote(m))

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return self
            vec = list(self.coeffs)
            vec[0] += other
            return Cyclotomic._raw(self.conductor, vec)
        if not isinstance(other, cyclotomic.Cyclotomic):
            return NotImplemented
        a, b = Cyclotomic._common(self, other)
        return Cyclotomic._raw(a.conductor, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._raw(self.conductor, [-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self + (-other)
        if not isinstance(other, cyclotomic.Cyclotomic):
            return NotImplemented
        return self + (-lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Cyclotomic._raw(self.conductor, [Fraction(0)] * len(self.coeffs))
            return Cyclotomic._raw(self.conductor, [c * other for c in self.coeffs])
        if not isinstance(other, cyclotomic.Cyclotomic):
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


def lift(value: cyclotomic.Cyclotomic) -> Cyclotomic:
    """A package value as a reference Cyclotomic (the same object when it
    is one already)."""
    if isinstance(value, Cyclotomic):
        return value
    return Cyclotomic._raw(value.conductor, value.coeffs)


def values(ct) -> tuple[tuple[Cyclotomic, ...], ...]:
    """ct.values as reference Cyclotomics."""
    return tuple(tuple(lift(v) for v in row) for row in ct.values)


def conjugate_row(ct, irrep: int) -> tuple[Cyclotomic, ...]:
    return tuple(lift(v).conjugate() for v in ct.values[irrep])


def inner_product(ct, f, irrep: int) -> Fraction:
    """(1/|G|) sum_j |C_j| f(c_j) conj(chi_irrep(c_j)), summed one
    Cyclotomic at a time (raises NotRational as as_rational does)."""
    total = Cyclotomic.from_rational(0, ct.conductor)
    conj_row = conjugate_row(ct, irrep)
    for j in range(ct.k):
        fj = f[j]
        if isinstance(fj, cyclotomic.Cyclotomic):
            fj = lift(fj)
        else:
            fj = Cyclotomic.from_rational(fj, ct.conductor)
        total = total + ct.classes.class_sizes[j] * (fj * conj_row[j])
    return (total / ct.group.order).as_rational()
