"""Sparse exact polynomials over Q, univariate and multivariate.

UniPoly maps degree -> Fraction; MultiPoly maps a length-k exponent tuple to
a rational coefficient.  Both are one sparse core, _SparsePoly: a dict from
exponent key to nonzero coefficient, with ==, +, -, * and ** written once
and int and Fraction scalars promoted to constants.  Each class supplies the
key of its constant, how two exponent keys add, and how a term is written.
Zero coefficients are never stored, so equality is plain dict equality.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Mapping, Sequence


def _render_terms(terms) -> str:
    """Text of a sum of (nonzero coefficient, monomial) pairs in the given
    order, such as "2*x^3 - x + 1": a unit coefficient is dropped before a
    monomial, "" is the monomial of a constant, and no terms read "0"."""
    parts = []
    for c, body in terms:
        mag = abs(c)
        piece = str(mag) if not body else body if mag == 1 else f"{mag}*{body}"
        parts.append(("" if c > 0 else "-") if not parts else (" + " if c > 0 else " - "))
        parts.append(piece)
    return "".join(parts) or "0"


def _power(base: str, e: int) -> str:
    """base^e as a monomial: "" at e = 0, base at e = 1."""
    return "" if e == 0 else base if e == 1 else f"{base}^{e}"


class _SparsePoly:
    """The arithmetic UniPoly and MultiPoly share.  A subclass supplies
    _unit, the key of its constant; _add_keys, the key of a product of two
    monomials; render, how its terms are written; and _new, a polynomial of
    its own kind (and shape) from a dict of terms, zero coefficients
    dropped."""

    __slots__ = ("_terms",)

    def _promote(self, other):
        """other as a polynomial of this kind: an int or Fraction becomes a
        constant, and any value of another type is NotImplemented."""
        if isinstance(other, (int, Fraction)):
            return self._new({self._unit: other})
        return other if isinstance(other, type(self)) else NotImplemented

    def __eq__(self, other):
        other = self._promote(other)
        if other is NotImplemented:
            return other
        return self._unit == other._unit and self._terms == other._terms

    __hash__ = None

    def __bool__(self):
        return bool(self._terms)

    def __add__(self, other):
        other = self._promote(other)
        if other is NotImplemented:
            return other
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) + c
        return self._new(out)

    __radd__ = __add__

    def __neg__(self):
        return self._new({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = self._promote(other)
        return other if other is NotImplemented else self + -other

    def __mul__(self, other):
        other = self._promote(other)
        if other is NotImplemented:
            return other
        out = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = self._add_keys(e1, e2)
                out[e] = out.get(e, 0) + c1 * c2
        return self._new(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        result = self._new({self._unit: Fraction(1)})
        for _ in range(e):
            result = result * self
        return result

    def __str__(self):
        return self.render()


class UniPoly(_SparsePoly):
    __slots__ = ()
    _unit = 0

    def __init__(self, coeffs: Mapping[int, Fraction] | None = None):
        self._terms = {d: f for d, c in (coeffs or {}).items() if (f := Fraction(c))}

    _add_keys = staticmethod(operator.add)

    def _new(self, coeffs) -> "UniPoly":
        return UniPoly(coeffs)

    coeffs = _SparsePoly._terms  # the terms dict under its public name

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly()

    @staticmethod
    def one() -> "UniPoly":
        return UniPoly({0: Fraction(1)})

    @staticmethod
    def monomial(degree: int, coeff=1) -> "UniPoly":
        return UniPoly({degree: Fraction(coeff)})

    def __getitem__(self, d: int) -> Fraction:
        return self._terms.get(d, Fraction(0))

    def evaluate(self, x):
        """Exact for Fraction input, floating for float input."""
        total = x * 0
        for d, c in self._terms.items():
            total += (c if isinstance(x, Fraction) else float(c)) * x**d
        return total

    def render(self, var: str = "z") -> str:
        return _render_terms((self._terms[d], _power(var, d)) for d in sorted(self._terms))

    def __repr__(self):
        return f"UniPoly({self.render()})"

    def to_json(self) -> list:
        return [[d, str(self._terms[d])] for d in sorted(self._terms)]


class MultiPoly(_SparsePoly):
    """Polynomial in nvars variables; keys are exponent tuples."""

    __slots__ = ("nvars",)

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], object] | None = None):
        self.nvars = nvars
        for e in terms or ():
            if len(e) != nvars:
                raise ValueError(f"exponent tuple {e} has wrong length")
        self._terms = {e: c for e, c in (terms or {}).items() if c}

    def _new(self, terms) -> "MultiPoly":
        return MultiPoly(self.nvars, terms)

    @property
    def _unit(self) -> tuple[int, ...]:
        return (0,) * self.nvars

    @staticmethod
    def _add_keys(e1, e2) -> tuple[int, ...]:
        return tuple(a + b for a, b in zip(e1, e2))

    terms = _SparsePoly._terms  # the terms dict under its public name

    def map_coefficients(self, fn) -> "MultiPoly":
        return self._new({e: fn(c) for e, c in self._terms.items()})

    def substitute_univariate(self, images: Sequence[tuple[Fraction, int]]) -> UniPoly:
        """Substitute variable i -> coeff_i * z^deg_i; coefficients must be
        rational at that point."""
        out = UniPoly()
        for exps, c in self._terms.items():
            degree = 0
            scalar = Fraction(c)
            for i, e in enumerate(exps):
                if e:
                    coeff_i, deg_i = images[i]
                    scalar *= Fraction(coeff_i) ** e
                    degree += deg_i * e
            out = out + UniPoly.monomial(degree, scalar)
        return out

    def sorted_terms(self) -> list[tuple[tuple[int, ...], object]]:
        """Descending lexicographic on exponent tuples (x1-major), matching
        the usual hand-written ordering x1^n, ..., xk^n."""
        return sorted(self._terms.items(), key=lambda kv: kv[0], reverse=True)

    def render(self, var: str = "x") -> str:
        return _render_terms(
            (c, "*".join(_power(f"{var}{i + 1}", e) for i, e in enumerate(exps) if e))
            for exps, c in self.sorted_terms()
        )

    def __repr__(self):
        return f"MultiPoly({self.nvars}, {self.render()})"

    def to_json(self) -> list:
        return [[list(exps), str(Fraction(c))] for exps, c in self.sorted_terms()]
