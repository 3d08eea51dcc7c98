"""Sparse exact polynomials over Q, univariate and multivariate.

UniPoly maps degree -> Fraction; MultiPoly maps a length-k exponent tuple to
a rational coefficient.  Zero coefficients are never stored, so equality is
plain dict equality.
"""

from __future__ import annotations

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


class UniPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, Fraction] | None = None):
        self.coeffs: dict[int, Fraction] = {}
        if coeffs:
            for d, c in coeffs.items():
                c = Fraction(c)
                if c:
                    self.coeffs[d] = c

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly()

    @staticmethod
    def one() -> "UniPoly":
        return UniPoly({0: Fraction(1)})

    @staticmethod
    def monomial(degree: int, coeff=1) -> "UniPoly":
        return UniPoly({degree: Fraction(coeff)})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly({0: Fraction(other)})
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    def __getitem__(self, d: int) -> Fraction:
        return self.coeffs.get(d, Fraction(0))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly({0: Fraction(other)})
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            s = out.get(d, Fraction(0)) + c
            if s:
                out[d] = s
            else:
                out.pop(d, None)
        return UniPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly({d: -c for d, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly({0: Fraction(other)})
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return UniPoly({d: c * q for d, c in self.coeffs.items()}) if q else UniPoly()
        out: dict[int, Fraction] = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                d = d1 + d2
                s = out.get(d, Fraction(0)) + c1 * c2
                if s:
                    out[d] = s
                else:
                    out.pop(d, None)
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "UniPoly":
        result = UniPoly.one()
        for _ in range(e):
            result = result * self
        return result

    def evaluate(self, x):
        """Exact for Fraction input, floating for float input."""
        total = x * 0
        for d, c in self.coeffs.items():
            total += (c if isinstance(x, Fraction) else float(c)) * x**d
        return total

    def render(self, var: str = "z") -> str:
        return _render_terms((self.coeffs[d], _power(var, d)) for d in sorted(self.coeffs))

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"UniPoly({self.render()})"

    def to_json(self) -> list:
        return [[d, str(self.coeffs[d])] for d in sorted(self.coeffs)]


class MultiPoly:
    """Polynomial in nvars variables; keys are exponent tuples."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], object] | None = None):
        self.nvars = nvars
        self.terms: dict[tuple[int, ...], object] = {}
        if terms:
            for e, c in terms.items():
                if len(e) != nvars:
                    raise ValueError(f"exponent tuple {e} has wrong length")
                if c:
                    self.terms[e] = c

    @staticmethod
    def constant(nvars: int, c) -> "MultiPoly":
        return MultiPoly(nvars, {(0,) * nvars: c})

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if not s:
                out.pop(e, None)
            else:
                out[e] = s
        return MultiPoly(self.nvars, out)

    def __neg__(self):
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        out: dict[tuple[int, ...], object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if not s:
                    out.pop(e, None)
                else:
                    out[e] = s
        return MultiPoly(self.nvars, out)

    __rmul__ = __mul__

    def scale(self, c) -> "MultiPoly":
        if not c:
            return MultiPoly(self.nvars)
        return MultiPoly(self.nvars, {e: v * c for e, v in self.terms.items()})

    def __pow__(self, e: int) -> "MultiPoly":
        result = MultiPoly.constant(self.nvars, Fraction(1))
        for _ in range(e):
            result = result * self
        return result

    def map_coefficients(self, fn) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: fn(c) for e, c in self.terms.items()})

    def substitute_univariate(self, images: Sequence[tuple[Fraction, int]]) -> UniPoly:
        """Substitute variable i -> coeff_i * z^deg_i; coefficients must be
        rational at that point."""
        out = UniPoly()
        for exps, c in self.terms.items():
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
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def render(self, var: str = "x") -> str:
        return _render_terms(
            (c, "*".join(_power(f"{var}{i + 1}", e) for i, e in enumerate(exps) if e))
            for exps, c in self.sorted_terms()
        )

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"MultiPoly({self.nvars}, {self.render()})"

    def to_json(self) -> list:
        out = []
        for exps, c in self.sorted_terms():
            out.append([list(exps), str(Fraction(c))])
        return out
