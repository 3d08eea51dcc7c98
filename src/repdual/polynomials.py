"""Sparse exact polynomials over Q, univariate and multivariate, as printed
values.

UniPoly maps degree -> Fraction; MultiPoly maps a length-k exponent tuple to
a rational coefficient.  Both are one sparse core, _SparsePoly: a dict from
exponent key to nonzero coefficient, compared with == and written by
render, str and to_json.  They carry no arithmetic: the identities are
checked on integer count vectors, and a polynomial is built only to return
or print a result.  Zero coefficients are never stored, so equality is
plain dict equality.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping


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
    """What UniPoly and MultiPoly share.  A subclass supplies _shape, which
    two polynomials of its kind must share to be equal, and render, how its
    terms are written."""

    __slots__ = ("_terms",)
    _shape = None

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._shape == other._shape and self._terms == other._terms

    __hash__ = None

    def __bool__(self):
        return bool(self._terms)

    def __str__(self):
        return self.render()


class UniPoly(_SparsePoly):
    __slots__ = ()

    def __init__(self, coeffs: Mapping[int, Fraction] | None = None):
        self._terms = {d: f for d, c in (coeffs or {}).items() if (f := Fraction(c))}

    coeffs = _SparsePoly._terms  # the terms dict under its public name

    def __getitem__(self, d: int) -> Fraction:
        return self._terms.get(d, Fraction(0))

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

    @property
    def _shape(self) -> int:
        return self.nvars

    terms = _SparsePoly._terms  # the terms dict under its public name

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
