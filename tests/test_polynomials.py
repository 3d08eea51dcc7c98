"""The sparse core UniPoly and MultiPoly share, against plain dict sums and
products written here, and the text and JSON the enumerators print."""

from fractions import Fraction
from itertools import product
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repdual.polynomials import MultiPoly, UniPoly

scalars = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-2, max_value=2, max_denominator=4)
)
uni_terms = st.dictionaries(st.integers(0, 4), scalars, max_size=4)
multi_terms = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), scalars, max_size=4)
images = st.tuples(st.fractions(-2, 2, max_denominator=3), st.integers(0, 3))
SETTINGS = settings(derandomize=True, deadline=None, max_examples=60, database=None)


def nonzero(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c}


def plain_sum(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return nonzero(out)


def plain_product(a: dict, b: dict, add_keys) -> dict:
    out = {}
    for (e1, c1), (e2, c2) in product(a.items(), b.items()):
        e = add_keys(e1, e2)
        out[e] = out.get(e, 0) + c1 * c2
    return nonzero(out)


def add_tuples(e1, e2):
    return tuple(x + y for x, y in zip(e1, e2))


def check_arithmetic(p, q, a: dict, b: dict, terms, unit, add_keys) -> None:
    """+, unary and binary -, * and ** of p = P(a) and q = P(b) against the
    plain dicts; terms reads a polynomial's dict, unit is its constant key."""
    negated = {e: -c for e, c in b.items()}
    results = {
        "p": (p, nonzero(a)),
        "p + q": (p + q, plain_sum(a, b)),
        "-q": (-q, nonzero(negated)),
        "p - q": (p - q, plain_sum(a, negated)),
        "p - p": (p - p, {}),
        "p * q": (p * q, plain_product(a, b, add_keys)),
    }
    power = {unit: 1}
    for e in range(4):
        results[f"p ** {e}"] = (p**e, power)
        power = plain_product(power, a, add_keys)
    for name, (got, want) in results.items():
        assert terms(got) == want, name
        assert all(terms(got).values()), f"{name} keeps a zero coefficient"
    assert (p == q) == (nonzero(a) == nonzero(b))
    assert bool(p) == bool(nonzero(a))


@SETTINGS
@given(uni_terms, uni_terms, scalars)
def test_unipoly_arithmetic_matches_plain_dicts(a, b, s):
    p, q = UniPoly(a), UniPoly(b)
    check_arithmetic(p, q, a, b, lambda poly: poly.coeffs, 0, add)
    assert all(type(c) is Fraction for c in (p * q - p).coeffs.values())
    # an int or Fraction scalar is the constant polynomial
    constant = nonzero({0: s})
    assert (p == s) == (nonzero(a) == constant)
    for got in (p + s, s + p):
        assert got.coeffs == plain_sum(a, constant)
    assert (p - s).coeffs == plain_sum(a, {0: -s})
    for got in (p * s, s * p):
        assert got.coeffs == nonzero({d: c * s for d, c in a.items()})
        assert all(type(c) is Fraction for c in got.coeffs.values())
    assert all(p[d] == a.get(d, 0) for d in range(6))


@SETTINGS
@given(multi_terms, multi_terms, scalars, images, images)
def test_multipoly_arithmetic_matches_plain_dicts(a, b, s, x1, x2):
    p, q = MultiPoly(2, a), MultiPoly(2, b)
    check_arithmetic(p, q, a, b, lambda poly: poly.terms, (0, 0), add_tuples)
    for got in (p * s, s * p):
        assert got.terms == nonzero({e: c * s for e, c in a.items()})

    def sub(poly):
        return poly.substitute_univariate([x1, x2])

    # substituting x_i -> c_i z^d_i is a ring map into UniPoly
    assert sub(p + q) == sub(p) + sub(q)
    assert sub(p * q) == sub(p) * sub(q)


def test_multipoly_shape():
    assert MultiPoly(2) != MultiPoly(3)
    assert MultiPoly(2, {(1, 0): 1}) != UniPoly({1: 1})
    assert MultiPoly(2, {(1, 0): 1, (0, 1): 0}).terms == {(1, 0): 1}
    with pytest.raises(ValueError, match="wrong length"):
        MultiPoly(2, {(1, 0, 0): 1})
    p = MultiPoly(2, {(1, 0): 2, (0, 1): Fraction(1, 2)})
    assert p.map_coefficients(lambda c: c * 2).terms == {(1, 0): 4, (0, 1): 1}


# text and JSON recorded from the separate UniPoly and MultiPoly classes
RECORDED = [
    (
        UniPoly({0: 1, 1: -2, 3: Fraction(1, 2)}),
        "1 - 2*z + 1/2*z^3",
        "1 - 2*t + 1/2*t^3",
        [[0, "1"], [1, "-2"], [3, "1/2"]],
        "UniPoly(1 - 2*z + 1/2*z^3)",
    ),
    (UniPoly(), "0", "0", [], "UniPoly(0)"),
    (
        UniPoly({2: -1, 5: Fraction(-7, 3)}),
        "-z^2 - 7/3*z^5",
        "-t^2 - 7/3*t^5",
        [[2, "-1"], [5, "-7/3"]],
        "UniPoly(-z^2 - 7/3*z^5)",
    ),
    (
        (UniPoly.one() - UniPoly.monomial(1)) ** 3,
        "1 - 3*z + 3*z^2 - z^3",
        "1 - 3*t + 3*t^2 - t^3",
        [[0, "1"], [1, "-3"], [2, "3"], [3, "-1"]],
        "UniPoly(1 - 3*z + 3*z^2 - z^3)",
    ),
    (
        MultiPoly(3, {(2, 0, 0): 1, (1, 1, 0): -3, (0, 0, 1): Fraction(2, 3), (0, 0, 0): -1}),
        "x1^2 - 3*x1*x2 + 2/3*x3 - 1",
        "t1^2 - 3*t1*t2 + 2/3*t3 - 1",
        [[[2, 0, 0], "1"], [[1, 1, 0], "-3"], [[0, 0, 1], "2/3"], [[0, 0, 0], "-1"]],
        "MultiPoly(3, x1^2 - 3*x1*x2 + 2/3*x3 - 1)",
    ),
    (MultiPoly(2), "0", "0", [], "MultiPoly(2, 0)"),
    (
        MultiPoly(2, {(1, 0): 1, (0, 1): -1}) ** 3,
        "x1^3 - 3*x1^2*x2 + 3*x1*x2^2 - x2^3",
        "t1^3 - 3*t1^2*t2 + 3*t1*t2^2 - t2^3",
        [[[3, 0], "1"], [[2, 1], "-3"], [[1, 2], "3"], [[0, 3], "-1"]],
        "MultiPoly(2, x1^3 - 3*x1^2*x2 + 3*x1*x2^2 - x2^3)",
    ),
]


@pytest.mark.parametrize("poly, text, text_t, json, rep", RECORDED)
def test_render_and_json_are_recorded_bytes(poly, text, text_t, json, rep):
    assert poly.render() == str(poly) == text
    assert poly.render("t") == text_t
    assert poly.to_json() == json
    assert repr(poly) == rep
