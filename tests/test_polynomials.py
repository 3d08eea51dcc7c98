"""The text and JSON the enumerators print, and what UniPoly and MultiPoly
keep besides: construction, == between two polynomials of one kind, and
coefficient lookup."""

from fractions import Fraction

import pytest

from repdual.polynomials import MultiPoly, UniPoly


def test_multipoly_shape():
    assert MultiPoly(2) != MultiPoly(3)
    assert MultiPoly(2, {(1, 0): 1}) != UniPoly({1: 1})
    assert MultiPoly(2, {(1, 0): 1, (0, 1): 0}).terms == {(1, 0): 1}
    with pytest.raises(ValueError, match="wrong length"):
        MultiPoly(2, {(1, 0, 0): 1})


def test_unipoly_reads_coefficients_and_compares_only_polynomials():
    p = UniPoly({0: 1, 2: 0, 3: Fraction(1, 2)})
    assert p.coeffs == {0: 1, 3: Fraction(1, 2)}
    assert all(type(c) is Fraction for c in p.coeffs.values())
    assert [p[d] for d in range(5)] == [1, 0, 0, Fraction(1, 2), 0]
    assert p == UniPoly({3: Fraction(1, 2), 0: Fraction(1)})
    assert bool(p) and not UniPoly({1: 0}) and not MultiPoly(2)
    # a polynomial is not a number: the constant 1 does not equal 1
    assert UniPoly({0: 1}) != 1 and MultiPoly(1, {(0,): 1}) != Fraction(1)


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
        UniPoly({0: 1, 1: -3, 2: 3, 3: -1}),
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
        MultiPoly(2, {(3, 0): 1, (2, 1): -3, (1, 2): 3, (0, 3): -1}),
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
