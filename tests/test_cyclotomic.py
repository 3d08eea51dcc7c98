import os
import pkgutil
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import repdual
from repdual.cyclotomic import cyclotomic_polynomial, euler_phi
from repdual.errors import NotRational

from reference_cyclotomic import Cyclotomic


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomial_product_oracle():
    # independent check: prod_{d|m} Phi_d == x^m - 1, all coefficients
    for m in range(1, 31):
        prod = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                prod = poly_mul(prod, cyclotomic_polynomial(d))
        expected = [0] * (m + 1)
        expected[0], expected[m] = -1, 1
        assert prod == expected, m
        assert len(cyclotomic_polynomial(m)) == euler_phi(m) + 1


def test_roots_of_unity():
    z6 = Cyclotomic.zeta(6)
    assert z6 * z6**5 == 1
    z3 = Cyclotomic.zeta(3)
    assert z3 + z3 * z3 == -1
    assert (z3**3).as_rational() == 1


def test_promotion():
    z2 = Cyclotomic.zeta(2)
    z6 = Cyclotomic.zeta(6)
    assert z2.promote(6) == z6**3
    assert z2.promote(6).as_rational() == -1
    # mixed-conductor arithmetic promotes to the lcm
    z4 = Cyclotomic.zeta(4)
    v = z6 * z4
    assert v.conductor == 12
    assert v == Cyclotomic.zeta(12, 2) * Cyclotomic.zeta(12, 3)


def test_galois():
    z6 = Cyclotomic.zeta(6)
    assert z6.galois(5) == z6**5
    r = Cyclotomic.from_rational(Fraction(7, 3), 6)
    assert r.galois(5) == Fraction(7, 3)
    z5 = Cyclotomic.zeta(5)
    assert (z5 + z5**4).galois(2) == z5**2 + z5**3
    with pytest.raises(ValueError, match="not coprime"):
        z6.galois(2)


def test_galois_composition():
    rng = random.Random(7)
    for m in (5, 8, 12):
        units = [e for e in range(1, m) if m % 2 == 0 or True]
        units = [e for e in units if __import__("math").gcd(e, m) == 1]
        for _ in range(20):
            a = Cyclotomic(m, [rng.randint(-3, 3) for _ in range(euler_phi(m))])
            e1, e2 = rng.choice(units), rng.choice(units)
            assert a.galois(e1).galois(e2) == a.galois((e1 * e2) % m)


def test_as_rational():
    assert Cyclotomic.from_rational(Fraction(7, 2), 6).as_rational() == Fraction(7, 2)
    z3 = Cyclotomic.zeta(3)
    with pytest.raises(NotRational):
        z3.as_rational()
    assert z3.try_rational() is None
    assert (z3 + z3**2 + 1).as_rational() == 0


def test_field_axioms_random():
    rng = random.Random(20240917)
    for m in (1, 2, 3, 4, 6, 8, 12, 24):
        d = euler_phi(m)
        for _ in range(25):
            a = Cyclotomic(m, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)])
            b = Cyclotomic(m, [rng.randint(-4, 4) for _ in range(d)])
            c = Cyclotomic(m, [rng.randint(-4, 4) for _ in range(d)])
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a


def test_canonical_idempotence():
    # feeding an unreduced vector through the constructor twice changes nothing
    rng = random.Random(3)
    for m in (6, 12, 24):
        raw = [rng.randint(-5, 5) for _ in range(2 * m)]
        a = Cyclotomic(m, raw)
        b = Cyclotomic(m, a.coeffs)
        assert a == b and a.coeffs == b.coeffs
        assert len(a.coeffs) == euler_phi(m)


def test_numerical_shadow():
    # float evaluation of exact products stays within 1e-9 of float arithmetic
    rng = random.Random(11)
    for m in (5, 7, 12, 24):
        d = euler_phi(m)
        for _ in range(10):
            a = Cyclotomic(m, [rng.randint(-3, 3) for _ in range(d)])
            b = Cyclotomic(m, [rng.randint(-3, 3) for _ in range(d)])
            lhs = (a * b).complex_approx()
            rhs = a.complex_approx() * b.complex_approx()
            assert abs(lhs - rhs) < 1e-9


def test_json_round_trip():
    v = Cyclotomic(6, [Fraction(3, 2), -1])
    blob = v.to_json()
    assert blob == {"conductor": 6, "coeffs": ["3/2", "-1"]}
    assert Cyclotomic.from_json(blob) == v


def test_str_rendering():
    assert str(Cyclotomic.zeta(6)) == "z6"
    assert str(Cyclotomic(6, [1, -1])) == "-z6 + 1"
    assert str(Cyclotomic.from_rational(0, 6)) == "0"
    assert str(Cyclotomic(12, [1, 0, 2])) == "2*z12^2 + 1"


def test_package_imports_no_complex_arithmetic():
    # every exact path runs on integer arrays: no repdual module imports
    # cmath (numpy alone does not), checked in a fresh interpreter
    modules = sorted(f"repdual.{m.name}" for m in pkgutil.iter_modules(repdual.__path__))
    assert "repdual.cli" in modules and "repdual.cyclotomic" in modules
    script = (
        "import importlib, sys\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in ('cmath', 'numpy') if m in sys.modules))\n"
    )
    src = str(Path(repdual.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "['numpy']"
