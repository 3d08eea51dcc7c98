"""Certification at the embeddings of Z[zeta_m] mod p, and the table stored
as one int array.

Certification is compared with the convolution reference
(tests/reference_tables.py) on accept/reject and the exact message; the
Cyclotomic values, the JSON and the cache bytes with the per-Cyclotomic
references; the cache parser with the one-Fraction-per-coefficient parser.
"""

import json
import random
from math import gcd

import numpy as np
import pytest

from repdual import chartable, zring
from repdual.chartable import _certify, _compute_character_table, character_table
from repdual.cli import main
from repdual.errors import LiftVerificationFailed
from repdual.groups import symmetric_group

from reference_tables import (
    reference_cached_coefficients,
    reference_certify,
    reference_dump_cached,
    reference_to_json,
    reference_values,
)
from reference_zring import reduction_gain
from test_table_kernels import CLASS_GROUPS, build

CAUGHT = (KeyError, TypeError, ValueError, ArithmeticError)


def outcome(certify, ct, T, degrees=None):
    """None when certify accepts T, else the LiftVerificationFailed message."""
    try:
        certify(ct.group, ct.classes, T, ct.degrees if degrees is None else degrees)
    except LiftVerificationFailed as exc:
        return str(exc)
    return None


def certify(G, classes, T, degrees):
    """_certify on the images of T itself."""
    _certify(G, classes, zring.Embedded(T), degrees)


def assert_same_outcome(ct, T, degrees=None):
    expected = outcome(reference_certify, ct, T, degrees)
    assert outcome(certify, ct, T, degrees) == expected
    return expected


def first_prime(ct) -> int:
    """The first certification prime, which no bound changes."""
    return zring.certification_primes(0, ct.conductor, max(ct.k, ct.conductor))[0]


@pytest.mark.parametrize("name", CLASS_GROUPS)
def test_certify_accepts_every_class_group_table(name):
    ct = character_table(build(name))
    assert assert_same_outcome(ct, ct.zvalues) is None


@pytest.mark.parametrize("name", ["S3", "Z4", "Q8", "D6", "S4", "Z12", "S4xZ3", "D15", "Z2xZ2xZ2xZ2xZ2"])
def test_seeded_tamperings_match_reference(name):
    ct = character_table(build(name))
    k, m = ct.k, ct.conductor
    p = first_prime(ct)
    rng = random.Random(f"tamper:{name}")
    messages = set()
    for trial in range(12):
        T = ct.zvalues.copy()
        i, j, t = rng.randrange(k), rng.randrange(k), rng.randrange(m)
        if trial < 3:  # off by a multiple of the first prime only
            i, j = rng.randrange(1, k), rng.randrange(1, k)
            T[i, j, t] += p * rng.choice((1, -1, 2))
            assert np.array_equal(zring.embed(T, p), zring.embed(ct.zvalues, p))
        elif trial < 6:  # swap two values of a row
            T[i, [j, (j + 1) % k]] = T[i, [(j + 1) % k, j]]
        else:
            T[i, j, t] += rng.choice((1, -1, 2, -3, 1 << 40))
        messages.add(assert_same_outcome(ct, T))
    assert len(messages - {None}) >= 2


@pytest.mark.parametrize("name", ["S4", "D15", "Z12", "D60"])
def test_a_multiple_of_the_first_prime_needs_the_second(name):
    ct = character_table(build(name))
    k = ct.k
    p = first_prime(ct)
    T = ct.zvalues.copy()
    T[k - 1, k - 1, 0] += p
    # every image mod p is that of the certified table
    images = zring.embed(T, p)
    sizes, order = ct.classes.class_sizes, ct.group.order
    assert not zring.gram_mismatch(images, sizes, [order] * k, p).any()
    cols = images.transpose(0, 2, 1)
    assert not zring.gram_mismatch(cols, [1] * k, [order // s for s in sizes], p).any()
    message = assert_same_outcome(ct, T)
    assert message is not None and "orthogonality fails" in message


def brute_force_mismatch(T, weights, diagonal, p):
    """OR over every unit a of Z/m of the Gram mismatch at z^a, one
    embedding at a time in Python ints."""
    k, m = T.shape[0], T.shape[-1]
    z = zring.root_of_unity(m, p)
    rows = T.tolist()
    bad = np.zeros((k, k), dtype=bool)
    for a in (a for a in range(m) if gcd(a, m) == 1):
        E = [[sum(c * pow(z, a * t, p) for t, c in enumerate(v)) % p for v in row] for row in rows]
        Ebar = [[sum(c * pow(z, -a * t % m, p) for t, c in enumerate(v)) % p for v in row] for row in rows]
        for x in range(k):
            for y in range(k):
                g = sum(w * E[x][j] * Ebar[y][j] for j, w in enumerate(weights)) % p
                bad[x, y] |= g != (diagonal[x] % p if x == y else 0)
    return bad


def test_gram_mismatch_covers_every_embedding():
    # the Gram entry (0, 1) of rows (1, 0) and (zeta - c, 0) vanishes at z
    # exactly when c = z^-1, so only the embedding at z^-1 sees it
    m = 3
    p = zring.certification_primes(0, m, m)[0]
    c = pow(zring.root_of_unity(m, p), m - 1, p)
    T = np.zeros((2, 2, m), dtype=np.int64)
    T[0, 0, 0] = 1
    T[1, 0, :2] = (-c, 1)
    images = zring.embed(T, p)
    assert len(images) == 2  # the product at z^2 = z^-1 is not evaluated
    expected = brute_force_mismatch(T, [1, 1], [1, 0], p)
    assert expected.tolist() == [[False, True], [True, False]]
    assert np.array_equal(zring.gram_mismatch(images, [1, 1], [1, 0], p), expected)
    rng = random.Random(3)
    for name in ("S3", "Z4", "Z5", "Q8", "D6", "Z12"):
        ct = character_table(build(name))
        p = first_prime(ct)
        sizes, order = ct.classes.class_sizes, ct.group.order
        for _ in range(3):
            T = ct.zvalues.copy()
            T[rng.randrange(1, ct.k), rng.randrange(1, ct.k), rng.randrange(ct.conductor)] += rng.choice((1, -2, p - 1))
            got = zring.gram_mismatch(zring.embed(T, p), sizes, [order] * ct.k, p)
            assert np.array_equal(got, brute_force_mismatch(T, sizes, [order] * ct.k, p))


def test_one_prime_certifies_d30_d60_z60_and_z120():
    # the norm bound |G| (N^2 + 1) needs one prime for each, where a bound
    # on the reduced coefficients (the reference's dtype bound) needs two
    for name in ("D30", "D60", "Z60", "Z120"):
        ct = _compute_character_table(build(name))
        m, k, T = ct.conductor, ct.k, ct.zvalues
        N = max(zring.abs_row_sums(T.reshape(k * k, m)))
        primes = zring.certification_primes(ct.group.order * (N * N + 1), m, max(k, m))
        assert len(primes) == 1 and primes[0] % m == 1 and zring.is_prime(primes[0])
        assert list(ct.embedded._images) == list(primes)
        reduced = max(ct.classes.class_sizes) * sum(zring.abs_row_sums(T)) ** 2 * reduction_gain(m)
        assert len(zring.certification_primes(reduced + ct.group.order, m, max(k, m))) == 2


def test_2_63_entries_match_reference():
    # the tables of test_overflow_bounds_do_not_wrap: correct only mod 2**64
    ct = character_table(symmetric_group(4))
    cls = ct.classes.class_sizes.index(8)
    sign = next(i for i in range(1, ct.k) if ct.degrees[i] == 1)
    std = ct.degrees.index(3)
    T = ct.zvalues.copy()
    T[sign, cls, 0] = 1 - 2**63
    T[std, cls, 0] = -(2**63)
    assert "orthogonality" in assert_same_outcome(ct, T)
    assert "orthogonality" in assert_same_outcome(ct, T.astype(object))
    T = T.astype(object)
    T[std, cls, 0] = 2**80
    assert "orthogonality" in assert_same_outcome(ct, T)


def test_early_checks_match_reference():
    ct = character_table(symmetric_group(3))
    assert "squared degrees" in assert_same_outcome(ct, ct.zvalues, (1, 1, 3))
    T = ct.zvalues.copy()
    T[2, 0, 0] = 3
    assert "not its degree" in assert_same_outcome(ct, T)
    T = ct.zvalues.copy()
    T[0, 1, 1] = 1
    assert "trivial character" in assert_same_outcome(ct, T)


def test_prime_helpers():
    small = [n for n in range(2, 2000) if all(n % f for f in range(2, int(n**0.5) + 1))]
    assert [n for n in range(2000) if zring.is_prime(n)] == small
    # a Carmichael number and the least strong pseudoprimes to the first
    # 1, 4, 9 and 12 prime bases
    for n in (561, 2047, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not zring.is_prime(n)
    assert zring.is_prime(2**61 - 1) and zring.is_prime(2**79 - 67)
    # the least strong pseudoprime to all 13 bases is past the range
    with pytest.raises(ValueError, match="Miller-Rabin"):
        zring.is_prime(3317044064679887385961981)
    for m in (1, 2, 6, 7, 60, 120):
        p = zring.prime_1_mod(m, 10**6)
        assert p > 10**6 and p % m == 1 % m and zring.is_prime(p)
        assert not any(zring.is_prime(q) for q in range(10**6 + 1, p) if q % m == 1)
        z = zring.root_of_unity(m, p)
        assert pow(z, m, p) == 1 and all(pow(z, m // q, p) != 1 for q in zring.prime_factors(m))
    assert zring.prime_factors(1) == [] and zring.prime_factors(360) == [2, 3, 5]


# -- one int array per table -------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["S3", "Q8", "S5", "S6", "D15", "D30", "Z24", "Z30", "Z2xZ2xZ2xZ2xZ2", "S4xZ3", "D60", "Z60"]
)
def test_values_json_and_cache_bytes_match_reference(name, tmp_path, monkeypatch):
    monkeypatch.setattr(chartable, "_cache", {})
    G = build(name)
    ct = character_table(G, cache_dir=tmp_path)
    (path,) = tmp_path.iterdir()
    assert path.read_bytes() == json.dumps(reference_dump_cached(ct)).encode()
    assert ct.to_json() == reference_to_json(ct)
    assert json.dumps(ct.to_json()) == json.dumps(reference_to_json(ct))
    assert "values" not in ct.__dict__
    assert ct.values == reference_values(ct)
    monkeypatch.setattr(chartable, "_cache", {})
    loaded = character_table(G, cache_dir=tmp_path)
    assert loaded is not ct and loaded == ct
    assert loaded.zvalues.dtype == np.int64 and not loaded.zvalues.flags.writeable


def test_equality_and_hashing():
    G = build("S4")
    a, b = _compute_character_table(G), _compute_character_table(G)
    assert a is not b and a == b and not a != b
    assert a != character_table(build("D4")) and a != "S4" and a != None  # noqa: E711
    c = chartable.CharacterTable(a.group, a.classes, a.degrees, a.conductor, a.irrep_order, a.zvalues.copy())
    assert c == a
    T = a.zvalues.copy()
    T[1, 1, 0] += 1
    assert chartable.CharacterTable(a.group, a.classes, a.degrees, a.conductor, a.irrep_order, T) != a
    swapped = tuple(reversed(a.irrep_order))
    assert chartable.CharacterTable(a.group, a.classes, a.degrees, a.conductor, swapped, a.zvalues) != a
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)
    with pytest.raises(TypeError, match="unhashable"):
        {a}


def test_verify_on_a_cached_table_leaves_values_unbuilt(tmp_path, monkeypatch, capsys):
    argv = ["verify", "--group", "builtin:S3", "--code", "diag:n=3", "--all", "--cache-dir", str(tmp_path)]
    for _ in range(2):  # the first run writes the cache, the second reads it
        monkeypatch.setattr(chartable, "_cache", {})
        assert main(argv) == 0
        (ct,) = chartable._cache.values()
        assert "values" not in ct.__dict__
    capsys.readouterr()
    # the chartable text is rendered from zvalues as well
    assert main(["chartable", "--group", "builtin:S3", "--cache-dir", str(tmp_path)]) == 0
    assert "values" not in ct.__dict__
    ct.value(0, 0)
    assert "values" in ct.__dict__


# -- the cache parser ------------------------------------------------------------------


SPELLINGS = [
    "2", "-2", "-0", "007", " 2", "2 ", "+2", "4/2", "-6/3", "1/2", "2.0", "2e0", "0.2e1", "2_0",
    "٢", "", "-", "--2", "0x2", "2/0", "nan", "inf", "1e400",
    str(2**63 - 1), str(2**63), str(-(2**63)), str(-(2**63) - 1), "9" * 5000,
    2, -2, 2.0, 2.5, True, False, None, [2], {"2": 2}, float("nan"), 10**30,
]


def refused(parse, rows, k, m):
    try:
        return parse(rows, k, m)
    except CAUGHT:
        return None


@pytest.mark.parametrize("spelling", SPELLINGS, ids=lambda s: repr(s)[:12])
def test_cache_parser_matches_fraction_parser(spelling):
    ct = character_table(build("Z12"))
    blob = json.loads(json.dumps(ct.to_json()["values"]))
    blob[3][5]["coeffs"][1] = spelling
    expected = refused(reference_cached_coefficients, blob, ct.k, ct.conductor)
    got = refused(chartable._cached_coefficients, blob, ct.k, ct.conductor)
    if expected is None:
        assert got is None
    else:
        assert got.dtype == np.int64 and np.array_equal(got, expected)


def test_cache_parser_shapes_match_fraction_parser():
    ct = character_table(build("Z6"))
    for edit in (
        lambda v: v[1][1].update(conductor=3),
        lambda v: v[1][1].update(conductor=6.0),
        lambda v: v[1][1]["coeffs"].append("0"),
        lambda v: v[1][1].pop("coeffs"),
        lambda v: v[1][1].update(coeffs="12"),
        lambda v: v[1].__setitem__(1, "x"),
    ):
        blob = json.loads(json.dumps(ct.to_json()["values"]))
        edit(blob)
        expected = refused(reference_cached_coefficients, blob, ct.k, ct.conductor)
        got = refused(chartable._cached_coefficients, blob, ct.k, ct.conductor)
        assert (got is None) == (expected is None)
        if got is not None:
            assert np.array_equal(got, expected)


def test_value_preserving_spellings_load(tmp_path, monkeypatch):
    G = build("Z12")
    monkeypatch.setattr(chartable, "_cache", {})
    ref = character_table(G, cache_dir=tmp_path)
    (path,) = tmp_path.iterdir()
    blob = json.loads(path.read_text())
    i, j = 3, 5
    blob["values"][i][j]["coeffs"] = [f"{c}/1" if c.startswith("-") else f" {c}.0" for c in blob["values"][i][j]["coeffs"]]
    path.write_text(json.dumps(blob))
    assert chartable._load_cached(G, path) == ref
