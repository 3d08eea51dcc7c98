"""Differential tests of the Z[C_m] integer kernels: the convolution
reference against a contraction in the reference Cyclotomic (Fraction)
arithmetic, and the contraction at the embeddings mod p against the
convolution reference (values, rationality gate, messages and first
witnesses)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from repdual import chartable, codes, groups, identities, zring
from repdual.chartable import (
    CharacterTable,
    _certify,
    _compute_character_table,
    character_table,
)
from repdual.codes import complete_weight_enumerator, diagonal_code, full_code, trivial_code
from repdual.cyclotomic import euler_phi
from repdual.duality import (
    _multiplicities,
    decompose_permutation_character,
    dual_multiset,
    permutation_character,
)
from repdual.errors import LiftVerificationFailed, NonIntegerMultiplicity, NotRational
from repdual.groups import cyclic_group, dihedral_group, symmetric_group

import reference_cyclotomic as rc
import reference_zring as rz
from reference_cyclotomic import Cyclotomic
from reference_tallies import class_pattern_arrays, class_pattern_counts, sum_by_content
from test_acceptance import build_matrix
from test_oracle import small_codes


def contract(counts, T, n):
    """The reference contract on the keys and values of a dict."""
    keys = np.array(list(counts), dtype=np.int64).reshape(len(counts), n)
    return rz.contract(keys, np.array(list(counts.values()), dtype=object), T)


def reference_contraction(rows, counts, n, k):
    """out[j] = sum_i counts[i] prod_m rows[j_m][i_m], one axis at a time,
    with rows[j][i] a Cyclotomic; zero entries omitted."""
    cur = dict(counts)
    for axis in range(n):
        nxt = {}
        for key, val in cur.items():
            i = key[axis]
            head, tail = key[:axis], key[axis + 1 :]
            for j in range(k):
                term = rows[j][i] * val
                if term.is_zero():
                    continue
                newkey = head + (j,) + tail
                acc = nxt.get(newkey)
                nxt[newkey] = term if acc is None else acc + term
        cur = {key: v for key, v in nxt.items() if not v.is_zero()}
    return cur


def as_cyclotomics(raw, m):
    """Reduced kernel output (..., phi(m)) as {index tuple: Cyclotomic}."""
    return {
        key: Cyclotomic(m, raw[key].tolist())
        for key in np.ndindex(raw.shape[:-1])
        if raw[key].any()
    }


def kernel_contraction(T, counts, n):
    return as_cyclotomics(zring.reduce(contract(counts, T, n)), T.shape[-1])


def test_contract_matches_reference_on_matrix():
    checked = 0
    for name, code, ct in build_matrix():
        counts = class_pattern_counts(code, ct.classes)
        rows = [list(row) for row in rc.values(ct)]
        conj_rows = [list(rc.conjugate_row(ct, i)) for i in range(ct.k)]
        got = kernel_contraction(ct.zvalues, counts, code.n)
        assert got == reference_contraction(rows, counts, code.n, ct.k), name
        got = kernel_contraction(rz.conjugate(ct.zvalues), counts, code.n)
        assert got == reference_contraction(conj_rows, counts, code.n, ct.k), name
        checked += 1
    assert checked == 192


def test_object_dtype_path_is_exact():
    ct = character_table(cyclic_group(6))
    rows = [list(row) for row in rc.values(ct)]
    small = {(0, 1): 2, (3, 5): -3, (4, 4): 1}
    assert contract(small, ct.zvalues, 2).dtype == np.int64
    huge = {(0, 1): 2**70, (3, 5): -3, (4, 4): 5**40}
    A = contract(huge, ct.zvalues, 2)
    assert A.dtype == object
    assert as_cyclotomics(zring.reduce(A), 6) == reference_contraction(rows, huge, 2, 6)
    # summing by content stays exact on the object path too
    contents, sums = sum_by_content(A, 2)
    ref = reference_contraction(rows, huge, 2, 6)
    for e, s in zip(contents, sums):
        want = Cyclotomic.from_rational(0, 6)
        for key, v in ref.items():
            if tuple(key.count(j) for j in range(6)) == e:
                want = want + v
        assert Cyclotomic(6, zring.reduce(s).tolist()) == want
    assert zring.exact_dtype(2**62 - 1) == np.int64
    assert zring.exact_dtype(2**62) == object


def test_certify_rejects_tampered_tables():
    # one value swapped within a row: the sign character on transpositions
    # and 3-cycles of S3; a faithful character on the generator of Z4 and
    # its inverse (i and -i)
    for G, (a, b) in ((symmetric_group(3), (1, 2)), (cyclic_group(4), (1, 3))):
        ct = character_table(G)
        _certify(G, ct.classes, zring.Embedded(ct.zvalues), ct.degrees)
        i = next(i for i in range(ct.k) if (ct.zvalues[i, a] != ct.zvalues[i, b]).any())
        T = ct.zvalues.copy()
        T[i, [a, b]] = T[i, [b, a]]
        with pytest.raises(LiftVerificationFailed, match="orthogonality"):
            _certify(G, ct.classes, zring.Embedded(T), ct.degrees)
    ct = character_table(symmetric_group(3))
    with pytest.raises(LiftVerificationFailed, match="squared degrees"):
        _certify(ct.group, ct.classes, zring.Embedded(ct.zvalues), (1, 1, 3))
    T = ct.zvalues.copy()
    T[2, 0, 0] = 3
    with pytest.raises(LiftVerificationFailed, match="not its degree"):
        _certify(ct.group, ct.classes, zring.Embedded(T), ct.degrees)


def test_overflow_bounds_do_not_wrap():
    # np.abs(-2**63) is -2**63 in int64, so a numpy sum would understate
    # the bound; these entries must push every consumer onto exact ints
    T = np.zeros((2, 2, 3), dtype=np.int64)
    T[0, 0, 0] = 1
    T[1, 1, 0] = -(2**63)
    T[1, 0, 2] = 1 - 2**63
    assert zring.abs_row_sums(T) == [1, 2**64 - 1]
    assert zring.abs_row_sums(T.astype(object)) == [1, 2**64 - 1]
    assert contract({(1,): 1}, T, 1).dtype == object
    # a table that is only correct modulo 2**64 is still rejected: S4 with
    # 2**63 added to two entries on the 3-cycle class (size 8), whose other
    # entries on those rows sum to even numbers
    ct = character_table(symmetric_group(4))
    cls = ct.classes.class_sizes.index(8)
    sign = next(i for i in range(1, ct.k) if ct.degrees[i] == 1)
    std = ct.degrees.index(3)
    T = ct.zvalues.copy()
    T[sign, cls, 0] = 1 - 2**63
    T[std, cls, 0] = -(2**63)
    with pytest.raises(LiftVerificationFailed, match="orthogonality"):
        _certify(ct.group, ct.classes, zring.Embedded(T), ct.degrees)


# -- the contraction at the embeddings against the convolution reference -----------


def as_items(index, counts):
    return list(zip(map(tuple, index.tolist()), counts.tolist()))


def outcome(fn, *args):
    """fn(*args), or the class and message of the gate error it raised."""
    try:
        return fn(*args)
    except (NonIntegerMultiplicity, NotRational) as exc:
        return type(exc), str(exc)


def contract_keys(keys, counts, table, bins=None):
    """zring.contract on the tuples of the (t, n) array keys."""
    k, n = table.T.shape[0], keys.shape[1]
    return zring.contract(keys @ zring.radix(k, n), counts, table, n, bins)


def kernel_multiplicities(keys, counts, ct, divisor):
    sums = contract_keys(keys, counts, ct.embedded)
    return as_items(*_multiplicities(*sums, (ct.k,) * keys.shape[1], divisor))


def decompose_items(pc, ct, n):
    return list(decompose_permutation_character(pc, ct, n).mult.items())


def assert_routes_match(code, ct):
    """R(H) by both routes, MacWilliams #2 and the classical pairing
    transform (abelian groups) against the convolution reference, in the
    reference's key order."""
    patterns, counts = class_pattern_arrays(code, ct.classes)
    want = rz.reference_multiplicities(patterns, counts, ct.zvalues, code.size)
    assert list(dual_multiset(code, ct).mult.items()) == list(want.items())
    pc = permutation_character(code, ct.classes)
    assert decompose_items(pc, ct, code.n) == list(rz.reference_decompose(pc, ct, code.n).items())
    cwe = complete_weight_enumerator(code, ct.classes)
    want = rz.reference_cwe_transform(cwe, ct.zvalues, code.size)
    assert identities.macwilliams2_transform(code, ct).terms == want.terms
    if ct.k == ct.group.order:
        # MacWilliams #2's sums relabelled to element contents, as the
        # abelian check reads them, against the one-hot pairing table
        ab = ct.abelian_pairing
        k, n = ct.k, code.n
        sums, irrational = identities._cwe_transform(
            codes.cwe_counts(code, ct.classes), ct.embedded, n
        )
        assert not irrational.any()
        rank = zring.content_ranks(ab.irrep_to_element[zring.content_tuples(k, n)], k)
        relabelled = np.empty_like(sums)
        relabelled[rank] = sums
        got = codes.content_poly(k, n, relabelled, code.size)
        pairing = np.eye(ct.group.exponent, dtype=np.int64)[np.array(ab.eps)]
        assert got.terms == rz.reference_cwe_transform(cwe, pairing, code.size).terms


def test_embedded_contraction_matches_reference_on_matrix():
    checked = 0
    for _, code, ct in build_matrix():
        assert_routes_match(code, ct)
        checked += 1
    assert checked == 192


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(small_codes())
def test_embedded_contraction_property(code_and_table):
    assert_routes_match(*code_and_table)


def tampered(ct, edit) -> CharacterTable:
    """ct with its values edited in place of a copy, not certified."""
    T = ct.zvalues.copy()
    edit(T)
    T.setflags(write=False)
    return CharacterTable(ct.group, ct.classes, ct.degrees, ct.conductor, T)


def set_entry(i, j, value: Cyclotomic):
    def edit(T):
        T[i, j] = 0
        T[i, j, : len(value.coeffs)] = [int(c) for c in value.coeffs]

    return edit


def add_entry(i, j, c):
    def edit(T):
        T[i, j, 0] += c

    return edit


def negate_row(i):
    def edit(T):
        T[i] = -T[i]

    return edit


S3 = symmetric_group(3)
Z5 = cyclic_group(5)
TAMPERINGS = [
    # an irrational entry, on the transpositions of the sign character
    ("irrational", S3, set_entry(1, 1, Cyclotomic.zeta(6))),
    # a rational entry off by one: multiplicities stop dividing
    ("non-divisible", S3, add_entry(2, 1, 1)),
    # the sign character negated: multiplicities turn negative
    ("negative", S3, negate_row(1)),
    # zeta - zeta^-1 is purely imaginary, so every real combination of its
    # images at z^a and z^-a vanishes; only the comparison of the images
    # across the embeddings shows that it is not rational
    ("imaginary", Z5, set_entry(1, 1, Cyclotomic.zeta(5) - Cyclotomic.zeta(5, 4))),
]


@pytest.mark.parametrize("label, G, edit", TAMPERINGS, ids=[t[0] for t in TAMPERINGS])
def test_tampered_tables_fail_as_the_reference(label, G, edit):
    ct = character_table(G)
    bad = tampered(ct, edit)
    messages = set()
    for code in (trivial_code(G, 2), full_code(G, 2), diagonal_code(G, 3), diagonal_code(G, 2)):
        patterns, counts = class_pattern_arrays(code, ct.classes)
        pc = permutation_character(code, ct.classes)
        cwe = complete_weight_enumerator(code, ct.classes)
        routes = [
            (
                outcome(kernel_multiplicities, patterns, counts, bad, code.size),
                outcome(rz.reference_multiplicities, patterns, counts, bad.zvalues, code.size),
            ),
            (
                outcome(decompose_items, pc, bad, code.n),
                outcome(rz.reference_decompose, pc, bad, code.n),
            ),
            (
                outcome(identities.macwilliams2_transform, code, bad),
                outcome(rz.reference_cwe_transform, cwe, bad.zvalues, code.size),
            ),
        ]
        for got, want in routes:
            assert got == (list(want.items()) if isinstance(want, dict) else want)
            if isinstance(got, tuple):
                messages.add(got[1])
    expected = {
        "irrational": "not rational",
        "non-divisible": "/",
        "negative": " is -",
        "imaginary": "not rational",
    }[label]
    assert any(expected in m for m in messages)


def test_imaginary_entry_is_caught_across_embeddings():
    # one entry zeta_5 - zeta_5^-1: none of its images is zero, and those
    # at z^a and z^-a are negatives of each other
    value = Cyclotomic.zeta(5) - Cyclotomic.zeta(5, 4)
    T = np.zeros((1, 1, 5), dtype=np.int64)
    T[0, 0, :4] = [int(c) for c in value.coeffs]
    table = zring.Embedded(T)
    p = table.primes(0)[0]
    images = table.images(p)[:, 0, 0]
    assert images.all() and not ((images + images[::-1]) % p).any()
    # the entry itself, and its square 2 - zeta^2 - zeta^-2, which is real
    for n in (1, 2):
        _, irrational = contract_keys(np.zeros((1, n), dtype=np.int64), np.array([1]), table)
        assert irrational.tolist() == [True]


def reference_values(keys, counts, T, bins=False):
    """(values, irrational) of the reference contraction, reduced."""
    A = rz.contract(keys, counts, T)
    if bins and keys.shape[1]:  # at n = 0 the one tuple is the one content
        A = sum_by_content(A, keys.shape[1])[1]
    raw = zring.reduce(A).reshape(-1, zring.reduction_matrix(T.shape[-1]).shape[1])
    return raw[:, 0], raw[:, 1:].any(axis=1)


def assert_contract_matches(keys, counts, table: zring.Embedded, bins=False):
    k, n = table.T.shape[0], keys.shape[1]
    want_values, want_irrational = reference_values(keys, counts, table.T, bins)
    content_groups = zring.content_bins(k, n)
    values, irrational = contract_keys(keys, counts, table, content_groups if bins else None)
    assert irrational.tolist() == want_irrational.tolist()
    assert values[~irrational].tolist() == want_values[~want_irrational].tolist()


def test_counts_past_int64_recombine_by_crt():
    huge = {(0, 1): 2**70, (3, 5): -3, (4, 4): 5**40}
    keys = np.array(list(huge), dtype=np.int64)
    counts = np.array(list(huge.values()), dtype=object)
    for G in (cyclic_group(6), symmetric_group(3), symmetric_group(4)):
        ct = character_table(G)
        bound = (2**70 + 3 + 5**40) * ct.embedded.column_norm**2
        assert len(ct.embedded.primes(bound)) >= 3
        for bins in (False, True):
            assert_contract_matches(keys % ct.k, counts, ct.embedded, bins)
    # S3: every product of rational values is rational, and the largest
    # output is past int64
    ct = character_table(symmetric_group(3))
    values, irrational = contract_keys(keys % 3, counts, ct.embedded)
    assert not irrational.any() and values.dtype == object
    assert max(abs(v) for v in values.tolist()) > 2**63


def test_decompose_needs_two_primes_on_diag_s3_7():
    # sum of the weighted counts |Gamma|^n = 6^7 times column_norm^7 = 4^7
    # is past half the first prime, so the decomposition recombines two
    ct = character_table(S3)
    code = diagonal_code(S3, 7)
    bound = 6**7 * ct.embedded.column_norm**7
    assert len(ct.embedded.primes(bound)) == 2
    pc = permutation_character(code, ct.classes)
    assert decompose_items(pc, ct, 7) == list(rz.reference_decompose(pc, ct, 7).items())
    assert list(dual_multiset(code, ct).mult.items()) == decompose_items(pc, ct, 7)


def test_decompose_weights_past_int64_are_exact():
    # counts scaled by 2**62 make max|pc| * |Gamma|^n pass int64, so the
    # weights are Python ints; the multiplicities scale with them
    ct = character_table(S3)
    pc = permutation_character(diagonal_code(S3, 3), ct.classes)
    for scale in (1, 2**62):
        scaled = {t: c * scale for t, c in pc.items()}
        want = [(t, m * scale) for t, m in decompose_items(pc, ct, 3)]
        assert decompose_items(scaled, ct, 3) == want
        assert want == list(rz.reference_decompose(scaled, ct, 3).items())


@pytest.mark.parametrize("source", ["cold", "cached"])
def test_each_table_is_embedded_once_per_prime(source, tmp_path, monkeypatch):
    # certification embeds the table at its first prime, and the
    # contractions after it reuse those images
    calls = []
    embed = zring.embed
    monkeypatch.setattr(zring, "embed", lambda T, p: calls.append(p) or embed(T, p))
    for G in (symmetric_group(3), cyclic_group(7), dihedral_group(30)):
        cache_dir = tmp_path if source == "cached" else None
        if cache_dir:
            monkeypatch.setattr(chartable, "_cache", {})
            character_table(G, cache_dir=cache_dir)
        monkeypatch.setattr(chartable, "_cache", {})
        calls.clear()
        ct = character_table(G, cache_dir=cache_dir)
        assert calls == [ct.embedded.primes(0)[0]]
        code = diagonal_code(G, 2)
        dual_multiset(code, ct)
        images = dict(ct.embedded._images)
        dual_multiset(code, ct)
        assert sorted(calls) == sorted(set(calls)) == sorted(images)
        for p, E in ct.embedded._images.items():
            assert E is images[p] and E.shape == (euler_phi(ct.conductor), ct.k, ct.k)


def test_primes_match_the_loop_on_both_sides_of_the_first_prime():
    # the odd first prime p0 alone serves every bound up to p0 // 2, and
    # the loop adds primes from p0 // 2 + 1 up
    for G in (symmetric_group(3), cyclic_group(7), dihedral_group(30)):
        table = character_table(G).embedded
        p0 = rz.primes(table, 0)[0]
        half = p0 // 2
        for bound in (0, 1, half - 1, half, half + 1, p0, p0**2, p0**3 // 2, 2**200):
            assert table.primes(bound) == rz.primes(table, bound), (G.name, bound)
        assert len(table.primes(half)) == 1 and len(table.primes(half + 1)) == 2


@pytest.mark.parametrize("block_size", [1, 2, 3])
def test_contract_across_embedding_blocks_matches_reference(monkeypatch, block_size):
    # with TABLE_BLOCK cut to block_size outputs, each block holds
    # block_size embeddings of the four of Z5 (and of D5's Z[zeta_5]), so
    # the first block may hold the reference image alone and every other
    # image is compared in a later block; the keys give rational and
    # irrational outputs at n = 2 and n = 1, and n = 0 has the one count
    # alone at every embedding; counts run as int64 and as Python ints
    # past int64, dense and summed by content
    cases = [
        (cyclic_group(5), [(1, 0), (4, 0), (2, 3)]),
        (dihedral_group(5), [(1, 2)]),
        (cyclic_group(5), [(1,), (3,)]),
        (dihedral_group(5), [(0,), (2,), (3,)]),
        (cyclic_group(5), [()]),
        (dihedral_group(5), [()]),
    ]
    for G, rows in cases:
        ct = character_table(G)
        keys = np.array(rows, dtype=np.int64).reshape(len(rows), len(rows[0]))
        size = ct.k ** keys.shape[1]
        monkeypatch.setattr(groups, "TABLE_BLOCK", block_size * size)
        small = np.array([3, 3, -2][: len(rows)], dtype=np.int64)
        huge = np.array([3 * 2**70, 3, -(2**65)][: len(rows)], dtype=object)
        for counts in (small, huge):
            for bins in (False, True):
                assert_contract_matches(keys, counts, ct.embedded, bins)
        _, irrational = contract_keys(keys, small, ct.embedded)
        if G.order == 5 and keys.shape[1]:
            assert irrational.any() and not irrational.all()
        if not keys.shape[1]:
            assert not irrational.any()


def _object_crt(residues, primes):
    """Garner's recombination on Python ints, as it ran before the int64
    path."""
    values, P = residues[0].astype(object), primes[0]
    for r, p in zip(residues[1:], primes[1:]):
        values = values + P * ((r.astype(object) - values) * pow(P, -1, p) % p)
        P *= p
    return np.where(values > P // 2, values - P, values)


def _near_half(P: int, rng) -> list[int]:
    """Integers c with |c| < P/2: the extremes, zero and random ones."""
    h = P // 2
    edges = [h - int(d) for d in rng.integers(0, min(1000, h + 1), 20)]
    inner = [int(x) for x in rng.integers(-min(h, 2**62), min(h, 2**62), 40)]
    return edges + [-c for c in edges] + [0, 1, -1] + inner


@pytest.mark.parametrize(
    "primes",
    [(438353269, 438353281), (1048583, 1048589, 1048601), (101,)],
    ids=["diag-S3^14", "three", "one"],
)
def test_crt_below_2_62_runs_in_int64(primes):
    """diag S3^14 recombines these two primes (product about 1.9e17)."""
    rng = np.random.default_rng(sum(primes))
    P = math.prod(primes)
    want = _near_half(P, rng)
    residues = [np.array([c % p for c in want], dtype=np.int64) for p in primes]
    got = zring._symmetric_crt(residues, primes)
    assert got.dtype == np.int64
    assert got.tolist() == want == _object_crt(residues, primes).tolist()


def test_crt_past_2_62_stays_object():
    primes = (zring.prime_1_mod(1, 2**31), zring.prime_1_mod(1, 2**31 + 100))
    P = math.prod(primes)
    assert P >= 2**62
    want = _near_half(P, np.random.default_rng(7))
    residues = [np.array([c % p for c in want], dtype=np.int64) for p in primes]
    got = zring._symmetric_crt(residues, primes)
    assert got.dtype == object
    assert got.tolist() == want == _object_crt(residues, primes).tolist()
