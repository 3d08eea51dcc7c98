"""Differential tests of the array tallies against the per-word and
per-tuple references in reference_tallies: on the acceptance matrix, on
random small codes, on a dual multiset whose sums pass int64, on the
failure report of the abelian relabelling and on the polymatroid check of
the rank profile.  The rank profile's subset-sum transform is compared with
the per-subset projections, and the content-count vectors with the
per-word enumerators, on both sides of the switch to distinct rows."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

import reference_tallies as ref
import reference_zring
from reference_polynomials import plain_sum, scale
from reference_tallies import legacy, multiset_from_mult
from repdual import codes, groups, identities, zring
from repdual.chartable import abelian_pairing_exponents, character_table
from repdual.codes import (
    _distinct_rows,
    code_from_generators,
    complete_weight_enumerator,
    content_counts,
    content_enumerator,
    content_poly,
    cwe_counts,
    diagonal_code,
    full_code,
    projection_cardinalities,
    rank_profile,
    weight_enumerator,
)
from repdual.duality import (
    _multiplicities,
    _trivial_dimension_sums,
    dual_cwe,
    dual_multiset,
    dual_weight_enumerator,
)
from repdual.errors import PolymatroidViolation
from repdual.groups import cyclic_group, symmetric_group
from repdual.identities import classical_dual_code
from repdual.polynomials import MultiPoly

from test_acceptance import build_matrix
from test_oracle import small_codes


def as_dict(keys, values):
    return dict(zip(map(tuple, keys.tolist()), values.tolist()))


def assert_profile_matches(code):
    card = [ref.project_cardinality(code, S) for S in range(1 << code.n)]
    assert projection_cardinalities(code) == card
    assert rank_profile(code).card == tuple(card)


def assert_tallies_match(code, ct):
    classes = ct.classes
    # words of H
    patterns, counts = ref.class_pattern_arrays(code, classes)
    assert weight_enumerator(code) == ref.weight_enumerator(code)
    want = ref.complete_weight_enumerator(code, classes)
    assert complete_weight_enumerator(code, classes) == want
    assert content_poly(ct.k, code.n, cwe_counts(code, classes)) == want
    assert_profile_matches(code)
    # the content sums of the contraction, the first step of MacWilliams #2
    A = reference_zring.contract(patterns, counts, ct.zvalues)
    flat = patterns @ zring.radix(ct.k, code.n)
    bins = zring.content_bins(ct.k, code.n)
    sums, irrational = zring.contract(flat, counts, ct.embedded, code.n, bins)
    contents = zring.content_exponents(zring.content_tuples(ct.k, code.n), ct.k)
    want_contents, want_sums = ref.sum_by_content(A, code.n)
    want_sums = zring.reduce(want_sums)
    assert list(map(tuple, contents.tolist())) == want_contents
    assert not irrational.any() and not want_sums[:, 1:].any()
    assert sums.tolist() == want_sums[:, 0].tolist()
    # tuples of R(H), in the key order of the per-tuple loop
    raw = zring.reduce(A)
    sums = zring.contract(flat, counts, ct.embedded, code.n)
    index, mult = _multiplicities(*sums, raw.shape[:-1], code.size)
    want = ref._multiplicities(raw, code.size)
    assert list(as_dict(index, mult).items()) == list(want.items())
    dm = dual_multiset(code, ct)
    assert list(dm.mult.items()) == list(want.items())
    old = legacy(dm)
    assert dm.dims.tolist() == [old.dim(t) for t in dm.mult]
    assert dm.weights.tolist() == [old.weight(t) for t in dm.mult]
    assert dm.total_dimension() == old.total_dimension()
    assert dual_weight_enumerator(dm) == ref.dual_weight_enumerator(old)
    assert dual_cwe(dm) == ref.dual_cwe(old)
    assert content_poly(dm.k, dm.n, content_counts(dm.index, dm.k, dm.counts)) == ref.dual_cwe(old)
    assert _trivial_dimension_sums(dm).tolist() == ref._trivial_dimension_sums(old)
    if ct.k == code.group.order:
        eps = abelian_pairing_exponents(code.group)
        assert classical_dual_code(code, eps).words == ref.classical_dual_code(code, eps).words


def test_tallies_match_reference_on_matrix():
    checked = 0
    for _, code, ct in build_matrix():
        assert_tallies_match(code, ct)
        checked += 1
    assert checked == 192


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(small_codes())
def test_tallies_property(code_and_table):
    assert_tallies_match(*code_and_table)


@pytest.mark.parametrize(
    "degrees, mult",
    [
        # counts * dims = 2^62 * 8 passes int64; two rows share a content,
        # so the summed counts 2^62 + 2^62 = 2^63 do too
        (
            (1, 1, 2),
            {(0, 0, 0): 1, (1, 2, 0): 2**62, (2, 0, 1): 2**62, (2, 2, 2): 2**62, (0, 2, 2): 5},
        ),
        # a single dimension 2^66 passes int64 while every count is small
        ((1, 2**22), {(0, 0, 0): 1, (1, 1, 1): 3, (0, 1, 1): 2}),
    ],
)
def test_sums_past_int64_are_exact(degrees, mult):
    dm = multiset_from_mult(3, len(degrees), degrees, mult)
    old = ref.LegacyMultiset(3, len(degrees), degrees, mult)
    assert max(m * old.dim(t) for t, m in mult.items()) >= 2**63
    assert dm.dims.tolist() == [old.dim(t) for t in dm.mult]
    assert dm.total_dimension() == old.total_dimension()
    assert dual_weight_enumerator(dm) == ref.dual_weight_enumerator(old)
    assert dual_cwe(dm) == ref.dual_cwe(old)
    assert content_poly(dm.k, dm.n, content_counts(dm.index, dm.k, dm.counts)) == ref.dual_cwe(old)
    assert _trivial_dimension_sums(dm).tolist() == ref._trivial_dimension_sums(old)


@pytest.mark.parametrize(
    "degrees, n, rows",
    [((1, 1, 2), 4, 50), ((1, 2, 3, 3), 7, 300), ((1, 2**22), 3, 8), ((1, 1000), 7, 20), ((1,), 0, 1)],
)
@pytest.mark.parametrize("block", [groups.TABLE_BLOCK, 5])
def test_blocked_reductions_match_their_whole_array_forms(monkeypatch, degrees, n, rows, block):
    """dims and the support masks, built a block of rows at a time, against
    the (t, n) products they replaced, in value and dtype."""
    monkeypatch.setattr(groups, "TABLE_BLOCK", block)
    rng = np.random.default_rng(rows)
    index = rng.integers(0, len(degrees), (rows, n)).astype(np.int16)
    dm = multiset_from_mult(n, len(degrees), degrees, dict.fromkeys(map(tuple, index.tolist()), 1))
    table = np.array(degrees, dtype=zring.exact_dtype(max(degrees) ** n))
    old = table[dm.index].prod(axis=1)
    assert dm.dims.dtype == old.dtype and dm.dims.tolist() == old.tolist()
    for A in (dm.index, index, rng.integers(-2, 3, (rows, n))):
        assert codes.support_masks(A).tolist() == ((A != 0) @ (1 << np.arange(n))).tolist()


@pytest.mark.parametrize("q, n", [(1, 3), (2, 1), (3, 0), (2, 5), (6, 4), (5, 3)])
def test_full_code_words_match_np_indices(q, n):
    words = full_code(cyclic_group(q), n).word_array
    old = np.indices((q,) * n, dtype=np.int64).reshape(n, q**n).T
    assert words.dtype == np.int64 and words.shape == old.shape
    assert np.array_equal(words, old)


def test_transform_profile_matches_per_subset_past_the_matrix():
    # 2^6 and 2^14 subsets; diag S3^14 is the large-n regime of verify --all
    S3 = symmetric_group(3)
    for code in (full_code(S3, 6), diagonal_code(S3, 14)):
        assert_profile_matches(code)


@pytest.mark.parametrize(
    "k, n, rows, dense",
    [
        (61, 1, 300, True),
        (70, 1, 300, True),
        (30, 3, 300, True),
        (40, 3, 300, False),
        (40, 3, 12000, True),
        (300, 2, 300, False),
        (11, 20, 300, False),
        (100, 30, 300, False),
    ],
)
def test_content_tallies_by_rank(k, n, rows, dense, monkeypatch):
    # both sides of (n+1)^k = 2^62, where contents read in base n+1 leave
    # int64, and both sides of content_enumerator's switch from the table
    # of all contents to the distinct rows: (40, 3) has 11480 contents,
    # tallied over all of them for 12000 rows and by distinct rows for 300;
    # diag S6^20's shape (11, 20) has 30045015, and (100, 30) more than
    # 2^63, so its ranks are Python ints
    C = zring.n_contents(k, n)
    rng = np.random.default_rng(k * 10 + n)
    P = rng.integers(0, k, size=(rows, n))
    P[:100] = np.sort(P[:100], axis=1)[:, ::-1]  # contents that recur in other orders
    P[0], P[1] = 0, k - 1  # the first and the last content
    assert zring.content_ranks(P[:2], k).tolist() == [0, C - 1]
    weights = rng.integers(-(2**61), 2**61, size=rows)
    calls = []
    real = codes.content_counts
    monkeypatch.setattr(codes, "content_counts", lambda *a: calls.append(a) or real(*a))
    for w in (None, weights):
        want = Counter()
        for r, row in enumerate(P.tolist()):
            want[tuple(np.bincount(row, minlength=k).tolist())] += 1 if w is None else int(w[r])
        want = MultiPoly(k, {e: Fraction(c) for e, c in want.items()})
        assert content_enumerator(P, k, w) == want
        if C <= 10**6:
            assert content_poly(k, n, real(P, k, w)) == want
    assert len(calls) == 2 * dense


@pytest.mark.parametrize("k, n", [(1, 0), (3, 0), (1, 4), (2, 5), (4, 3), (3, 10), (30, 3)])
def test_content_bins_group_tuples_by_rank(k, n):
    # 3^10 and 30^3 are past TABLE_BLOCK, so they are built afresh
    order, starts = zring.content_bins(k, n)
    assert sorted(order.tolist()) == list(range(k**n))
    digits = order[:, None] // k ** np.arange(n - 1, -1, -1) % k
    content = np.repeat(np.arange(len(starts)), np.diff(np.append(starts, k**n)))
    assert np.array_equal(np.sort(digits, axis=1), zring.content_tuples(k, n)[content])


def test_distinct_rows_of_wide_entries():
    # rows are compared entry by entry, so entries past int16 (and words
    # past int64 when read as base-q numbers) order and count exactly
    A = np.array([[2**40, 7], [3, 2**62], [2**40, 7], [3, 2**62], [3, 1]] * 2, dtype=np.int64)
    rows, counts = _distinct_rows(A)
    assert rows.tolist() == [[3, 1], [3, 2**62], [2**40, 7]]
    assert counts.tolist() == [2, 4, 4]
    rows, sums = _distinct_rows(A, np.full(len(A), 2**61, dtype=np.int64))
    assert sums.tolist() == [2**62, 2**63, 2**63]


def violation(check, *args):
    try:
        check(*args)
    except PolymatroidViolation as exc:
        return str(exc)
    return None


def test_polymatroid_check_matches_reference(monkeypatch):
    """Profiles of full codes (card = 6^|S|) with up to two entries moved, so
    that both failures occur at many S, plus exact cardinalities whose
    products pass int64."""
    rng = random.Random(3)
    found = set()
    for trial in range(400):
        n = rng.randint(1, 6)
        card = [6 ** bin(S).count("1") for S in range(1 << n)]
        for _ in range(rng.randint(0, 2)):
            S = rng.randrange(1, 1 << n)
            card[S] = rng.choice([card[S] * 6, max(1, card[S] // 6), card[S] + 1, max(1, card[S] - 1)])
        if trial % 10 == 0:
            card = [c * 2**40 if S else c for S, c in enumerate(card)]
        monkeypatch.setattr(codes, "projection_cardinalities", lambda code: card)
        expected = violation(ref.check_polymatroid, card, n)
        assert violation(rank_profile, full_code(cyclic_group(2), n)) == expected
        found.add(expected.split()[0] if expected else None)
    assert found == {"monotonicity", "submodularity", None}


def test_abelian_relabelling_matches_reference(monkeypatch):
    # one tuple of R(H) swapped for another: the phi-image and the relabeled
    # cwe then differ from the classical dual exactly as the per-tuple code
    # reports it
    G = cyclic_group(6)
    ct = character_table(G)
    code = code_from_generators(G, 2, [(1, 2)])
    dm = dual_multiset(code, ct)
    mult = {t: m for t, m in dm.mult.items() if t != max(dm.mult)}
    mult[next(t for t in itertools.product(range(6), repeat=2) if t not in dm.mult)] = 1
    tampered = multiset_from_mult(2, dm.k, dm.degrees, mult)
    monkeypatch.setattr(identities, "dual_multiset", lambda *args, **kwargs: tampered)
    result = identities.verify_abelian_specialization(identities.CodeAnalysis(code, ct))

    eps = abelian_pairing_exponents(G)
    phi = ref.irrep_to_element(ct, eps)
    dual = ref.classical_dual_code(code, eps)
    mapped = {tuple(phi[j] for j in t) for t in mult}
    missing = sorted(set(dual.words) - mapped)[:5]
    extra = sorted(mapped - set(dual.words))[:5]
    relabeled = ref.relabeled_dual_cwe(legacy(tampered), phi, G.order)
    cwe_dual = ref.complete_weight_enumerator(dual, ct.classes)
    difference = MultiPoly(G.order, plain_sum(relabeled.terms, scale(cwe_dual.terms, -1)))
    assert result.details == [
        f"phi-image mismatch; missing={missing} extra={extra}",
        "relabeled dual cwe differs from the classical dual cwe by "
        + difference.render("x"),
    ]
