import random
import re
from fractions import Fraction

import numpy as np
import pytest

from repdual.chartable import character_table
from repdual.codes import (
    RankProfile,
    code_from_generators,
    diagonal_code,
    full_code,
    rank_profile,
    trivial_code,
)
from repdual.duality import (
    _digits,
    _multiplicities,
    _to_multiset,
    decompose_permutation_character,
    dual_cwe,
    dual_multiset,
    dual_weight_enumerator,
    extension_lemma_checks,
    permutation_character,
)
from repdual.errors import CapExceeded, NonIntegerMultiplicity
from repdual.groups import cyclic_group, quaternion_group, symmetric_group
from repdual.identities import CodeAnalysis, verify_extension_lemma
from repdual.polynomials import MultiPoly, UniPoly

import reference_zring as rz
from reference_polynomials import substitute
from reference_tallies import class_pattern_arrays, legacy, multiset_from_mult

S3 = symmetric_group(3)
CT3 = character_table(S3)


def example_code():
    # the order-6 cyclic subgroup of S3^2 generated by ((0 1), (0 1 2))
    return code_from_generators(S3, 2, [(1, 2)])


def test_example_dual_multiset():
    dm = dual_multiset(example_code(), CT3)
    # trivial = rho1, sign = rho2, 2-dim = rho3 (indices 0, 1, 2)
    assert dm.mult == {(0, 0): 1, (0, 1): 1, (2, 0): 1, (2, 1): 1}
    assert dm.total_dimension() == 6


def test_full_code_dual_is_trivial_tuple():
    for n in (1, 2, 3):
        dm = dual_multiset(full_code(S3, n), CT3)
        assert dm.mult == {(0,) * n: 1}


def test_trivial_code_dual_is_regular_representation():
    dm = dual_multiset(trivial_code(S3, 1), CT3)
    assert dm.mult == {(0,): 1, (1,): 1, (2,): 2}


def test_diagonal_s3_4_multiplicity():
    dm = dual_multiset(diagonal_code(S3, 4), CT3)
    assert dm.mult[(2, 2, 2, 2)] == 3


def test_length_zero_code_dual_is_the_empty_tuple():
    dm = dual_multiset(diagonal_code(S3, 0), CT3)
    assert dm.mult == {(): 1}
    assert dm.total_dimension() == 1


@pytest.mark.parametrize("radices", [(3, 3, 3), (5, 1, 7, 2), (4,), ()])
def test_digits_match_unravel_index(radices):
    total = int(np.prod(radices))
    flat = np.array(sorted({0, total - 1, *random.Random(0).sample(range(total), min(total, 9))}))
    got = _digits(flat, radices, np.int16)
    assert got.dtype == np.int16 and got.shape == (len(flat), len(radices))
    want = np.stack(np.unravel_index(flat, radices), axis=1) if radices else got
    assert np.array_equal(got, want)


def test_index_is_lex_ordered_int16_digits():
    for code in (example_code(), diagonal_code(S3, 4), trivial_code(S3, 3)):
        dm = dual_multiset(code, CT3)
        assert dm.index.dtype == np.int16
        assert list(map(tuple, dm.index.tolist())) == sorted(dm.mult)


def test_tuple_cap():
    with pytest.raises(CapExceeded):
        dual_multiset(trivial_code(S3, 4), CT3, cap=10)


@pytest.mark.parametrize(
    "code",
    [full_code(S3, 4), diagonal_code(quaternion_group(), 3), trivial_code(cyclic_group(6), 4),
     diagonal_code(cyclic_group(5), 5)],
    ids=["full S3^4", "diag Q8^3", "trivial Z6^4", "diag Z5^5"],
)
def test_dual_multiset_matches_reference_on_both_sides_of_k_n(code):
    # |H| = 1296 words over 81 class tuples and 8 over 125; then 1 word over
    # 1296 tuples and 5 over 3125: the pattern tally is one bincount into
    # the k^n tuples either way
    ct = character_table(code.group)
    patterns, counts = class_pattern_arrays(code, ct.classes)
    want = rz.reference_multiplicities(patterns, counts, ct.zvalues, code.size)
    assert list(dual_multiset(code, ct).mult.items()) == list(want.items())


def test_tuple_cap_refuses_before_the_pattern_tally(monkeypatch):
    # k^n = 9 class tuples of S3^2: a cap of 8 refuses before any bincount,
    # and a cap of 9 tallies the 36 words
    code = full_code(S3, 2)
    sizes = []
    bincount = np.bincount

    def spy(x, *args, **kwargs):
        sizes.append(len(x))
        return bincount(x, *args, **kwargs)

    monkeypatch.setattr(np, "bincount", spy)
    with pytest.raises(CapExceeded, match="irrep tuple space"):
        dual_multiset(code, CT3, cap=8)
    assert sizes == []
    assert dual_multiset(code, CT3, cap=9).mult == {(0, 0): 1}
    assert sizes[0] == 36


def test_example_permutation_character():
    pc = permutation_character(example_code(), CT3.classes)
    assert pc == {(0, 0): 6, (1, 0): 2, (0, 2): 6, (1, 2): 2}


def test_full_code_permutation_character_all_ones():
    pc = permutation_character(full_code(S3, 2), CT3.classes)
    assert pc == {tup: 1 for tup in pc}
    assert len(pc) == 9


def test_trivial_code_permutation_character_regular():
    pc = permutation_character(trivial_code(S3, 2), CT3.classes)
    assert pc == {(0, 0): 36}


def test_oracle_equivalence_spot():
    Q8 = quaternion_group()
    ctq = character_table(Q8)
    Z4 = cyclic_group(4)
    ctz = character_table(Z4)
    rng = random.Random("oracle")
    cases = [
        (example_code(), CT3),
        (diagonal_code(S3, 3), CT3),
        (full_code(Q8, 2), ctq),
        (trivial_code(Q8, 2), ctq),
        (diagonal_code(Z4, 3), ctz),
    ]
    for _ in range(3):
        w = tuple(rng.randrange(8) for _ in range(2))
        cases.append((code_from_generators(Q8, 2, [w]), ctq))
    for code, ct in cases:
        dm = dual_multiset(code, ct)
        pc = permutation_character(code, ct.classes)
        dm2 = decompose_permutation_character(pc, ct, code.n)
        assert dm2.mult == dm.mult


def test_dual_weight_enumerator():
    assert dual_weight_enumerator(dual_multiset(full_code(S3, 2), CT3)) == UniPoly({0: 1})
    assert dual_weight_enumerator(dual_multiset(example_code(), CT3)) == UniPoly(
        {0: 1, 1: 3, 2: 2}
    )
    assert dual_weight_enumerator(dual_multiset(trivial_code(S3, 1), CT3)) == UniPoly(
        {0: 1, 1: 5}
    )


def test_dual_weight_enumerator_at_one_counts_cosets():
    for code in (example_code(), diagonal_code(S3, 3), trivial_code(S3, 2)):
        W = dual_weight_enumerator(dual_multiset(code, CT3))
        assert sum(W.coeffs.values()) == 6**code.n // code.size


def test_dual_cwe_example():
    cwe = dual_cwe(dual_multiset(example_code(), CT3))
    assert cwe == MultiPoly(
        3, {(2, 0, 0): 1, (1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
    )


def test_dual_cwe_full_code():
    assert dual_cwe(dual_multiset(full_code(S3, 2), CT3)) == MultiPoly(3, {(2, 0, 0): 1})


def test_dual_cwe_diagonal_s3_4():
    # the nine-term expansion for the diagonal code
    expected = MultiPoly(
        3,
        {
            (4, 0, 0): 1,
            (2, 2, 0): 6,
            (2, 0, 2): 6,
            (1, 1, 2): 12,
            (1, 0, 3): 4,
            (0, 4, 0): 1,
            (0, 2, 2): 6,
            (0, 1, 3): 4,
            (0, 0, 4): 3,
        },
    )
    assert dual_cwe(dual_multiset(diagonal_code(S3, 4), CT3)) == expected


def test_dual_cwe_dimension_weighted_specialization():
    # x_1 -> 1, x_j -> deg_j * z for j > 1 turns dual_cwe into the dual
    # weight enumerator (a plain x -> z substitution does not)
    for code in (example_code(), diagonal_code(S3, 4), trivial_code(S3, 2)):
        dm = dual_multiset(code, CT3)
        images = [(Fraction(1), 0)] + [
            (Fraction(dm.degrees[j]), 1) for j in range(1, dm.k)
        ]
        assert substitute(dual_cwe(dm).terms, images) == dual_weight_enumerator(dm).coeffs


def test_extension_lemma_endpoints():
    code = example_code()
    dm = dual_multiset(code, CT3)
    rp = rank_profile(code)
    full_mask = 0b11
    res = extension_lemma_checks(rp, dm)[full_mask]
    assert res.passed and res.lhs == 1
    res = extension_lemma_checks(rp, dm)[0]
    assert res.passed and res.lhs == 6
    # S = {2} (second coordinate): tuples trivial there are 1x1 and tx1
    res = extension_lemma_checks(rp, dm)[0b10]
    assert res.passed and res.lhs == 3 == res.rhs


def test_extension_lemma_all_subsets():
    Q8 = quaternion_group()
    ctq = character_table(Q8)
    for code, ct in (
        (example_code(), CT3),
        (diagonal_code(S3, 3), CT3),
        (code_from_generators(Q8, 3, [(2, 4, 6)]), ctq),
    ):
        dm = dual_multiset(code, ct)
        rp = rank_profile(code)
        for S in range(1 << code.n):
            assert extension_lemma_checks(rp, dm)[S].passed


def test_coset_cap():
    with pytest.raises(CapExceeded):
        permutation_character(trivial_code(S3, 2), CT3.classes, coset_cap=10)


def test_extension_lemma_checks_match_direct_sums():
    # a tampered multiset too, so that some subsets fail
    code = diagonal_code(S3, 3)
    dm = dual_multiset(code, CT3)
    rp = rank_profile(code)
    tampered = multiset_from_mult(3, dm.k, dm.degrees, {**dm.mult, (0, 2, 0): 1})
    for d in (dm, tampered):
        checks = extension_lemma_checks(rp, d)
        assert [c.S for c in checks] == list(range(8))
        for c in checks:
            direct = sum(
                m * legacy(d).dim(t)
                for t, m in d.mult.items()
                if all(t[i] == 0 for i in range(3) if c.S >> i & 1)
            )
            assert c.lhs == direct
            assert c.passed == (direct == c.rhs)
    assert all(c.passed for c in extension_lemma_checks(rp, dm))
    failed = [c.S for c in extension_lemma_checks(rp, tampered) if not c.passed]
    assert failed == [0, 1, 4, 5]
    # complement cards 7 (at S = 0) and 5 (at S = 0b100) divide no power of
    # |S3| = 6, so the right side is a proper Fraction there
    card = list(rp.card)
    card[0b111], card[0b011] = 7, 5
    bad = RankProfile(3, 6, tuple(card))
    checks = extension_lemma_checks(bad, dm)
    assert [(c.S, c.lhs, c.rhs) for c in checks if not c.passed] == [
        (0, 36, Fraction(216, 7)),
        (4, 6, Fraction(36, 5)),
    ]
    assert all(type(c.lhs) is type(c.rhs) is Fraction for c in checks)
    analysis = CodeAnalysis(code, CT3)
    analysis.rp = bad
    assert verify_extension_lemma(analysis).details == [
        "subset 0x0: dimension sum 36 != 216/7",
        "subset 0x4: dimension sum 6 != 36/5",
    ]
    # |Gamma|^n = 2^120 is past int64: the sides are compared as Python ints
    huge = RankProfile(3, 2**40, bad.card)
    for c in extension_lemma_checks(huge, dm):
        assert c.rhs == Fraction(2 ** (40 * (3 - c.S.bit_count())), bad.card[0b111 & ~c.S])
        assert c.passed == (c.lhs == c.rhs) == (c.S == 0b111)
    analysis.rp = huge
    assert len(verify_extension_lemma(analysis).details) == 7


# -- the gates of R(H) ------------------------------------------------------------


def reduced_array(entries):
    """A reduced (3, 3, phi(3)) array, as for S3 at n = 2, zero but at the
    given (j_1, j_2, coefficient) positions."""
    raw = np.zeros((3, 3, 2), dtype=np.int64)
    for key, value in entries.items():
        raw[key] = value
    return raw


def kernel_sums(raw):
    """The reduced array as zring.contract returns it: the flat rational
    parts and the mask of the irrational entries."""
    return raw[..., 0].reshape(-1), raw[..., 1:].any(axis=-1).reshape(-1)


@pytest.mark.parametrize(
    "entries, message",
    [
        # each failing entry after the first in lex order fails too
        ({(0, 0, 0): 6, (2, 0, 1): 1, (1, 2, 1): -2}, "multiplicity of (1, 2) is not rational"),
        ({(0, 0, 0): 6, (2, 1, 0): 3, (1, 2, 0): 4}, "multiplicity of (1, 2) is 2/3"),
        ({(0, 0, 0): 6, (2, 2, 0): -12, (0, 1, 0): -6}, "multiplicity of (0, 1) is -1"),
        ({(0, 0, 0): 6, (2, 2, 0): -3, (0, 2, 0): 5}, "multiplicity of (0, 2) is 5/6"),
        ({(0, 0, 0): 12, (2, 2, 0): 6}, "trivial tuple has multiplicity 2, expected 1"),
        ({(0, 1, 0): 6, (2, 2, 0): 6}, "trivial tuple has multiplicity 0, expected 1"),
        ({(0, 0, 0): 6, (2, 2, 0): 6}, "total dimension 5 != coset count 6"),
    ],
)
def test_dual_multiset_gates(entries, message):
    # divisor |H| = 6, and 36 / 6 = 6 cosets for the example code
    with pytest.raises(NonIntegerMultiplicity, match=f"^{re.escape(message)}$"):
        _to_multiset(kernel_sums(reduced_array(entries)), 6, example_code(), CT3)
    if "multiplicity of" in message:
        with pytest.raises(NonIntegerMultiplicity, match=f"^{re.escape(message)}$"):
            _multiplicities(*kernel_sums(reduced_array(entries)), (3, 3), 6)
