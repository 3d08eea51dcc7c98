import random
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from repdual.chartable import abelian_basis, abelian_pairing_exponents, character_table
from repdual.codes import (
    RankProfile,
    code_from_generators,
    code_from_words,
    diagonal_code,
    full_code,
    rank_profile,
    trivial_code,
    weight_enumerator,
)
from repdual import codes, duality, identities, zring
from repdual.duality import dual_multiset, dual_weight_enumerator
from repdual.errors import DomainError, NotAGroup, NotRational
from repdual.groups import (
    cyclic_group,
    dihedral_group,
    quaternion_group,
    symmetric_group,
)
from repdual.identities import (
    CodeAnalysis,
    classical_dual_code,
    greene_subset_form_H,
    greene_subset_form_dual,
    macwilliams1_rhs,
    macwilliams2_transform,
    verify_abelian_specialization,
    verify_all,
    verify_extension_lemma,
    verify_greene,
    verify_macwilliams1,
    verify_macwilliams2,
)
from repdual.polynomials import MultiPoly, UniPoly

from reference_polynomials import plain_product, plain_sum, power, scale
from reference_tallies import multiset_from_mult

S3 = symmetric_group(3)
Z2 = cyclic_group(2)


def example_code():
    return code_from_generators(S3, 2, [(1, 2)])


def test_greene_subset_form_full_z2():
    code = full_code(Z2, 1)
    # S=empty contributes 2t, S={1} contributes (1-t): total 1 + t = W_H
    assert greene_subset_form_H(code, rank_profile(code)) == UniPoly({0: 1, 1: 1})
    assert greene_subset_form_H(code, rank_profile(code)) == UniPoly(
        {d: Fraction(c) for d, c in {0: 1, 1: 1}.items()}
    )


def test_greene_subset_form_trivial_collapses():
    for n in (1, 2, 3):
        code = trivial_code(S3, n)
        assert greene_subset_form_H(code, rank_profile(code)) == UniPoly({0: 1})


def test_greene_subset_form_dual_full_code():
    code = full_code(S3, 2)
    assert greene_subset_form_dual(code, rank_profile(code)) == UniPoly({0: 1})


def test_greene_example_both_sides_independent():
    code = example_code()
    ct = character_table(S3)
    rp = rank_profile(code)
    assert greene_subset_form_H(code, rp) == UniPoly({0: 1, 1: 3, 2: 2})
    assert greene_subset_form_dual(code, rp) == dual_weight_enumerator(dual_multiset(code, ct))


def test_greene_subset_forms_match_per_subset_sums_on_a_bad_profile():
    code = example_code()
    good = rank_profile(code)
    # |pr_{1}(H)| = 2 replaced by 4, which does not divide |H| = 6
    bad = RankProfile(good.n, good.group_order, (1, 4, *good.card[2:]))
    t, one_minus_t = {1: 1}, {0: 1, 1: -1}
    q, full = code.group.order, (1 << code.n) - 1
    for rp in (good, bad):
        primal = dual = {}
        for S in range(1 << code.n):
            s = bin(S).count("1")
            term = plain_product(power(t, code.n - s), power(one_minus_t, s))
            primal = plain_sum(primal, scale(term, Fraction(code.size, rp.card[S])))
            dual = plain_sum(dual, scale(term, Fraction(q ** (code.n - s), rp.card[full & ~S])))
        assert greene_subset_form_H(code, rp).coeffs == primal
        assert greene_subset_form_dual(code, rp).coeffs == dual
    a = CodeAnalysis(code)
    a.rp = bad
    details = verify_greene(a).details
    assert details[0] == "primal subset form differs by 3/2*t - 3/2*t^2"
    assert details[1] == "dual subset form differs by 3/2*z - 3/2*z^2"


def test_verify_greene():
    for code in (
        example_code(),
        trivial_code(S3, 2),
        full_code(S3, 2),
        trivial_code(Z2, 3),
        full_code(Z2, 3),
        diagonal_code(S3, 4),
    ):
        res = verify_greene(CodeAnalysis(code))
        assert res.passed, res.details


def test_macwilliams1_repetition_code():
    code = code_from_generators(Z2, 2, [(1, 1)])
    rhs = macwilliams1_rhs(code, weight_enumerator(code))
    # (1/2)((1+z)^2 + (1-z)^2) = 1 + z^2
    assert rhs == UniPoly({0: 1, 2: 1})
    assert verify_macwilliams1(CodeAnalysis(code)).passed


def test_macwilliams1_failure_details():
    # R(H) with one more tuple (1, 1) of dimension 1, then H with one more
    # word of weight 1 as well: the difference W_R(H) - rhs, rendered
    code = example_code()
    dm = dual_multiset(code, character_table(S3))
    a = CodeAnalysis(code)
    a.dm = multiset_from_mult(2, dm.k, dm.degrees, {**dm.mult, (1, 1): 1})
    assert verify_macwilliams1(a).details == ["transform differs from dual enumerator by z^2"]
    a.w_counts = a.w_counts + np.array([0, 1, 0])
    assert verify_macwilliams1(a).details == [
        "transform differs from dual enumerator by -1/6 - 2/3*z + 11/6*z^2"
    ]


def test_macwilliams1_trivial_code_gives_full_transform():
    code = trivial_code(S3, 2)
    # (1 + 5z)^2
    assert macwilliams1_rhs(code, weight_enumerator(code)).coeffs == power({0: 1, 1: 5}, 2)
    assert verify_macwilliams1(CodeAnalysis(code)).passed


def test_macwilliams2_full_code_gamma1():
    res = verify_macwilliams2(CodeAnalysis(full_code(S3, 1)))
    assert res.passed, res.details
    assert macwilliams2_transform(full_code(S3, 1), character_table(S3)) == MultiPoly(
        3, {(1, 0, 0): 1}
    )


def diagonal_cwe_closed_form(n: int) -> MultiPoly:
    """(1/6)((x1+x2+2x3)^n + 3(x1-x2)^n + 2(x1+x2-x3)^n), built directly."""
    a = {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 2}
    b = {(1, 0, 0): 1, (0, 1, 0): -1}
    c = {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): -1}
    unit = (0, 0, 0)
    total = plain_sum(power(a, n, unit), scale(power(b, n, unit), 3), scale(power(c, n, unit), 2))
    return MultiPoly(3, scale(total, Fraction(1, 6)))


def test_macwilliams2_diagonal_closed_form():
    ct = character_table(S3)
    for n in (2, 3, 4):
        code = diagonal_code(S3, n)
        assert macwilliams2_transform(code, ct) == diagonal_cwe_closed_form(n)
        assert verify_macwilliams2(CodeAnalysis(code, ct)).passed


def test_macwilliams2_example_code():
    res = verify_macwilliams2(CodeAnalysis(example_code()))
    assert res.passed, res.details
    got = macwilliams2_transform(example_code(), character_table(S3))
    assert got == MultiPoly(3, {(2, 0, 0): 1, (1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})


def test_extension_lemma_verifier():
    for code in (example_code(), diagonal_code(S3, 3), full_code(Z2, 3)):
        assert verify_extension_lemma(CodeAnalysis(code)).passed


def test_passing_extension_lemma_builds_no_per_subset_object(monkeypatch):
    # the 64 subsets of diag S3^6 are compared as integer arrays: no
    # ExtensionCheck and no Fraction is built while every subset passes
    a = CodeAnalysis(diagonal_code(S3, 6))
    assert a.rp.n == a.dm.n == 6  # both are built before the spies go in
    built = []

    def spy(real):
        def build(*args, **kwargs):
            built.append(real.__name__)
            return real(*args, **kwargs)

        return build

    monkeypatch.setattr(duality, "ExtensionCheck", spy(duality.ExtensionCheck))
    monkeypatch.setattr(duality, "Fraction", spy(Fraction))
    monkeypatch.setattr(identities, "Fraction", spy(Fraction))
    assert verify_extension_lemma(a).passed
    assert built == []


def test_extension_lemma_verifier_reports_failing_subsets(monkeypatch):
    # an extra tuple (0, 2, 0) of dimension 2 raises the sum of exactly the
    # subsets that leave coordinate 1 free; rhs = |Gamma|^(n-|S|) / |pr_{E-S}(H)|
    code = diagonal_code(S3, 3)
    dm = dual_multiset(code, character_table(S3))
    tampered = multiset_from_mult(3, dm.k, dm.degrees, {**dm.mult, (0, 2, 0): 1})
    monkeypatch.setattr(identities, "dual_multiset", lambda *a, **kw: tampered)
    res = verify_extension_lemma(CodeAnalysis(code))
    assert res.passed is False
    assert res.details == [
        "subset 0x0: dimension sum 38 != 36",
        "subset 0x1: dimension sum 8 != 6",
        "subset 0x4: dimension sum 8 != 6",
        "subset 0x5: dimension sum 3 != 1",
    ]


def test_abelian_basis_cyclic_and_product():
    basis, orders = abelian_basis(cyclic_group(6))
    assert orders == [6]
    from repdual.groups import product_group

    K4 = product_group([cyclic_group(2), cyclic_group(2)])
    basis, orders = abelian_basis(K4)
    assert sorted(orders) == [2, 2]
    with pytest.raises(DomainError):
        abelian_basis(S3)


def test_pairing_z4():
    Z4 = cyclic_group(4)
    eps = abelian_pairing_exponents(Z4)
    for x in range(4):
        for y in range(4):
            assert eps[x][y] == (x * y) % 4


def test_classical_dual_z4():
    Z4 = cyclic_group(4)
    eps = abelian_pairing_exponents(Z4)
    code = code_from_generators(Z4, 2, [(1, 1)])
    dual = classical_dual_code(code, eps)
    # brute force over all 16 pairs: a + b = 0 mod 4
    expected = {(a, b) for a in range(4) for b in range(4) if (a + b) % 4 == 0}
    assert set(dual.words) == expected


def test_classical_dual_z2_repetition_self_dual():
    eps = abelian_pairing_exponents(Z2)
    code = code_from_generators(Z2, 2, [(1, 1)])
    assert classical_dual_code(code, eps).words == code.words


def test_classical_dual_trivial_z6():
    Z6 = cyclic_group(6)
    eps = abelian_pairing_exponents(Z6)
    dual = classical_dual_code(trivial_code(Z6, 1), eps)
    assert dual.size == 6


def test_verify_abelian_specialization():
    for G, n, gens in (
        (Z2, 2, [(1, 1)]),
        (cyclic_group(4), 2, [(1, 1)]),
        (cyclic_group(4), 3, [(1, 2, 0)]),
        (cyclic_group(6), 1, []),
        (cyclic_group(6), 2, [(2, 3)]),
    ):
        code = code_from_generators(G, n, gens)
        res = verify_abelian_specialization(CodeAnalysis(code))
        assert res.passed, (G.name, n, res.details)
    with pytest.raises(DomainError):
        verify_abelian_specialization(CodeAnalysis(trivial_code(S3, 1)))


def test_verify_all_nonabelian_sample():
    rng = random.Random("suite")
    Q8 = quaternion_group()
    D4 = dihedral_group(4)
    cases = [
        example_code(),
        diagonal_code(Q8, 2),
        code_from_generators(D4, 3, [(1, 3, 5)]),
        full_code(D4, 2),
    ]
    for _ in range(2):
        w = tuple(rng.randrange(8) for _ in range(3))
        cases.append(code_from_generators(Q8, 3, [w]))
    for code in cases:
        for res in verify_all(code):
            assert res.passed, (code, res.name, res.details)


@pytest.mark.parametrize(
    "code",
    [code_from_generators(cyclic_group(4), 3, [(1, 2, 0)]), example_code()],
    ids=["Z4", "S3"],
)
def test_verify_all_computes_each_artifact_once(monkeypatch, code):
    # the checks read the weight counts of H and of R(H), built once each;
    # no weight enumerator polynomial is built on a passing run.  Two
    # contractions, R(H) and the cwe transform, which the abelian check
    # relabels; no table is embedded past the one certification made
    character_table(code.group).embedded
    calls = Counter()

    def count(module, name, counted=lambda *args: True):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            if counted(*args):
                calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("dual_multiset", "rank_profile", "weight_counts", "dual_weight_counts"):
        count(identities, name)
    count(codes, "weight_enumerator")
    count(duality, "dual_weight_enumerator")
    count(identities.UniPoly, "__init__")
    # the abelian check also tallies the classical dual code
    count(identities, "cwe_counts", lambda c, *_: c is code)
    count(codes, "projection_cardinalities")
    count(zring, "contract")
    count(zring, "Embedded")
    results = verify_all(code)
    assert len(results) == (5 if code.group.is_abelian() else 4)
    assert all(r.passed for r in results), [(r.name, r.details) for r in results]
    assert calls == {
        "dual_multiset": 1,
        "rank_profile": 1,
        "weight_counts": 1,
        "dual_weight_counts": 1,
        "cwe_counts": 1,
        "projection_cardinalities": 1,
        "contract": 2,
    }


def tampered_analysis(monkeypatch, G, gens, extra, fewer, swap=True) -> CodeAnalysis:
    """An analysis whose R(H) has its largest tuple swapped for the least
    missing one, at multiplicity 2 (when swap is set), and whose cwe_H has
    extra more words at its first nonzero content and fewer words at its
    last (content order)."""
    ct = character_table(G)
    n = len(gens[0])
    code = code_from_generators(G, n, gens)
    dm = dual_multiset(code, ct)
    mult = {t: m for t, m in dm.mult.items() if t != max(dm.mult)}
    mult[next(t for t in product(range(ct.k), repeat=n) if t not in dm.mult)] = 2
    tampered = multiset_from_mult(n, dm.k, dm.degrees, mult) if swap else dm
    monkeypatch.setattr(identities, "dual_multiset", lambda *args, **kwargs: tampered)
    counts = codes.cwe_counts(code, ct.classes).copy()
    nonzero = np.flatnonzero(counts)
    counts[nonzero[0]] += extra
    counts[nonzero[-1]] -= fewer
    real = codes.cwe_counts
    monkeypatch.setattr(
        identities, "cwe_counts", lambda c, classes: counts if c is code else real(c, classes)
    )
    return CodeAnalysis(code, ct)


def test_macwilliams2_failure_details(monkeypatch):
    # every coefficient that is not a nonnegative integer, in content order,
    # then the difference rendered as a polynomial
    a = tampered_analysis(monkeypatch, S3, [(1, 2)], 1, 12)
    assert verify_macwilliams2(a).details == [
        "transformed coefficient at (2, 0, 0) is -5/6, not a nonnegative integer",
        "transformed coefficient at (1, 1, 0) is 4/3, not a nonnegative integer",
        "transformed coefficient at (1, 0, 1) is 11/3, not a nonnegative integer",
        "transformed coefficient at (0, 2, 0) is 13/6, not a nonnegative integer",
        "transformed coefficient at (0, 1, 1) is -1/3, not a nonnegative integer",
        "transformed coefficient at (0, 0, 2) is 2/3, not a nonnegative integer",
        "cwe transform differs from dual cwe by -11/6*x1^2 + 1/3*x1*x2 + 2/3*x1*x3 + 13/6*x2^2"
        " - 1/3*x2*x3 + 2/3*x3^2",
    ]
    # one more word: every coefficient moves by less than 1
    a = tampered_analysis(monkeypatch, S3, [(1, 2)], 1, 0, swap=False)
    assert verify_macwilliams2(a).details == [
        "transformed coefficient at (2, 0, 0) is 7/6, not a nonnegative integer",
        "transformed coefficient at (1, 1, 0) is 4/3, not a nonnegative integer",
        "transformed coefficient at (1, 0, 1) is 5/3, not a nonnegative integer",
        "transformed coefficient at (0, 2, 0) is 1/6, not a nonnegative integer",
        "transformed coefficient at (0, 1, 1) is 5/3, not a nonnegative integer",
        "transformed coefficient at (0, 0, 2) is 2/3, not a nonnegative integer",
        "cwe transform differs from dual cwe by 1/6*x1^2 + 1/3*x1*x2 + 2/3*x1*x3 + 1/6*x2^2"
        " + 2/3*x2*x3 + 2/3*x3^2",
    ]
    a = tampered_analysis(monkeypatch, S3, [(1, 2)], 6, 12)
    assert verify_macwilliams2(a).details == [
        "cwe transform differs from dual cwe by -x1^2 + 2*x1*x2 + 4*x1*x3 + 3*x2^2 + 3*x2*x3"
        " + 4*x3^2",
    ]
    a = tampered_analysis(monkeypatch, Z2, [(1, 1, 0)], 6, 12)
    assert verify_macwilliams2(a).details == [
        "transformed coefficient at (3, 0) is -2, not a nonnegative integer",
        "transformed coefficient at (0, 3) is -2, not a nonnegative integer",
        "cwe transform differs from dual cwe by -3*x1^3 + 13*x1^2*x2 + 15*x1*x2^2 - 2*x2^3",
    ]
    assert verify_abelian_specialization(a).details == [
        "dual multiset is not 0/1-valued over an abelian group",
        "phi-image mismatch; missing=[(1, 1, 1)] extra=[(0, 1, 0)]",
        "classical cwe transform differs from the brute-force dual by -3*x1^3 + 15*x1^2*x2"
        " + 15*x1*x2^2 - 3*x2^3",
        "relabeled dual cwe differs from the classical dual cwe by 2*x1^2*x2 - x2^3",
    ]


def test_macwilliams2_rationality_gate_names_the_first_content(monkeypatch):
    # Z4 has complex characters: one more word at a content makes the
    # transform irrational, reported at the first such content
    a = tampered_analysis(monkeypatch, cyclic_group(4), [(1, 2, 0)], 1, 3)
    cases = [(verify_macwilliams2, "(2, 0, 1, 0)"), (verify_abelian_specialization, "(2, 1, 0, 0)")]
    for check, content in cases:
        with pytest.raises(NotRational) as exc:
            check(a)
        assert str(exc.value) == f"transformed coefficient at {content} is not rational"


def test_verify_all_on_length_zero_codes():
    # one word, one coset, R(H) = {(): 1}: every check holds, MacWilliams #2
    # and the classical dual included
    for G in (S3, cyclic_group(4)):
        code, ct = diagonal_code(G, 0), character_table(G)
        results = verify_all(code, ct)
        assert len(results) == (5 if G.is_abelian() else 4)
        assert all(r.passed for r in results), [(r.name, r.details) for r in results]
        assert macwilliams2_transform(code, ct) == MultiPoly(ct.k, {(0,) * ct.k: 1})


def test_code_from_words_validation():
    words = {(0, 0), (1, 2)}  # not closed
    with pytest.raises(NotAGroup):
        code_from_words(S3, 2, words)


def test_verify_all_product_groups_and_trivial_gamma():
    from repdual.groups import group_from_generators, product_group

    K4 = product_group([cyclic_group(2), cyclic_group(2)])
    Z2xZ4 = product_group([cyclic_group(2), cyclic_group(4)])
    cases = [
        code_from_generators(K4, 2, [(1, 2)]),
        code_from_generators(Z2xZ4, 2, [(1, 5), (4, 2)]),
        diagonal_code(symmetric_group(4), 2),
        trivial_code(group_from_generators([]), 3),
    ]
    for code in cases:
        for res in verify_all(code):
            assert res.passed, (code, res.name, res.details)


def test_macwilliams1_endpoints_count_cosets():
    # both sides of the identity evaluate to |Gamma|^n / |H| at z = 1
    for code in (example_code(), diagonal_code(S3, 3), full_code(Z2, 2), trivial_code(Z2, 3)):
        cosets = code.group.order**code.n // code.size
        ct = character_table(code.group)
        Wd = dual_weight_enumerator(dual_multiset(code, ct))
        assert sum(Wd.coeffs.values()) == cosets
        assert sum(macwilliams1_rhs(code, weight_enumerator(code)).coeffs.values()) == cosets
