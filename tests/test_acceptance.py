"""Acceptance suite: one test per criterion, each printing a PASS line.

The code matrix is Gamma in {Z2, Z4, Z6, S3, D4, Q8} x n in {1..4} x
{trivial, full, diagonal, 5 seeded random single-generator codes}; every
check below is exact except the explicitly floating Tutte tie-back.
"""

import random
import time
from fractions import Fraction

import pytest

from repdual.chartable import character_table
from repdual.codes import (
    code_from_generators,
    complete_weight_enumerator,
    diagonal_code,
    full_code,
    rank_profile,
    trivial_code,
    tutte_evaluate,
    weight_enumerator,
)
from repdual.duality import (
    DEFAULT_COSET_CAP,
    DEFAULT_TUPLE_CAP,
    decompose_permutation_character,
    dual_multiset,
    dual_weight_enumerator,
    extension_lemma_checks,
    permutation_character,
)
from repdual.groups import (
    cyclic_group,
    dihedral_group,
    quaternion_group,
    symmetric_group,
)
from repdual.identities import (
    CodeAnalysis,
    macwilliams2_transform,
    verify_abelian_specialization,
    verify_greene,
    verify_macwilliams1,
    verify_macwilliams2,
)
from repdual.polynomials import MultiPoly

import reference_cyclotomic as rc
from reference_polynomials import value

GROUPS = (
    ("Z2", cyclic_group(2)),
    ("Z4", cyclic_group(4)),
    ("Z6", cyclic_group(6)),
    ("S3", symmetric_group(3)),
    ("D4", dihedral_group(4)),
    ("Q8", quaternion_group()),
)
LENGTHS = (1, 2, 3, 4)
RANDOM_SEEDS = 5


def build_matrix():
    entries = []
    for gname, G in GROUPS:
        ct = character_table(G)
        for n in LENGTHS:
            if ct.k**n > DEFAULT_TUPLE_CAP:
                continue
            named = [
                ("trivial", trivial_code(G, n)),
                ("full", full_code(G, n)),
                ("diag", diagonal_code(G, n)),
            ]
            for i in range(RANDOM_SEEDS):
                rng = random.Random(f"{gname}:{n}:{i}")
                word = tuple(rng.randrange(G.order) for _ in range(n))
                named.append((f"cyclic{i}", code_from_generators(G, n, [word])))
            for label, code in named:
                entries.append((f"{gname} n={n} {label}", code, ct))
    return entries


@pytest.fixture(scope="module")
def matrix():
    return build_matrix()


def test_criterion_1_example_reproduction():
    start = time.perf_counter()
    S3 = symmetric_group(3)
    ct = character_table(S3)
    code = code_from_generators(S3, 2, [(1, 2)])
    pc = permutation_character(code, ct.classes)
    assert pc == {(0, 0): 6, (1, 0): 2, (0, 2): 6, (1, 2): 2}
    dm = dual_multiset(code, ct)
    assert dm.mult == {(0, 0): 1, (0, 1): 1, (2, 0): 1, (2, 1): 1}
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 (S3^2 example: permutation character and R(H)): PASS ({elapsed:.3f}s)")


def test_criterion_2_diagonal_example():
    start = time.perf_counter()
    S3 = symmetric_group(3)
    ct = character_table(S3)
    for n in (2, 3, 4):
        cwe = complete_weight_enumerator(diagonal_code(S3, n), ct.classes)
        assert cwe == MultiPoly(3, {(n, 0, 0): 1, (0, n, 0): 3, (0, 0, n): 2})
    diag4 = diagonal_code(S3, 4)
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
    assert macwilliams2_transform(diag4, ct) == expected
    assert verify_macwilliams2(CodeAnalysis(diag4, ct)).passed
    assert dual_multiset(diag4, ct).mult[(2, 2, 2, 2)] == 3
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 2 (diagonal S3^n cwe and MacWilliams #2 at n=4): PASS ({elapsed:.3f}s)")


def test_criterion_3_identity_suite(matrix):
    start = time.perf_counter()
    failures = []
    for name, code, ct in matrix:
        analysis = CodeAnalysis(code, ct)
        for verifier in (verify_greene, verify_macwilliams1, verify_macwilliams2):
            res = verifier(analysis)
            if not res.passed:
                failures.append((name, res.name, res.details))
    elapsed = time.perf_counter() - start
    assert not failures, failures
    assert elapsed < 300.0
    print(
        f"\nACCEPTANCE 3 (Greene + MacWilliams #1/#2 on {len(matrix)} matrix codes): "
        f"PASS ({elapsed:.1f}s)"
    )


def test_criterion_4_oracle_equivalence(matrix):
    start = time.perf_counter()
    checked = 0
    for name, code, ct in matrix:
        cosets = ct.group.order**code.n // code.size
        if cosets > DEFAULT_COSET_CAP:
            continue
        pc = permutation_character(code, ct.classes, coset_cap=DEFAULT_COSET_CAP)
        via_cosets = decompose_permutation_character(pc, ct, code.n)
        via_frobenius = dual_multiset(code, ct)
        assert via_cosets.mult == via_frobenius.mult, name
        checked += 1
    elapsed = time.perf_counter() - start
    print(
        f"\nACCEPTANCE 4 (coset fixed-point route == Frobenius route on {checked} codes): "
        f"PASS ({elapsed:.1f}s)"
    )


def test_criterion_5_character_table_certification():
    S3_expected_columns = [[1, 1, 2], [1, -1, 0], [1, 1, -1]]
    lines = []
    for gname, G in GROUPS + (("S4", symmetric_group(4)),):
        start = time.perf_counter()
        ct = character_table(G)
        k = ct.k
        # independent re-check of exact orthogonality (certified inside too)
        values = rc.values(ct)
        conj = [[v.conjugate() for v in row] for row in values]
        for i in range(k):
            for i2 in range(k):
                total = sum(
                    (ct.classes.class_sizes[j] * (values[i][j] * conj[i2][j])
                     for j in range(k)),
                    start=Fraction(0),
                )
                assert total == (Fraction(G.order) if i == i2 else 0), (gname, i, i2)
        for j in range(k):
            for j2 in range(k):
                total = sum(
                    ((values[i][j] * conj[i][j2]) for i in range(k)),
                    start=Fraction(0),
                )
                expected = (
                    Fraction(G.order, ct.classes.class_sizes[j]) if j == j2 else 0
                )
                assert total == expected, (gname, j, j2)
        assert sum(d * d for d in ct.degrees) == G.order
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, (gname, elapsed)
        lines.append(f"{gname} ({elapsed:.3f}s)")
    ct3 = character_table(symmetric_group(3))
    cols = [[ct3.value(i, j) for i in range(3)] for j in range(3)]
    assert cols == S3_expected_columns
    print(f"\nACCEPTANCE 5 (character tables certified: {', '.join(lines)}): PASS")


def test_criterion_6_extension_lemma(matrix):
    start = time.perf_counter()
    for name, code, ct in matrix:
        dm = dual_multiset(code, ct)
        rp = rank_profile(code)
        checks = extension_lemma_checks(rp, dm)
        for S in range(1 << code.n):
            res = checks[S]
            assert res.passed, (name, S, res.lhs, res.rhs)
    elapsed = time.perf_counter() - start
    print(
        f"\nACCEPTANCE 6 (extension lemma, all 2^n subsets, {len(matrix)} codes): "
        f"PASS ({elapsed:.1f}s)"
    )


def test_criterion_7_abelian_specialization(matrix):
    start = time.perf_counter()
    checked = 0
    for name, code, ct in matrix:
        if ct.k != ct.group.order or ct.group.name not in ("Z2", "Z4", "Z6"):
            continue
        dm = dual_multiset(code, ct)
        assert all(m == 1 for m in dm.mult.values()), name
        res = verify_abelian_specialization(CodeAnalysis(code, ct))
        assert res.passed, (name, res.details)
        checked += 1
    elapsed = time.perf_counter() - start
    print(
        f"\nACCEPTANCE 7 (abelian specialization on {checked} codes): PASS ({elapsed:.1f}s)"
    )


def test_criterion_8_tutte_tieback(matrix):
    from math import log

    start = time.perf_counter()
    for name, code, ct in matrix:
        q = code.group.order
        n = code.n
        rp = rank_profile(code)
        W = weight_enumerator(code)
        Wd = dual_weight_enumerator(dual_multiset(code, ct))
        r_full = 0.0 if q == 1 else log(code.size) / log(q)
        for z in (0.3, 0.5, 0.7):
            growth = (1.0 + (q - 1) * z) / (1.0 - z)
            primal = z ** (n - r_full) * (1.0 - z) ** r_full * tutte_evaluate(
                rp, growth, 1.0 / z
            )
            exact = value(W.coeffs, z)
            assert abs(primal - exact) <= 1e-9 * max(abs(primal), abs(exact)), (name, z)
            dual = (1.0 - z) ** (n - r_full) * z**r_full * tutte_evaluate(
                rp, 1.0 / z, growth
            )
            exact_d = value(Wd.coeffs, z)
            assert abs(dual - exact_d) <= 1e-9 * max(abs(dual), abs(exact_d)), (name, z)
    elapsed = time.perf_counter() - start
    print(
        f"\nACCEPTANCE 8 (floating Tutte tie-back at z=0.3/0.5/0.7, {len(matrix)} codes): "
        f"PASS ({elapsed:.1f}s)"
    )
