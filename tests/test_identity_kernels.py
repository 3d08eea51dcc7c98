"""Differential tests of the Greene and MacWilliams #1 checks on integer
count vectors against the polynomial checks they replaced
(reference_identities): the same name, verdict and details, on the codes of
the code_matrix benchmark workload, on tampered analyses whose checks fail,
and on a word set whose projection cardinalities do not divide the powers
of |Gamma|."""

import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repdual.codes import GroupCode, RankProfile, code_from_words, rank_profile
from repdual.errors import NonIntegerMultiplicity
from repdual.groups import cyclic_group, symmetric_group
from repdual.identities import CodeAnalysis, verify_greene, verify_macwilliams1
from repdual.polynomials import UniPoly

import reference_identities as ref
from reference_tallies import dual_weight_enumerator, legacy, multiset_from_mult, weight_enumerator
from test_identities import example_code, tampered_analysis

WORKLOADS = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"


@dataclass
class PolyAnalysis:
    """What the polynomial checks read."""

    code: GroupCode
    rp: RankProfile
    W: UniPoly
    Wd: UniPoly


def assert_checks_match(a: CodeAnalysis, W: UniPoly | None = None) -> list:
    """Both checks on a and the references on its polynomials, W_H from
    the words (or W) and W_R(H) from the tuples of a.dm; returns the
    results."""
    W = weight_enumerator(a.code) if W is None else W
    poly = PolyAnalysis(a.code, a.rp, W, dual_weight_enumerator(legacy(a.dm)))
    results = []
    pairs = ((verify_greene, ref.verify_greene), (verify_macwilliams1, ref.verify_macwilliams1))
    for check, reference in pairs:
        got, want = check(a), reference(poly)
        assert (got.name, got.passed, got.details) == (want.name, want.passed, want.details)
        results.append(got)
    return results


def code_matrix_ops(seed: int, tmp_path, monkeypatch):
    """The (label, (code, table)) ops of the benchmark's code_matrix
    workload at seed, loaded from its file."""
    spec = importlib.util.spec_from_file_location("code_matrix_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads.CodeMatrix().setup(seed, tmp_path).ops


@pytest.mark.parametrize("seed", [0, 1_000_003])
def test_checks_match_reference_on_code_matrix(seed, tmp_path, monkeypatch):
    ops = code_matrix_ops(seed, tmp_path, monkeypatch)
    assert len(ops) == 144
    for label, (code, ct) in ops:
        results = assert_checks_match(CodeAnalysis(code, ct))
        assert all(r.passed for r in results), label


def test_checks_match_reference_on_a_bad_profile():
    # |pr_{1}(H)| = 2 replaced by 4, which does not divide |H| = 6
    a = CodeAnalysis(example_code())
    good = a.rp
    a.rp = RankProfile(good.n, good.group_order, (1, 4, *good.card[2:]))
    greene, mw1 = assert_checks_match(a)
    assert not greene.passed and mw1.passed


@pytest.mark.parametrize(
    "G, gens",
    [
        (symmetric_group(3), [(1, 2)]),
        (cyclic_group(2), [(1, 1, 0)]),
        (cyclic_group(4), [(1, 2, 0)]),
    ],
)
def test_checks_match_reference_on_a_tampered_dual(monkeypatch, G, gens):
    # R(H) with its largest tuple swapped for the least missing one
    a = tampered_analysis(monkeypatch, G, gens, 0, 0)
    greene, mw1 = assert_checks_match(a)
    assert not greene.passed and not mw1.passed


@pytest.mark.parametrize("shift", [(0, 1, 1), (1, 2, 3), (2, 0, 7)])
def test_checks_match_reference_on_tampered_weight_counts(shift):
    # count more words at one weight: the primal subset form, the Tutte
    # spot-checks and MacWilliams #1 all fail, and their messages match
    source, target, extra = shift
    a = CodeAnalysis(example_code())
    counts = a.w_counts.copy()
    counts[target] += extra
    counts[source] -= min(extra, int(counts[source]))
    a.w_counts = counts
    W = UniPoly(dict(enumerate(counts.tolist())))
    greene, mw1 = assert_checks_match(a, W)
    assert not greene.passed and not mw1.passed
    assert any("Tutte spot-check" in d for d in greene.details)


def test_checks_match_reference_when_cardinalities_do_not_divide():
    # a word set that is not a subgroup: its cardinalities 2 and 4 divide
    # |H| = 4 but not 3 and 9, so the dual subset form has fractions.  Its
    # own R(H) is not rational, so the analysis reads a stand-in dual.
    Z3 = cyclic_group(3)
    code = code_from_words(Z3, 2, [(0, 0), (1, 1), (2, 0), (0, 2)], validate=False)
    assert rank_profile(code).card == (1, 2, 2, 4)
    with pytest.raises(NonIntegerMultiplicity):
        CodeAnalysis(code).dm
    a = CodeAnalysis(code)
    a.dm = multiset_from_mult(2, 3, (1, 1, 1), {(0, 0): 1, (1, 2): 2})
    greene, mw1 = assert_checks_match(a)
    assert not greene.passed and not mw1.passed
    assert "/" in next(d for d in greene.details if d.startswith("dual subset form"))
