"""repdual.trace: stage spans and counters, recorded only inside a block."""

import threading

from repdual import trace
from repdual.chartable import character_table
from repdual.codes import code_from_generators, diagonal_code
from repdual.duality import decompose_permutation_character, dual_multiset, permutation_character
from repdual.groups import symmetric_group
from repdual.identities import verify_all

S3 = symmetric_group(3)
CT3 = character_table(S3)


def run(code):
    """Every output that the traced layers feed, as plain values."""
    pc = permutation_character(code, CT3.classes)
    return (
        [(r.name, r.passed, r.details) for r in verify_all(code, CT3)],
        list(dual_multiset(code, CT3).mult.items()),
        pc,
        list(decompose_permutation_character(pc, CT3, code.n).mult.items()),
    )


def test_verify_all_nests_its_spans():
    code = diagonal_code(S3, 3)
    with trace.recording() as rec, trace.span("verify_all"):
        verify_all(code, CT3)
    outer, *inner = rec.spans
    assert (outer.name, outer.parent) == ("verify_all", None)
    # R(H) is contracted, then reduced; MacWilliams #2 contracts once more
    assert [s.name for s in inner] == [
        "frobenius contraction",
        "reduction to multiplicities",
        "frobenius contraction",
    ]
    for s in inner:
        assert s.parent == 0 and outer.start <= s.start <= s.end <= outer.end
    # siblings one after the other
    assert all(a.end <= b.start for a, b in zip(inner, inner[1:]))
    # S3 is rational: one prime, phi(6) = 2 embeddings per contraction
    tuples = len(dual_multiset(code, CT3).counts)
    assert rec.counters == {"primes": 2, "embeddings": 4, "nonzero tuples": tuples}


def test_oracle_spans_and_counters():
    code = diagonal_code(S3, 2)
    with trace.recording() as rec:
        pc = permutation_character(code, CT3.classes)
        with trace.span("decomposition"):
            decompose_permutation_character(pc, CT3, 2)
    names = [(s.name, s.parent) for s in rec.spans]
    assert names == [
        ("fixed-coset counts", None),
        ("decomposition", None),
        ("frobenius contraction", 1),
        ("reduction to multiplicities", 1),
    ]
    assert rec.counters["cosets"] == 6
    assert rec.counters["nonzero tuples"] == len(dual_multiset(code, CT3).counts)


def test_nothing_is_recorded_outside_a_block():
    assert trace.span("a") is trace.span("b")
    code = diagonal_code(S3, 2)
    with trace.recording() as rec:
        pass
    run(code)
    with trace.span("outside"):
        trace.count("outside", 5)
    assert rec.spans == [] and rec.counters == {}
    # a nested block records on its own, and the outer one resumes after it
    with trace.recording() as outer:
        with trace.recording() as inner:
            dual_multiset(code, CT3)
        dual_multiset(code, CT3)
    assert len(inner.spans) == len(outer.spans) == 2
    assert trace._active.get() is None


def test_a_block_records_its_own_thread_only():
    code = diagonal_code(S3, 2)
    with trace.recording() as rec:
        worker = threading.Thread(target=dual_multiset, args=(code, CT3))
        worker.start()
        worker.join(timeout=60)
    assert not worker.is_alive()
    assert rec.spans == [] and rec.counters == {}


def test_outputs_are_identical_with_recording_on():
    for code in (diagonal_code(S3, 3), code_from_generators(S3, 2, [(1, 2), (3, 0)])):
        plain = run(code)
        with trace.recording() as rec:
            traced = run(code)
        assert traced == plain
        assert rec.spans
