"""Differential and gate tests of the coset oracle.

The reference below is the per-word oracle the batched one replaced: a BFS
that canonicalizes every neighbour with |H| word products, and one count of
fixed cosets per class tuple.  The oracle now builds the representatives as
a product of per-coordinate transversals, so the BFS checks it.
"""

import re
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repdual import groups
from repdual.chartable import character_table
from repdual.codes import (
    code_from_generators,
    code_from_words,
    diagonal_code,
    full_code,
    trivial_code,
)
from repdual.duality import (
    DEFAULT_COSET_CAP,
    _coset_representatives,
    decompose_permutation_character,
    dual_multiset,
    permutation_character,
)
from repdual.errors import CapExceeded, NonIntegerMultiplicity, RepdualError
from repdual.groups import (
    ClassData,
    builtin_group,
    dihedral_group,
    product_group,
    symmetric_group,
)

from test_acceptance import build_matrix


def reference_coset_representatives(code):
    G = code.group
    T = G.cayley.tolist()
    gens = list(G.generators) or list(range(1, G.order))

    def canonical(word):
        return min(tuple(T[x][y] for x, y in zip(word, h)) for h in code.words)

    start = canonical((0,) * code.n)
    seen, frontier = {start}, [start]
    while frontier:
        nxt = []
        for x in frontier:
            for m in range(code.n):
                for g in gens:
                    y = list(x)
                    y[m] = T[g][y[m]]
                    rep = canonical(tuple(y))
                    if rep not in seen:
                        seen.add(rep)
                        nxt.append(rep)
        frontier = nxt
    return sorted(seen)


def reference_permutation_character(code, classes, reps):
    """Cosets xH (x in reps) fixed by the representative word of each class
    tuple: g fixes xH iff x^-1 g x lies in H (zero entries omitted)."""
    G, n = code.group, code.n
    X = np.array(reps, dtype=np.int64)
    MUL = G.cayley.astype(np.int64)
    INV = np.array(G.inverse, dtype=np.int64)
    weights = [G.order ** (n - 1 - m) for m in range(n)]
    H = np.array(code.words, dtype=np.int64) @ weights
    out = {}
    for tup in product(range(classes.num_classes), repeat=n):
        enc = sum(
            MUL[MUL[INV[X[:, m]], classes.class_reps[c]], X[:, m]] * weights[m]
            for m, c in enumerate(tup)
        )
        count = int(np.isin(enc, H).sum())
        if count:
            out[tup] = count
    return out


def assert_matches_reference(code, classes):
    reps = _coset_representatives(code, DEFAULT_COSET_CAP)
    assert reps.dtype == np.int64
    ref_reps = reference_coset_representatives(code)
    assert list(map(tuple, reps.tolist())) == ref_reps
    pc = permutation_character(code, classes, coset_cap=DEFAULT_COSET_CAP)
    assert pc == reference_permutation_character(code, classes, ref_reps)
    # keys in lex order, as the per-tuple loop produced them
    assert list(pc) == sorted(pc)
    return pc


def test_oracle_matches_reference_on_matrix():
    checked = 0
    for _, code, ct in build_matrix():
        assert_matches_reference(code, ct.classes)
        checked += 1
    assert checked == 192


@pytest.mark.parametrize("block", [1, 7])
def test_block_boundaries(monkeypatch, block):
    monkeypatch.setattr(groups, "TABLE_BLOCK", block)
    for _, code, ct in build_matrix():
        if code.n <= 3 and code.group.name in ("S3", "Q8", "Z4"):
            assert_matches_reference(code, ct.classes)


S3 = symmetric_group(3)
CT3 = character_table(S3)


def more_codes():
    """Codes outside the acceptance matrix: product groups, permutation
    groups on up to 5 points, several generators, and n = 5, 6."""
    Z2, Z4 = builtin_group("Z2"), builtin_group("Z4")
    S3xZ2, Z2_3 = product_group([S3, Z2]), product_group([Z2, Z2, Z2])
    S4, D5 = symmetric_group(4), dihedral_group(5)
    return [
        diagonal_code(S3xZ2, 2),
        code_from_generators(S3xZ2, 3, [(3, 4, 7), (10, 0, 3)]),
        code_from_generators(Z2_3, 3, [(1, 2, 0), (4, 4, 4)]),
        diagonal_code(S4, 3),
        code_from_generators(S4, 2, [(1, 5), (7, 0)]),
        code_from_generators(D5, 3, [(1, 2, 3)]),
        code_from_generators(D5, 2, [(1, 0), (0, 5)]),
        code_from_generators(Z2, 6, [(1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 1, 0), (0, 1, 0, 1, 0, 1)]),
        code_from_generators(Z2, 5, [(1, 0, 1, 1, 0)]),
        code_from_generators(Z4, 5, [(1, 2, 3, 0, 1)]),
        code_from_generators(Z4, 6, [(2, 2, 0, 0, 2, 2), (1, 0, 1, 0, 1, 0)]),
        diagonal_code(S3, 5),
        code_from_generators(S3, 6, [(1, 2, 0, 0, 0, 0), (0, 0, 1, 2, 0, 0), (0, 0, 0, 0, 1, 2)]),
    ]


@pytest.mark.parametrize("code", more_codes(), ids=repr)
def test_oracle_matches_reference_off_matrix(code):
    ct = character_table(code.group)
    pc = assert_matches_reference(code, ct.classes)
    assert decompose_permutation_character(pc, ct, code.n).mult == dual_multiset(code, ct).mult


def test_large_groups_match_reference_without_member_scans(monkeypatch):
    # the class-constancy tally takes the last member of every class from
    # one pass over class_of, not from one scan of the group per class
    codes = [
        diagonal_code(dihedral_group(60), 2),
        diagonal_code(dihedral_group(300), 1),
        trivial_code(dihedral_group(300), 1),
        diagonal_code(symmetric_group(6), 2),
    ]
    for code in codes:
        classes = groups.conjugacy_classes(code.group)
        reps = _coset_representatives(code, DEFAULT_COSET_CAP).tolist()
        want = reference_permutation_character(code, classes, reps)
        with monkeypatch.context() as m:
            m.setattr(ClassData, "members", lambda self, c: pytest.fail("members scanned"))
            assert permutation_character(code, classes) == want


# -- gates ---------------------------------------------------------------------


def test_wrong_partition_is_not_class_constant():
    # S3 elements: () (0 1) (0 1 2) (1 2) (0 2) (0 2 1); class 1 now holds
    # two transpositions and the 3-cycle (0 2 1), its last member
    bad = ClassData(3, (0, 1, 2, 1, 2, 1), (0, 1, 2), (1, 3, 2))
    H = code_from_generators(S3, 1, [(1,)])
    with pytest.raises(RepdualError, match=r"not constant on class tuple \(1,\)"):
        permutation_character(H, bad)


def test_wrong_partition_reports_first_tuple_in_lex_order():
    # both (0, 1) and (1, 0) fail for <(0 1)> x <(0 1)>
    bad = ClassData(3, (0, 1, 2, 1, 2, 1), (0, 1, 2), (1, 3, 2))
    H = code_from_generators(S3, 2, [(1, 0), (0, 1)])
    with pytest.raises(RepdualError, match=r"not constant on class tuple \(0, 1\)"):
        permutation_character(H, bad)


@pytest.mark.parametrize("block", [1, 7, groups.TABLE_BLOCK])
def test_wrong_partition_names_the_reference_tuple_across_blocks(monkeypatch, block):
    # the representative and last-member tallies share one bincount per
    # block, the second offset by k^n; with one coset per block, a few, or
    # all in one, the error names the lex-first tuple at which the
    # reference counts at the representatives (0, 1, 2) and at the last
    # members (0, 5, 4) of the wrong partition differ
    bad = ClassData(3, (0, 1, 2, 1, 2, 1), (0, 1, 2), (1, 3, 2))
    last = ClassData(3, bad.class_of, (0, 5, 4), bad.class_sizes)
    monkeypatch.setattr(groups, "TABLE_BLOCK", block)
    for gens in ([(1, 0, 0), (0, 1, 0), (0, 0, 3)], [(2, 0, 2)], [(3, 3, 0)]):
        H = code_from_generators(S3, 3, gens)
        reps = reference_coset_representatives(H)
        rep, alt = (reference_permutation_character(H, c, reps) for c in (bad, last))
        differ = sorted(t for t in rep.keys() | alt.keys() if rep.get(t) != alt.get(t))
        message = f"not constant on class tuple {differ[0]}"
        with pytest.raises(RepdualError, match=re.escape(message)):
            permutation_character(H, bad)


def test_length_zero_code_has_one_coset():
    # Gamma^0 is the trivial group: one coset, fixed by the empty tuple
    H = diagonal_code(S3, 0)
    assert _coset_representatives(H, DEFAULT_COSET_CAP).shape == (1, 0)
    pc = permutation_character(H, CT3.classes)
    assert pc == {(): 1}
    assert decompose_permutation_character(pc, CT3, 0).mult == {(): 1}


@pytest.mark.parametrize(
    "words, message",
    [
        ([(0,), (1,), (2,), (3,)], "does not divide"),
        ([(0,), (1,), (3,)], "K_1 is not closed"),
        # K_1 = {()} is closed, K_2 = {(), (0 1), (1 2)} is not
        ([(0, 0), (0, 1), (0, 3)], "K_2 is not closed"),
        # K_1 = {(), (0 1)} and K_2 = {()} are subgroups, but their indices
        # multiply to 18 cosets where |S3^2| / |H| = 12
        ([(0, 0), (1, 0), (1, 2)], "coset transversal has 18 cosets, expected 12"),
    ],
)
def test_non_subgroup_word_sets_are_rejected(words, message):
    H = code_from_words(S3, len(words[0]), words, validate=False)
    with pytest.raises(RepdualError, match=message):
        permutation_character(H, CT3.classes)


@pytest.mark.parametrize(
    "words, message",
    [
        ([(0,), (1,), (2,), (3,)], "|H| does not divide |Gamma|^n; not a subgroup?"),
        ([(0,), (1,), (3,)], "coset transversal: K_1 is not closed under the product; not a subgroup?"),
        ([(0, 0), (0, 1), (0, 3)], "coset transversal: K_2 is not closed under the product; not a subgroup?"),
        ([(0, 0), (1, 0), (1, 2)], "coset transversal has 18 cosets, expected 12; not a subgroup?"),
    ],
)
def test_oracle_refusals_keep_their_messages(words, message):
    # the whole oracle, decomposition included, refuses with the exact text
    H = code_from_words(S3, len(words[0]), words, validate=False)
    with pytest.raises(RepdualError) as refusal:
        decompose_permutation_character(permutation_character(H, CT3.classes), CT3, H.n)
    assert str(refusal.value) == message


def test_transversal_checks_pass_a_non_subgroup_that_decomposition_refuses():
    """{(0,0), (1,1), (2,0)} over Z3 is no subgroup: (1,1) + (1,1) = (2,2)
    is missing.  Yet K_1 = Z3 and K_2 = {0} are subgroups whose indices
    give 9 / 3 = 3 cosets, so the transversal checks accept the word set
    and count a permutation character from it; only the decomposition
    refuses it, at a multiplicity that is not rational."""
    Z3 = builtin_group("Z3")
    ct = character_table(Z3)
    H = code_from_words(Z3, 2, [(0, 0), (1, 1), (2, 0)], validate=False)
    assert _coset_representatives(H, DEFAULT_COSET_CAP).tolist() == [[0, 0], [0, 1], [0, 2]]
    pc = permutation_character(H, ct.classes)
    assert pc == {(0, 0): 3, (1, 1): 3, (2, 0): 3}
    with pytest.raises(NonIntegerMultiplicity) as refusal:
        decompose_permutation_character(pc, ct, H.n)
    assert str(refusal.value) == "multiplicity of (0, 1) is not rational"


def test_coset_cap_refuses_before_allocating():
    # trivial Q8^6 has 262144 cosets, 12.6 MB of representatives
    H = trivial_code(builtin_group("Q8"), 6)
    classes = character_table(H.group).classes
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="coset enumeration needs 262144 > cap 262143"):
            permutation_character(H, classes, coset_cap=262143)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_words_past_int64_are_refused():
    # Z2^64 has 2^64 words, one past the int64 encoding, whatever the caps
    Z2 = builtin_group("Z2")
    with pytest.raises(CapExceeded, match="int64 word encoding"):
        permutation_character(
            trivial_code(Z2, 64), character_table(Z2).classes,
            coset_cap=2**70, tuple_cap=2**70,
        )


def test_wrong_class_sizes_fail_burnside():
    c = CT3.classes
    bad = ClassData(c.num_classes, c.class_of, c.class_reps, (1, 3, 3))
    with pytest.raises(RepdualError, match="Burnside"):
        permutation_character(full_code(S3, 1), bad)


# -- property test ----------------------------------------------------------------

TABLES = [
    character_table(builtin_group(name)) for name in ("Z2", "Z4", "Z6", "S3", "D4", "Q8")
]


@st.composite
def small_codes(draw):
    ct = draw(st.sampled_from(TABLES))
    G, n = ct.group, draw(st.integers(1, 4))
    word = st.tuples(*[st.integers(0, G.order - 1)] * n)
    return code_from_generators(G, n, draw(st.lists(word, min_size=1, max_size=3))), ct


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(small_codes())
def test_oracle_property(code_and_table):
    code, ct = code_and_table
    pc = assert_matches_reference(code, ct.classes)
    assert decompose_permutation_character(pc, ct, code.n).mult == dual_multiset(code, ct).mult
