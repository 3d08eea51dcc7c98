import math
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repdual import codes
from repdual.codes import (
    RankProfile,
    code_from_generators,
    code_from_words,
    complete_weight_enumerator,
    diagonal_code,
    full_code,
    projection_cardinalities,
    rank_profile,
    trivial_code,
    tutte_evaluate,
    weight_enumerator,
)
from repdual.errors import (
    ClosureCapExceeded,
    DomainError,
    LengthMismatch,
    NotAGroup,
    PolymatroidViolation,
)
from repdual.groups import (
    builtin_group,
    conjugacy_classes,
    cyclic_group,
    product_group,
    symmetric_group,
)
from repdual.polynomials import MultiPoly, UniPoly

from reference_polynomials import substitute
from reference_tallies import check_subgroup, unchecked_code

S3 = symmetric_group(3)

# H <= S3^2 generated by ((0 1),(0 1 2)); element indices in the canonical
# BFS order of S3: 0=(), 1=(0 1), 2=(0 1 2), 3=(1 2), 4=(0 2), 5=(0 2 1)
EX_H_WORDS = {(0, 0), (1, 2), (0, 5), (1, 0), (0, 2), (1, 5)}


def example_code():
    return code_from_generators(S3, 2, [(1, 2)])


def test_example_code_words():
    code = example_code()
    assert code.size == 6
    assert set(code.words) == EX_H_WORDS


def test_empty_generators():
    code = code_from_generators(S3, 3, [])
    assert code.size == 1
    assert code.words == ((0, 0, 0),)


def test_diagonal_code():
    code = diagonal_code(S3, 4)
    assert code.size == 6
    assert all(len(set(w)) == 1 for w in code.words)
    gens = [(g,) * 4 for g in (1, 2)]
    assert code_from_generators(S3, 4, gens).words == code.words


def test_diagonal_code_of_length_zero_has_one_word():
    assert diagonal_code(S3, 0).words == ((),)


def test_full_code_leaves_the_word_tuples_unbuilt():
    code = full_code(cyclic_group(6), 6)
    assert code.size == 6**6
    assert code.word_array[[0, 1, 6, -1]].tolist() == [[0] * 6, [0] * 5 + [1], [0] * 4 + [1, 0], [5] * 6]
    weight_enumerator(code)
    rank_profile(code)
    assert "words" not in code.__dict__


@pytest.mark.parametrize(
    "words, message",
    [
        ([(1, 0)], "word set lacks the identity word"),
        ([(2, 0), (0, 0), (0, 2)], "word set not closed under inverse at (0, 2)"),
        ([(1, 0), (0, 1), (0, 0)], "word set not closed under product at (0, 1),(1, 0)"),
    ],
    ids=["identity", "inverse", "product"],
)
def test_code_from_words_names_the_first_failing_axiom(words, message):
    with pytest.raises(NotAGroup) as exc:
        code_from_words(S3, 2, words)
    assert str(exc.value) == message
    assert unchecked_code(S3, 2, words).size == len(words)


NEAR_GROUPS = {name: builtin_group(name) for name in ("Z4", "S3", "D4", "Q8", "Z6")}


@st.composite
def near_subgroups(draw):
    """A subgroup of Gamma^n (n <= 3) from up to two random generators, with
    one word removed, one word added, or left as it is."""
    G = NEAR_GROUPS[draw(st.sampled_from(sorted(NEAR_GROUPS)))]
    n = draw(st.integers(1, 3))
    word = st.tuples(*[st.integers(0, G.order - 1)] * n)
    words = list(code_from_generators(G, n, draw(st.lists(word, max_size=2))).words)
    change = draw(st.sampled_from(["remove", "add", "keep"]))
    if change == "remove":
        words.pop(draw(st.integers(0, len(words) - 1)))
    elif change == "add":
        words.append(draw(word))
    return G, n, draw(st.permutations(words))


def outcome(check):
    try:
        check()
    except NotAGroup as exc:
        return str(exc)
    return None


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(near_subgroups())
def test_code_from_words_validation_matches_the_scan(case):
    """The array validation accepts exactly the subgroups and otherwise
    raises the word scan's message."""
    G, n, words = case
    code = unchecked_code(G, n, words)
    got = outcome(lambda: code_from_words(G, n, words))
    assert got == outcome(lambda: check_subgroup(code))
    if got is None:
        assert code_from_generators(G, n, code.words) == code


def test_code_from_words_validates_full_codes_and_length_zero():
    G = product_group([symmetric_group(3), cyclic_group(2)])
    code = full_code(G, 3)
    assert code_from_words(G, 3, code.words) == code
    assert code_from_words(S3, 0, [()]).words == ((),)
    with pytest.raises(NotAGroup, match="^word set lacks the identity word$"):
        code_from_words(S3, 0, [])


@pytest.mark.parametrize("lazy", [True, False])
@pytest.mark.parametrize(
    "words, error, message",
    [
        ([(0, 0), (1,), (1, 2, 3)], LengthMismatch, "word (1,) does not have length 2"),
        ([(0, 0), (7, 0), (-1, 0)], NotAGroup, "word (7, 0) has an entry outside 0..5"),
        ([(0, 0), (0, -1)], NotAGroup, "word (0, -1) has an entry outside 0..5"),
    ],
    ids=["length", "too-large", "negative"],
)
def test_code_from_words_checks_lengths_and_entries(words, error, message, lazy):
    # any iterable of words, read once: a one-shot iterator as a list
    with pytest.raises(error) as exc:
        code_from_words(S3, 2, iter(words) if lazy else words)
    assert str(exc.value) == message


def test_closure_cap():
    with pytest.raises(ClosureCapExceeded):
        full_code(S3, 4, cap=100)
    with pytest.raises(LengthMismatch):
        code_from_generators(S3, 2, [(1, 2, 3)])


def test_project_cardinality_example():
    card = projection_cardinalities(example_code())
    assert card[0] == 1
    assert card[0b01] == 2  # first coordinate: {(), (0 1)}
    assert card[0b10] == 3
    assert card[0b11] == 6


def test_project_cardinality_diagonal():
    card = projection_cardinalities(diagonal_code(S3, 4))
    for m in range(4):
        assert card[1 << m] == 6


def test_rank_profile_trivial_and_full():
    t = rank_profile(trivial_code(S3, 3))
    assert all(c == 1 for c in t.card)
    f = rank_profile(full_code(cyclic_group(2), 3))
    for S in range(8):
        assert f.card[S] == 2 ** bin(S).count("1")


def test_rank_profile_example():
    rp = rank_profile(example_code())
    assert rp.card[0b01] == 2 and rp.card[0b10] == 3 and rp.card[0b11] == 6


@pytest.mark.parametrize(
    "cards, message",
    [
        ([1, 2, 2, 1], "monotonicity fails at S=1, i=1"),
        ([1, 2, 2, 6], "submodularity fails at S=0, i=0, j=1"),
    ],
    ids=["monotonicity", "submodularity"],
)
def test_rank_profile_names_the_first_polymatroid_violation(cards, message, monkeypatch):
    monkeypatch.setattr(codes, "projection_cardinalities", lambda code: cards)
    with pytest.raises(PolymatroidViolation) as exc:
        rank_profile(full_code(cyclic_group(2), 2))
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "words, message",
    [
        # K = pr_1 = Z3, but the words with letter 2 trivial are only 2 of 3
        (
            [(0, 0), (1, 1), (2, 0)],
            "rank profile: 2 words are trivial on S=2, which does not divide |H| = 3; "
            "not a subgroup?",
        ),
        # no identity word: no word is trivial on the first coordinate
        (
            [(1, 1)],
            "rank profile: 0 words are trivial on S=1, which does not divide |H| = 1; "
            "not a subgroup?",
        ),
    ],
    ids=["count-2-of-3", "no-identity"],
)
def test_rank_profile_refuses_counts_that_do_not_divide(words, message):
    code = unchecked_code(cyclic_group(3), 2, words)
    with pytest.raises(NotAGroup) as exc:
        rank_profile(code)
    assert str(exc.value) == message


def test_tutte_trivial_code():
    rp = rank_profile(trivial_code(cyclic_group(2), 1))
    assert tutte_evaluate(rp, 2.0, 3.0) == pytest.approx(3.0, rel=1e-12)


def test_tutte_full_z2():
    rp = rank_profile(full_code(cyclic_group(2), 1))
    assert tutte_evaluate(rp, 2.0, 2.0) == pytest.approx(2.0, rel=1e-12)


def test_tutte_domain():
    rp = rank_profile(trivial_code(cyclic_group(2), 1))
    with pytest.raises(DomainError) as exc:
        tutte_evaluate(rp, 1.0, 2.0)
    assert str(exc.value) == "tutte_evaluate needs x > 1 and y > 1, got (1.0, 2.0)"
    with pytest.raises(DomainError):
        tutte_evaluate(rp, 2.0, 0.5)


@pytest.mark.parametrize(
    "x, y", [(math.nan, 3.0), (2.0, math.nan), (math.inf, 3.0), (2.0, math.inf), (-math.inf, 3.0)]
)
def test_tutte_refuses_non_finite_points(x, y):
    # NaN passes every comparison test, and an infinity makes the sum
    # infinite or NaN: neither is a value of T
    rp = rank_profile(trivial_code(cyclic_group(2), 1))
    with pytest.raises(DomainError, match=r"^tutte_evaluate needs finite x and y, got \("):
        tutte_evaluate(rp, x, y)


def high_precision_tutte(rp, x: str, y: str) -> Decimal:
    """Independent 50-digit re-summation of the corank-nullity sum."""
    getcontext().prec = 50
    q = Decimal(rp.group_order)
    lnq = q.ln()
    xm, ym = Decimal(x) - 1, Decimal(y) - 1
    full = (1 << rp.n) - 1

    def rank(S):
        return Decimal(rp.card[S]).ln() / lnq

    total = Decimal(0)
    for S in range(1 << rp.n):
        corank = rank(full) - rank(S)
        nullity = Decimal(bin(S).count("1")) - rank(S)
        total += (corank * xm.ln()).exp() * (nullity * ym.ln()).exp()
    return total


def test_tutte_example_against_high_precision():
    rp = rank_profile(example_code())
    got = tutte_evaluate(rp, 2.0, 2.0)
    want = high_precision_tutte(rp, "2", "2")
    assert abs(Decimal(got) - want) <= abs(want) * Decimal("1e-12")


@pytest.mark.parametrize("code", [example_code(), diagonal_code(S3, 5), trivial_code(cyclic_group(1), 3)])
def test_ranks_are_taken_once_per_profile(code, monkeypatch):
    """The ranks are log(card(S)) / log(q), bit for bit, logged once per
    profile: the first Tutte evaluation takes 2^n + 1 logs (none when
    q = 1), and later evaluations and rank reads take none."""
    rp = rank_profile(code)
    q = rp.group_order
    expected = [math.log(c) / math.log(q) if q > 1 else 0.0 for c in rp.card]
    logs = []
    log = math.log
    monkeypatch.setattr(math, "log", lambda x: logs.append(x) or log(x))
    first = tutte_evaluate(rp, 2.5, 3.25)
    assert len(logs) == (len(rp.card) + 1 if q > 1 else 0)
    assert tutte_evaluate(rp, 2.5, 3.25) == first
    assert [rp.rank(S) for S in range(len(rp.card))] == expected
    assert len(logs) == (len(rp.card) + 1 if q > 1 else 0)


def looped_tutte(rp, x: float, y: float) -> float:
    """tutte_evaluate as the loop over the ranks that recomputed both
    exponents of every subset on each call."""
    r_full = rp.ranks[-1]
    total = 0.0
    for S, r_S in enumerate(rp.ranks):
        total += (x - 1.0) ** (r_full - r_S) * (y - 1.0) ** (bin(S).count("1") - r_S)
    return total


@st.composite
def rank_profiles(draw):
    n = draw(st.integers(0, 6))
    card = draw(st.lists(st.integers(1, 10**6), min_size=1 << n, max_size=1 << n))
    return RankProfile(n, draw(st.integers(1, 60)), tuple(card))


points = st.floats(1.0, 50.0, exclude_min=True, allow_nan=False)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(rank_profiles(), points, points)
def test_tutte_exponents_give_the_looped_floats(rp, x, y):
    # the exponents are taken once per profile; the float operations and
    # their order are the loop's, so the sums are equal bit for bit
    assert tutte_evaluate(rp, x, y) == looped_tutte(rp, x, y)
    assert tutte_evaluate(rp, y, x) == looped_tutte(rp, y, x)
    assert len(rp.tutte_exponents) == 1 << rp.n


def test_weight_enumerator_trivial():
    assert weight_enumerator(trivial_code(S3, 3)) == UniPoly({0: 1})


def test_weight_enumerator_example_brute_force():
    # enumerate the six listed words and count identity coordinates directly
    hand_counts: dict[int, int] = {}
    for w in EX_H_WORDS:
        wt = sum(1 for x in w if x != 0)
        hand_counts[wt] = hand_counts.get(wt, 0) + 1
    assert hand_counts == {0: 1, 1: 3, 2: 2}
    assert weight_enumerator(example_code()) == UniPoly(
        {0: Fraction(1), 1: Fraction(3), 2: Fraction(2)}
    )


def test_weight_enumerator_diagonal():
    assert weight_enumerator(diagonal_code(S3, 4)) == UniPoly({0: 1, 4: 5})


def test_weight_enumerator_counts_size():
    for code in (example_code(), diagonal_code(S3, 3), full_code(S3, 2)):
        W = weight_enumerator(code)
        assert sum(W.coeffs.values()) == code.size
        assert W[0] >= 1


def test_cwe_diagonal():
    cd = conjugacy_classes(S3)
    for n in (2, 3, 4):
        cwe = complete_weight_enumerator(diagonal_code(S3, n), cd)
        assert cwe == MultiPoly(
            3, {(n, 0, 0): 1, (0, n, 0): 3, (0, 0, n): 2}
        )


def test_cwe_trivial_and_full():
    cd = conjugacy_classes(S3)
    assert complete_weight_enumerator(trivial_code(S3, 2), cd) == MultiPoly(3, {(2, 0, 0): 1})
    assert complete_weight_enumerator(full_code(S3, 1), cd) == MultiPoly(
        3, {(1, 0, 0): 1, (0, 1, 0): 3, (0, 0, 1): 2}
    )


def test_cwe_specializes_to_weight_enumerator():
    cd = conjugacy_classes(S3)
    cdz = conjugacy_classes(cyclic_group(4))
    cases = [
        (example_code(), cd),
        (diagonal_code(S3, 3), cd),
        (full_code(S3, 2), cd),
        (code_from_generators(cyclic_group(4), 3, [(1, 2, 0), (0, 2, 2)]), cdz),
    ]
    for code, classes in cases:
        cwe = complete_weight_enumerator(code, classes)
        images = [(Fraction(1), 0)] + [(Fraction(1), 1)] * (classes.num_classes - 1)
        assert substitute(cwe.terms, images) == weight_enumerator(code).coeffs


def test_cwe_total_mass():
    cd = conjugacy_classes(S3)
    code = full_code(S3, 2)
    cwe = complete_weight_enumerator(code, cd)
    assert sum(cwe.terms.values()) == 36
