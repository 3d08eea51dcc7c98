"""Differential tests of the numpy group and character-table kernels.

Every kernel is compared exactly with the per-element implementation it
replaced (tests/reference_tables.py): closure, Cayley table, labels and
generators; conjugacy classes; the table digest; the group-axiom messages
of group_from_table; the F_p eigenvector split order and the Dixon lift.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repdual import chartable, groups, zring
from repdual.chartable import (
    _central_characters,
    _compute_character_table,
    character_table,
    class_multiplication_coefficients,
    dixon_prime,
)
from repdual.errors import (
    CapExceeded,
    ClosureCapExceeded,
    LiftVerificationFailed,
    NotAGroup,
    SpecFileError,
)
from repdual.groups import (
    builtin_group,
    conjugacy_classes,
    cyclic_group,
    group_from_generators,
    group_from_table,
    perm_from_cycles,
    product_group,
    symmetric_group,
)
from repdual.specfiles import load_group_spec

from reference_tables import (
    reference_character_table,
    reference_class_multiplication,
    reference_common_eigenvectors,
    reference_commutator_subgroup,
    reference_conjugacy_classes,
    reference_group_from_generators,
    reference_product_table,
    reference_small_generating_set,
    reference_table_digest,
    reference_table_error,
)
from test_groups import find_nonassociative_loop


def builtin_generators(name):
    """The permutations builtin_group closes for S<n> and D<n>."""
    n = int(name[1:])
    if name[0] == "S":
        if n <= 1:
            return []
        if n == 2:
            return [perm_from_cycles([[0, 1]], 2)]
        return [perm_from_cycles([[0, 1]], n), perm_from_cycles([list(range(n))], n)]
    return [perm_from_cycles([list(range(n))], n), tuple((n - i) % n for i in range(n))]


PERMUTATION_GROUPS = [f"S{n}" for n in range(1, 7)] + [f"D{n}" for n in range(3, 31)]
PRODUCTS = [("Z2", "Z3"), ("S3", "Z2"), ("S4", "Z3"), ("Z2",) * 5, ("Q8", "S3"), ("D4", "Z2", "Z3")]
CLASS_GROUPS = PERMUTATION_GROUPS + ["Q8"] + [f"Z{n}" for n in range(1, 61)] + ["x".join(f) for f in PRODUCTS]
# the reference lift costs k^2 e^2 pows, which is k^4 on Z<k>: the larger
# cyclic groups are sampled
TABLE_GROUPS = (
    PERMUTATION_GROUPS
    + ["Q8"]
    + [f"Z{n}" for n in list(range(1, 31)) + [36, 40, 48, 60]]
    + ["x".join(f) for f in PRODUCTS]
)


def build(name):
    parts = name.split("x")
    if len(parts) == 1:
        return builtin_group(name)
    return product_group([builtin_group(f) for f in parts])


def assert_same_group(G, R):
    assert G.table == R.table
    assert G.element_labels == R.element_labels
    assert G.generators == R.generators
    assert G.inverse == R.inverse
    assert G.exponent == R.exponent
    assert G.cayley.tolist() == [list(row) for row in R.table]


@pytest.mark.parametrize("name", PERMUTATION_GROUPS)
def test_closure_matches_reference(name):
    G = builtin_group(name)
    R = reference_group_from_generators(builtin_generators(name), name=name)
    assert_same_group(G, R)
    assert G == R


def test_closure_on_degree_16_and_more_matches_reference():
    # degree**degree passes 2**63 from degree 16 on: the keys are Python ints
    cases = [
        builtin_generators("D16"),
        [perm_from_cycles([[0, 1, 2]], 18), perm_from_cycles([[13, 14, 15, 16, 17]], 18)],
        [perm_from_cycles([[0, 1], [2, 3]], 40), perm_from_cycles([[1, 2, 3]], 40),
         perm_from_cycles([list(range(20, 39))], 40)],
    ]
    for gens in cases:
        assert_same_group(group_from_generators(gens), reference_group_from_generators(gens))
    Y = np.array([list(range(15, -1, -1))])
    assert groups._perm_keys(Y, 16).tolist() == [sum((15 - i) * 2 ** (32 * i) for i in range(16))]
    assert groups._perm_keys(Y[:, 1:], 15).tolist() == [sum((14 - i) * 15**i for i in range(15))]


@pytest.mark.parametrize("factors", PRODUCTS, ids="x".join)
def test_product_matches_reference(factors):
    F = [builtin_group(f) for f in factors]
    G = product_group(F)
    assert G.table == reference_product_table(F)
    assert G.element_labels == tuple(
        "(" + ",".join(parts) + ")" for parts in itertools.product(*(H.element_labels for H in F))
    )


@pytest.mark.parametrize("name", CLASS_GROUPS)
def test_classes_and_digest_match_reference(name):
    G = build(name)
    assert conjugacy_classes(G) == reference_conjugacy_classes(G)
    assert G.table_digest() == reference_table_digest(G)


@pytest.mark.parametrize("name", CLASS_GROUPS)
def test_generators_and_commutators_match_reference(name):
    """The span kernel gives the greedy generating set and the commutator
    subgroup of the Python closures; Q8 and the products carry that set."""
    G = build(name)
    expected = reference_small_generating_set(G.table)
    assert groups._small_generating_set(G.cayley) == expected
    if name == "Q8" or "x" in name:
        assert G.generators == expected
    assert groups.commutator_subgroup(G) == reference_commutator_subgroup(G)


def test_table_kernels_leave_the_tuple_table_unbuilt(monkeypatch):
    monkeypatch.setattr(chartable, "_cache", {})
    S6 = builtin_group("S6")
    character_table(S6)
    P = product_group([builtin_group("S4"), cyclic_group(3)])
    assert "table" not in S6.__dict__
    assert "table" not in P.__dict__


@pytest.mark.parametrize("name", TABLE_GROUPS)
def test_character_table_matches_reference(name):
    G = build(name)
    ct, ref = _compute_character_table(G), reference_character_table(G)
    assert ct.to_json() == ref.to_json()
    assert ct.irrep_order == ref.irrep_order
    assert ct.degrees == ref.degrees
    assert ct.classes == ref.classes
    assert np.array_equal(ct.zvalues, ref.zvalues)


def assert_split_order(G):
    """The central characters come out in the reference split's order."""
    classes = conjugacy_classes(G)
    k = classes.num_classes
    p = dixon_prime(G.order, G.exponent)
    a = class_multiplication_coefficients(G, classes)
    assert a.tolist() == reference_class_multiplication(G, classes)
    mats = [a[i].tolist() for i in range(1, k)]
    expected = [
        [v * pow(vec[0], p - 2, p) % p for v in vec]
        for vec in reference_common_eigenvectors(mats, k, p)
    ]
    assert _central_characters(a, p).tolist() == expected


SPLIT_GROUPS = [
    "S5", "D12", "Q8", "Z2xZ2xZ2xZ2xZ2", "S4xZ3", "Z24", "D30", "S6", "Z30", "Z2xZ2xZ2xS3", "Q8xZ4",
]


@pytest.mark.parametrize("name", SPLIT_GROUPS)
def test_split_order_matches_reference(name):
    assert_split_order(build(name))


def split_error(split, a, p):
    try:
        split(a, p)
    except LiftVerificationFailed as exc:
        return str(exc)
    return None


def reference_split(a, p):
    k = len(a)
    return reference_common_eigenvectors([a[i].tolist() for i in range(1, k)], k, p)


def test_split_gates_match_reference():
    """Class matrices with a Jordan block cannot be diagonalized, whether
    the identity class sees the block (M_1 below) or only a part split off
    by an earlier matrix does (M_2 of the 3 x 3 case), and scalar class
    matrices cannot isolate anything: both splits stop with the same
    message."""
    G = build("S4")
    classes = conjugacy_classes(G)
    k = classes.num_classes
    p = dixon_prime(G.order, G.exponent)
    jordan = class_multiplication_coefficients(G, classes).copy()
    jordan[1] = np.eye(k, dtype=np.int64)
    jordan[1, 1, 0] = 1  # M_1 e_0 = e_0 + e_1 and M_1 e_1 = e_1
    # M_1 splits e_0 into e_0 - e_2 and e_2; M_2 fixes e_0 but maps e_2 to e_1 + e_2
    hidden = np.array(
        [np.eye(3), [[0, 0, 0], [0, 0, 0], [1, 0, 1]], [[1, 0, 0], [0, 1, 1], [0, 0, 1]]]
    ).astype(np.int64)
    scalar = np.array([np.eye(k, dtype=np.int64) * (i + 1) for i in range(k)])
    cases = [
        ("class-sum matrix not diagonalizable mod p", jordan),
        ("class-sum matrix not diagonalizable mod p", hidden),
        ("could not isolate one-dimensional eigenspaces", scalar),
    ]
    for message, a in cases:
        assert split_error(_central_characters, a, p) == message
        assert split_error(reference_split, a, p) == message


@pytest.mark.parametrize("name", ["S4", "D6", "Q8", "Z12", "Z2xZ2xZ2xZ2xZ2"])
def test_python_int_path_gives_the_same_table(name, monkeypatch):
    """Past the int64 bounds (k (p-1)^2 for the split, e (p-1)^2 for the
    lift) the kernels run on Python ints; force that path everywhere."""
    G = build(name)
    expected = _compute_character_table(G)
    monkeypatch.setattr(zring, "exact_dtype", lambda bound: object)
    ct = _compute_character_table(G)
    assert (ct.to_json(), ct.irrep_order) == (expected.to_json(), expected.irrep_order)


@st.composite
def permutation_generators(draw):
    degree = draw(st.integers(1, 6))
    count = draw(st.integers(0, 3))
    return [tuple(draw(st.permutations(range(degree)))) for _ in range(count)]


@settings(derandomize=True, deadline=None, max_examples=30, database=None)
@given(permutation_generators())
def test_random_permutation_groups_match_reference(gens):
    G = group_from_generators(gens)
    R = reference_group_from_generators(gens)
    assert_same_group(G, R)
    assert G.table_digest() == reference_table_digest(R)
    assert conjugacy_classes(G) == reference_conjugacy_classes(R)
    if G.order <= 120:
        assert_split_order(G)
        ct, ref = _compute_character_table(G), reference_character_table(R)
        assert (ct.to_json(), ct.irrep_order) == (ref.to_json(), ref.irrep_order)


# -- caps ---------------------------------------------------------------------


def test_closure_cap_message_matches_reference():
    gens = builtin_generators("S5")
    with pytest.raises(ClosureCapExceeded) as new:
        group_from_generators(gens, cap=100)
    with pytest.raises(ClosureCapExceeded) as ref:
        reference_group_from_generators(gens, cap=100)
    assert str(new.value) == str(ref.value) == "group closure needs 101 > cap 100"
    assert group_from_generators(gens, cap=120).order == 120


@pytest.mark.parametrize(
    "spec, order",
    [
        ("builtin:S5", 120),
        ({"kind": "builtin", "name": "D", "params": 60}, 120),
        ({"kind": "product", "factors": ["builtin:Z6", "builtin:Z6"]}, 36),
        ({"kind": "permutation", "degree": 5, "generators": [[[0, 1]], [[0, 1, 2, 3, 4]]]}, 120),
    ],
)
def test_load_group_spec_honours_cap(spec, order):
    assert load_group_spec(spec, cap=order).order == order
    product = isinstance(spec, dict) and spec["kind"] == "product"
    what = "product group order" if product else "group closure"
    with pytest.raises(SpecFileError, match=f"{what} needs {order} > cap {order - 1}"):
        load_group_spec(spec, cap=order - 1)


def test_builtin_and_product_caps():
    with pytest.raises(ClosureCapExceeded, match="group closure needs 60 > cap 59"):
        builtin_group("D30", cap=59)
    with pytest.raises(ClosureCapExceeded, match="group closure needs 24 > cap 23"):
        builtin_group("S4", cap=23)
    with pytest.raises(ClosureCapExceeded, match="product group order needs 12 > cap 11"):
        product_group([cyclic_group(3), cyclic_group(4)], cap=11)
    with pytest.raises(ClosureCapExceeded, match="cyclic group order needs 7 > cap 6"):
        builtin_group("Z7", cap=6)
    assert builtin_group("Z7", cap=7).order == 7


def test_class_multiplication_cap(monkeypatch):
    assert 300**3 <= chartable.DEFAULT_CLASS_ALGEBRA_CAP < 1000**3  # Z300 in, Z1000 out
    G = cyclic_group(40)
    classes = conjugacy_classes(G)
    message = r"class multiplication array \(k\^3 entries\) needs 64000 > cap 63999"
    monkeypatch.setattr(chartable, "DEFAULT_CLASS_ALGEBRA_CAP", 63999)
    with pytest.raises(CapExceeded, match=message):
        class_multiplication_coefficients(G, classes)
    monkeypatch.setattr(chartable, "DEFAULT_CLASS_ALGEBRA_CAP", 64000)
    assert class_multiplication_coefficients(G, classes).shape == (40, 40, 40)


# -- the table digest -----------------------------------------------------------


@pytest.mark.parametrize("order", [9, 10, 11, 99, 100, 101, 999, 1000, 1001])
def test_digest_across_decimal_widths_matches_reference(order):
    """Cells are 4-byte words up to order 1000 and 8-byte words above."""
    G = cyclic_group(order)
    assert G.table_digest() == reference_table_digest(G)


@pytest.mark.parametrize("factors", [("D5", "Z100"), ("Z7", "Z11", "Z13")], ids="x".join)
def test_product_digest_at_the_word_switch_matches_reference(factors):
    G = product_group([builtin_group(f) for f in factors])  # orders 1000 and 1001
    assert G.table_digest() == reference_table_digest(G)


def test_digest_is_computed_once(monkeypatch):
    G = symmetric_group(6)
    expected = reference_table_digest(G)
    calls = []
    sha256 = groups.hashlib.sha256

    def counting(*args):
        calls.append(args)
        return sha256(*args)

    monkeypatch.setattr(groups.hashlib, "sha256", counting)
    first = G.table_digest()
    assert first == G.table_digest() == expected
    character_table(G)
    character_table(G)
    assert len(calls) == 1


# -- group_from_table -------------------------------------------------------------


def table_error(table):
    try:
        group_from_table(table)
    except NotAGroup as exc:
        return str(exc)
    return None


# a Latin square with two-sided identity 0 in which 3 is a right inverse of 2
# but 3 * 2 = 1
ONE_SIDED_INVERSES = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]]


def test_group_from_table_messages_match_reference():
    rng = random.Random(7)
    tables = [[list(row) for row in build(name).table] for name in ("S3", "Z6", "Q8", "D4", "S4", "Z2xZ2xZ2")]
    cases = [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 2]],
        [[0, 1], [1, True]],
        [[0, 1.0], [1, 0]],
        [[0, "1"], [1, 0]],
        ONE_SIDED_INVERSES,
        find_nonassociative_loop(5),
    ]
    for base in tables:
        n = len(base)
        for _ in range(30):
            t = [row[:] for row in base]
            kind = rng.randrange(4)
            i, j, l = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            if kind == 0:  # swap two entries of a row
                t[i][j], t[i][l] = t[i][l], t[i][j]
            elif kind == 1:  # swap two entries of a column
                t[i][j], t[l][j] = t[l][j], t[i][j]
            elif kind == 2:  # overwrite one entry
                t[i][j] = rng.randrange(n)
            else:  # swap two rows and the same two columns: an isotope
                t[i], t[l] = t[l], t[i]
                for row in t:
                    row[j], row[l] = row[l], row[j]
            cases.append(t)
    found = set()
    for t in cases:
        expected = reference_table_error(t)
        assert table_error(t) == expected
        found.add(expected.split()[0] if expected else None)
    assert {"identity", "row", "column", "inverse", "entry", "associativity", None} <= found


def _loop_product(loop, m):
    """Direct product of a loop with Z_m, mixed-radix indexed."""
    n = len(loop)
    return [
        [loop[a // m][b // m] * m + (a % m + b % m) % m for b in range(n * m)]
        for a in range(n * m)
    ]


def test_associativity_witnesses_match_reference():
    loop = find_nonassociative_loop(5)
    for m in (1, 8, 40):  # orders 5, 40 and 200: every triple, in lex order
        table = _loop_product(loop, m)
        assert table_error(table) == reference_table_error(table)
        assert table_error(table).startswith("associativity fails")
    table = _loop_product(loop, 41)  # order 205: seeded random triples
    assert table_error(table) == reference_table_error(table)
    assert table_error(table).startswith("associativity fails")
    big = [list(row) for row in cyclic_group(210).table]
    assert table_error(big) is None
    assert group_from_table(big).table == cyclic_group(210).table
