"""Differential tests of the numpy group and character-table kernels.

Every kernel is compared exactly with the per-element implementation it
replaced (tests/reference_tables.py): closure, Cayley table, labels and
generators; inverses from the power walk; conjugacy classes as generator
orbits; cycle notation written on demand; the table digest; the group-axiom
messages of group_from_table; the F_p eigenvector split order and the Dixon
lift.
"""

import contextlib
import hashlib
import io
import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repdual import chartable, cli, groups, zring
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
    FiniteGroup,
    builtin_group,
    conjugacy_classes,
    cyclic_group,
    dihedral_group,
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
    reference_cycle_notation,
    reference_group_from_generators,
    reference_inverses,
    reference_product_table,
    reference_scan_classes,
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
CLASS_GROUPS = (
    PERMUTATION_GROUPS
    + [f"D{n}" for n in range(31, 61)]
    + ["Q8"]
    + [f"Z{n}" for n in range(1, 61)]
    + ["x".join(f) for f in PRODUCTS]
)
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
    cases = [
        builtin_generators("D16"),
        [perm_from_cycles([[0, 1, 2]], 18), perm_from_cycles([[13, 14, 15, 16, 17]], 18)],
        [perm_from_cycles([[0, 1], [2, 3]], 40), perm_from_cycles([[1, 2, 3]], 40),
         perm_from_cycles([list(range(20, 39))], 40)],
    ]
    for gens in cases:
        assert_same_group(group_from_generators(gens), reference_group_from_generators(gens))


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
def test_inverses_match_row_argmin(name):
    G = build(name)
    assert G.inverse == reference_inverses(G.cayley)
    assert all(G.mul(g, G.inv(g)) == G.mul(G.inv(g), g) == 0 for g in range(G.order))


def relabelled(G, seed):
    """G with its non-identity elements renumbered at random."""
    perm = [0] + random.Random(seed).sample(range(1, G.order), G.order - 1)
    T = np.empty_like(G.cayley)
    T[np.ix_(perm, perm)] = np.array(perm)[G.cayley]
    return group_from_table(T.tolist())


@pytest.mark.parametrize("name", ["S4", "S5", "D12", "D31", "Q8", "Z12", "S3xZ2", "D4xZ2xZ3", "Q8xS3"])
@pytest.mark.parametrize("seed", [0, 1])
def test_relabelled_tables_match_reference(name, seed):
    """Relabelling puts the class minima, the generating set and the orbit
    structure the generators see anywhere in the index range."""
    G = relabelled(build(name), seed)
    assert conjugacy_classes(G) == reference_conjugacy_classes(G)
    assert G.inverse == reference_inverses(G.cayley)
    assert G.generators == groups._small_generating_set(G.cayley)
    assert G.generators == reference_small_generating_set(G.table)


@pytest.mark.parametrize("name", ["Z1", "Z6", "S4", "D5", "Q8", "S3xZ2"])
def test_classes_without_generators_use_a_small_generating_set(name):
    G = build(name)
    bare = FiniteGroup(G.name, G.cayley, G.element_labels, generators=())
    assert bare.generators == ()
    assert conjugacy_classes(bare) == conjugacy_classes(G) == reference_conjugacy_classes(G)


@pytest.mark.parametrize("n", [250, 500, 1000])
def test_classes_of_large_dihedral_groups_match_the_scan(n):
    """The reflections of D<n> form orbits of n/2 or n elements, which
    propagation through the generator maps alone crosses in hundreds of
    rounds; the label jumps must still reach the full scan's classes."""
    G = dihedral_group(n)
    assert conjugacy_classes(G) == reference_scan_classes(G)


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
    lift) the Dixon kernels run on Python ints; force that path everywhere,
    on the abelian groups too."""
    G = build(name)
    classes = conjugacy_classes(G)
    expected = chartable._dixon_table(G, classes)
    monkeypatch.setattr(zring, "exact_dtype", lambda bound: object)
    ct = chartable._dixon_table(G, classes)
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


@st.composite
def wide_generators(draw):
    """1-3 generators on 16-64 points, each a few disjoint 2- and 3-cycles
    on one shared set of at most five points, so orders stay at most 120."""
    degree = draw(st.integers(16, 64))
    support = draw(st.lists(st.integers(0, degree - 1), min_size=2, max_size=5, unique=True))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        points, cycles = draw(st.permutations(support)), []
        while points:
            length = draw(st.integers(2, 3))
            cycles.append(points[:length])
            points = points[length:]
        gens.append(perm_from_cycles(cycles, degree))
    return gens


@settings(derandomize=True, deadline=None, max_examples=30, database=None)
@given(wide_generators())
def test_wide_permutation_groups_match_reference(gens):
    G = group_from_generators(gens)
    R = reference_group_from_generators(gens)
    assert_same_group(G, R)
    assert G.inverse == reference_inverses(R.table)
    assert conjugacy_classes(G) == reference_conjugacy_classes(R)
    if G.order > 1:
        with pytest.raises(ClosureCapExceeded) as got:
            group_from_generators(gens, cap=G.order - 1)
        with pytest.raises(ClosureCapExceeded) as want:
            reference_group_from_generators(gens, cap=G.order - 1)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("n", range(1, 8))
def test_cycle_labels_match_cycle_notation(n):
    P = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    expected = [reference_cycle_notation(p) for p in P.tolist()]
    assert groups._cycle_labels(P) == expected
    assert sorted(symmetric_group(n, cap=5040).element_labels) == sorted(expected)


def spy_labels(monkeypatch):
    """The number of labels each _cycle_labels batch writes, in call order."""
    calls = []
    write = groups._cycle_labels

    def spy(P):
        calls.append(len(P))
        return write(P)

    monkeypatch.setattr(groups, "_cycle_labels", spy)
    return calls


@pytest.mark.parametrize("name", ["S5", "D12", "D31"])
def test_labels_on_demand_match_cycle_notation(name, monkeypatch):
    """Single reads, bulk reads and a mix of both give the reference
    notation, and each label is written once."""
    expected = reference_group_from_generators(builtin_generators(name)).element_labels
    calls = spy_labels(monkeypatch)
    n = len(expected)
    order = random.Random(name).sample(range(n), n)

    single = builtin_group(name).element_labels
    assert single[-1] == expected[-1]
    assert [single[g] for g in order] == [expected[g] for g in order]
    assert single[1:4] == expected[1:4]
    with pytest.raises(IndexError):
        single[n]
    assert calls == [1] * n

    calls.clear()
    bulk = builtin_group(name)
    assert bulk.element_labels == expected
    assert list(bulk.element_labels) == list(expected)
    assert calls == [n]

    calls.clear()
    G = builtin_group(name)
    mixed = G.element_labels
    assert [mixed[g] for g in order[:3]] == [expected[g] for g in order[:3]]
    some = order[2:9] + order[:2]
    assert G.labels_of(some) == [expected[g] for g in some]
    assert dict(enumerate(mixed)) == dict(enumerate(expected))
    assert calls == [1, 1, 1, 6, n - 9]
    assert mixed == single == bulk.element_labels
    assert calls == [1, 1, 1, 6, n - 9]


def test_cold_character_table_writes_no_label(monkeypatch):
    monkeypatch.setattr(chartable, "_cache", {})
    calls = spy_labels(monkeypatch)
    character_table(builtin_group("S6"))
    assert calls == []


@pytest.mark.parametrize("fmt, written", [("text", 11), ("json", 720)])
def test_classes_command_writes_only_the_labels_it_prints(fmt, written, monkeypatch):
    """Text prints the 11 class representatives of S6, JSON every member."""
    calls = spy_labels(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["classes", "--group", "builtin:S6", "--format", fmt]) == 0
    assert calls == [written]


@pytest.mark.parametrize(
    "degree, generators",
    [
        (12, [[list(range(10))]]),
        (12, [[[0, 1, 2], [5, 6, 7, 8, 9, 10, 11]]]),
        (11, [[list(range(11))], [[i, (11 - i) % 11] for i in range(1, 6)]]),
        (13, [[[12, 3]], [[0, 10, 11, 12]]]),
        (3, []),
    ],
)
def test_permutation_spec_labels_match_reference(degree, generators):
    G = load_group_spec({"kind": "permutation", "degree": degree, "generators": generators})
    R = reference_group_from_generators([perm_from_cycles(c, degree) for c in generators])
    assert G.element_labels == R.element_labels


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
    """The order enters the digest in decimal, whose width changes here."""
    G = cyclic_group(order)
    assert G.table_digest() == reference_table_digest(G)


@pytest.mark.parametrize("factors", [("D5", "Z100"), ("Z7", "Z11", "Z13")], ids="x".join)
def test_product_digest_at_the_word_switch_matches_reference(factors):
    """Product tables (orders 1000 and 1001) are built by broadcasting
    rather than by a closure."""
    G = product_group([builtin_group(f) for f in factors])
    assert G.table_digest() == reference_table_digest(G)


def test_equal_tables_built_two_ways_have_equal_digests():
    S3 = symmetric_group(3)
    T = load_group_spec({"kind": "table", "table": [list(row) for row in S3.table]})
    assert T.cayley.dtype == S3.cayley.dtype and T.name != S3.name
    assert T.table_digest() == S3.table_digest() == reference_table_digest(S3)


def test_different_tables_of_one_order_have_different_digests():
    Z4, V4 = cyclic_group(4), product_group([cyclic_group(2)] * 2)
    assert Z4.table_digest() != V4.table_digest()
    assert (Z4.table_digest(), V4.table_digest()) == (reference_table_digest(Z4), reference_table_digest(V4))


def _text_digest(G):
    """The earlier cache key: sha256 of the order and the rows in decimal,
    each written "|" then its entries joined by ","."""
    h = hashlib.sha256(str(G.order).encode())
    for row in G.table:
        h.update(b"|" + ",".join(map(str, row)).encode())
    return h.hexdigest()


def test_cache_file_under_an_earlier_name_is_left_alone(tmp_path, monkeypatch):
    """A file named by the earlier text digest is neither read nor touched:
    the table is computed and written once under the current name, with
    the same contents."""
    G = symmetric_group(4)
    old = tmp_path / f"chartable-{_text_digest(G)}.json"
    old.write_text(chartable._cache_text(_compute_character_table(G)))
    before = (old.read_bytes(), old.stat().st_mtime_ns)
    monkeypatch.setattr(chartable, "_cache", {})
    loads = []
    monkeypatch.setattr(chartable, "_load_cached", lambda *args: loads.append(args))
    character_table(G, cache_dir=tmp_path)
    new = tmp_path / f"chartable-{G.table_digest()}.json"
    assert not loads
    assert sorted(tmp_path.iterdir()) == sorted([old, new])
    assert (old.read_bytes(), old.stat().st_mtime_ns) == before
    assert new.read_bytes() == before[0]


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
    table = _loop_product(loop, 41)  # order 205: Light's test
    assert table_error(table) == reference_table_error(table)
    assert table_error(table).startswith("associativity fails")
    big = [list(row) for row in cyclic_group(210).table]
    assert table_error(big) is None
    assert group_from_table(big).table == cyclic_group(210).table


def intercalate_loop(n, a=1, c=1):
    """Z_n (n even) with the 2x2 subsquare on rows a, a + n/2 and columns
    c, c + n/2 swapped: a Latin square with identity and two-sided
    inverses that is not associative."""
    t = [[(i + j) % n for j in range(n)] for i in range(n)]
    h = n // 2
    for r in (a, a + h):
        t[r][c], t[r][c + h] = t[r][c + h], t[r][c]
    return t


def is_associative(table):
    """Every triple at once, for small tables."""
    T = np.array(table)
    return bool((T[T] == T[:, T]).all())  # [a, b, c]: (ab)c and a(bc)


def assert_true_witness(table, message):
    a, b, c = map(int, message.removeprefix("associativity fails at triple (").rstrip(")").split(","))
    assert table[table[a][b]][c] != table[a][table[b][c]]


@pytest.mark.parametrize("n", [200, 256, 400, 1000])
def test_intercalate_loops_are_refused(n):
    """One swapped intercalate breaks few triples (4032 of 16.8M at order
    256), so only an exact check refuses these loops past order 200."""
    table = intercalate_loop(n)
    message = table_error(table)
    assert message == reference_table_error(table)
    assert_true_witness(table, message)


@pytest.mark.parametrize("name", ["S5", "S6", "Q8", "D60", "Z300"])
def test_large_group_tables_are_accepted(name):
    G = builtin_group(name)
    H = group_from_table([list(row) for row in G.table])
    assert H.table == G.table


def test_d2500_passes_lights_test():
    """The D2500 table passes Light's test.  group_from_table itself takes
    seconds on it, nearly all of them reading 25M Python ints."""
    T = builtin_group("D2500").cayley
    assert groups._associativity_witness(T, groups._small_generating_set(T)) is None


def _swap_intercalates(t, draw):
    """Swap up to two intercalates rows r, r z and columns c, z c for an
    involution z, keeping row and column 0."""
    n = len(t)
    involutions = [z for z in range(1, n) if t[z][z] == 0]
    for _ in range(draw(st.integers(0, 2)) if involutions else 0):
        z = draw(st.sampled_from(involutions))
        r, c = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
        r2, c2 = t[r][z], t[z][c]
        if 0 in (r2, c2) or t[r][c] != t[r2][c2] or t[r][c2] != t[r2][c]:
            continue
        t[r][c], t[r][c2] = t[r][c2], t[r][c]
        t[r2][c], t[r2][c2] = t[r2][c2], t[r2][c]
    return t


@st.composite
def near_group_tables(draw):
    """A Z_n, product or relabelled group table of order at most 64, with
    up to two intercalates swapped."""
    kind = draw(st.sampled_from(["cyclic", "product", "relabelled"]))
    if kind == "cyclic":
        G = cyclic_group(2 * draw(st.integers(1, 32)))
    elif kind == "product":
        names = draw(st.lists(st.sampled_from(["Z2", "Z3", "Z4", "S3", "Q8", "D4"]), min_size=2, max_size=3))
        G = product_group([builtin_group(f) for f in names])
        assume(G.order <= 64)  # is_associative holds order^3 entries
    else:
        G = relabelled(build(draw(st.sampled_from(["S3", "S4", "D5", "Q8", "D6", "Z12"]))), draw(st.integers(0, 99)))
    return _swap_intercalates([list(row) for row in G.table], draw)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(near_group_tables())
def test_group_from_table_accepts_exactly_the_associative_tables(table):
    message = table_error(table)
    assert (message is None) == is_associative(table)
    assert message == reference_table_error(table)
    if message is not None and message.startswith("associativity"):
        assert_true_witness(table, message)
