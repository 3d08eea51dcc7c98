import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repdual.chartable import (
    CharacterTable,
    character_table,
    class_multiplication_coefficients,
    dixon_prime,
    inner_product,
)
from repdual.cyclotomic import Cyclotomic, euler_phi
from repdual.errors import NotRational, RepdualError
from repdual.groups import (
    conjugacy_classes,
    cyclic_group,
    dihedral_group,
    group_from_generators,
    product_group,
    quaternion_group,
    symmetric_group,
)

import reference_cyclotomic as rc
from reference_tables import reference_commutator_subgroup, reference_dump_cached


def test_dixon_prime_choices():
    assert dixon_prime(6, 6) == 7  # S3 / Z6
    assert dixon_prime(4, 4) == 5  # Z4
    assert dixon_prime(8, 4) == 13  # D4, Q8 (needs p > 2*sqrt(8), 5 fails)
    assert dixon_prime(24, 12) == 13  # S4
    assert dixon_prime(2, 2) == 3


def test_class_mult_coefficients_trivial_and_z2():
    T = group_from_generators([])
    a = class_multiplication_coefficients(T, conjugacy_classes(T))
    assert a.tolist() == [[[1]]]
    Z2 = cyclic_group(2)
    a = class_multiplication_coefficients(Z2, conjugacy_classes(Z2))
    assert a[1][1][0] == 1  # C_2 * C_2 hits the identity exactly once
    assert a[1][1][1] == 0


def test_class_mult_coefficients_s3():
    G = symmetric_group(3)
    cd = conjugacy_classes(G)
    a = class_multiplication_coefficients(G, cd)
    # brute-force pair enumeration: transposition*transposition = identity rep
    t = 1  # transposition class (canonical order: id, transpositions, 3-cycles)
    count = sum(
        1
        for x in cd.members(t)
        for y in cd.members(t)
        if G.cayley[x, y] == 0
    )
    assert a[t][t][0] == count == 3


def test_s3_table_matches_known_columns():
    ct = character_table(symmetric_group(3))
    assert ct.degrees == (1, 1, 2)
    cols = [[ct.value(i, j) for i in range(3)] for j in range(3)]
    assert cols[0] == [1, 1, 2]
    assert cols[1] == [1, -1, 0]
    assert cols[2] == [1, 1, -1]


def test_z2_table():
    ct = character_table(cyclic_group(2))
    vals = [[ct.value(i, j).as_rational() for j in range(2)] for i in range(2)]
    assert vals == [[1, 1], [1, -1]]


def test_q8_table():
    ct = character_table(quaternion_group())
    assert ct.degrees == (1, 1, 1, 1, 2)
    # degree-2 row: (2, -2, 0, 0, 0) under canonical class order
    row = [ct.value(4, j).as_rational() for j in range(5)]
    assert row == [2, -2, 0, 0, 0]
    # brute-force oracle: the four linear characters complete to this row by
    # column orthogonality, i.e. sum_i chi_i(c)*conj(chi_i(c')) = 0 off-column
    values = rc.values(ct)
    for j in range(1, 5):
        assert sum(values[i][0] * values[i][j].conjugate() for i in range(5)) == 0


def test_z4_table_has_exact_i():
    ct = character_table(cyclic_group(4))
    assert ct.conductor == 4
    values = {str(ct.value(i, 1)) for i in range(4)}
    assert values == {"1", "-1", "z4", "-z4"}


def certify_helpers(ct: CharacterTable):
    k, order = ct.k, ct.group.order
    assert sum(d * d for d in ct.degrees) == order
    n_linear = sum(1 for d in ct.degrees if d == 1)
    assert n_linear == order // len(reference_commutator_subgroup(ct.group))


def test_degree_one_count_matches_abelianization():
    for G in (
        symmetric_group(3),
        symmetric_group(4),
        dihedral_group(4),
        quaternion_group(),
        cyclic_group(6),
    ):
        certify_helpers(character_table(G))


def test_abelian_tables_are_multiplicative():
    for n in (2, 3, 4, 6):
        G = cyclic_group(n)
        ct = character_table(G)
        values = rc.values(ct)
        assert ct.degrees == (1,) * n
        # classes are singletons; chi(gh) = chi(g) chi(h)
        for i in range(n):
            for g in range(n):
                for h in range(n):
                    gh = G.cayley[g, h]
                    assert ct.value(i, gh) == values[i][g] * values[i][h]


def test_inner_product():
    ct = character_table(symmetric_group(3))
    # orthonormality
    for i in range(3):
        assert inner_product(ct, list(ct.values[i]), i) == 1
        for i2 in range(3):
            if i2 != i:
                assert inner_product(ct, list(ct.values[i]), i2) == 0
    # regular character decomposes with multiplicity = degree
    reg = [Fraction(6), Fraction(0), Fraction(0)]
    assert [inner_product(ct, reg, i) for i in range(3)] == [1, 1, 2]
    # fixed-point character of the natural S3 action on 3 points: 1 + standard
    natural = [Fraction(3), Fraction(1), Fraction(0)]
    assert [inner_product(ct, natural, i) for i in range(3)] == [1, 0, 1]


def test_inner_product_not_rational():
    ct = character_table(cyclic_group(3))
    bad = [rc.Cyclotomic.zeta(3), rc.Cyclotomic.from_rational(0), rc.Cyclotomic.from_rational(0)]
    with pytest.raises(NotRational):
        inner_product(ct, bad, 0)


INNER_PRODUCT_TABLES = [
    character_table(G)
    for G in (
        symmetric_group(3),
        quaternion_group(),
        dihedral_group(5),
        cyclic_group(5),
        cyclic_group(12),
        product_group([symmetric_group(4), cyclic_group(3)]),
    )
]
FOREIGN_CONDUCTORS = (1, 2, 3, 4, 5, 7, 8, 15)
ENTRY_KINDS = ("keep", "promote", "rational", "int", "fraction", "own", "foreign")
small_fractions = st.fractions(-3, 3, max_denominator=4)


@st.composite
def cyclotomics(draw, conductor: int) -> Cyclotomic:
    d = euler_phi(conductor)
    return Cyclotomic(conductor, draw(st.lists(small_fractions, min_size=d, max_size=d)))


@st.composite
def class_functions(draw):
    """A table, an irrep and a class function: a Fraction combination of
    the table's rows (so every inner product is rational), whose entries
    are each kept, promoted to a foreign conductor, written as an int or
    a Fraction when rational, or replaced by an int, a Fraction or a
    Cyclotomic of the table's conductor or of a foreign one."""
    ct = draw(st.sampled_from(INNER_PRODUCT_TABLES))
    m, rows = ct.conductor, rc.values(ct)
    weights = draw(st.lists(small_fractions, min_size=ct.k, max_size=ct.k))
    f = []
    for j in range(ct.k):
        value = rc.Cyclotomic.from_rational(0, m)
        for row, w in zip(rows, weights):
            value = value + w * row[j]
        foreign = draw(st.sampled_from(FOREIGN_CONDUCTORS))
        kind = draw(st.sampled_from(ENTRY_KINDS))
        if kind == "promote":
            value = value.promote(value.conductor * foreign)
        elif kind == "rational" and value.try_rational() is not None:
            q = value.as_rational()
            value = int(q) if q.denominator == 1 else q
        elif kind == "int":
            value = draw(st.integers(-5, 5))
        elif kind == "fraction":
            value = draw(small_fractions)
        elif kind in ("own", "foreign"):
            value = draw(cyclotomics(m if kind == "own" else foreign))
        if isinstance(value, Cyclotomic):
            value = Cyclotomic._raw(value.conductor, value.coeffs)  # the package type
        f.append(value)
    return ct, f, draw(st.integers(0, ct.k - 1))


def inner_product_outcome(fn, ct, f, irrep):
    try:
        value = fn(ct, f, irrep)
    except NotRational as e:
        return "NotRational", str(e)
    return type(value).__name__, value


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(class_functions())
def test_inner_product_matches_reference_arithmetic(case):
    ct, f, irrep = case
    got = inner_product_outcome(inner_product, ct, f, irrep)
    assert got == inner_product_outcome(rc.inner_product, ct, f, irrep)


def test_inner_product_outcomes_are_mixed():
    # the strategy reaches both outcomes, and foreign conductors in both
    outcomes = set()

    @settings(derandomize=True, deadline=None, max_examples=40, database=None)
    @given(class_functions())
    def collect(case):
        ct, f, irrep = case
        foreign = any(isinstance(v, Cyclotomic) and ct.conductor % v.conductor for v in f)
        outcomes.add((inner_product_outcome(inner_product, ct, f, irrep)[0], foreign))

    collect()
    kinds = ("Fraction", "NotRational")
    assert outcomes == {(kind, foreign) for kind in kinds for foreign in (False, True)}


def test_disk_cache_round_trip(tmp_path):
    G = symmetric_group(3)
    ct1 = character_table(G, cache_dir=tmp_path)
    files = list(tmp_path.glob("chartable-*.json"))
    # in-memory cache may have satisfied the call; force a cold read
    import repdual.chartable as mod

    mod._cache.clear()
    ct2 = character_table(G, cache_dir=tmp_path)
    assert ct2.degrees == ct1.degrees
    assert all(
        ct1.value(i, j) == ct2.value(i, j) for i in range(3) for j in range(3)
    )
    mod._cache.clear()
    ct3 = character_table(G, cache_dir=tmp_path)
    files = list(tmp_path.glob("chartable-*.json"))
    assert len(files) == 1


def test_character_table_cache_concurrent():
    import threading

    import repdual.chartable as mod

    mod._cache.clear()
    G = symmetric_group(4)
    results = []

    def worker():
        results.append(character_table(G))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 8
    first = results[0]
    for ct in results[1:]:
        assert ct.degrees == first.degrees
        assert all(
            ct.value(i, j) == first.value(i, j)
            for i in range(ct.k)
            for j in range(ct.k)
        )


def test_tables_for_matrix_groups():
    for G in (
        cyclic_group(2),
        cyclic_group(4),
        cyclic_group(6),
        symmetric_group(3),
        dihedral_group(4),
        quaternion_group(),
        symmetric_group(4),
    ):
        ct = character_table(G)
        assert ct.k == conjugacy_classes(G).num_classes
        assert ct.values[0] == tuple(
            rc.Cyclotomic.from_rational(1, ct.conductor) for _ in range(ct.k)
        )


def _edit(path, value):
    """A corruption that sets blob[path[0]][path[1]]... to value."""

    def corrupt(blob):
        *head, last = path
        target = blob
        for key in head:
            target = target[key]
        target[last] = value
        return blob

    return corrupt


def _widen(delta):
    def corrupt(blob):
        blob["distinct"] = [row[:-1] if delta < 0 else row + [0] for row in blob["distinct"]]
        return blob

    return corrupt


def _earlier_format(blob):
    """The blob as the cache wrote it before distinct and index: one
    {"conductor", "coeffs"} object per entry, coefficients as strings."""
    cells = [{"conductor": blob["conductor"], "coeffs": [str(c) for c in row]} for row in blob["distinct"]]
    values = [[cells[i] for i in row] for row in blob.pop("index")]
    del blob["distinct"]
    return dict(blob, values=values)


# each corruption maps the parsed blob to a new blob, or to the bytes of the
# file; S3 has k = 3 classes and conductor 6, so rows of phi(6) = 2
CORRUPTIONS = {
    "values-not-a-list": lambda blob: dict(blob, distinct=5),
    "top-level-list": lambda blob: [blob],
    "zero-denominator": _edit(["distinct", 1, 0], "1/0"),
    "conductor": lambda blob: dict(blob, conductor=12),
    "negative-index": _edit(["index", 1, 1], -1),
    "index-past-distinct": lambda blob: _edit(["index", 1, 1], len(blob["distinct"]))(blob),
    "index-rows-missing": lambda blob: dict(blob, index=blob["index"][:2]),
    "index-flat": lambda blob: dict(blob, index=sum(blob["index"], [])),
    "ragged-distinct": _edit(["distinct", 1], [1]),
    "row-width-phi-minus-1": _widen(-1),
    "row-width-phi-plus-1": _widen(1),
    "entry-2**63": _edit(["distinct", 1, 0], 2**63),
    "entry-2**64": _edit(["distinct", 1, 0], 2**64),
    "entry-below-int64": _edit(["distinct", 1, 0], -(2**63) - 1),
    "entry-float": _edit(["distinct", 1, 0], 1.0),
    "entry-string": _edit(["distinct", 1, 0], "1"),
    "entry-null": _edit(["distinct", 1, 0], None),
    "empty-file": lambda blob: b"",
    "truncated-json": lambda blob: json.dumps(blob)[:-20].encode(),
    "non-utf-8": lambda blob: json.dumps(blob).encode().replace(b'"index"', b'"ind\xffex"'),
    "earlier-format": _earlier_format,
}


@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
def test_corrupt_cache_is_recomputed(tmp_path, corrupt):
    import repdual.chartable as mod

    G = symmetric_group(3)
    mod._cache.clear()
    ref = character_table(G, cache_dir=tmp_path)
    (path,) = tmp_path.iterdir()
    bad = corrupt(json.loads(path.read_text()))
    path.write_bytes(bad if isinstance(bad, bytes) else json.dumps(bad).encode())
    assert mod._load_cached(G, path) is None
    mod._cache.clear()
    ct = character_table(G, cache_dir=tmp_path)
    assert (ct.values, ct.degrees) == (ref.values, ref.degrees)
    # the recomputed table replaced the corrupt file, with no temp file left
    assert list(tmp_path.iterdir()) == [path]
    assert json.loads(path.read_text()) == reference_dump_cached(ref)


def test_cache_entries_off_by_2_63_are_recomputed(tmp_path):
    # valid modulo 2**64 only: int64 arithmetic would certify this file
    import repdual.chartable as mod

    G = symmetric_group(4)
    mod._cache.clear()
    ref = character_table(G, cache_dir=tmp_path)
    (path,) = tmp_path.iterdir()
    blob = json.loads(path.read_text())
    cls = ref.classes.class_sizes.index(8)
    sign = next(i for i in range(1, ref.k) if ref.degrees[i] == 1)
    n = len(blob["distinct"])
    blob["distinct"] += [[1 - 2**63, 0, 0, 0], [-(2**63), 0, 0, 0]]
    blob["index"][sign][cls] = n
    blob["index"][ref.degrees.index(3)][cls] = n + 1
    path.write_text(json.dumps(blob))
    mod._cache.clear()
    assert mod._load_cached(G, path) is None
    ct = character_table(G, cache_dir=tmp_path)
    assert (ct.values, ct.degrees) == (ref.values, ref.degrees)
    assert json.loads(path.read_text()) == reference_dump_cached(ref)


# the sha256 of each group's cache file as it was written while files kept
# the split order of the rows under "irrep_order", between "degrees" and
# "distinct", and that order
EARLIER_CACHE_FILES = {
    "S3": ("e60fadeb1513ef19252cf4c9e35cb1f97e58e8b9c29b847e8f63755781daabdf", [1, 2, 0]),
    "Q8": ("7e0e7b1bcd714fc126c181e96a6683a7393e461e5cb733eff9fd267c7b625902", [0, 3, 2, 1, 4]),
    "Z12": (
        "4d03c822b86f9f47546d71d6d81bca98f09e54aa5cc6f78c66ebff888e1deedb",
        [0, 11, 2, 10, 5, 8, 4, 7, 3, 6, 1, 9],
    ),
}


@pytest.mark.parametrize("name", EARLIER_CACHE_FILES)
def test_earlier_cache_files_load_without_a_rewrite(name, tmp_path, monkeypatch):
    """A file with the extra key loads through _load_cached, with nothing
    computed, and is left as it was: same bytes, same inode."""
    import hashlib

    import repdual.chartable as mod
    from repdual.groups import builtin_group

    digest, split_order = EARLIER_CACHE_FILES[name]
    G = builtin_group(name)
    ref = mod._compute_character_table(G)
    blob = json.loads(mod._cache_text(ref))
    assert "irrep_order" not in blob
    earlier = {"conductor": blob["conductor"], "degrees": blob["degrees"], "irrep_order": split_order}
    text = json.dumps({**earlier, **blob}).encode()
    assert hashlib.sha256(text).hexdigest() == digest
    path = tmp_path / f"chartable-{G.table_digest()}.json"
    path.write_bytes(text)
    before = path.stat()

    loads = []
    load = mod._load_cached
    monkeypatch.setattr(mod, "_load_cached", lambda G, path: loads.append(path) or load(G, path))
    monkeypatch.setattr(mod, "_compute_character_table", None)  # a call would raise
    monkeypatch.setattr(mod, "_cache", {})
    ct = character_table(G, cache_dir=tmp_path)
    assert loads == [path]
    assert ct == ref
    after = path.stat()
    assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == text
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


def test_failed_cache_write_leaves_no_partial_file(tmp_path, monkeypatch):
    # the OSError reaches the caller as an operational RepdualError that
    # names the cache directory
    import repdual.chartable as mod

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(mod.os, "replace", refuse)
    mod._cache.clear()
    message = f"cannot write to cache directory {tmp_path}: disk full"
    with pytest.raises(RepdualError, match=f"^{re.escape(message)}$"):
        character_table(symmetric_group(3), cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("factors", [("Z60",), ("D60",), ("Q8", "Z4")], ids="x".join)
def test_values_text_matches_cyclotomic_str(factors):
    from repdual.groups import builtin_group, product_group

    F = [builtin_group(f) for f in factors]
    G = F[0] if len(F) == 1 else product_group(F)
    ct = character_table(G)
    assert ct.values_text() == [[str(v) for v in row] for row in ct.values]
