import json
from fractions import Fraction

import pytest

from repdual.chartable import (
    CharacterTable,
    character_table,
    class_multiplication_coefficients,
    dixon_prime,
    inner_product,
)
from repdual.cyclotomic import Cyclotomic
from repdual.errors import NotRational
from repdual.groups import (
    commutator_subgroup,
    conjugacy_classes,
    cyclic_group,
    dihedral_group,
    group_from_generators,
    quaternion_group,
    symmetric_group,
)


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
        if G.mul(x, y) == 0
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
    for j in range(1, 5):
        assert sum(ct.value(i, 0) * ct.value(i, j).conjugate() for i in range(5)) == 0


def test_z4_table_has_exact_i():
    ct = character_table(cyclic_group(4))
    assert ct.conductor == 4
    values = {str(ct.value(i, 1)) for i in range(4)}
    assert values == {"1", "-1", "z4", "-z4"}


def certify_helpers(ct: CharacterTable):
    k, order = ct.k, ct.group.order
    assert sum(d * d for d in ct.degrees) == order
    n_linear = sum(1 for d in ct.degrees if d == 1)
    assert n_linear == order // len(commutator_subgroup(ct.group))


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
        assert ct.degrees == (1,) * n
        # classes are singletons; chi(gh) = chi(g) chi(h)
        for i in range(n):
            for g in range(n):
                for h in range(n):
                    gh = G.mul(g, h)
                    assert ct.value(i, gh) == ct.value(i, g) * ct.value(i, h)


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
    bad = [Cyclotomic.zeta(3), Cyclotomic.from_rational(0), Cyclotomic.from_rational(0)]
    with pytest.raises(NotRational):
        inner_product(ct, bad, 0)


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
            Cyclotomic.from_rational(1, ct.conductor) for _ in range(ct.k)
        )


def _corrupt_coefficient(blob):
    blob["values"][1][1]["coeffs"][0] = "1/0"
    return blob


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda blob: dict(blob, values=5),
        lambda blob: [blob],
        _corrupt_coefficient,
        lambda blob: dict(blob, conductor=12),
        lambda blob: dict(blob, irrep_order=[0, 0, 1]),
    ],
    ids=["values-not-a-list", "top-level-list", "zero-denominator", "conductor", "irrep-order"],
)
def test_corrupt_cache_is_recomputed(tmp_path, corrupt):
    import repdual.chartable as mod

    G = symmetric_group(3)
    mod._cache.clear()
    ref = character_table(G, cache_dir=tmp_path)
    (path,) = tmp_path.iterdir()
    path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
    mod._cache.clear()
    ct = character_table(G, cache_dir=tmp_path)
    assert (ct.values, ct.degrees, ct.irrep_order) == (ref.values, ref.degrees, ref.irrep_order)
    # the recomputed table replaced the corrupt file, with no temp file left
    assert list(tmp_path.iterdir()) == [path]
    assert json.loads(path.read_text()) == mod._dump_cached(ref)


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
    blob["values"][sign][cls]["coeffs"][0] = str(1 - 2**63)
    blob["values"][ref.degrees.index(3)][cls]["coeffs"][0] = str(-(2**63))
    path.write_text(json.dumps(blob))
    mod._cache.clear()
    assert mod._load_cached(G, path) is None
    ct = character_table(G, cache_dir=tmp_path)
    assert (ct.values, ct.degrees, ct.irrep_order) == (ref.values, ref.degrees, ref.irrep_order)
    assert json.loads(path.read_text()) == mod._dump_cached(ref)


def test_failed_cache_write_leaves_no_partial_file(tmp_path, monkeypatch):
    import repdual.chartable as mod

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(mod.os, "replace", refuse)
    mod._cache.clear()
    with pytest.raises(OSError, match="disk full"):
        character_table(symmetric_group(3), cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("factors", [("Z60",), ("D60",), ("Q8", "Z4")], ids="x".join)
def test_values_text_matches_cyclotomic_str(factors):
    from repdual.groups import builtin_group, product_group

    F = [builtin_group(f) for f in factors]
    G = F[0] if len(F) == 1 else product_group(F)
    ct = character_table(G)
    assert ct.values_text() == [[str(v) for v in row] for row in ct.values]
