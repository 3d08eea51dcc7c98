"""Closed-form abelian character tables against Dixon's method.

An abelian group's table is built from its pairing exponents; the Dixon
path (chartable._dixon_table) stays the reference for it: the same
coefficients, degrees, cache bytes and JSON.  Every table's rows reduce mod
the Dixon prime to the central characters of the class-algebra split, and
the basis and pairing exponents are checked against their per-element
references, on relabelled tables too.  The abelian check's pairing
artifacts (ct.abelian_pairing) are checked against the per-row Cyclotomic
match and recorded bytes.
"""

import hashlib
import json
from math import prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repdual import chartable, zring
from repdual.chartable import (
    CharacterTable,
    _abelian_table,
    _cache_text,
    _dixon_table,
    abelian_basis,
    abelian_pairing_exponents,
    character_table,
)
from repdual.errors import CapExceeded, NonIntegerMultiplicity
from repdual.groups import conjugacy_classes, cyclic_group, product_group

from reference_tables import (
    reference_abelian_basis,
    reference_abelian_pairing_exponents,
    reference_dump_cached,
)
from reference_tallies import irrep_to_element
from test_table_kernels import CLASS_GROUPS, build, relabelled

CYCLIC_PRODUCTS = [
    "Z2xZ2xZ2xZ2xZ2", "Z2xZ4", "Z3xZ3", "Z2xZ6", "Z4xZ4", "Z2xZ2xZ3", "Z6xZ10", "Z3xZ4xZ5", "Z12xZ8",
]


def assert_same_table(G):
    classes = conjugacy_classes(G)
    closed, dixon = _abelian_table(G, classes), _dixon_table(G, classes)
    assert np.array_equal(closed.zvalues, dixon.zvalues)
    assert not closed.zvalues.flags.writeable
    assert closed.degrees == dixon.degrees
    assert closed == dixon
    text = _cache_text(closed)
    assert text == _cache_text(dixon) == json.dumps(reference_dump_cached(dixon))
    assert json.dumps(closed.to_json()) == json.dumps(dixon.to_json())


@pytest.mark.parametrize("name", [f"Z{n}" for n in range(1, 61)] + ["Z120"] + CYCLIC_PRODUCTS)
def test_closed_form_matches_dixon(name):
    assert_same_table(build(name))


@st.composite
def cyclic_orders(draw, bound=120):
    """One to three cyclic factor orders whose product is at most bound."""
    orders = []
    for _ in range(draw(st.integers(1, 3))):
        orders.append(draw(st.integers(1, min(12, bound // prod(orders)))))
    return orders


@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(cyclic_orders(), st.integers(0, 2**32))
def test_products_of_cyclic_groups_match_dixon(orders, seed):
    G = product_group([cyclic_group(n) for n in orders])
    assert_same_table(G)
    assert_same_table(relabelled(G, seed))


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(cyclic_orders(bound=96), st.integers(0, 2**32))
@example([24], 0)
@example([30], 0)
@example([2] * 5, 0)
@example([120], 0)
@example([300], 0)
def test_basis_and_pairing_match_reference(orders, seed):
    G = product_group([cyclic_group(n) for n in orders])
    for G in (G, relabelled(G, seed)):
        assert abelian_basis(G) == reference_abelian_basis(G)
        assert abelian_pairing_exponents(G) == reference_abelian_pairing_exponents(G)


BASIS_GROUPS = [f"Z{n}" for n in range(1, 61)] + [
    "Z300", "Z2xZ2xZ2xZ2xZ2", "x".join(["Z2"] * 10), "Z3xZ3xZ3", "Z2xZ4xZ8", "Z4xZ4xZ2", "Z3xZ9", "Z12xZ18",
]


@pytest.mark.parametrize("name", BASIS_GROUPS)
def test_basis_matches_the_element_walk(name):
    """abelian_basis on its power table picks the basis of the per-element
    greedy loop, the lift fix-up included (Z12xZ18 needs one)."""
    G = build(name)
    assert abelian_basis(G) == reference_abelian_basis(G)


# sha256 of irrep_to_element and then the one-hot pairing array built from
# eps, both as little-endian int64, as the per-row match of every table row
# against all k reduced characters produced them
PAIRING_DIGESTS = {
    "Z1": "9d34149fbd1fe777eb238799054c8cbfbce372255f219f8740838def9bfd02db",
    "Z2": "8b03a25781faae48bdf6ca1eb03fd24c68689a15833c0f3f164bf9dbc3e0542c",
    "Z3": "d9354ae436620adeab9b389895af38192bc675b8bfc6d69c42a7b0e6f1014b9a",
    "Z4": "e3f78f65ebffa01b7f712cf7c8b5eec59411e8b3befd9f9464926c07cd9df280",
    "Z5": "2560fc7448246061a134d8e09348f0c00e1aba2709e20a50bac5a9e13d2bbabd",
    "Z6": "4b4e974dcde3ec2a8f7f1aa25f42658ee98e1873b47cf178d3a5ac461d562708",
    "Z7": "2124f538c0312703bea18a6f93a06fcb43aff81ad59d41c8cc8d5411cfe98925",
    "Z8": "6cd55f070f95aa0084d205e72e5dd36984503a3ef655eceea4fbdc852c166200",
    "Z9": "bd2efc73ab44c4876880c7a0b7faf0ad5e15716c917e3e3cbdbb8aaca733aa81",
    "Z10": "685155d9f03f3a6b103f7f3916860fa1294c8b070b90a8f43fdff7b4d7a91826",
    "Z11": "4606de105a2bd198b7bcb9a34097549548f0a23867ad4b164cb6904744b0a382",
    "Z12": "6b5c4d504c0845e73553ee9ea47d90c5cd91bdc1354c6f355a16e9489304ba06",
    "Z24": "3ec305429c0e00fa3da1ed89d07fbb9a5843414d4ed5790d2ac4cf5b3c02b4e0",
    "Z30": "7f49e47f9d3d6b70f5b41fd218ed48ba8ce01490e9d4d5664491673767503406",
    "Z60": "59bb2daaecd10fa9faa8b1806b58a0c665c352b516b80235b8b61a7dc80bbebf",
    "Z120": "8fab60636b29d37ae9d2a393305480bf7c9dd43018ff6c7aae997ad677bfc578",
    "Z2xZ2xZ2xZ2xZ2": "793f56dd68db718036b0571f5219c64c1932b8f73bca92b376f9d6147db36bfc",
    "Z4xZ6": "55eca6b37027396fc1b667aa1a6c66a744605835b63af2ccf72bb6f3f4b5a909",
}


def fresh_table(name):
    """The closed-form table of a builtin or product group, outside the
    in-process cache, so its pairing artifacts are built anew."""
    G = build(name)
    return _abelian_table(G, conjugacy_classes(G))


@pytest.mark.parametrize("name", list(PAIRING_DIGESTS))
def test_abelian_pairing_matches_reference(name):
    ct = fresh_table(name)
    ab = ct.abelian_pairing
    want = irrep_to_element(ct, ab.eps)
    assert ab.irrep_to_element.tolist() == [want[i] for i in range(ct.k)]
    assert not ab.irrep_to_element.flags.writeable
    pairing = np.eye(ct.group.exponent, dtype=np.int64)[np.array(ab.eps)]
    digest = hashlib.sha256(np.asarray(ab.irrep_to_element, dtype="<i8").tobytes())
    digest.update(np.ascontiguousarray(pairing, dtype="<i8").tobytes())
    assert digest.hexdigest() == PAIRING_DIGESTS[name]
    assert ct.abelian_pairing is ab


def test_abelian_pairing_reduces_nothing(monkeypatch):
    # the characters are gathered from the reduction matrix and the rows
    # read as stored, already reduced: no (k, k, m) product with it
    tables = [fresh_table(name) for name in ("Z6", "Z4xZ6", "Z30")]
    calls = []
    reduce = zring.reduce
    monkeypatch.setattr(zring, "reduce", lambda A: calls.append(A.shape) or reduce(A))
    for ct in tables:
        ct.abelian_pairing
    assert calls == []


def test_abelian_pairing_names_the_first_row_without_one_character(monkeypatch):
    ct = fresh_table("Z4")
    T = ct.zvalues.copy()
    T[2:, 1] = 0
    T[2:, 1, 0] = 2  # 2 is not a root of unity
    tampered = CharacterTable(ct.group, ct.classes, ct.degrees, ct.conductor, T)
    with pytest.raises(NonIntegerMultiplicity, match=r"^character row 2 matches 0 pairing characters$"):
        tampered.abelian_pairing
    # a degenerate pairing makes every character trivial: the trivial row
    # matches all four
    ct = fresh_table("Z4")
    monkeypatch.setattr(chartable, "abelian_pairing_exponents", lambda G: [[0] * 4] * 4)
    with pytest.raises(NonIntegerMultiplicity, match=r"^character row 0 matches 4 pairing characters$"):
        ct.abelian_pairing


def central_characters(ct, p):
    """Every row's central character |C_j| chi(c_j) / chi(1), mod p at the
    root z of the lift, in irrep order."""
    m = ct.conductor
    z = zring.root_of_unity(m, p)
    chi = ct.zvalues @ np.array([pow(z, t, p) for t in range(m)], dtype=np.int64) % p
    sizes = np.array(ct.classes.class_sizes, dtype=np.int64)
    return [(chi[i] * sizes * pow(d, p - 2, p) % p).tolist() for i, d in enumerate(ct.degrees)]


@pytest.mark.parametrize("name", CLASS_GROUPS)
def test_irrep_order_is_the_central_character_order(name):
    """The rows, in irrep order, reduce mod the Dixon prime to the central
    characters that the class-algebra split finds, one row each, compared
    as lexsorted rows: a table keeps its canonical row order, not the
    split's.  The closed-form abelian tables never run the split, so this
    ties them to Dixon's eigenvectors mod p."""
    ct = character_table(build(name))
    G = ct.group
    p = chartable.dixon_prime(G.order, G.exponent)
    a = chartable.class_multiplication_coefficients(G, ct.classes)
    split = chartable._central_characters(a, p).tolist()
    assert sorted(central_characters(ct, p)) == sorted(split)


def test_closed_form_cap(monkeypatch, tmp_path):
    G = build("Z2xZ2xZ2")  # 8 * 8 * 2 entries, 8^3 Gram products
    message = r"character table array \(k\*k\*m entries\) needs 128 > cap 127"
    monkeypatch.setattr(chartable, "DEFAULT_CLASS_ALGEBRA_CAP", 127)
    with pytest.raises(CapExceeded, match=message):
        chartable._compute_character_table(G)
    message = r"certification Gram products \(k\^3 entries\) needs 512 > cap 128"
    monkeypatch.setattr(chartable, "DEFAULT_CLASS_ALGEBRA_CAP", 128)
    with pytest.raises(CapExceeded, match=message):
        chartable._compute_character_table(G)
    monkeypatch.setattr(chartable, "DEFAULT_CLASS_ALGEBRA_CAP", 512)
    monkeypatch.setattr(chartable, "_cache", {})
    assert character_table(G, cache_dir=tmp_path).zvalues.shape == (8, 8, 2)
    # a cached table is certified again, under the same cap
    monkeypatch.setattr(chartable, "DEFAULT_CLASS_ALGEBRA_CAP", 128)
    monkeypatch.setattr(chartable, "_cache", {})
    with pytest.raises(CapExceeded, match=message):
        character_table(G, cache_dir=tmp_path)
