"""Closed-form abelian character tables against Dixon's method.

An abelian group's table is built from its pairing exponents; the Dixon
path (chartable._dixon_table) stays the reference for it: the same
coefficients, degrees, irrep_order, cache bytes and JSON.  The split-order
rule that gives an abelian table its irrep_order is checked on the Dixon
tables of the nonabelian groups as well, and the basis and pairing
exponents against their per-element references, on relabelled tables too.
"""

import json
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repdual import chartable, zring
from repdual.chartable import (
    _abelian_table,
    _cache_text,
    _dixon_table,
    abelian_basis,
    abelian_pairing_exponents,
    character_table,
)
from repdual.errors import CapExceeded
from repdual.groups import conjugacy_classes, cyclic_group, product_group

from reference_tables import (
    reference_abelian_basis,
    reference_abelian_pairing_exponents,
    reference_dump_cached,
)
from test_table_kernels import CLASS_GROUPS, build, relabelled

CYCLIC_PRODUCTS = [
    "Z2xZ2xZ2xZ2xZ2", "Z2xZ4", "Z3xZ3", "Z2xZ6", "Z4xZ4", "Z2xZ2xZ3", "Z6xZ10", "Z3xZ4xZ5", "Z12xZ8",
]


def assert_same_table(G):
    classes = conjugacy_classes(G)
    closed, dixon = _abelian_table(G, classes), _dixon_table(G, classes)
    assert np.array_equal(closed.zvalues, dixon.zvalues)
    assert not closed.zvalues.flags.writeable
    assert (closed.degrees, closed.irrep_order) == (dixon.degrees, dixon.irrep_order)
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
def test_basis_and_pairing_match_reference(orders, seed):
    G = product_group([cyclic_group(n) for n in orders])
    for G in (G, relabelled(G, seed)):
        assert abelian_basis(G) == reference_abelian_basis(G)
        assert abelian_pairing_exponents(G) == reference_abelian_pairing_exponents(G)


def central_character_order(ct):
    """irrep_order by its rule: the position of every row's central
    character |C_j| chi(c_j) / chi(1), mod the Dixon prime at its root z,
    among all of them in lexicographic order."""
    G, m = ct.group, ct.conductor
    p = chartable.dixon_prime(G.order, m)
    z = zring.root_of_unity(m, p)
    chi = ct.zvalues @ np.array([pow(z, t, p) for t in range(m)], dtype=np.int64) % p
    sizes = np.array(ct.classes.class_sizes, dtype=np.int64)
    central = [
        (chi[i] * sizes * pow(d, p - 2, p) % p).tolist() for i, d in enumerate(ct.degrees)
    ]
    ranked = sorted(range(ct.k), key=central.__getitem__)
    return tuple(ranked.index(i) for i in range(ct.k))


@pytest.mark.parametrize("name", CLASS_GROUPS)
def test_irrep_order_is_the_central_character_order(name):
    ct = character_table(build(name))
    assert ct.irrep_order == central_character_order(ct)


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
