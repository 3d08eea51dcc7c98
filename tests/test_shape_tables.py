"""The small-shape tables and the per-group arrays against the direct kernels
they replaced (tests/reference_shapes.py), on both sides of the size rule:
a table that depends only on a shape is kept while it holds at most
groups.TABLE_BLOCK entries, and past that the kernel runs as before.
Per-group arrays live on the group (or its ClassData), so they never cross
to another group, even one of the same order and class count built after
the first is collected."""

from __future__ import annotations

import gc
import random
import weakref

import numpy as np
import pytest

import reference_shapes as ref
from repdual import chartable, codes, duality, groups, identities, zring
from repdual.chartable import character_table
from repdual.codes import code_from_generators, diagonal_code, rank_profile, trivial_code
from repdual.duality import (
    _subset_powers,
    _tuple_digits,
    _tuple_products,
    decompose_permutation_character,
    dual_multiset,
    permutation_character,
)
from repdual.groups import TABLE_BLOCK, builtin_group, conjugacy_classes, product_group
from repdual.identities import _relabelling
from repdual.zring import content_ranks

# (k, n) on each side of k^n <= TABLE_BLOCK, with n = 0 and k = 1 (Z1)
FLAT_SHAPES = [(2, 14), (2, 15), (4, 7), (4, 8), (3, 0), (1, 0), (1, 9), (5, 3)]


def sample(size: int, count: int = 200) -> np.ndarray:
    """Flat indices in range(size): all of them, or a seeded sample with
    both ends."""
    if size <= count:
        return np.arange(size)
    rng = np.random.default_rng(size)
    return np.unique(np.concatenate([[0, size - 1], rng.integers(0, size, count)]))


def spy(monkeypatch, module, name: str) -> list:
    """Record every call of module.name, which still runs."""
    calls = []
    kernel = getattr(module, name)

    def recorded(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(module, name, recorded)
    return calls


def table_reads(table) -> int:
    info = table.cache_info()
    return info.hits + info.misses


# -- the helpers against the kernels ------------------------------------------------


@pytest.mark.parametrize("k, n", FLAT_SHAPES + [(2, 10), (2, 11)])
def test_tuple_digits_match_unravel_index(k, n):
    # the digit table holds k^n * n entries: (2, 10) keeps it, (2, 11) does not
    flat = sample(k**n)
    got = _tuple_digits(flat, (k,) * n)
    want = ref.digits(flat, (k,) * n, groups._index_dtype(k))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("k, n", FLAT_SHAPES)
@pytest.mark.parametrize("dtype", [np.int64, object])
def test_tuple_products_match_row_products(k, n, dtype):
    values = tuple(range(1, k + 1))[::-1]
    flat = sample(k**n)
    tuples = ref.digits(flat, (k,) * n, np.int64)
    got = _tuple_products(values, flat, tuples, dtype)
    want = ref.tuple_products(values, tuples, dtype)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


@pytest.mark.parametrize("k, n", FLAT_SHAPES)
def test_content_ranks_match_sorted_rows(k, n):
    P = ref.digits(sample(k**n), (k,) * n, groups._index_dtype(k))
    got, want = content_ranks(P, k), ref.content_ranks(P, k)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("k, n", [(4, 40), (4, 45), (8, 8), (8, 10), (3, 0), (1, 4)])
def test_relabelling_matches_argsort(k, n):
    # C(43, 3) = 12341 contents of (4,)*40 keep the table; C(48, 3) = 17296 do not
    phi = np.array(random.Random(k * 100 + n).sample(range(k), k))
    got, want = _relabelling(phi, n), ref.relabelling(phi, n)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("q, n", [(2, 14), (2, 15), (6, 3), (1, 5), (7, 0)])
@pytest.mark.parametrize("dtype", [np.int64, object])
def test_subset_powers_match_halvings(q, n, dtype):
    got, want = _subset_powers(q, n, dtype), ref.subset_powers(q, n, dtype)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


def tampered_profiles(card: list[int], n: int, count: int = 40):
    """card itself, then copies with one nonempty entry raised or lowered
    (to 0 too), seeded."""
    rng = random.Random(n)
    yield card
    for _ in range(count if len(card) > 1 else 0):
        bad = list(card)
        S = rng.randrange(1, len(card))
        bad[S] = rng.choice([0, max(1, bad[S] // 2), bad[S] + 1, 2 * bad[S] + 3])
        yield bad


@pytest.mark.parametrize("n", [0, 1, 3, 7, 8, 9])
def test_polymatroid_witness_matches_slices(n):
    # 7 * 2^(n-3) n (n+3) entries: n = 7 keeps the table, n = 8 does not
    G = builtin_group("S3")
    gens = [tuple(random.Random(n + i).choice(range(6)) for _ in range(n)) for i in range(2)]
    card = codes.projection_cardinalities(code_from_generators(G, n, gens))
    witnesses = set()
    for bad in tampered_profiles(card, n):
        got = codes._polymatroid_witness(bad, n)
        assert got == ref.polymatroid_witness(bad, n)
        witnesses.add(got)
    assert witnesses != {None} or n == 0


@pytest.mark.parametrize("n", [2, 7, 8])
def test_rank_profile_names_the_first_witness_of_a_tampered_profile(monkeypatch, n):
    # diag S3^n: card(S) = 6 for every nonempty S; lowering card({0, 1})
    # to 5 first fails monotonicity at S = {0}, i = 1
    code = diagonal_code(builtin_group("S3"), n)
    card = list(codes.projection_cardinalities(code))
    card[0b011] = 5
    assert codes._polymatroid_witness(card, n) == ref.polymatroid_witness(card, n) == (1, 1, 1)
    monkeypatch.setattr(codes, "projection_cardinalities", lambda code: card)
    with pytest.raises(codes.PolymatroidViolation, match="^monotonicity fails at S=1, i=1$"):
        rank_profile(code)


GROUPS = ["Z1", "Z4", "S3", "D4", "Q8", "Z6"]


def all_masks(order: int):
    """Every member mask that holds the identity, for order <= 8."""
    for bits in range(1 << (order - 1)):
        member = np.zeros(order, dtype=bool)
        member[0] = True
        member[1:] = [(bits >> g) & 1 for g in range(order - 1)]
        yield member


@pytest.mark.parametrize("name", GROUPS)
def test_transversals_match_the_closure_and_the_minimum(name):
    # Z6, D4 and Q8 have 2^(order-1) >= 32 masks; 128 of D4 and Q8 pass the
    # memo's 64 entries, so evicted masks are computed again
    G = builtin_group(name)
    for _ in range(2):
        for member in all_masks(G.order):
            got = G._transversal(member.tobytes())
            want = ref.transversal(G.cayley, member)
            assert (got is None) == (want is None)
            if want is not None:
                assert np.array_equal(got, want) and not got.flags.writeable


@pytest.mark.parametrize("name", GROUPS)
def test_class_maps_and_group_arrays_match(name):
    G = builtin_group(name)
    classes = conjugacy_classes(G)
    assert np.array_equal(classes._class_maps, ref.class_maps(classes))
    assert np.array_equal(G._flat_cayley, G.cayley.astype(np.int64).reshape(-1))
    assert G._inverse_array.tolist() == list(G.inverse)
    for a in (classes._class_maps, G._flat_cayley, G._inverse_array):
        assert a.dtype == np.int64 and not a.flags.writeable


@pytest.mark.parametrize(
    "name, n", [("Z2", 14), ("Z2", 15), ("Z4", 7), ("Z4", 8), ("S3", 3), ("Z1", 3)]
)
def test_dims_of_r_h_match_the_row_products(name, n):
    # dual_multiset seeds dims from the degree product table while k^n <=
    # TABLE_BLOCK; past it dims is the blocked row product
    ct = character_table(builtin_group(name))
    before = table_reads(duality._product_table)
    dm = dual_multiset(diagonal_code(ct.group, n), ct)
    assert table_reads(duality._product_table) == before + (ct.k**n <= TABLE_BLOCK)
    want = ref.dims(ct.degrees, dm.index, n)
    assert dm.dims.dtype == want.dtype and dm.dims.tolist() == want.tolist()


# -- which path runs ---------------------------------------------------------------


def paths(monkeypatch):
    """(small call, large call, its table, the spied kernel's calls) for
    every table with a kernel past the size rule."""
    return [
        (lambda: content_ranks(np.zeros((3, 14), dtype=np.int16), 2),
         lambda: content_ranks(np.zeros((3, 15), dtype=np.int16), 2),
         zring._flat_ranks, spy(monkeypatch, zring, "_sorted_ranks")),
        (lambda: _tuple_digits(np.arange(5), (2,) * 10),
         lambda: _tuple_digits(np.arange(5), (2,) * 11),
         duality._digit_table, spy(monkeypatch, duality, "_digits")),
        (lambda: codes._polymatroid_witness([1] * 2**7, 7),
         lambda: codes._polymatroid_witness([1] * 2**8, 8),
         codes._exchange_index, spy(monkeypatch, codes, "_sliced_witness")),
        (lambda: _subset_powers(2, 14, np.int64),
         lambda: _subset_powers(2, 15, np.int64),
         duality._small_subset_powers, spy(monkeypatch, duality, "_halving_powers")),
        (lambda: _relabelling(np.arange(4), 40),
         lambda: _relabelling(np.arange(4), 45),
         identities._small_relabelling, spy(monkeypatch, identities, "_content_relabelling")),
    ]


def test_small_shapes_read_tables_and_large_ones_run_the_kernels(monkeypatch):
    for small, large, table, calls in paths(monkeypatch):
        small()  # builds the table the first time, by the kernel
        calls.clear()
        before = table_reads(table)
        small()
        assert (table_reads(table), calls) == (before + 1, [])
        large()
        assert (table_reads(table), len(calls)) == (before + 1, 1)


def test_products_read_the_table_only_for_small_shapes():
    for n, reads in ((14, 1), (15, 0)):
        before = table_reads(duality._product_table)
        tuples = np.zeros((2, n), dtype=np.int64)
        _tuple_products((1, 1), np.zeros(2, dtype=np.int64), tuples, np.int64)
        assert table_reads(duality._product_table) == before + reads


# -- per-group arrays never cross groups -------------------------------------------


PAIRS = [
    (lambda: builtin_group("D4"), lambda: builtin_group("Q8")),
    (lambda: builtin_group("Z4"), lambda: product_group([builtin_group("Z2")] * 2)),
]


def oracle_outputs(G, n: int = 2):
    """The oracle's permutation characters and multiplicities, with the
    Frobenius route's, for the trivial and diagonal codes and one code
    from a generator, all read through G's arrays."""
    ct = character_table(G)
    out = []
    for code in (trivial_code(G, n), diagonal_code(G, n), code_from_generators(G, n, [(1, 2)])):
        pc = permutation_character(code, ct.classes)
        dm = decompose_permutation_character(pc, ct, n)
        assert dm.mult == dual_multiset(code, ct).mult
        out.append((pc, dm.mult))
    return out


def reference_arrays(G):
    classes = conjugacy_classes(G)
    masks = [m for m in all_masks(G.order) if ref.transversal(G.cayley, m) is not None]
    return (
        ref.class_maps(classes).tolist(),
        G.cayley.astype(np.int64).reshape(-1).tolist(),
        [ref.transversal(G.cayley, m).tolist() for m in masks],
        masks,
    )


def held_arrays(G, masks):
    ct = character_table(G)
    return (
        ct.classes._class_maps.tolist(),
        G._flat_cayley.tolist(),
        [G._transversal(m.tobytes()).tolist() for m in masks],
    )


@pytest.mark.parametrize("pair", PAIRS, ids=["D4-Q8", "Z4-Z2xZ2"])
def test_interleaved_groups_keep_their_own_arrays(monkeypatch, pair):
    # same order and class count, different tables: every array a group
    # holds is its own, also once the first group is collected and its id
    # may be reused
    monkeypatch.setattr(chartable, "_cache", {})  # the memo holds no group
    make_a, make_b = pair
    A, B = make_a(), make_b()
    assert (A.order, character_table(A).k) == (B.order, character_table(B).k)
    assert not np.array_equal(A.cayley, B.cayley)
    ref_a, ref_b = reference_arrays(A), reference_arrays(B)
    want_a, want_b = oracle_outputs(A), oracle_outputs(B)
    for _ in range(2):
        assert held_arrays(A, ref_a[3]) == ref_a[:3]
        assert held_arrays(B, ref_b[3]) == ref_b[:3]
        assert oracle_outputs(A) == want_a
        assert oracle_outputs(B) == want_b
    for _ in range(3):
        gone = weakref.ref(A)
        chartable._cache.clear()
        del A
        gc.collect()
        assert gone() is None
        C = make_b()
        assert oracle_outputs(C) == want_b
        assert held_arrays(C, ref_b[3]) == ref_b[:3]
        A = make_a()
        assert oracle_outputs(A) == want_a
        assert held_arrays(A, ref_a[3]) == ref_a[:3]


def test_the_transversal_memo_is_bounded():
    G = builtin_group("D4")
    for member in all_masks(G.order):
        G._transversal(member.tobytes())
    assert G._transversal.cache_info().currsize == groups.TRANSVERSAL_MEMO


def test_tables_are_read_only():
    for table in (
        duality._digit_table((3, 3)),
        duality._product_table((1, 2), 3),
        zring._flat_ranks(3, 3),
        codes._exchange_index(3),
        duality._small_subset_powers(3, 3, np.int64),
        identities._small_relabelling((0, 2, 1), 3),
    ):
        assert not table.flags.writeable
