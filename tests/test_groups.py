import itertools

import numpy as np
import pytest

from repdual.errors import (
    ClosureCapExceeded,
    InvalidPermutation,
    NotAGroup,
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
    quaternion_group,
    symmetric_group,
)


from reference_tables import reference_commutator_subgroup


def brute_force_closure(perms):
    """Independent oracle: fixpoint iteration over full pairwise products."""
    degree = len(perms[0])
    elems = {tuple(range(degree))} | set(perms)
    while True:
        new = {tuple(f[x] for x in g) for f in elems for g in elems} | elems
        if new == elems:
            return elems
        elems = new


def conjugate(G, g: int, by: int) -> int:
    """by * g * by^-1"""
    return int(G.cayley[G.cayley[by, g], G.inverse[by]])


def check_group_axioms(G):
    n, T = G.order, G.cayley
    elements = np.arange(n)
    assert (T[0] == elements).all() and (T[:, 0] == elements).all()
    assert (T[elements, G.inverse] == 0).all()
    x = np.zeros(n, dtype=np.intp)
    for _ in range(G.exponent):
        x = T[x, elements]
    assert (x == 0).all()
    assert G.order % G.exponent == 0
    if n <= 30:
        # (ab)c == a(bc) over all triples (a, b, c)
        assert (T[T] == T[elements[:, None, None], T[None]]).all()


def test_s3_from_generators():
    G = symmetric_group(3)
    assert G.order == 6
    assert G.element_labels[0] == "()"
    assert G.element_labels[1] == "(0 1)"
    assert G.element_labels[2] == "(0 1 2)"
    check_group_axioms(G)


def test_empty_generators_trivial_group():
    G = group_from_generators([])
    assert G.order == 1
    assert G.exponent == 1


def test_d4_closure_matches_brute_force():
    gens = [perm_from_cycles([[0, 1, 2, 3]], 4), perm_from_cycles([[0, 2]], 4)]
    G = group_from_generators(gens)
    assert G.order == 8
    assert len(brute_force_closure(gens)) == 8
    check_group_axioms(G)


def test_closure_cap():
    with pytest.raises(ClosureCapExceeded):
        symmetric_group(5, cap=100)


def test_invalid_permutation():
    with pytest.raises(InvalidPermutation):
        group_from_generators([(0, 0, 1)])


def test_group_from_table_trivial_and_z6():
    assert group_from_table([[0]]).order == 1
    Z6 = group_from_table([[(i + j) % 6 for j in range(6)] for i in range(6)])
    assert Z6.order == 6
    assert Z6.exponent == 6
    check_group_axioms(Z6)


def find_nonassociative_loop(n=5):
    """Brute-force a Latin square of order n with two-sided identity 0 that
    is not associative."""
    table = [[0] * n for _ in range(n)]
    table[0] = list(range(n))
    for i in range(n):
        table[i][0] = i

    def fill(cells):
        if not cells:
            two_sided_inverses = all(
                table[table[a].index(0)][a] == 0 for a in range(n)
            )
            return two_sided_inverses and not all(
                table[table[a][b]][c] == table[a][table[b][c]]
                for a, b, c in itertools.product(range(1, n), repeat=3)
            )
        i, j = cells[0]
        used = set(table[i][:j]) | {table[r][j] for r in range(i)}
        for v in range(n):
            if v not in used:
                table[i][j] = v
                if fill(cells[1:]):
                    return True
        table[i][j] = 0
        return False

    cells = [(i, j) for i in range(1, n) for j in range(1, n)]
    assert fill(cells)
    return table


def test_group_from_table_rejects_nonassociative_latin_square():
    table = find_nonassociative_loop(5)
    with pytest.raises(NotAGroup, match="associativity"):
        group_from_table(table)


def test_group_from_table_entry_types():
    # an entry is a Python or numpy integer or bool in 0..n-1 (a bool counts
    # as 0 or 1); a float, a string, a sequence or an integer out of range
    # is named, the first in row-major order
    z2 = [[0, 1], [1, 0]]
    accepted = [
        [[False, True], [True, False]],
        [[np.False_, np.True_], [np.True_, np.False_]],
        [[np.int64(0), np.int64(1)], [np.int64(1), np.int64(0)]],
        list(np.array(z2, dtype=np.uint8)),
        [[np.uint64(0), np.int64(1)], [1, np.uint64(0)]],  # numpy promotes these to float
    ]
    for table in accepted:
        assert group_from_table(table).cayley.tolist() == z2
    S4 = symmetric_group(4)
    assert group_from_table(list(S4.cayley)).cayley.tolist() == S4.cayley.tolist()
    refused = {
        "entry (0,1) = 1.0 outside 0..1": [[0, 1.0], [1, 0]],
        "entry (0,0) = 0.0 outside 0..1": [[np.float64(0), 1], [1, 0]],
        "entry (0,1) = 1 outside 0..1": [[0, "1"], [1, 0]],
        "entry (1,0) = 2 outside 0..1": [[0, 1], [np.int64(2), 0]],
        "entry (0,1) = -1 outside 0..1": [[0, np.int8(-1)], [1, 0]],
        "entry (0,0) = [0] outside 0..1": [[[0], 1], [1, 0]],
        f"entry (0,1) = {2**70} outside 0..1": [[0, 2**70], [1, 0]],
        "entry (1,1) = None outside 0..1": [[0, 1], [1, None]],
    }
    for message, table in refused.items():
        with pytest.raises(NotAGroup) as exc:
            group_from_table(table)
        assert str(exc.value) == message


def test_group_from_table_rejects_bad_identity():
    with pytest.raises(NotAGroup, match="identity"):
        group_from_table([[1, 0], [0, 1]])


def test_element_without_order_is_rejected():
    # the powers of b run b, c, b, c, ... and never reach the identity a
    with pytest.raises(NotAGroup, match="^powers of b never reach the identity$"):
        FiniteGroup("bad", ((0, 1, 2), (1, 2, 0), (2, 2, 1)), ("a", "b", "c"))


def test_group_from_rows_equals_group_from_array():
    G = symmetric_group(4)
    table = G.cayley.tolist()
    rows = FiniteGroup(G.name, table, G.element_labels, generators=G.generators)
    wide = FiniteGroup(G.name, G.cayley.astype(int), G.element_labels, generators=G.generators)
    assert rows == wide == G
    assert hash(rows) == hash(G)
    assert rows.cayley.dtype == wide.cayley.dtype == G.cayley.dtype
    assert not rows.cayley.flags.writeable
    assert rows.cayley.tolist() == table
    assert rows != FiniteGroup("other", table, G.element_labels, generators=G.generators)
    assert rows != FiniteGroup(G.name, table, G.element_labels)


@pytest.mark.parametrize("G", [symmetric_group(4), dihedral_group(6), cyclic_group(12)])
def test_element_order_reads_the_cached_orders(G):
    for g in range(G.order):
        x, order = g, 1
        while x != 0:
            x, order = G.cayley[x, g], order + 1
        assert G.element_order(g) == G.orders[g] == order


def test_conjugacy_classes_s3():
    G = symmetric_group(3)
    cd = conjugacy_classes(G)
    assert cd.num_classes == 3
    assert cd.class_sizes == (1, 3, 2)  # identity, transpositions, 3-cycles
    transpositions = {i for i, lab in enumerate(G.element_labels) if lab.count(" ") == 1}
    assert set(cd.members(1)) == transpositions


def test_conjugacy_classes_z6():
    cd = conjugacy_classes(cyclic_group(6))
    assert cd.num_classes == 6
    assert cd.class_sizes == (1,) * 6
    assert cd.class_reps == tuple(range(6))


def brute_force_classes(G):
    """Oracle: pairwise conjugacy as an explicit equivalence relation."""
    classes = []
    assigned = {}
    for g in range(G.order):
        if g in assigned:
            continue
        cls = {conjugate(G, g, x) for x in range(G.order)}
        for h in cls:
            assigned[h] = len(classes)
        classes.append(frozenset(cls))
    return classes


def test_conjugacy_classes_q8():
    G = quaternion_group()
    cd = conjugacy_classes(G)
    assert cd.num_classes == 5
    assert cd.class_sizes == (1, 1, 2, 2, 2)
    assert [frozenset(cd.members(c)) for c in range(5)] == brute_force_classes(G)


def test_class_invariants_all_builtins():
    for G in (
        cyclic_group(4),
        symmetric_group(3),
        symmetric_group(4),
        dihedral_group(4),
        quaternion_group(),
    ):
        cd = conjugacy_classes(G)
        assert sum(cd.class_sizes) == G.order
        assert cd.class_sizes[0] == 1 and cd.class_of[0] == 0
        for size in cd.class_sizes:
            assert G.order % size == 0
        for g in range(G.order):
            for x in range(G.order):
                assert cd.class_of[conjugate(G, g, x)] == cd.class_of[g]


def test_product_group():
    G = product_group([cyclic_group(2), cyclic_group(3)])
    assert G.order == 6
    assert G.exponent == 6
    assert G.is_abelian()
    check_group_axioms(G)
    H = product_group([symmetric_group(3), cyclic_group(2)])
    assert H.order == 12
    assert not H.is_abelian()


def full_table_is_abelian(G: FiniteGroup) -> bool:
    """The reference: the whole Cayley table against its transpose."""
    return bool((G.cayley == G.cayley.T).all())


def _product(*names):
    return product_group([builtin_group(name) for name in names])


IS_ABELIAN_GROUPS = {
    **{name: lambda name=name: builtin_group(name) for name in (
        "Z1", "Z2", "Z6", "Z60", "S1", "S2", "S3", "S4", "S5", "D3", "D4", "D15", "Q8",
    )},
    "S4xZ3": lambda: _product("S4", "Z3"),
    "Z2^10": lambda: _product(*["Z2"] * 10),
    "Z2xZ4": lambda: _product("Z2", "Z4"),
    "Q8xZ2": lambda: _product("Q8", "Z2"),
    "table Z2xZ2": lambda: group_from_table([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]),
    "table S3": lambda: group_from_table(symmetric_group(3).cayley.tolist()),
    "trusted Z12": lambda: FiniteGroup("Z12", cyclic_group(12).cayley, tuple(map(str, range(12)))),
    "trusted D4": lambda: FiniteGroup("D4", dihedral_group(4).cayley, tuple(map(str, range(8)))),
}


@pytest.mark.parametrize("name", IS_ABELIAN_GROUPS)
def test_is_abelian_matches_the_full_table(name):
    # the generators commute exactly when the whole table is symmetric
    G = IS_ABELIAN_GROUPS[name]()
    assert G.is_abelian() == full_table_is_abelian(G)
    if name.startswith("trusted"):
        assert G.generators == ()


def test_commutator_subgroup_orders():
    assert len(reference_commutator_subgroup(symmetric_group(3))) == 3
    assert len(reference_commutator_subgroup(cyclic_group(6))) == 1
    assert len(reference_commutator_subgroup(quaternion_group())) == 2
    assert len(reference_commutator_subgroup(symmetric_group(4))) == 12


def test_exponents():
    assert symmetric_group(3).exponent == 6
    assert symmetric_group(4).exponent == 12
    assert dihedral_group(4).exponent == 4
    assert quaternion_group().exponent == 4
