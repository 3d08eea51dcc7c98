"""Differential tests of the Z[C_m] integer kernel against a reference
contraction in Cyclotomic (Fraction) arithmetic."""

import numpy as np
import pytest

from repdual import zring
from repdual.chartable import _certify, character_table
from repdual.cyclotomic import Cyclotomic
from repdual.errors import LiftVerificationFailed
from repdual.groups import cyclic_group, symmetric_group

from reference_tallies import class_pattern_counts
from test_acceptance import build_matrix


def contract(counts, T, n):
    """zring.contract on the keys and values of a dict."""
    keys = np.array(list(counts), dtype=np.int64).reshape(len(counts), n)
    return zring.contract(keys, np.array(list(counts.values()), dtype=object), T)


def reference_contraction(rows, counts, n, k):
    """out[j] = sum_i counts[i] prod_m rows[j_m][i_m], one axis at a time,
    with rows[j][i] a Cyclotomic; zero entries omitted."""
    cur = dict(counts)
    for axis in range(n):
        nxt = {}
        for key, val in cur.items():
            i = key[axis]
            head, tail = key[:axis], key[axis + 1 :]
            for j in range(k):
                term = rows[j][i] * val
                if term.is_zero():
                    continue
                newkey = head + (j,) + tail
                acc = nxt.get(newkey)
                nxt[newkey] = term if acc is None else acc + term
        cur = {key: v for key, v in nxt.items() if not v.is_zero()}
    return cur


def as_cyclotomics(raw, m):
    """Reduced kernel output (..., phi(m)) as {index tuple: Cyclotomic}."""
    return {
        key: Cyclotomic(m, raw[key].tolist())
        for key in np.ndindex(raw.shape[:-1])
        if raw[key].any()
    }


def kernel_contraction(T, counts, n):
    return as_cyclotomics(zring.reduce(contract(counts, T, n)), T.shape[-1])


def test_contract_matches_reference_on_matrix():
    checked = 0
    for name, code, ct in build_matrix():
        counts = class_pattern_counts(code, ct.classes)
        rows = [list(row) for row in ct.values]
        conj_rows = [list(ct.conjugate_row(i)) for i in range(ct.k)]
        got = kernel_contraction(ct.zvalues, counts, code.n)
        assert got == reference_contraction(rows, counts, code.n, ct.k), name
        got = kernel_contraction(zring.conjugate(ct.zvalues), counts, code.n)
        assert got == reference_contraction(conj_rows, counts, code.n, ct.k), name
        checked += 1
    assert checked == 192


def test_object_dtype_path_is_exact():
    ct = character_table(cyclic_group(6))
    rows = [list(row) for row in ct.values]
    small = {(0, 1): 2, (3, 5): -3, (4, 4): 1}
    assert contract(small, ct.zvalues, 2).dtype == np.int64
    huge = {(0, 1): 2**70, (3, 5): -3, (4, 4): 5**40}
    A = contract(huge, ct.zvalues, 2)
    assert A.dtype == object
    assert as_cyclotomics(zring.reduce(A), 6) == reference_contraction(rows, huge, 2, 6)
    # summing by content stays exact on the object path too
    contents, sums = zring.sum_by_content(A, 2)
    ref = reference_contraction(rows, huge, 2, 6)
    for e, s in zip(contents, sums):
        want = Cyclotomic.from_rational(0, 6)
        for key, v in ref.items():
            if tuple(key.count(j) for j in range(6)) == e:
                want = want + v
        assert Cyclotomic(6, zring.reduce(s).tolist()) == want
    assert zring.exact_dtype(2**62 - 1) == np.int64
    assert zring.exact_dtype(2**62) == object


def test_certify_rejects_tampered_tables():
    # one value swapped within a row: the sign character on transpositions
    # and 3-cycles of S3; a faithful character on the generator of Z4 and
    # its inverse (i and -i)
    for G, (a, b) in ((symmetric_group(3), (1, 2)), (cyclic_group(4), (1, 3))):
        ct = character_table(G)
        _certify(G, ct.classes, ct.zvalues, ct.degrees)
        i = next(i for i in range(ct.k) if (ct.zvalues[i, a] != ct.zvalues[i, b]).any())
        T = ct.zvalues.copy()
        T[i, [a, b]] = T[i, [b, a]]
        with pytest.raises(LiftVerificationFailed, match="orthogonality"):
            _certify(G, ct.classes, T, ct.degrees)
    ct = character_table(symmetric_group(3))
    with pytest.raises(LiftVerificationFailed, match="squared degrees"):
        _certify(ct.group, ct.classes, ct.zvalues, (1, 1, 3))
    T = ct.zvalues.copy()
    T[2, 0, 0] = 3
    with pytest.raises(LiftVerificationFailed, match="not its degree"):
        _certify(ct.group, ct.classes, T, ct.degrees)


def test_overflow_bounds_do_not_wrap():
    # np.abs(-2**63) is -2**63 in int64, so a numpy sum would understate
    # the bound; these entries must push every consumer onto exact ints
    T = np.zeros((2, 2, 3), dtype=np.int64)
    T[0, 0, 0] = 1
    T[1, 1, 0] = -(2**63)
    T[1, 0, 2] = 1 - 2**63
    assert zring.abs_row_sums(T) == [1, 2**64 - 1]
    assert zring.abs_row_sums(T.astype(object)) == [1, 2**64 - 1]
    assert contract({(1,): 1}, T, 1).dtype == object
    # a table that is only correct modulo 2**64 is still rejected: S4 with
    # 2**63 added to two entries on the 3-cycle class (size 8), whose other
    # entries on those rows sum to even numbers
    ct = character_table(symmetric_group(4))
    cls = ct.classes.class_sizes.index(8)
    sign = next(i for i in range(1, ct.k) if ct.degrees[i] == 1)
    std = ct.degrees.index(3)
    T = ct.zvalues.copy()
    T[sign, cls, 0] = 1 - 2**63
    T[std, cls, 0] = -(2**63)
    with pytest.raises(LiftVerificationFailed, match="orthogonality"):
        _certify(ct.group, ct.classes, T, ct.degrees)
