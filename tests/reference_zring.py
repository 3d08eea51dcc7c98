"""The Z[C_m] convolution kernels that the contraction at the embeddings
mod p replaced, kept unchanged as the differential reference: the complex
conjugate of an array over Z[C_m], the matrix product whose scalar product
is a cyclic convolution, and the dense axis-by-axis Frobenius contraction.
Reduce a result with zring.reduce to read it in the power basis.  The
multiplicities of R(H), the permutation-character decomposition and the
MacWilliams #2 transform are rebuilt on them as they ran before, and
reduction_gain sizes their dtypes and that of reference_certify."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from repdual.errors import NotRational
from repdual.polynomials import MultiPoly
from repdual.zring import abs_row_sums, exact_dtype, reduce, reduction_matrix

from reference_tallies import _multiplicities, sum_by_content


def reduction_gain(m: int) -> int:
    """Largest factor by which reduce() can grow a coefficient's magnitude."""
    return int(np.abs(reduction_matrix(m)).sum(axis=0).max())


def conjugate(T: np.ndarray) -> np.ndarray:
    """Complex conjugate of every entry: coefficient t moves to -t mod m."""
    m = T.shape[-1]
    return T[..., (-np.arange(m)) % m]


def convmatmul(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Z[a, r] = sum_b X[a, b] * Y[b, r] with entries in Z[C_m], for X of
    shape (a, b, m) and Y of shape (b, r..., m).  The scalar product is the
    cyclic convolution of the last axes, done as one matrix product per
    nonzero coefficient of X, so no intermediate outgrows the result."""
    m = X.shape[-1]
    out = np.zeros(X.shape[:1] + Y.shape[1:], dtype=Y.dtype)
    for t in np.flatnonzero(np.any(X != 0, axis=(0, 1))):
        P = np.tensordot(X[:, :, t], Y, axes=1)
        out[..., t:] += P[..., : m - t]
        out[..., :t] += P[..., m - t :]
    return out


def contract(keys: np.ndarray, counts: np.ndarray, T: np.ndarray) -> np.ndarray:
    """out[j_1..j_n] = sum_r counts[r] prod_a T[j_a, keys[r, a]] over the
    distinct rows of the (t, n) index array keys, dense of shape
    (k,)*n + (m,), contracting one axis at a time.

    The dtype comes from the bound max|counts| * L^n, L = max_j
    sum_{i,t} |T[j, i, t]|, times k^n and reduction_gain(m), so that any sum
    of output entries can also be reduced without overflow."""
    k, m = T.shape[0], T.shape[-1]
    n = keys.shape[1]
    L = max(abs_row_sums(T))
    top = max(int(counts.max(initial=0)), -int(counts.min(initial=0)))
    dtype = exact_dtype(top * L**n * k**n * reduction_gain(m))
    A = np.zeros((k,) * n + (m,), dtype=dtype)
    A[(*keys.T, 0)] = counts
    T = T.astype(dtype)
    for _ in range(n):
        # contract the leading axis; its new index goes last, so after n
        # rounds the axes are back in order
        Z = convmatmul(T, A.reshape(k, -1, m))
        A = np.ascontiguousarray(Z.swapaxes(0, 1)).reshape(A.shape)
    return A


# -- the routes as the convolution kernel ran them ----------------------------------


def reference_multiplicities(keys, counts, T, divisor: int) -> dict[tuple[int, ...], int]:
    """The multiplicities divisor^-1 * contract(keys, counts, T), reduced
    and checked by the per-tuple reference, in its key order."""
    return _multiplicities(reduce(contract(keys, counts, T)), divisor)


def reference_decompose(pc: dict, ct, n: int) -> dict[tuple[int, ...], int]:
    """decompose_permutation_character against the conjugate table."""
    tuples = np.array(list(pc), dtype=np.int64).reshape(len(pc), n)
    sizes = np.array(ct.classes.class_sizes, dtype=object)
    weighted = np.array(list(pc.values()), dtype=object) * sizes[tuples].prod(axis=1)
    return reference_multiplicities(tuples, weighted, conjugate(ct.zvalues), ct.group.order**n)


def reference_cwe_transform(cwe: MultiPoly, T: np.ndarray, size: int) -> MultiPoly:
    """(1/size) cwe evaluated at v_c = sum_p T[p, c] x_p, summed by content
    over Z[C_m] and reduced once."""
    k = cwe.nvars
    exponents = np.array(list(cwe.terms), dtype=np.int64)
    n = int(exponents[0].sum())
    patterns = np.repeat(np.tile(np.arange(k), len(exponents)), exponents.reshape(-1))
    coeffs = np.array([int(c) for c in cwe.terms.values()], dtype=object)
    A = contract(patterns.reshape(len(exponents), n), coeffs, T)
    contents, sums = sum_by_content(A, n)
    sums = reduce(sums)
    irrational = np.flatnonzero(sums[:, 1:].any(axis=1))
    if len(irrational):
        raise NotRational(f"transformed coefficient at {contents[irrational[0]]} is not rational")
    return MultiPoly(k, {e: Fraction(c, size) for e, c in zip(contents, sums[:, 0].tolist())})
