"""Exact integer arrays over the group ring Z[C_m].

Every character value of a group of exponent m is a sum of m-th roots of
unity, so a value is held as an integer coefficient vector over
1, zeta, ..., zeta^(m-1).  Sums of values add vectors, and products are
cyclic convolutions, which is arithmetic in Z[x]/(x^m - 1) = Z[C_m].  That
ring maps onto Z[zeta_m] by reduction modulo the cyclotomic polynomial
Phi_m, so any representative of a value works, and a result becomes
canonical after one reduction at the very end.

The Frobenius contraction, the permutation-character decomposition and both
MacWilliams #2 transforms run here.  An array is int64 when an a-priori
bound on every value it can hold stays below 2**62, and dtype=object (exact
Python ints) otherwise.  No float ever enters.

Identities in Z[zeta_m] are certified at its embeddings modulo primes
p = 1 (mod m): then Z[zeta_m]/p = F_p^phi(m), one factor per primitive m-th
root of unity z^a mod p, so an element whose power-basis coefficients are
below P/2 in magnitude, P the product of the primes, is zero iff all of its
images are.  A (k, k) Gram matrix over Z[zeta_m] becomes one (k, k) matrix
product mod p per embedding.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt

import numpy as np

from . import groups
from .cyclotomic import _power_basis, euler_phi

INT64_LIMIT = 2**62


def exact_dtype(bound: int):
    """int64 when no value exceeds bound < 2**62 in magnitude, else object."""
    return np.int64 if bound < INT64_LIMIT else object


@lru_cache(maxsize=None)
def reduction_matrix(m: int) -> np.ndarray:
    """(m, phi(m)) integer matrix whose row t holds x^t mod Phi_m."""
    R = np.array(_power_basis(m)[:m], dtype=np.int64).reshape(m, euler_phi(m))
    R.setflags(write=False)
    return R


def reduction_gain(m: int) -> int:
    """Largest factor by which reduce() can grow a coefficient's magnitude."""
    return int(np.abs(reduction_matrix(m)).sum(axis=0).max())


def abs_row_sums(T: np.ndarray) -> list[int]:
    """sum of |T[j, ...]| for every j, as exact Python ints.  An int64 sum
    could wrap (np.abs(-2**63) is negative) and understate an overflow
    bound, so numpy sums only when no row sum can reach 2**62."""
    cap = INT64_LIMIT // max(T[0].size, 1)
    if T.dtype != object and T.size and -int(T.min()) < cap and int(T.max()) < cap:
        return np.abs(T).reshape(len(T), -1).sum(axis=1).tolist()
    return [sum(abs(x) for x in row.ravel().tolist()) for row in T]


def reduce(A: np.ndarray) -> np.ndarray:
    """Canonical power-basis coefficients modulo Phi_m of every entry:
    (..., m) -> (..., phi(m))."""
    R = reduction_matrix(A.shape[-1])
    return A @ (R.astype(object) if A.dtype == object else R)


def conjugate(T: np.ndarray) -> np.ndarray:
    """Complex conjugate of every entry: coefficient t moves to -t mod m."""
    m = T.shape[-1]
    return T[..., (-np.arange(m)) % m]


# -- primes p = 1 (mod m) and their roots of unity --------------------------------

# Miller-Rabin with these bases is deterministic below 3.3 * 10**24
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_WITNESS_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3 * 10**24."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    if n >= _WITNESS_LIMIT:
        raise ValueError(f"{n} is past the deterministic Miller-Rabin range")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for q in _WITNESSES:
        x = pow(q, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def prime_1_mod(m: int, above: int) -> int:
    """Smallest prime p = 1 (mod m) with p > above."""
    p = above + 1 + (-above) % m
    while not is_prime(p):
        p += m
    return p


def prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, ascending, by trial division."""
    factors = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            factors.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        factors.append(n)
    return factors


@lru_cache(maxsize=None)
def root_of_unity(m: int, p: int) -> int:
    """A primitive m-th root of unity mod the prime p = 1 (mod m):
    g^((p-1)/m) for the smallest g >= 2 that gives order exactly m."""
    qs = prime_factors(m)
    for g in range(2, p):
        z = pow(g, (p - 1) // m, p)
        if all(pow(z, m // q, p) != 1 for q in qs):
            return z
    raise ValueError(f"no primitive {m}-th root of unity mod {p}")


def certification_primes(bound: int, m: int, n: int) -> tuple[int, ...]:
    """Primes p = 1 (mod m), ascending from sqrt(2**60 / n), until their
    product exceeds 2 * bound.  A sum of n products of two residues mod
    one of them then stays int64 (the kernels check, and use exact ints
    past it)."""
    primes = [prime_1_mod(m, isqrt(INT64_LIMIT // (4 * n)))]
    product = primes[0]
    while product <= 2 * bound:
        primes.append(prime_1_mod(m, primes[-1]))
        product *= primes[-1]
    return tuple(primes)


def embed(T: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Images of every entry of the (..., m) array T at z^a and at z^-a mod
    p, z a primitive m-th root of unity, for one a from each pair {a, -a}:
    two (h, ...) int arrays, h = max(phi(m) / 2, 1).  T is reduced mod p
    first, so entries of any size stay exact."""
    m = T.shape[-1]
    support = np.flatnonzero(np.any(T != 0, axis=tuple(range(T.ndim - 1))))
    units = np.array([a for a in range(m) if gcd(a, m) == 1 and a <= m - a], dtype=np.int64)
    exps = np.concatenate([units, -units]) * support[:, None] % m
    z = root_of_unity(m, p)
    dtype = exact_dtype(max(len(support), 1) * (p - 1) ** 2)
    powers = np.array([pow(z, t, p) for t in range(m)], dtype=dtype)
    X = np.asarray(T[..., support] % p).astype(dtype)
    E = np.ascontiguousarray(np.moveaxis(X @ powers[exps] % p, -1, 0))
    return E[: len(units)], E[len(units) :]


def gram_mismatch(E: np.ndarray, Ebar: np.ndarray, weights, diagonal, p: int) -> np.ndarray:
    """Boolean (k, k) mask of the (a, b) at which
    sum_j weights[j] E[h, a, j] Ebar[h, b, j] != diagonal[a] * (a == b)
    mod p for some h, with E and Ebar from embed.  The Gram entry at the
    embedding -a is the transpose of the one at a, so the mask is also
    OR-ed with its transpose and covers every embedding."""
    k = E.shape[1]
    dtype = exact_dtype(max(E.shape[-1], 1) * (p - 1) ** 2)
    E, Ebar = E.astype(dtype, copy=False), Ebar.astype(dtype, copy=False)
    w = np.array([x % p for x in weights], dtype=dtype)
    G = (E * w % p) @ Ebar.transpose(0, 2, 1) % p
    expected = np.zeros((k, k), dtype=dtype)
    expected[range(k), range(k)] = [x % p for x in diagonal]
    bad = (G != expected).any(axis=0)
    return bad | bad.T


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


def sum_by_content(A: np.ndarray, n: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Sums of the entries of a dense (k,)*n + (m,) array over index tuples
    with equal content (the multiset of indices).  Returns the contents as
    exponent vectors of length k, ascending by sorted tuple, and the
    matching (len(contents), m) sums."""
    k, m = A.shape[0], A.shape[-1]
    total = k**n
    # code[flat] = the sorted index tuple read in base k, built a chunk at a
    # time so that the (n, k^n) index array never exists at once
    code = np.empty(total, dtype=np.int64)
    step = groups.TABLE_BLOCK
    for lo in range(0, total, step):
        flat = np.arange(lo, min(lo + step, total))
        chunk = np.zeros(len(flat), dtype=np.int64)
        for row in np.sort(np.unravel_index(flat, (k,) * n), axis=0):
            chunk = chunk * k + row
        code[lo : lo + len(flat)] = chunk
    keys, inverse = np.unique(code, return_inverse=True)
    sums = np.zeros((len(keys), m), dtype=A.dtype)
    np.add.at(sums, inverse.reshape(-1), A.reshape(-1, m))
    digits = keys[:, None] // k ** np.arange(n - 1, -1, -1) % k
    contents = (digits[:, :, None] == np.arange(k)).sum(axis=1)
    return list(map(tuple, contents.tolist())), sums
