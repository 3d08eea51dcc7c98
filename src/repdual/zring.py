"""Exact integer arrays over Z[zeta_m], evaluated at its embeddings mod p.

Every character value of a group of exponent m is a sum of m-th roots of
unity, so a value is held as an integer coefficient vector over
1, zeta, ..., zeta^(m-1): a representative in Z[C_m] = Z[x]/(x^m - 1),
which maps onto Z[zeta_m] by reduction modulo the cyclotomic polynomial
Phi_m.  An array is int64 when an a-priori bound on every value it can hold
stays below 2**62, and dtype=object (exact Python ints) otherwise.  No float
ever enters.

Sums of products of values are computed at the embeddings of Z[zeta_m]
modulo primes p = 1 (mod m).  Then pZ[zeta_m] splits completely:
Z[zeta_m]/p = F_p^phi(m), one factor per primitive m-th root of unity z^a
mod p (a a unit mod m), and every representative in Z[C_m] has the same
image there.  A product of values becomes a product of residues, so a
(k, k) table over Z[zeta_m] becomes phi(m) plain (k, k) matrices mod p, and
any contraction with it becomes matrix products mod p, one embedding at a
time.

Exactness.  Let x be in Z[zeta_m] with |sigma(x)| <= B at every complex
embedding sigma, and let P be a product of distinct such primes with
P > 2B.  Suppose that for each p | P the images of x at the embeddings mod
p all equal one residue r_p, and let c be the integer with |c| < P/2 and
c = r_p mod every p (CRT).  Then y = x - c lies in every prime ideal above
every p | P, so in P Z[zeta_m].  A nonzero element of P Z[zeta_m] has |N(y)| >= P^phi(m),
while |N(y)| is the product of the |sigma(y)| <= B + |c| < P, which is less.
So y = 0 and x = c.  Conversely a rational x has equal images.  So x is
rational exactly when its images agree, and then it is the symmetric CRT
residue: the rationality gate and the value come from the same images.
Identities in Z[zeta_m] (the orthogonality of a table) are certified by the
same argument: x is zero exactly when all of its images are.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import comb, gcd, isqrt

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


def embed(T: np.ndarray, p: int) -> np.ndarray:
    """(phi(m), ...) images of every entry of the (..., m) array T at z^a
    mod p, z a primitive m-th root of unity, a over the units mod m in
    ascending order, so the images at z^-a are the reverse.  T is reduced
    mod p first, so entries of any size stay exact."""
    m = T.shape[-1]
    support = np.flatnonzero(np.any(T != 0, axis=tuple(range(T.ndim - 1))))
    units = np.array([a for a in range(m) if gcd(a, m) == 1], dtype=np.int64)
    z = root_of_unity(m, p)
    dtype = exact_dtype(max(len(support), 1) * (p - 1) ** 2)
    powers = np.array([pow(z, t, p) for t in range(m)], dtype=dtype)
    X = np.asarray(T[..., support] % p).astype(dtype)
    return np.ascontiguousarray(np.moveaxis(X @ powers[units * support[:, None] % m] % p, -1, 0))


def gram_mismatch(images: np.ndarray, weights, diagonal, p: int) -> np.ndarray:
    """Boolean (k, k) mask of the (a, b) at which
    sum_j weights[j] E[a, j] conj(E[b, j]) != diagonal[a] * (a == b) mod p
    at some embedding, with images (phi(m), k, r) from embed.  The Gram
    entry at z^-a is the transpose of the one at z^a, so only the first
    half of the embeddings is multiplied, with the reversed images as the
    conjugates, and the mask is OR-ed with its transpose."""
    k, h = images.shape[1], max(len(images) // 2, 1)
    dtype = exact_dtype(max(images.shape[-1], 1) * (p - 1) ** 2)
    images = images.astype(dtype, copy=False)
    w = np.array([x % p for x in weights], dtype=dtype)
    G = (images[:h] * w % p) @ images[::-1][:h].transpose(0, 2, 1) % p
    expected = np.zeros((k, k), dtype=dtype)
    expected[range(k), range(k)] = [x % p for x in diagonal]
    bad = (G != expected).any(axis=0)
    return bad | bad.T


# -- contraction at the embeddings -------------------------------------------------


class Embedded:
    """A (k, r, m) array T over Z[C_m] with its images at the embeddings
    mod p, built on first use for each prime and kept on the object."""

    def __init__(self, T: np.ndarray):
        self.T = T
        self._images: dict[int, np.ndarray] = {}

    @cached_property
    def column_norm(self) -> int:
        """max over i of sum_{j, t} |T[j, i, t]|: no column of T sums to
        more than this in absolute value at any complex embedding."""
        return max(abs_row_sums(self.T.swapaxes(0, 1)), default=0)

    def images(self, p: int) -> np.ndarray:
        """embed(T, p), kept for the next caller."""
        if p not in self._images:
            self._images[p] = embed(self.T, p)
        return self._images[p]


def n_contents(k: int, n: int) -> int:
    """How many contents (multisets of n indices in range(k)) there are."""
    return comb(n + k - 1, n)


def content_tuples(k: int, n: int) -> np.ndarray:
    """The (n_contents(k, n), n) sorted tuples of all contents, in lex
    order: row i is the content of rank i.  Kept for small shapes."""
    if n_contents(k, n) * n <= groups.TABLE_BLOCK:
        return _small_content_tuples(k, n)
    return _content_tuples(k, n)


def _content_tuples(k: int, n: int) -> np.ndarray:
    # column by column, each tuple followed by every entry from its last up
    T, last = np.zeros((1, 0), dtype=np.int64), np.zeros(1, dtype=np.int64)
    for _ in range(n):
        parent = np.repeat(np.arange(len(T)), k - last)
        first = np.cumsum(k - last) - (k - last)
        last = last[parent] + np.arange(len(parent)) - first[parent]
        T = np.column_stack([T[parent], last])
    T.setflags(write=False)
    return T


_small_content_tuples = lru_cache(maxsize=64)(_content_tuples)


@lru_cache(maxsize=64)
def _rank_table(k: int, n: int) -> np.ndarray:
    """F[j, t] with sum_j F[j, y_j] the rank of every sorted tuple y.  The
    sorted tuples before y are, for each j, those that agree with y before
    j and have y_(j-1) <= z_j < y_j: G(j, y_j) - G(j, y_(j-1)) of them, with
    G(j, t) = sum_(v<t) comb(n-j-1 + k-v-1, n-j-1) (the sorted tails over
    range(v, k)); telescoping over j gives F[j] = G(j) - G(j+1)."""
    G = [[0] * k for _ in range(n + 1)]
    for j in range(n):
        for t in range(1, k):
            G[j][t] = G[j][t - 1] + comb(n - j - 1 + k - t, n - j - 1)
    F = np.array([[G[j][t] - G[j + 1][t] for t in range(k)] for j in range(n)])
    return F.astype(exact_dtype(n_contents(k, n))).reshape(n, k)


def content_ranks(P: np.ndarray, k: int) -> np.ndarray:
    """The rank of each row's content (entries in range(k)) among all
    contents: its row of content_tuples.  The entries of each row are
    sorted, then one gather and add per column; rows are never sorted
    against each other."""
    S = np.sort(P, axis=1)
    F = _rank_table(k, P.shape[1])
    rank = np.zeros(len(P), dtype=F.dtype)
    for j, column in enumerate(F):
        rank += column[S[:, j]]
    return rank


def content_exponents(tuples: np.ndarray, k: int) -> np.ndarray:
    """The (len(tuples), k) exponent vectors of sorted tuples."""
    t = len(tuples)
    flat = (np.arange(t)[:, None] * k + tuples).reshape(-1)
    return np.bincount(flat, minlength=t * k).reshape(t, k)


def content_bins(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices of (k,)*n grouped by content, contents by rank:
    order, a permutation of range(k**n) that lists each content's tuples
    together, and starts, where each content's run begins in it.  Kept for
    small shapes, which recur once per code."""
    return _small_content_bins(k, n) if k**n <= groups.TABLE_BLOCK else _content_bins(k, n)


def _content_bins(k: int, n: int):
    # the content rank of every tuple of (k,)*m for m = 0..n, flat in C
    # order: appending index v to a tuple of content rank r gives the tuple
    # of rank grow[r, v], so each length is one gather from the last
    C = n_contents(k, n)
    rank = np.zeros(1, dtype=groups._index_dtype(C))
    for m in range(n):
        T = content_tuples(k, m)
        grown = np.column_stack([np.repeat(T, k, axis=0), np.tile(np.arange(k), len(T))])
        grow = content_ranks(grown, k).astype(rank.dtype).reshape(len(T), k)
        rank = grow[rank].reshape(-1)
    order = np.argsort(rank, kind="stable")
    starts = np.searchsorted(rank[order], np.arange(C))
    return order, starts


_small_content_bins = lru_cache(maxsize=64)(_content_bins)


def contract(
    keys: np.ndarray, counts: np.ndarray, table: Embedded, bins=None, conjugate: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """out[j] = sum_r counts[r] prod_a T[j_a, keys[r, a]] for every j in
    (k,)*n, n = keys.shape[1], flat in C order (or, given bins from
    content_bins, the sums of out over each content), with T = table.T, or
    its complex conjugate when conjugate is set.  The rows of keys are
    distinct.  Returns the exact integer values and the mask of the entries
    that are not rational; the values there are meaningless.

    Every output, and every sum of outputs, is at most
    B = sum|counts| * table.column_norm^n at every complex embedding, so the
    primes come from certification_primes(B, ...) and the module's argument
    applies: an entry is rational exactly when its images at every
    embedding mod every prime agree, and then it is their symmetric CRT
    residue.  For each prime the counts are scattered into a dense k^n
    array mod p, and each axis in turn is contracted with the (k, k) image
    of T, for a block of embeddings at a time, so memory stays a few int64
    arrays of max(k^n, TABLE_BLOCK) entries.  The conjugate of T at z^a is
    T at z^-a, so conjugating only reverses the order of the embeddings."""
    k, m = table.T.shape[0], table.T.shape[-1]
    n = keys.shape[1]
    size = k**n
    bound = abs_row_sums(counts.reshape(1, -1))[0] * table.column_norm**n
    flat = keys @ k ** np.arange(n - 1, -1, -1, dtype=np.int64)
    irrational = np.zeros(size if bins is None else len(bins[1]), dtype=bool)
    residues = []
    primes = certification_primes(bound, m, max(k, m))
    for p in primes:
        images = table.images(p)
        if conjugate:
            images = images[::-1]
        A = np.zeros((1, size), dtype=np.int64)
        A[0, flat] = counts % p
        block = max(1, groups.TABLE_BLOCK // size)
        first = None
        for lo in range(0, len(images), block):
            M = images[lo : lo + block]
            X = A
            for _ in range(n):
                # contract the leading axis; its new index goes last, so
                # after n rounds the axes are back in order
                X = (M @ X.reshape(len(X), k, -1) % p).transpose(0, 2, 1).reshape(len(M), -1)
            if bins is not None:
                order, starts = bins
                X = X[:, order].astype(exact_dtype(size * p))
                X = np.add.reduceat(X, starts, axis=1) % p
            if first is None:
                first = X[0]
            irrational |= (X != first).any(axis=0)
        residues.append(first)
    return _symmetric_crt(residues, primes), irrational


def _symmetric_crt(residues: list[np.ndarray], primes) -> np.ndarray:
    """The integers c with |c| < P/2, P the product of the primes, and
    c = residues[i] mod primes[i] for every i (Garner's recombination)."""
    values, P = residues[0], primes[0]
    if len(primes) > 1:
        values = values.astype(object)
        for r, p in zip(residues[1:], primes[1:]):
            values = values + P * ((r.astype(object) - values) * pow(P, -1, p) % p)
            P *= p
    return np.where(values > P // 2, values - P, values)
