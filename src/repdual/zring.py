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

Complex conjugation maps the embedding at z^a to the one at z^-a.  So a
Gram entry at z^-a is the transpose of the one at z^a, and for integer
c_r the sum y = sum_r c_r prod conj(x_r,a) is the conjugate of
x = sum_r c_r prod x_r,a: the images of y are those of x in reverse order,
so y is rational exactly when x is, and then y = x.  A contraction with
integer counts never needs the conjugate table.  All images mod p are
taken at the one root of unity root_of_unity(m, p), and every caller takes
its primes from Embedded.primes, so a table is embedded once per prime.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import comb, gcd, isqrt, prod

import numpy as np

from . import groups, trace
from .cyclotomic import _power_basis, euler_phi, prime_factors

INT64_LIMIT = 2**62


def exact_dtype(bound: int):
    """int64 when no value exceeds bound < 2**62 in magnitude, else object."""
    return np.int64 if bound < INT64_LIMIT else object


@lru_cache(maxsize=None)
def reduction_matrix(m: int) -> np.ndarray:
    """(m, phi(m)) integer matrix whose row t holds x^t mod Phi_m."""
    R = np.array(_power_basis(m), dtype=np.int64).reshape(m, euler_phi(m))
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


@lru_cache(maxsize=None)
def primitive_root(p: int) -> int:
    """The smallest generator of the units mod the prime p."""
    qs = prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
    raise ValueError(f"no primitive root mod {p}")


def root_of_unity(m: int, p: int) -> int:
    """The primitive m-th root of unity mod the prime p = 1 (mod m) at
    which every table is reduced and embedded: g^((p-1)/m) for g =
    primitive_root(p)."""
    return pow(primitive_root(p), (p - 1) // m, p)


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

    def primes(self, bound: int) -> tuple[int, ...]:
        """Primes p = 1 (mod m), ascending from sqrt(2**60 / max(k, m)) for
        T of shape (k, ..., m), until their product exceeds 2 * bound.  A
        sum of max(k, m) products of two residues mod one of them then
        stays int64 (the kernels check, and use exact ints past it).  The
        first prime depends on T's shape alone, so every caller reuses its
        images."""
        p0 = self._first_prime
        if p0 > 2 * bound:
            return (p0,)
        m, primes, product = self.T.shape[-1], [p0], p0
        while product <= 2 * bound:
            primes.append(prime_1_mod(m, primes[-1]))
            product *= primes[-1]
        return tuple(primes)

    @cached_property
    def _first_prime(self) -> int:
        k, m = self.T.shape[0], self.T.shape[-1]
        return prime_1_mod(m, isqrt(INT64_LIMIT // (4 * max(k, m))))

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
    contents: its row of content_tuples.  For a small shape, one gather
    from the rank of every tuple of (k,)*n at the rows' flat indices; past
    it, the entries of each row are sorted, then one gather and add per
    column.  Rows are never sorted against each other."""
    n = P.shape[1]
    if k**n <= groups.TABLE_BLOCK:
        return _flat_ranks(k, n)[P @ radix(k, n)]
    return _sorted_ranks(P, k)


def _sorted_ranks(P: np.ndarray, k: int) -> np.ndarray:
    S = np.sort(P, axis=1)
    F = _rank_table(k, P.shape[1])
    rank = np.zeros(len(P), dtype=F.dtype)
    for j, column in enumerate(F):
        rank += column[S[:, j]]
    return rank


@lru_cache(maxsize=64)
def _flat_ranks(k: int, n: int) -> np.ndarray:
    """The content rank of every tuple of (k,)*n, flat in C order,
    read-only."""
    tuples = np.indices((k,) * n).reshape(n, k**n).T
    rank = _sorted_ranks(tuples, k)
    rank.setflags(write=False)
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


@lru_cache(maxsize=64)
def radix(k: int, n: int) -> np.ndarray:
    """k^(n-1), ..., k, 1: the flat C-order index of a tuple of (k,)*n is
    its dot product with this.  Kept per shape, read-only."""
    r = k ** np.arange(n - 1, -1, -1, dtype=np.int64)
    r.setflags(write=False)
    return r


def contract(
    flat: np.ndarray, counts: np.ndarray, table: Embedded, n: int, bins=None
) -> tuple[np.ndarray, np.ndarray]:
    """out[j] = sum_r counts[r] prod_a T[j_a, i_(r,a)] for every j in
    (k,)*n, flat in C order (or, given bins from content_bins, the sums of
    out over each content), with T = table.T and i_r the tuple at the flat
    C-order index flat[r] (its digits by radix(k, n)).  The entries of flat
    are distinct.  Returns the exact integer values and the mask of the
    entries that are not rational; the values there are meaningless.

    Every output, and every sum of outputs, is at most
    B = sum|counts| * table.column_norm^n at every complex embedding, so the
    primes come from table.primes(B) and the module's argument applies: an
    entry is rational exactly when its images at every embedding mod every
    prime agree, and then it is their symmetric CRT residue.  For each
    prime the counts are scattered into a dense k^n array mod p, and the
    axes are contracted in place, for a block of b embeddings at a time:
    axis a is one broadcast matrix product of the (b, 1, k, k) images of T
    with the C-order view (b, k^a, k, k^(n-a-1)) of the running array,
    whose result is again in C order, so no axis is ever transposed or
    copied.  Memory stays a few int64 arrays of max(k^n, TABLE_BLOCK)
    entries.  With n = 0 the one count is the image at every embedding."""
    k = table.T.shape[0]
    size = k**n
    # exact: counts may be Python ints past int64
    bound = sum(map(abs, counts.tolist())) * table.column_norm**n
    irrational = np.zeros(size if bins is None else len(bins[1]), dtype=bool)
    residues = []
    primes = table.primes(bound)
    block = max(1, groups.TABLE_BLOCK // size)
    with trace.span("frobenius contraction"):
        trace.count("primes", len(primes))
        for p in primes:
            images = table.images(p)
            trace.count("embeddings", len(images))
            A = np.zeros((1, size), dtype=np.int64)
            A[0, flat] = counts % p
            first = None
            for lo in range(0, len(images), block):
                M = images[lo : lo + block, None]
                X = A
                for a in range(n):
                    X = M @ X.reshape(len(X), k**a, k, -1)
                    X %= p
                X = X.reshape(len(X), -1)
                if bins is not None:
                    order, starts = bins
                    X = X[:, order].astype(exact_dtype(size * p))
                    X = np.add.reduceat(X, starts, axis=1) % p
                if first is None:
                    # the first image is the reference, so only the rest are compared
                    first, X = X[0], X[1:]
                if len(X):
                    irrational |= (X != first).any(axis=0)
            residues.append(first)
    return _symmetric_crt(residues, primes), irrational


def _symmetric_crt(residues: list[np.ndarray], primes) -> np.ndarray:
    """The integers c with |c| < P/2, P the product of the primes, and
    c = residues[i] mod primes[i] for every i (Garner's recombination).
    Each step reduces the difference mod p before it multiplies by the
    inverse, so no intermediate exceeds P or the largest prime squared, and
    the recombination runs in int64 whenever that bound allows."""
    values, P = residues[0], primes[0]
    if len(primes) > 1:
        dtype = exact_dtype(max(prod(primes), max(primes) ** 2))
        values = values.astype(dtype)
        for r, p in zip(residues[1:], primes[1:]):
            values = values + P * ((r.astype(dtype) - values) % p * pow(P, -1, p) % p)
            P *= p
    return np.where(values > P // 2, values - P, values)
