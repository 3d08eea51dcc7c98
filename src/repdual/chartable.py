"""Exact character tables: in closed form for abelian groups, via Dixon's
finite-field method for the others.

An abelian group (k = |G| classes, each a single element) has the
characters chi_x(y) = zeta_m^eps(x, y), one per element x, where eps is the
pairing of abelian_pairing_exponents on the greedy abelian_basis and m =
exponent(G) (Serre, Linear Representations of Finite Groups, 3.1): the
table's coefficients are the rows of zring.reduction_matrix(m) at eps.  Its
(k, k, m) array is refused past DEFAULT_CLASS_ALGEBRA_CAP before it is built.
ct.abelian_pairing holds eps and the x of every row chi_x, not a table.

For the others, the central characters w_i = |C_i| chi(c_i) / chi(1) are
simultaneous eigenvectors of the class-sum multiplication matrices M_i with
(M_i)[j][l] = a[i][j][l].  Over F_p with p = 1 (mod exponent) and
p > 2*sqrt(|G|) the whole eigenproblem is integer arithmetic in numpy mod p:
the indicator of the identity class has a nonzero component d^2/|G| on every
central character, so its Krylov sequence under a class matrix M gives M's
minimal polynomial mu and its roots lam, and (mu/(x - lam))(M) splits every
current vector at once into its eigencomponents, until F_p^k is split into
the k common eigenvectors.  The (k, k, k) class multiplication array is
refused past the same cap.  The mod-p character values are then lifted to
exact cyclotomics of conductor exponent(G) by discrete-Fourier counting of
root-of-unity multiplicities along power maps: one (k*k, e) @ (e, e)
product mod p of the values over the power-map table with the Fourier
matrix.  The lift yields each value's root-of-unity multiplicities, an
integer array over Z[C_m] (see zring) that is reduced modulo Phi_m once.

Both paths sort the rows canonically (_row_sort_key), so a table is its
certified values alone, whichever path built it.  Row orthogonality
is certified exactly on the integer array before a table is ever returned,
as one Gram matrix per embedding (k^3 products, same cap) on the images the
table keeps (ct.embedded) modulo the primes of ct.embedded.primes, as many
as zring's norm bound needs, so neither shortcut can silently produce a
wrong table.  Column orthogonality follows from it, since a square table
whose rows are orthogonal is invertible (see _certify).  A table stores
only that array; its Cyclotomic values, their text, the JSON and the disk
cache are read from it.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import isqrt, lcm
from pathlib import Path

import numpy as np

from . import zring
from .cyclotomic import Cyclotomic, _as_fraction, euler_phi, render_coefficients
from .errors import (
    CapExceeded,
    DomainError,
    LiftVerificationFailed,
    NonIntegerMultiplicity,
    NotRational,
    RepdualError,
)
from .groups import TABLE_BLOCK, ClassData, FiniteGroup, conjugacy_classes, table_hash


# The k^3 class multiplication array and certification Gram products, and
# an abelian table's (k, k, m) array, are refused past this many entries;
# Z300 needs 300^3.
DEFAULT_CLASS_ALGEBRA_CAP = 2**25


def class_multiplication_coefficients(G: FiniteGroup, classes: ClassData) -> np.ndarray:
    """a[i, j, l] = #{(x,y) in C_i x C_j : x*y = rep(C_l)}, a (k, k, k) int64
    array: every x pairs with y = x^-1 rep(C_l).  Raises CapExceeded before
    allocating when k^3 passes DEFAULT_CLASS_ALGEBRA_CAP."""
    k, cap = classes.num_classes, DEFAULT_CLASS_ALGEBRA_CAP
    if k**3 > cap:
        raise CapExceeded("class multiplication array (k^3 entries)", k**3, cap)
    class_of = np.array(classes.class_of, dtype=np.int64)
    inv = np.array(G.inverse)[:, None]
    y = G.cayley[inv, np.array(classes.class_reps)[None, :]]  # (|G|, k)
    flat = (class_of[:, None] * k + class_of[y]) * k + np.arange(k)
    a = np.bincount(flat.ravel(), minlength=k**3).reshape(k, k, k)
    # total count: summing a[i][j][l]*|C_l| over l recovers |C_i|*|C_j|
    sizes = np.array(classes.class_sizes, dtype=np.int64)
    if (a @ sizes != np.outer(sizes, sizes)).any():
        raise LiftVerificationFailed("class multiplication totals are off")
    return a


# -- F_p plumbing -------------------------------------------------------------


def dixon_prime(order: int, exponent: int) -> int:
    """Smallest prime p = 1 (mod exponent) with p > max(2*sqrt(|G|), exponent)."""
    return zring.prime_1_mod(exponent, max(exponent, isqrt(4 * order)))


def _minimal_polynomial(M: np.ndarray, u: np.ndarray, p: int) -> np.ndarray:
    """Coefficients, constant term first, of the monic minimal polynomial
    of M relative to u.

    The Krylov vectors u, Mu, M^2u, ... are reduced as they come, each
    beside its combination of the Krylov vectors (rows[:m] in reduced
    echelon form on the left), until M^m u reduces to zero; its combination
    is then the polynomial."""
    k = len(u)
    rows = np.zeros((k, 2 * k + 1), dtype=u.dtype)
    pivots = np.zeros(k, dtype=np.intp)
    w = u
    for m in range(k + 1):  # k + 1 vectors in F_p^k are dependent
        row = np.zeros(2 * k + 1, dtype=u.dtype)
        row[:k], row[k + m] = w, 1
        row = (row - w[pivots[:m]] @ rows[:m]) % p
        nonzero = np.flatnonzero(row[:k])
        if not len(nonzero):
            break
        piv = nonzero[0]
        row = row * pow(int(row[piv]), p - 2, p) % p
        rows[:m] = (rows[:m] - rows[:m, piv, None] * row) % p
        rows[m], pivots[m] = row, piv
        w = M @ w % p
    return row[k : k + m + 1]


def _split(M: np.ndarray, V: np.ndarray, p: int) -> np.ndarray:
    """Replace every row v of V by its nonzero components in the eigenspaces
    of M, in no particular order.

    Rows that M already scales stay as they are.  The identity class e_0
    has a nonzero component on every central character, so its minimal
    polynomial mu relative to M is M's.  When mu has as many distinct roots
    lam in F_p as its degree, (mu/(x - lam))(M) v is a nonzero multiple of
    the component of v in the lam-eigenspace, or zero when v has none
    there.  The other rows are split together, a block of about TABLE_BLOCK
    entries of their Krylov vectors v, Mv, ..., M^deg(mu) v at a time."""
    k = V.shape[1]
    MT = M.T  # the rows of V @ M.T are the vectors M v
    MV = V @ MT % p
    piv = (V != 0).argmax(axis=1)[:, None]
    cross = np.take_along_axis(V, piv, 1) * MV - np.take_along_axis(MV, piv, 1) * V
    scaled = (cross % p == 0).all(axis=1)
    if scaled.all():
        return V
    e0 = np.zeros(k, dtype=V.dtype)
    e0[0] = 1
    mu = _minimal_polynomial(M, e0, p)
    d = len(mu) - 1
    xs = np.arange(p, dtype=V.dtype)
    values = np.zeros(p, dtype=V.dtype)
    for coeff in mu[::-1]:
        values = (values * xs + coeff) % p
    roots = np.flatnonzero(values == 0).astype(V.dtype)
    if len(roots) != d:
        raise LiftVerificationFailed("class-sum matrix not diagonalizable mod p")
    # synthetic division: q = mu / (x - lam) for every root at once
    q = np.zeros((d, d), dtype=V.dtype)
    q[:, d - 1] = 1
    for j in range(d - 1, 0, -1):
        q[:, j - 1] = (mu[j] + roots * q[:, j]) % p
    rest = np.flatnonzero(~scaled)
    out = [V[scaled]]
    step = max(1, TABLE_BLOCK // (d * k))
    for b in range(0, len(rest), step):
        rows = rest[b : b + step]
        krylov = np.empty((d + 1, len(rows), k), dtype=V.dtype)
        krylov[0], krylov[1] = V[rows], MV[rows]
        for j in range(2, d + 1):
            krylov[j] = krylov[j - 1] @ MT % p
        krylov = krylov.reshape(d + 1, -1)
        if (mu @ krylov % p != 0).any():  # some v is no sum of eigenvectors
            raise LiftVerificationFailed("class-sum matrix not diagonalizable mod p")
        parts = (q @ krylov[:d] % p).reshape(d, len(rows), k).transpose(1, 0, 2)
        nonzero = (parts != 0).any(axis=2)
        out.append(parts[nonzero])
    return np.concatenate(out)


def _central_characters(a: np.ndarray, p: int) -> np.ndarray:
    """The k central characters mod p as rows (value 1 at the identity
    class), in no particular order.  Starting from the identity class,
    every class matrix in turn splits all current vectors at once (see
    _split), until there are k of them."""
    k = len(a)
    dtype = zring.exact_dtype(k * (p - 1) ** 2)
    omega = np.zeros((1, k), dtype=dtype)
    omega[0, 0] = 1  # the identity class: sum_r (d_r^2/|G|) omega_r
    for M in a[1:]:
        if len(omega) == k:
            break
        omega = _split((M % p).astype(dtype, copy=False), omega, p)
    if len(omega) != k:
        raise LiftVerificationFailed("could not isolate one-dimensional eigenspaces")
    if not omega[:, 0].all():
        raise LiftVerificationFailed("central character vanishes at the identity")
    norm = np.array([pow(int(v), p - 2, p) for v in omega[:, 0]], dtype=dtype)
    return omega * norm[:, None] % p


# -- the table -----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """k x k exact character table in canonical order.

    zvalues is the table as a read-only (k, k, conductor) int64 array over
    Z[C_m], m = conductor = exponent: zvalues[i, j] holds the power-basis
    coefficients of chi_i on class j, zero-padded past phi(m).  values is
    the same table as Cyclotomics, built on first use.  Rows: trivial
    character first, then ascending degree, ties broken by lexicographic
    comparison of the rows' coefficient vectors.  Columns follow the
    canonical class order of ClassData.  Tables are equal when their
    groups, classes, degrees, conductors and values are.
    """

    group: FiniteGroup
    classes: ClassData
    degrees: tuple[int, ...]
    conductor: int
    zvalues: np.ndarray = field(repr=False)

    def __eq__(self, other):
        if not isinstance(other, CharacterTable):
            return NotImplemented
        return (self.group, self.classes, self.degrees, self.conductor) == (
            other.group, other.classes, other.degrees, other.conductor
        ) and np.array_equal(self.zvalues, other.zvalues)

    __hash__ = None  # the values are not hashable either

    @property
    def k(self) -> int:
        return self.classes.num_classes

    @cached_property
    def values(self) -> tuple[tuple[Cyclotomic, ...], ...]:
        """values[i][j] = chi_i on class j, a Cyclotomic of conductor m."""
        m = self.conductor
        rows = self.zvalues[..., : euler_phi(m)].tolist()
        return tuple(tuple(Cyclotomic._raw(m, c) for c in row) for row in rows)

    @cached_property
    def embedded(self) -> zring.Embedded:
        """zvalues with its images at the embeddings mod p, built once per
        prime: certification builds the first prime's, which every later
        contraction starts from."""
        return zring.Embedded(self.zvalues)

    @cached_property
    def abelian_pairing(self) -> AbelianPairing:
        """The pairing artifacts of an abelian group's table (see
        _abelian_pairing), built on first use."""
        return _abelian_pairing(self)

    def value(self, irrep: int, cls: int) -> Cyclotomic:
        return self.values[irrep][cls]

    def _distinct_values(self) -> tuple[list[list[int]], np.ndarray]:
        """The distinct values' power-basis coefficients, and the (k, k)
        index of every entry among them: one np.unique over the coefficient
        rows, each viewed as a single void item."""
        k, d = self.k, euler_phi(self.conductor)
        coeffs = np.ascontiguousarray(self.zvalues[..., :d]).reshape(k * k, d)
        cells = coeffs.view(np.dtype((np.void, coeffs.itemsize * d))).reshape(-1)
        distinct, index = np.unique(cells, return_inverse=True)
        rows = np.frombuffer(distinct.tobytes(), dtype=coeffs.dtype).reshape(-1, d)
        return rows.tolist(), index.reshape(k, k)

    def values_text(self) -> list[list[str]]:
        """values[i][j] as str(Cyclotomic) writes it, straight from the
        array; each distinct value is rendered once."""
        distinct, index = self._distinct_values()
        text = np.array([render_coefficients(self.conductor, c) for c in distinct], dtype=object)
        return text[index].tolist()

    def to_json(self) -> dict:
        """The table as Cyclotomic.to_json would write its values, straight
        from the array: one {"conductor", "coeffs"} dict per distinct value,
        which every entry holding that value shares."""
        m = self.conductor
        distinct, index = self._distinct_values()
        cells = [{"conductor": m, "coeffs": [str(c) for c in coeffs]} for coeffs in distinct]
        cells = np.array(cells, dtype=object)
        return {
            "group": self.group.name,
            "order": self.group.order,
            "conductor": self.conductor,
            "class_sizes": list(self.classes.class_sizes),
            "class_reps": self.group.labels_of(self.classes.class_reps),
            "degrees": list(self.degrees),
            "values": cells[index].tolist(),
        }


def _row_sort_key(row: np.ndarray, degree: int):
    """row: one row of power-basis coefficients, shape (k, phi(m))."""
    is_trivial = not row[:, 1:].any() and bool((row[:, 0] == 1).all())
    return (0 if is_trivial else 1, degree, tuple(map(tuple, row.tolist())))


def _certify(G: FiniteGroup, classes: ClassData, table: zring.Embedded, degrees) -> None:
    """Exact orthogonality + degree checks on the (k, k, m) array table.T
    over Z[C_m]; raises LiftVerificationFailed, or CapExceeded before any
    Gram product when k^3 passes DEFAULT_CLASS_ALGEBRA_CAP.

    Row orthogonality X D X* = |G| I, D the diagonal of class sizes, is
    checked on table.images at every embedding mod table.primes (see
    zring).  It implies column orthogonality: the square X is then
    invertible with inverse D X* / |G|, so X* X = |G| D^-1 (Isaacs,
    Character Theory of Finite Groups, ch. 2).  With N the largest sum of
    one value's coefficient magnitudes, no value exceeds N at any complex
    embedding, so no Gram entry minus |G| [a = b] exceeds |G| (N^2 + 1)
    there, and the primes' product exceeds twice that.  The first failing
    (a, b) is reported after all primes, in row-major order."""
    k, cap = classes.num_classes, DEFAULT_CLASS_ALGEBRA_CAP
    if k**3 > cap:
        raise CapExceeded("certification Gram products (k^3 entries)", k**3, cap)
    T, order = table.T, G.order
    if sum(d * d for d in degrees) != order:
        raise LiftVerificationFailed("sum of squared degrees != |G|")
    if T[0, :, 0].tolist() != [1] * k or T[0, :, 1:].any():
        raise LiftVerificationFailed("first row is not the trivial character")
    for i in range(k):
        first = T[i, 0].tolist()
        if any(first[1:]) or first[0] != degrees[i] or first[0] <= 0:
            raise LiftVerificationFailed(f"row {i} identity value is not its degree")
    bound = order * (max(zring.abs_row_sums(T.reshape(k * k, -1))) ** 2 + 1)
    bad = np.zeros((k, k), dtype=bool)
    for p in table.primes(bound):
        bad |= zring.gram_mismatch(table.images(p), classes.class_sizes, [order] * k, p)
    witness = np.argwhere(bad)
    if len(witness):
        a, b = witness[0].tolist()
        raise LiftVerificationFailed(f"row orthogonality fails at ({a},{b})")


def _certified_table(G: FiniteGroup, classes: ClassData, P: np.ndarray, degrees) -> CharacterTable:
    """Certify the power-basis coefficients P, shape (k, k, phi(m)), of a
    table in canonical row order through its ct.embedded, then return it."""
    m = G.exponent
    T = np.zeros(P.shape[:2] + (m,), dtype=np.int64)
    T[..., : P.shape[2]] = P
    T.setflags(write=False)
    ct = CharacterTable(G, classes, tuple(degrees), m, T)
    _certify(G, classes, ct.embedded, degrees)
    return ct


def _compute_character_table(G: FiniteGroup) -> CharacterTable:
    classes = conjugacy_classes(G)
    if classes.num_classes == G.order:
        return _abelian_table(G, classes)
    return _dixon_table(G, classes)


# -- abelian groups in closed form ---------------------------------------------------


def abelian_basis(G: FiniteGroup) -> tuple[list[int], list[int]]:
    """Cyclic basis (elements, orders) with every element uniquely a product
    of basis powers.  Greedy maximal quotient order with a lift fix-up; the
    classical basis theorem guarantees each step succeeds.

    The powers P[a, y] = y^a of all elements, a up to the exponent e, are
    built by doubling: rows k+1..2k are rows 1..k times row k, one gather
    each time.  Each step takes the first element g of largest order t
    modulo the span S so far (the least t with g^t in S, read from P),
    multiplies it by the first s in S with s^t g^t = 1 when g^t is not the
    identity, and grows S to S * {g^0, ..., g^(t-1)} by one gather."""
    if not G.is_abelian():
        raise DomainError("abelian_basis needs an abelian group")
    T, e = G.cayley, G.exponent
    P = np.zeros((e + 1, G.order), dtype=T.dtype)
    P[1], k = np.arange(G.order), 1
    while k < e:
        j = min(k, e - k)
        P[k + 1 : k + j + 1] = T[P[1 : j + 1], P[k]]
        k += j
    basis: list[int] = []
    orders: list[int] = []
    span = np.zeros(G.order, dtype=bool)
    span[0] = True
    while not span.all():
        t = span[P[1:]].argmax(axis=0) + 1  # y^e = 1 is in S
        g = int(np.argmax(t))
        order, top = int(t[g]), P[t[g], g]
        members = np.flatnonzero(span)
        if top != 0:
            fix = np.flatnonzero(T[P[order, members], top] == 0)
            if not fix.size:
                raise NonIntegerMultiplicity("abelian basis lift failed")
            g = int(T[g, members[fix[0]]])
        basis.append(g)
        orders.append(order)
        span[T[members[:, None], P[:order, g]]] = True
    return basis, orders


def _powers(T: np.ndarray, g: int, t: int) -> np.ndarray:
    """g^0, ..., g^(t-1) in the group with Cayley table T."""
    powers = np.zeros(t, dtype=np.intp)
    for a in range(1, t):
        powers[a] = T[powers[a - 1], g]
    return powers


def abelian_pairing_exponents(G: FiniteGroup) -> list[list[int]]:
    """eps[x][y] with pairing beta(x, y) = zeta_m^eps[x][y], m = exponent(G),
    for the pinned basis decomposition.  Symmetric and nondegenerate.

    The products of basis powers are enumerated with their exponent vectors
    in mixed radix, the last basis element fastest, one gather per basis
    element; they cover G, and exactly once when the basis is direct."""
    basis, orders = abelian_basis(G)
    m, T = G.exponent, G.cayley
    x, digits = np.zeros(1, dtype=np.intp), np.zeros((1, 0), dtype=np.int64)
    for b, t in zip(basis, orders):
        x = T[x[:, None], _powers(T, b, t)].reshape(-1)
        digits = np.column_stack([np.repeat(digits, t, axis=0), np.tile(np.arange(t), len(digits))])
    if len(x) != G.order:
        raise NonIntegerMultiplicity("abelian basis is not a direct decomposition")
    C = np.empty_like(digits)
    C[x] = digits
    return (C * np.array([m // t for t in orders], dtype=np.int64) @ C.T % m).tolist()


@dataclass(frozen=True)
class AbelianPairing:
    """The per-table artifacts of the abelian check: the exponents eps of
    the pairing beta(g, j) = zeta_m^eps[g][j], and irrep index -> group
    element with chi_irrep = beta(element, .)."""

    eps: list[list[int]]
    irrep_to_element: np.ndarray


def _abelian_pairing(ct: CharacterTable) -> AbelianPairing:
    """ct.abelian_pairing.  Classes of an abelian group are singletons in
    element order, so table row i is the character beta(g, .) with the same
    reduced coefficients, all found by one searchsorted into the sorted
    characters, each row one void item."""
    G = ct.group
    eps = abelian_pairing_exponents(G)
    E = np.array(eps, dtype=np.intp)
    R = zring.reduction_matrix(G.exponent)
    k, d = G.order, R.shape[1]
    item = np.dtype((np.void, R.itemsize * k * d))
    characters = R[E].reshape(k, -1).view(item).ravel()
    rows = np.ascontiguousarray(ct.zvalues[..., :d]).reshape(k, -1).view(item).ravel()
    order = np.argsort(characters)
    lo = np.searchsorted(characters, rows, sorter=order)
    matches = np.searchsorted(characters, rows, side="right", sorter=order) - lo
    bad = np.flatnonzero(matches != 1)
    if len(bad):
        i = bad[0]
        raise NonIntegerMultiplicity(f"character row {i} matches {matches[i]} pairing characters")
    irrep_to_element = order[lo]
    irrep_to_element.setflags(write=False)
    return AbelianPairing(eps, irrep_to_element)


def _abelian_table(G: FiniteGroup, classes: ClassData) -> CharacterTable:
    """The table of an abelian group, whose classes are its elements in
    order: chi_x(y) = zeta_m^eps[x][y] in canonical row order."""
    k, m = G.order, G.exponent
    cap = DEFAULT_CLASS_ALGEBRA_CAP
    if k * k * m > cap:
        raise CapExceeded("character table array (k*k*m entries)", k * k * m, cap)
    eps = np.array(abelian_pairing_exponents(G), dtype=np.intp)
    P = zring.reduction_matrix(m)[eps]
    rows = sorted(range(k), key=lambda x: _row_sort_key(P[x], 1))
    return _certified_table(G, classes, P[rows], [1] * k)


# -- other groups by Dixon's method --------------------------------------------------


def _dixon_table(G: FiniteGroup, classes: ClassData) -> CharacterTable:
    k = classes.num_classes
    e = G.exponent
    p = dixon_prime(G.order, e)
    omega = _central_characters(class_multiplication_coefficients(G, classes), p)

    class_of = np.array(classes.class_of)
    reps = np.array(classes.class_reps)
    inv_class = class_of[np.array(G.inverse)[reps]]
    size_inv = np.array([pow(s, p - 2, p) for s in classes.class_sizes], dtype=np.int64)
    # sum_i omega_i omega_{i^-1} / |C_i| = |G| / degree^2, mod p
    s = (omega * omega[:, inv_class] % p * size_inv % p).sum(axis=1) % p
    if not s.all():
        raise LiftVerificationFailed("degree normalization is singular")
    d2 = np.array([G.order * pow(int(x), p - 2, p) % p for x in s])
    candidates = np.arange(1, isqrt(G.order) + 1)
    match = (candidates * candidates % p)[None, :] == d2[:, None]
    if not match.any(axis=1).all():
        raise LiftVerificationFailed("no integer degree matches mod p")
    degrees = candidates[match.argmax(axis=1)]
    chi_mod = degrees[:, None] * omega % p * size_inv % p

    # power_class[j, s]: class of rep_j^s
    power_class = np.empty((k, e), dtype=np.intp)
    x = np.zeros(k, dtype=np.intp)
    for t in range(e):
        power_class[:, t] = class_of[x]
        x = G.cayley[x, reps]
    # mults[r, j, t]: multiplicity of zeta_e^t among the eigenvalues of
    # irrep r at class j, so chi_r(c_j) = sum_t mults[r, j, t] zeta_e^t:
    # (1/e) sum_s chi_r(c_j^s) z^(-ts), one product over the power maps
    z = zring.root_of_unity(e, p)
    dtype = zring.exact_dtype(e * (p - 1) ** 2)
    z_pow = np.array([pow(z, t, p) for t in range(e)], dtype=dtype)
    fourier = z_pow[-np.outer(np.arange(e), np.arange(e)) % e]
    values = chi_mod[:, power_class].astype(dtype).reshape(k * k, e)
    mults = (values @ fourier % p * pow(e, p - 2, p) % p).reshape(k, k, e).astype(np.int64)
    if (mults.sum(axis=-1) != degrees[:, None]).any():
        raise LiftVerificationFailed("eigenvalue multiplicities do not sum to the degree")

    degrees = degrees.tolist()
    P = zring.reduce(mults)
    order_idx = sorted(range(k), key=lambda i: _row_sort_key(P[i], degrees[i]))
    return _certified_table(G, classes, P[order_idx], [degrees[i] for i in order_idx])


# -- caching -------------------------------------------------------------------

class _TableKey:
    """The memo key of a Cayley table: the table itself, held without a
    copy.  Keys are equal exactly when the tables' entries are (a group's
    order fixes its table's dtype), and the hash reads only a few rows
    (groups.table_hash), so neither a hit nor a miss copies or digests the
    whole table."""

    __slots__ = ("T", "_hash")

    def __init__(self, T: np.ndarray):
        self.T = T
        self._hash = table_hash(T)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, _TableKey) and (self.T is other.T or np.array_equal(self.T, other.T))


_cache: dict[_TableKey, CharacterTable] = {}
_cache_lock = threading.Lock()


def character_table(G: FiniteGroup, cache_dir: str | Path | None = None) -> CharacterTable:
    """Certified character table; memoized per Cayley table, optionally
    persisted as JSON under cache_dir in a file named by the table digest,
    which is taken only then."""
    key = _TableKey(G.cayley)
    with _cache_lock:
        hit = _cache.get(key)
    if hit is not None:
        return hit
    table = None
    path = Path(cache_dir) / f"chartable-{G.table_digest()}.json" if cache_dir else None
    if path and path.exists():
        table = _load_cached(G, path)
    if table is None:
        table = _compute_character_table(G)
        if path:
            try:
                _write_atomic(path, _cache_text(table))
            except OSError as exc:
                raise RepdualError(f"cannot write to cache directory {cache_dir}: {exc}") from exc
    with _cache_lock:
        _cache.setdefault(key, table)
    return table


def _cache_text(ct: CharacterTable) -> str:
    """The cache blob: json.dumps of {"conductor", "degrees", "distinct",
    "index"}, the table's distinct power-basis coefficient rows
    and the (k, k) position of every entry among them."""
    distinct, index = ct._distinct_values()
    return json.dumps({
        "conductor": ct.conductor,
        "degrees": list(ct.degrees),
        "distinct": distinct,
        "index": index.tolist(),
    })


def _write_atomic(path: Path, text: str) -> None:
    """Write through a temporary file in the same directory and rename it
    into place, so a concurrent reader sees the old file or the whole new
    one, never a partial write."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _is_int_list(obj, length: int) -> bool:
    return (
        isinstance(obj, list)
        and len(obj) == length
        and all(type(x) is int for x in obj)
    )


def _load_cached(G: FiniteGroup, path: Path) -> CharacterTable | None:
    """The certified table stored at path, or None (so the caller
    recomputes) when the file is unreadable, malformed, written for another
    group or fails certification.  Other keys are ignored: files that
    earlier versions wrote with one more key load as well."""
    try:
        blob = json.loads(path.read_text())
        classes = conjugacy_classes(G)
        k, m = classes.num_classes, G.exponent
        if not isinstance(blob, dict) or blob.get("conductor") != m:
            return None
        degrees = blob["degrees"]
        if not _is_int_list(degrees, k):
            return None
        # integer arrays only: a float, string, null or out-of-int64 entry
        # makes another dtype kind, and a ragged row raises ValueError; the
        # index range is checked since a negative index would wrap
        distinct, index = np.array(blob["distinct"]), np.array(blob["index"])
        if not (
            distinct.dtype.kind == index.dtype.kind == "i"
            and distinct.ndim == 2
            and distinct.shape[1] == euler_phi(m)
            and index.shape == (k, k)
            and index.min() >= 0
            and index.max() < len(distinct)
        ):
            return None
        return _certified_table(G, classes, distinct[index], degrees)
    except (OSError, KeyError, TypeError, ValueError, ArithmeticError, LiftVerificationFailed):
        return None  # stale, corrupt or foreign cache entry; recompute


def inner_product(ct: CharacterTable, f, irrep: int) -> Fraction:
    """(1/|G|) sum_j |C_j| f(c_j) conj(chi_irrep(c_j)), reduced to a rational
    (raises NotRational when the class function is malformed).

    Each f(c_j) is an int, a Fraction or a Cyclotomic.  With M the lcm of
    the conductors (the table's among them) and D the common denominator of
    the coefficients, D f is a (k, M) integer array over Z[C_M], each
    conductor c promoted by zeta_c = zeta_M^(M/c).  The row of chi_irrep is
    conjugated (coefficient t to -t) and promoted the same way, weighted by
    the class sizes, and the sum over classes of the products is one exact
    product of the two arrays' supports, reduced by reduction_matrix(M)."""
    k, m = ct.k, ct.conductor
    rows = [
        (v.conductor, v.coeffs) if isinstance(v, Cyclotomic) else (1, (_as_fraction(v),))
        for v in (f[j] for j in range(k))
    ]
    M = lcm(m, *(c for c, _ in rows))
    D = lcm(*(x.denominator for _, row in rows for x in row))
    F = np.zeros((k, M), dtype=object)
    for j, (c, row) in enumerate(rows):
        F[j, : len(row) * (M // c) : M // c] = [x.numerator * (D // x.denominator) for x in row]
    sizes = np.array(ct.classes.class_sizes, dtype=np.int64)
    C = np.zeros((k, M), dtype=np.int64)
    C[:, -np.arange(m) * (M // m) % M] = ct.zvalues[irrep] * sizes[:, None]
    R = zring.reduction_matrix(M)
    bound = int(np.abs(R).max()) * sum(
        a * b for a, b in zip(zring.abs_row_sums(F), zring.abs_row_sums(C))
    )
    dtype = zring.exact_dtype(bound)
    sf, sc = np.flatnonzero((F != 0).any(axis=0)), np.flatnonzero(C.any(axis=0))
    W = F[:, sf].T.astype(dtype) @ C[:, sc].astype(dtype)
    total = W.reshape(-1) @ R[(sf[:, None] + sc) % M].reshape(-1, R.shape[1]).astype(dtype)
    total = [Fraction(int(c), D * ct.group.order) for c in total]
    if any(total[1:]):
        raise NotRational(f"{render_coefficients(M, total)} is not rational")
    return total[0]
