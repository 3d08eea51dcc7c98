"""Exact character tables via Dixon's finite-field method.

The central characters w_i = |C_i| chi(c_i) / chi(1) are simultaneous
eigenvectors of the class-sum multiplication matrices M_i with
(M_i)[j][l] = a[i][j][l].  Over F_p with p = 1 (mod exponent) and
p > 2*sqrt(|G|) the whole eigenproblem is integer arithmetic in numpy mod p:
the indicator of the identity class has a nonzero component d^2/|G| on every
central character, so Krylov sequences of it and of its projections split
F_p^k into the k common eigenvectors (class matrices in order, each split
by ascending eigenvalue).  The mod-p character values are then lifted to
exact cyclotomics of conductor exponent(G) by discrete-Fourier counting of
root-of-unity multiplicities along power maps: one (k*k, e) @ (e, e)
product mod p of the values over the power-map table with the Fourier
matrix.  The lift yields each value's root-of-unity multiplicities, an
integer array over Z[C_m] (see zring) that is reduced modulo Phi_m once.
Row and column orthogonality are certified exactly on that integer array
before a table is ever returned, as Gram matrices at every embedding of
Z[zeta_m] modulo as many primes p = 1 (mod m) as an a-priori coefficient
bound needs, so the modular shortcut cannot silently produce a wrong
table.  A table stores only that array; its Cyclotomic values, the JSON
and the disk cache are read from it.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import isqrt
from pathlib import Path

import numpy as np

from . import zring
from .cyclotomic import Cyclotomic, euler_phi
from .errors import LiftVerificationFailed
from .groups import ClassData, FiniteGroup, conjugacy_classes


def class_multiplication_coefficients(G: FiniteGroup, classes: ClassData) -> np.ndarray:
    """a[i, j, l] = #{(x,y) in C_i x C_j : x*y = rep(C_l)}, a (k, k, k) int64
    array: every x pairs with y = x^-1 rep(C_l)."""
    k = classes.num_classes
    class_of = np.array(classes.class_of, dtype=np.int64)
    inv = np.array(G.inverse)[:, None]
    y = G.cayley[inv, np.array(classes.class_reps)[None, :]]  # (|G|, k)
    flat = (class_of[:, None] * k + class_of[y]) * k + np.arange(k)
    a = np.bincount(flat.ravel(), minlength=k**3).reshape(k, k, k)
    # total count: summing a[i][j][l]*|C_l| over l recovers |C_i|*|C_j|
    sizes = np.array(classes.class_sizes, dtype=np.int64)
    if ((a * sizes).sum(axis=-1) != np.outer(sizes, sizes)).any():
        raise LiftVerificationFailed("class multiplication totals are off")
    return a


# -- F_p plumbing -------------------------------------------------------------


def dixon_prime(order: int, exponent: int) -> int:
    """Smallest prime p = 1 (mod exponent) with p > max(2*sqrt(|G|), exponent)."""
    return zring.prime_1_mod(exponent, max(exponent, isqrt(4 * order)))


@lru_cache(maxsize=None)
def _primitive_root(p: int) -> int:
    """The smallest generator of the units mod the prime p."""
    qs = zring.prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
    raise LiftVerificationFailed(f"no primitive root mod {p}")


def _krylov_split(M: np.ndarray, u: np.ndarray, p: int) -> list[np.ndarray]:
    """Split u into its components in the eigenspaces of M, by ascending
    eigenvalue.

    The Krylov vectors u, Mu, M^2u, ... are reduced as they come (rows[:m]
    in reduced echelon form, combos[:m] expressing them in the Krylov
    vectors) until M^m u depends on the earlier ones; that relation is the
    minimal polynomial mu of M relative to u.  When mu has m distinct roots
    lam in F_p, (mu(x)/(x - lam))(M) u is a nonzero multiple of the
    component of u in the lam-eigenspace."""
    k = len(u)
    krylov = np.zeros((k + 1, k), dtype=u.dtype)
    rows = np.zeros((k, k), dtype=u.dtype)
    combos = np.zeros((k, k), dtype=u.dtype)
    krylov[0] = u
    pivots: list[int] = []
    for m in range(k + 1):  # k + 1 vectors in F_p^k are dependent
        w = krylov[m]
        c = w[pivots]
        residue = (w - c @ rows[:m]) % p
        combo = (-c @ combos[:m, :m]) % p  # residue = w + combo . krylov[:m]
        nonzero = np.flatnonzero(residue)
        if not len(nonzero):
            break
        piv = int(nonzero[0])
        scale = pow(int(residue[piv]), p - 2, p)
        row = residue * scale % p
        hist = np.append(combo, 1) * scale % p
        f = rows[:m, piv, None].copy()
        rows[:m] = (rows[:m] - f * row) % p
        combos[:m, : m + 1] = (combos[:m, : m + 1] - f * hist) % p
        rows[m], combos[m, : m + 1] = row, hist
        pivots.append(piv)
        krylov[m + 1] = M @ w % p
    # mu = x^m + combo . (1, x, ..., x^(m-1)), constant term first
    mu = np.append(combo, 1)
    xs = np.arange(p, dtype=u.dtype)
    values = np.zeros(p, dtype=u.dtype)
    for coeff in mu[::-1]:
        values = (values * xs + coeff) % p
    roots = np.flatnonzero(values == 0).astype(u.dtype)
    if len(roots) != m:
        raise LiftVerificationFailed("class-sum matrix not diagonalizable mod p")
    # synthetic division: q = mu / (x - lam) for every root at once
    q = np.zeros((m, m), dtype=u.dtype)
    q[:, m - 1] = 1
    for j in range(m - 1, 0, -1):
        q[:, j - 1] = (mu[j] + roots * q[:, j]) % p
    return list(q @ krylov[:m] % p)


def _central_characters(a: np.ndarray, p: int) -> np.ndarray:
    """The k central characters mod p as rows (value 1 at the identity
    class), in split order: sorted by their eigenvalues on M_1, then M_2,
    and so on."""
    k = len(a)
    dtype = zring.exact_dtype(k * (p - 1) ** 2)
    mats = (a % p).astype(dtype)
    start = np.zeros(k, dtype=dtype)
    start[0] = 1  # the identity class: sum_r (d_r^2/|G|) omega_r
    vecs = [start]
    for M in mats[1:]:
        if len(vecs) == k:
            break
        vecs = [part for u in vecs for part in _krylov_split(M, u, p)]
    if len(vecs) != k:
        raise LiftVerificationFailed("could not isolate one-dimensional eigenspaces")
    omega = np.array(vecs).reshape(k, k)
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
    groups, classes, degrees, conductors, row orders and values are.
    """

    group: FiniteGroup
    classes: ClassData
    degrees: tuple[int, ...]
    conductor: int
    irrep_order: tuple[int, ...]
    zvalues: np.ndarray = field(repr=False)

    def __eq__(self, other):
        if not isinstance(other, CharacterTable):
            return NotImplemented
        return (self.group, self.classes, self.degrees, self.conductor, self.irrep_order) == (
            other.group, other.classes, other.degrees, other.conductor, other.irrep_order
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
        """zvalues with its images at the embeddings mod p, built per prime
        on first use by a contraction, never by table construction."""
        return zring.Embedded(self.zvalues)

    @cached_property
    def derived(self) -> dict:
        """Artifacts of later stages that depend on this table alone (the
        abelian pairing of identities), built on first use and kept for
        the table's lifetime."""
        return {}

    def value(self, irrep: int, cls: int) -> Cyclotomic:
        return self.values[irrep][cls]

    def conjugate_row(self, irrep: int) -> tuple[Cyclotomic, ...]:
        return tuple(v.conjugate() for v in self.values[irrep])

    def _values_json(self) -> list:
        """The values as Cyclotomic.to_json would write them, straight from
        the array; each distinct coefficient is formatted once."""
        m = self.conductor
        coeffs = self.zvalues[..., : euler_phi(m)]
        distinct, index = np.unique(coeffs, return_inverse=True)
        text = np.array([str(c) for c in distinct.tolist()], dtype=object)
        rows = text[index.reshape(coeffs.shape)].tolist()
        return [[{"conductor": m, "coeffs": c} for c in row] for row in rows]

    def to_json(self) -> dict:
        return {
            "group": self.group.name,
            "order": self.group.order,
            "conductor": self.conductor,
            "class_sizes": list(self.classes.class_sizes),
            "class_reps": [self.group.element_labels[r] for r in self.classes.class_reps],
            "degrees": list(self.degrees),
            "values": self._values_json(),
        }


def _row_sort_key(row: np.ndarray, degree: int):
    """row: one row of power-basis coefficients, shape (k, phi(m))."""
    is_trivial = not row[:, 1:].any() and bool((row[:, 0] == 1).all())
    return (0 if is_trivial else 1, degree, tuple(map(tuple, row.tolist())))


def _certify(G: FiniteGroup, classes: ClassData, T: np.ndarray, degrees) -> None:
    """Exact orthogonality + degree checks on the (k, k, m) array over
    Z[C_m]; raises LiftVerificationFailed.

    Row and column orthogonality are checked at every embedding of
    Z[zeta_m] mod enough primes p = 1 (mod m) (see zring): every reduced
    coefficient of sum_j |C_j| chi_a(c_j) conj(chi_b(c_j)) - |G| [a = b] is
    at most max|C_j| * (sum of |T|)^2 * reduction_gain(m) + |G| in
    magnitude, and the primes' product exceeds twice that bound.  The first
    failing (a, b) is reported after all primes, in row-major order."""
    k = classes.num_classes
    order = G.order
    if sum(d * d for d in degrees) != order:
        raise LiftVerificationFailed("sum of squared degrees != |G|")
    if T[0, :, 0].tolist() != [1] * k or T[0, :, 1:].any():
        raise LiftVerificationFailed("first row is not the trivial character")
    for i in range(k):
        first = T[i, 0].tolist()
        if any(first[1:]) or first[0] != degrees[i] or first[0] <= 0:
            raise LiftVerificationFailed(f"row {i} identity value is not its degree")
    m = T.shape[-1]
    sizes = classes.class_sizes
    bound = max(sizes) * sum(zring.abs_row_sums(T)) ** 2 * zring.reduction_gain(m) + order
    bad = {"row": np.zeros((k, k), dtype=bool), "column": np.zeros((k, k), dtype=bool)}
    for p in zring.certification_primes(bound, m, max(k, m)):
        E, Ebar = zring.embed(T, p)
        bad["row"] |= zring.gram_mismatch(E, Ebar, sizes, [order] * k, p)
        cols, cols_bar = E.transpose(0, 2, 1), Ebar.transpose(0, 2, 1)
        bad["column"] |= zring.gram_mismatch(cols, cols_bar, [1] * k, [order // s for s in sizes], p)
    for name, mask in bad.items():
        witness = np.argwhere(mask)
        if len(witness):
            a, b = witness[0].tolist()
            raise LiftVerificationFailed(f"{name} orthogonality fails at ({a},{b})")


def _certified_table(
    G: FiniteGroup, classes: ClassData, P: np.ndarray, degrees, irrep_order
) -> CharacterTable:
    """Certify the power-basis coefficients P, shape (k, k, phi(m)), of a
    table in canonical row order, then wrap them."""
    m = G.exponent
    T = np.zeros(P.shape[:2] + (m,), dtype=np.int64)
    T[..., : P.shape[2]] = P
    T.setflags(write=False)
    _certify(G, classes, T, degrees)
    return CharacterTable(G, classes, tuple(degrees), m, tuple(irrep_order), T)


def _compute_character_table(G: FiniteGroup) -> CharacterTable:
    classes = conjugacy_classes(G)
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
    z = pow(_primitive_root(p), (p - 1) // e, p)
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
    return _certified_table(G, classes, P[order_idx], [degrees[i] for i in order_idx], order_idx)


# -- caching -------------------------------------------------------------------

_cache: dict[str, CharacterTable] = {}
_cache_lock = threading.Lock()


def character_table(G: FiniteGroup, cache_dir: str | Path | None = None) -> CharacterTable:
    """Certified character table; memoized per table digest, optionally
    persisted as JSON under cache_dir."""
    digest = G.table_digest()
    with _cache_lock:
        hit = _cache.get(digest)
    if hit is not None:
        return hit
    table = None
    path = Path(cache_dir) / f"chartable-{digest}.json" if cache_dir else None
    if path and path.exists():
        table = _load_cached(G, path)
    if table is None:
        table = _compute_character_table(G)
        if path:
            _write_atomic(path, json.dumps(_dump_cached(table), indent=None, sort_keys=False))
    with _cache_lock:
        _cache.setdefault(digest, table)
    return table


def _dump_cached(ct: CharacterTable) -> dict:
    return {
        "conductor": ct.conductor,
        "degrees": list(ct.degrees),
        "irrep_order": list(ct.irrep_order),
        "values": ct._values_json(),
    }


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


_DECIMAL = re.compile(r"-?[0-9]+\Z")


def _coefficient(c) -> int:
    """The integer Fraction(c) stands for; plain decimal strings, as the
    cache writes them, skip the Fraction.  Raises ValueError (or what
    Fraction raises) for anything else."""
    if type(c) is str and _DECIMAL.match(c):
        return int(c)
    f = Fraction(c)
    if f.denominator != 1:
        raise ValueError("coefficient is not an integer")
    return int(f)


def _cached_coefficients(rows, k: int, m: int) -> np.ndarray | None:
    """The (k, k, phi(m)) int64 power-basis coefficients of a cache blob's
    k x k values, or None when an entry has another conductor or length;
    raises on coefficients that are not integers or overflow int64."""
    d = euler_phi(m)
    flat = []
    for row in rows:
        for v in row:
            coeffs = [_coefficient(c) for c in v["coeffs"]]
            if v["conductor"] != m or len(coeffs) != d:
                return None
            flat.extend(coeffs)
    return np.array(flat, dtype=np.int64).reshape(k, k, d)


def _load_cached(G: FiniteGroup, path: Path) -> CharacterTable | None:
    """The certified table stored at path, or None (so the caller
    recomputes) when the file is unreadable, malformed, written for another
    group or fails certification."""
    try:
        blob = json.loads(path.read_text())
        classes = conjugacy_classes(G)
        k, m = classes.num_classes, G.exponent
        if not isinstance(blob, dict) or blob.get("conductor") != m:
            return None
        degrees, irrep_order, rows = blob["degrees"], blob["irrep_order"], blob["values"]
        if not (
            _is_int_list(degrees, k)
            and _is_int_list(irrep_order, k)
            and sorted(irrep_order) == list(range(k))
            and isinstance(rows, list)
            and len(rows) == k
            and all(isinstance(row, list) and len(row) == k for row in rows)
        ):
            return None
        P = _cached_coefficients(rows, k, m)
        if P is None:
            return None
        return _certified_table(G, classes, P, degrees, irrep_order)
    except (OSError, KeyError, TypeError, ValueError, ArithmeticError, LiftVerificationFailed):
        return None  # stale, corrupt or foreign cache entry; recompute


def inner_product(ct: CharacterTable, f, irrep: int) -> Fraction:
    """(1/|G|) sum_j |C_j| f(c_j) conj(chi_irrep(c_j)), reduced to a rational
    (raises NotRational when the class function is malformed)."""
    total = Cyclotomic.from_rational(0, ct.conductor)
    conj_row = ct.conjugate_row(irrep)
    for j in range(ct.k):
        fj = f[j]
        if not isinstance(fj, Cyclotomic):
            fj = Cyclotomic.from_rational(fj, ct.conductor)
        total = total + ct.classes.class_sizes[j] * (fj * conj_row[j])
    return (total / ct.group.order).as_rational()
