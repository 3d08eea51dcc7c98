"""Exact character tables via Dixon's finite-field method.

The central characters w_i = |C_i| chi(c_i) / chi(1) are simultaneous
eigenvectors of the class-sum multiplication matrices M_i with
(M_i)[j][l] = a[i][j][l].  Over F_p with p = 1 (mod exponent) and
p > 2*sqrt(|G|) the whole eigenproblem is integer arithmetic; the mod-p
character values are then lifted to exact cyclotomics of conductor
exponent(G) by discrete-Fourier counting of root-of-unity multiplicities
along power maps.  The lift yields each value's root-of-unity multiplicities,
an integer array over Z[C_m] (see zring) that is reduced modulo Phi_m once.
Row and column orthogonality are certified exactly on that integer array
before a table is ever returned, so the modular shortcut cannot silently
produce a wrong table.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from pathlib import Path

import numpy as np

from . import zring
from .cyclotomic import Cyclotomic, euler_phi
from .errors import LiftVerificationFailed
from .groups import ClassData, FiniteGroup, conjugacy_classes


def class_multiplication_coefficients(G: FiniteGroup, classes: ClassData) -> list:
    """a[i][j][l] = #{(x,y) in C_i x C_j : x*y = rep(C_l)}."""
    k = classes.num_classes
    a = [[[0] * k for _ in range(k)] for _ in range(k)]
    for l, z in enumerate(classes.class_reps):
        for x in range(G.order):
            i = classes.class_of[x]
            j = classes.class_of[G.mul(G.inv(x), z)]
            a[i][j][l] += 1
    # total count: summing a[i][j][l]*|C_l| over l recovers |C_i|*|C_j|
    for i in range(k):
        for j in range(k):
            total = sum(a[i][j][l] * classes.class_sizes[l] for l in range(k))
            if total != classes.class_sizes[i] * classes.class_sizes[j]:
                raise LiftVerificationFailed("class multiplication totals are off")
    return a


# -- F_p plumbing -------------------------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def dixon_prime(order: int, exponent: int) -> int:
    """Smallest prime p = 1 (mod exponent) with p > max(2*sqrt(|G|), exponent)."""
    p = exponent + 1
    while True:
        if p > exponent and p * p > 4 * order and _is_prime(p):
            return p
        p += exponent if exponent > 1 else 1


def _primitive_root(p: int) -> int:
    factors = []
    rest = p - 1
    f = 2
    while f * f <= rest:
        if rest % f == 0:
            factors.append(f)
            while rest % f == 0:
                rest //= f
        f += 1
    if rest > 1:
        factors.append(rest)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise LiftVerificationFailed(f"no primitive root mod {p}")


class _Rref:
    """Row-reduced spanning set over F_p that remembers how each row was
    built from the inserted vectors (needed to read off linear relations)."""

    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []
        self.history: list[list[int]] = []
        self.n_inserted = 0

    def reduce(self, vec: list[int]) -> tuple[list[int], list[int]]:
        """residue, combo with vec = residue - sum(combo[j] * inserted_j)."""
        p = self.p
        v = [x % p for x in vec]
        combo = [0] * self.n_inserted
        for row, piv, hist in zip(self.rows, self.pivots, self.history):
            c = v[piv]
            if c:
                for x in range(self.width):
                    v[x] = (v[x] - c * row[x]) % p
                for x, h in enumerate(hist):
                    combo[x] = (combo[x] - c * h) % p
        return v, combo

    def insert(self, vec: list[int]) -> bool:
        """Track vec; returns True if it enlarged the span."""
        p = self.p
        v, combo = self.reduce(vec)
        piv = next((x for x in range(self.width) if v[x]), None)
        if piv is None:
            return False
        combo.append(1)
        for h in self.history:
            h.append(0)
        self.n_inserted += 1
        inv = pow(v[piv], p - 2, p)
        v = [(x * inv) % p for x in v]
        combo = [(x * inv) % p for x in combo]
        for row, hist in zip(self.rows, self.history):
            c = row[piv]
            if c:
                for x in range(self.width):
                    row[x] = (row[x] - c * v[x]) % p
                for x in range(len(combo)):
                    hist[x] = (hist[x] - c * combo[x]) % p
        self.rows.append(v)
        self.pivots.append(piv)
        self.history.append(combo)
        return True


def _mat_vec(M: list[list[int]], v: list[int], p: int) -> list[int]:
    return [sum(m * x for m, x in zip(row, v)) % p for row in M]


def _restricted_matrix(M, basis: list[list[int]], p: int) -> list[list[int]]:
    """Matrix of M on span(basis) in basis coordinates; the span is
    M-invariant by construction."""
    rref = _Rref(p, len(basis[0]))
    for b in basis:
        rref.insert(b)
    cols = []
    for b in basis:
        residue, combo = rref.reduce(_mat_vec(M, b, p))
        if any(residue):
            raise LiftVerificationFailed("class-sum matrix left an invariant subspace")
        cols.append([(-c) % p for c in combo])
    d = len(basis)
    return [[cols[j][i] for j in range(d)] for i in range(d)]


def _min_poly_of_vector(A, v: list[int], p: int) -> list[int]:
    """Monic minimal polynomial (constant term first) of A relative to v."""
    d = len(v)
    rref = _Rref(p, d)
    rref.insert(v)
    cur = v
    for _ in range(d + 1):
        cur = _mat_vec(A, cur, p)
        residue, combo = rref.reduce(cur)
        if not any(residue):
            return combo + [1]
        rref.insert(cur)
    raise LiftVerificationFailed("Krylov sequence failed to terminate")


def _poly_eval(poly: list[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % p
    return acc


def _eigenvalues(A, p: int) -> list[int]:
    """All eigenvalues of a diagonalizable matrix over F_p: union of the
    roots of the minimal polynomials relative to the standard basis."""
    d = len(A)
    roots: set[int] = set()
    for start in range(d):
        v = [0] * d
        v[start] = 1
        poly = _min_poly_of_vector(A, v, p)
        roots.update(x for x in range(p) if _poly_eval(poly, x, p) == 0)
    return sorted(roots)


def _kernel_basis(A, lam: int, p: int) -> list[list[int]]:
    """Basis of ker(A - lam*I)."""
    d = len(A)
    M = [[(A[i][j] - (lam if i == j else 0)) % p for j in range(d)] for i in range(d)]
    pivots: list[int] = []
    r = 0
    for c in range(d):
        pivot = next((i for i in range(r, d) if M[i][c]), None)
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        inv = pow(M[r][c], p - 2, p)
        M[r] = [(x * inv) % p for x in M[r]]
        for i in range(d):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [(x - f * y) % p for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    out = []
    for fc in (c for c in range(d) if c not in pivots):
        vec = [0] * d
        vec[fc] = 1
        for row, pc in zip(M, pivots):
            vec[pc] = (-row[fc]) % p
        out.append(vec)
    return out


def _common_eigenvectors(mats: list, k: int, p: int) -> list[list[int]]:
    """Split F_p^k into the k one-dimensional common eigenspaces of the
    commuting class-sum family."""
    spaces: list[list[list[int]]] = [[[1 if i == j else 0 for j in range(k)] for i in range(k)]]
    for M in mats:
        if all(len(s) == 1 for s in spaces):
            break
        nxt: list[list[list[int]]] = []
        for basis in spaces:
            if len(basis) == 1:
                nxt.append(basis)
                continue
            A = _restricted_matrix(M, basis, p)
            covered = 0
            for lam in _eigenvalues(A, p):
                coords = _kernel_basis(A, lam, p)
                amb = []
                for coord in coords:
                    vec = [0] * k
                    for c, b in zip(coord, basis):
                        if c:
                            for x in range(k):
                                vec[x] = (vec[x] + c * b[x]) % p
                    amb.append(vec)
                if amb:
                    nxt.append(amb)
                    covered += len(amb)
            if covered != len(basis):
                raise LiftVerificationFailed("class-sum matrix not diagonalizable mod p")
        spaces = nxt
    if not all(len(s) == 1 for s in spaces):
        raise LiftVerificationFailed("could not isolate one-dimensional eigenspaces")
    return [s[0] for s in spaces]


# -- the table -----------------------------------------------------------------


@dataclass(frozen=True)
class CharacterTable:
    """k x k exact character table in canonical order.

    values[i][j] = chi_i on class j, a Cyclotomic of conductor = exponent.
    zvalues is the same table as a read-only (k, k, conductor) int64 array
    over Z[C_m]: zvalues[i, j] holds the power-basis coefficients of
    values[i][j], zero-padded.  Rows: trivial character first, then
    ascending degree, ties broken by lexicographic comparison of the rows'
    coefficient vectors.  Columns follow the canonical class order of
    ClassData.
    """

    group: FiniteGroup
    classes: ClassData
    values: tuple[tuple[Cyclotomic, ...], ...]
    degrees: tuple[int, ...]
    conductor: int
    irrep_order: tuple[int, ...]
    zvalues: np.ndarray = field(compare=False, repr=False)

    @property
    def k(self) -> int:
        return self.classes.num_classes

    def value(self, irrep: int, cls: int) -> Cyclotomic:
        return self.values[irrep][cls]

    def conjugate_row(self, irrep: int) -> tuple[Cyclotomic, ...]:
        return tuple(v.conjugate() for v in self.values[irrep])

    def to_json(self) -> dict:
        return {
            "group": self.group.name,
            "order": self.group.order,
            "conductor": self.conductor,
            "class_sizes": list(self.classes.class_sizes),
            "class_reps": [self.group.element_labels[r] for r in self.classes.class_reps],
            "degrees": list(self.degrees),
            "values": [[v.to_json() for v in row] for row in self.values],
        }


def _row_sort_key(row: np.ndarray, degree: int):
    """row: one row of power-basis coefficients, shape (k, phi(m))."""
    is_trivial = not row[:, 1:].any() and bool((row[:, 0] == 1).all())
    return (0 if is_trivial else 1, degree, tuple(map(tuple, row.tolist())))


def _certify(G: FiniteGroup, classes: ClassData, T: np.ndarray, degrees) -> None:
    """Exact orthogonality + degree checks on the (k, k, m) array over
    Z[C_m]; raises LiftVerificationFailed."""
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
    sizes = classes.class_sizes
    dtype = zring.exact_dtype(
        max(sizes) * sum(zring.abs_row_sums(T)) ** 2 * zring.reduction_gain(T.shape[-1])
    )
    T = T.astype(dtype)
    conj = zring.conjugate(T)
    weighted = T * np.array(sizes, dtype=dtype)[None, :, None]
    checks = (
        ("row", zring.convmatmul(weighted, conj.transpose(1, 0, 2)), [order] * k),
        ("column", zring.convmatmul(T.transpose(1, 0, 2), conj), [order // s for s in sizes]),
    )
    for name, product, diagonal in checks:
        reduced = zring.reduce(product)
        expected = np.zeros_like(reduced)
        expected[range(k), range(k), 0] = diagonal
        bad = np.argwhere((reduced != expected).any(axis=-1))
        if len(bad):
            a, b = bad[0].tolist()
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
    values = tuple(tuple(Cyclotomic._raw(m, c) for c in row) for row in P.tolist())
    return CharacterTable(G, classes, values, tuple(degrees), m, tuple(irrep_order), T)


def _compute_character_table(G: FiniteGroup) -> CharacterTable:
    classes = conjugacy_classes(G)
    k = classes.num_classes
    e = G.exponent
    p = dixon_prime(G.order, e)
    a = class_multiplication_coefficients(G, classes)
    mats = [[[a[i][j][l] for l in range(k)] for j in range(k)] for i in range(1, k)]
    eigvecs = _common_eigenvectors(mats, k, p)

    inv_class = [classes.class_of[G.inv(r)] for r in classes.class_reps]
    size_inv = [pow(s, p - 2, p) for s in classes.class_sizes]
    z = pow(_primitive_root(p), (p - 1) // e, p)
    e_inv = pow(e, p - 2, p)

    # power map per class: class of rep^s
    power_class = []
    for rep in classes.class_reps:
        row = []
        x = 0
        for _ in range(e):
            row.append(classes.class_of[x])
            x = G.mul(x, rep)
        power_class.append(row)

    # mults[r, j, t]: multiplicity of zeta_e^t among the eigenvalues of
    # irrep r at class j, so chi_r(c_j) = sum_t mults[r, j, t] zeta_e^t
    mults = np.zeros((k, k, e), dtype=np.int64)
    degrees = []
    for r, vec in enumerate(eigvecs):
        if vec[0] == 0:
            raise LiftVerificationFailed("central character vanishes at the identity")
        norm = pow(vec[0], p - 2, p)
        omega = [(v * norm) % p for v in vec]
        s = sum(omega[i] * omega[inv_class[i]] * size_inv[i] for i in range(k)) % p
        if s == 0:
            raise LiftVerificationFailed("degree normalization is singular")
        d2 = (G.order * pow(s, p - 2, p)) % p
        degree = next((d for d in range(1, isqrt(G.order) + 1) if d * d % p == d2), None)
        if degree is None:
            raise LiftVerificationFailed("no integer degree matches mod p")
        chi_mod = [(degree * omega[j] * size_inv[j]) % p for j in range(k)]
        for j in range(k):
            for t in range(e):
                acc = 0
                for s_idx in range(e):
                    acc += chi_mod[power_class[j][s_idx]] * pow(z, (p - 1 - t) * s_idx % (p - 1), p)
                mults[r, j, t] = (acc * e_inv) % p
            if mults[r, j].sum() != degree:
                raise LiftVerificationFailed("eigenvalue multiplicities do not sum to the degree")
        degrees.append(degree)

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
        "values": [[v.to_json() for v in row] for row in ct.values],
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
        d = euler_phi(m)
        P = np.zeros((k, k, d), dtype=np.int64)
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                coeffs = [Fraction(c) for c in v["coeffs"]]
                if v["conductor"] != m or len(coeffs) != d:
                    return None
                if any(c.denominator != 1 for c in coeffs):
                    return None
                P[i, j] = [int(c) for c in coeffs]
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
