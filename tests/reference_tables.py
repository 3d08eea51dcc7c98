"""Per-element references for the numpy group and character-table kernels.

These are the pure-Python implementations the kernels replaced: closure by
composing permutation tuples, the Cayley table by one composition per
element pair, inverses by the position of the identity in each row,
conjugacy classes by orbit BFS over every conjugator (and, on arrays, by the
running minimum over every conjugator that orbit classes replaced),
generating sets and the commutator subgroup by closures over Python sets,
the table digest by one int.to_bytes per entry, associativity by every
triple (above order 200 by Light's test, Python loops over a generating
set under right products), the F_p eigenspace split by
row reduction over Python lists, the Dixon lift by one modular pow per
(irrep, class, root, power), and certification by cyclic convolution over
Z[C_m].  The table's Cyclotomic values, its JSON and its cache blob are
rebuilt here one Cyclotomic at a time, and a cache file is parsed with one
Fraction per coefficient.  Tests compare the kernels with them exactly.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from itertools import product
from math import isqrt

import numpy as np

from repdual import zring
from repdual.chartable import _certified_table, _row_sort_key, dixon_prime
from repdual.cyclotomic import Cyclotomic, euler_phi
from repdual.errors import ClosureCapExceeded, LiftVerificationFailed, NonIntegerMultiplicity
from repdual.groups import DEFAULT_GROUP_CAP, ClassData, FiniteGroup

from reference_zring import conjugate, convmatmul, reduction_gain


# -- groups -------------------------------------------------------------------


def _compose(f, g):
    """(f o g)(x) = f(g(x))"""
    return tuple(f[x] for x in g)


def reference_cycle_notation(perm: tuple[int, ...]) -> str:
    """One permutation at a time, as groups._cycle_labels labels them all."""
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        parts.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(parts) if parts else "()"


def reference_group_from_generators(perms, cap=DEFAULT_GROUP_CAP, name=None) -> FiniteGroup:
    degree = len(perms[0]) if perms else 1
    identity = tuple(range(degree))
    elements = [identity]
    index = {identity: 0}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in perms:
                y = _compose(x, g)
                if y not in index:
                    if len(elements) >= cap:
                        raise ClosureCapExceeded("group closure", len(elements) + 1, cap)
                    index[y] = len(elements)
                    elements.append(y)
                    nxt.append(y)
        frontier = nxt
    table = tuple(tuple(index[_compose(a, b)] for b in elements) for a in elements)
    labels = tuple(reference_cycle_notation(p) for p in elements)
    gen_indices = tuple(index[tuple(p)] for p in perms)
    return FiniteGroup(name or f"perm[{len(elements)}]", table, labels, generators=gen_indices)


def reference_product_table(factors) -> tuple:
    orders = [G.order for G in factors]
    total = 1
    for o in orders:
        total *= o

    def split(x):
        parts = []
        for o in reversed(orders):
            x, r = divmod(x, o)
            parts.append(r)
        return tuple(reversed(parts))

    def join(parts):
        x = 0
        for p, o in zip(parts, orders):
            x = x * o + p
        return x

    return tuple(
        tuple(
            join(G.mul(p, q) for G, p, q in zip(factors, split(a), split(b)))
            for b in range(total)
        )
        for a in range(total)
    )


def reference_inverses(table) -> tuple[int, ...]:
    """The column of the identity 0 in each row: its smallest entry, found
    by argmin over the whole Cayley table a block of rows at a time, as the
    group constructor found inverses before the power walk."""
    T = np.asarray(table)
    step = max(1, 2**14 // len(T))
    blocks = [np.argmin(T[s : s + step], axis=1) for s in range(0, len(T), step)]
    return tuple(np.concatenate(blocks).tolist())


def reference_conjugacy_classes(G: FiniteGroup) -> ClassData:
    """Orbit BFS under conjugation by every element, with inverses taken
    from the table (reference_inverses), not from G."""
    n = G.order
    table = G.table
    inverse = reference_inverses(G.cayley)
    class_of = [-1] * n
    orbits = []
    for g in range(n):
        if class_of[g] >= 0:
            continue
        orbit = {g}
        stack = [g]
        while stack:
            x = stack.pop()
            for y in range(n):
                z = table[table[y][x]][inverse[y]]
                if z not in orbit:
                    orbit.add(z)
                    stack.append(z)
        idx = len(orbits)
        orbits.append(sorted(orbit))
        for x in orbit:
            class_of[x] = idx
    reps = tuple(orbit[0] for orbit in orbits)
    sizes = tuple(len(orbit) for orbit in orbits)
    return ClassData(len(orbits), tuple(class_of), reps, sizes)


def reference_scan_classes(G: FiniteGroup) -> ClassData:
    """The smallest member of each class as a running minimum of the
    conjugates (yg)y^-1 over every y, a block of rows y at a time: quadratic,
    but on arrays, so it reaches groups of order a few thousand."""
    n, T = G.order, G.cayley
    flat = T.ravel()
    inv = np.array(reference_inverses(T), dtype=np.intp)
    smallest = np.arange(n, dtype=T.dtype)
    step = max(1, 2**14 // n)
    for y0 in range(0, n, step):
        index = T[y0 : y0 + step].astype(np.intp)  # yg
        index *= n
        index += inv[y0 : y0 + step, None]
        np.minimum(smallest, flat[index].min(axis=0), out=smallest)
    reps, class_of = np.unique(smallest, return_inverse=True)
    class_of = class_of.reshape(-1)
    return ClassData(
        len(reps),
        tuple(class_of.tolist()),
        tuple(reps.tolist()),
        tuple(np.bincount(class_of).tolist()),
    )


def reference_small_generating_set(table: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Greedy generating set: repeatedly adjoin the smallest element outside
    the current closure."""
    n = len(table)
    gens: list[int] = []
    span = {0}
    while len(span) < n:
        g = min(set(range(n)) - span)
        gens.append(g)
        frontier = list(span | {g})
        span.add(g)
        while frontier:
            x = frontier.pop()
            for h in gens:
                for y in (table[x][h], table[h][x]):
                    if y not in span:
                        span.add(y)
                        frontier.append(y)
    return tuple(gens)


def reference_commutator_subgroup(G: FiniteGroup) -> frozenset[int]:
    """Closure of all commutators a b a^-1 b^-1 (used to count the degree-1
    characters independently of the character table)."""
    comms = {
        G.mul(G.mul(a, b), G.mul(G.inv(a), G.inv(b)))
        for a in range(G.order)
        for b in range(G.order)
    }
    span = {0}
    frontier = list(comms | {0})
    span |= comms
    while frontier:
        x = frontier.pop()
        for c in comms:
            y = G.mul(x, c)
            if y not in span:
                span.add(y)
                frontier.append(y)
    return frozenset(span)


def reference_table_digest(G: FiniteGroup) -> str:
    """sha256 of the order in decimal, then every entry row by row as a
    little-endian signed integer of 2 bytes (4 from order 2^15)."""
    width = 2 if G.order < 2**15 else 4
    h = hashlib.sha256(str(G.order).encode())
    for row in G.table:
        h.update(b"".join(v.to_bytes(width, "little", signed=True) for v in row))
    return h.hexdigest()


def reference_right_generating_set(table) -> tuple[int, ...]:
    """Greedy generating set under right products, for any table with
    identity 0: repeatedly adjoin the smallest element that right products
    x * h by the generators so far do not reach from 0."""
    n = len(table)
    gens: list[int] = []
    span = {0}
    while len(span) < n:
        gens.append(min(set(range(n)) - span))
        frontier = list(span)
        while frontier:
            x = frontier.pop()
            for h in gens:
                y = table[x][h]
                if y not in span:
                    span.add(y)
                    frontier.append(y)
    return tuple(gens)


def reference_table_error(table):
    """Message of the first group axiom the per-entry, per-triple checks
    find violated, or None for a group table."""
    n = len(table)
    if n == 0 or any(len(row) != n for row in table):
        return "table is not square"
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            if not isinstance(v, int) or not 0 <= v < n:
                return f"entry ({i},{j}) = {v} outside 0..{n - 1}"
    for g in range(n):
        if table[0][g] != g or table[g][0] != g:
            return f"identity axiom: index 0 does not fix {g}"
    for i, row in enumerate(table):
        if len(set(row)) != n:
            return f"row {i} is not a permutation (not a Latin square)"
    for j in range(n):
        if len({table[i][j] for i in range(n)}) != n:
            return f"column {j} is not a permutation (not a Latin square)"
    for g in range(n):
        h = table[g].index(0)
        if table[h][g] != 0:
            return f"inverse axiom: {h} inverts {g} on the right only"
    if n <= 200:
        triples = ((a, b, c) for a in range(n) for b in range(n) for c in range(n))
    else:  # Light's test: every generator s in the middle, x-major
        gens = reference_right_generating_set(table)
        triples = ((x, s, y) for s in gens for x in range(n) for y in range(n))
    for a, b, c in triples:
        if table[table[a][b]][c] != table[a][table[b][c]]:
            return f"associativity fails at triple ({a},{b},{c})"
    return None


# -- F_p eigenspaces ------------------------------------------------------------


class _Rref:
    """Row-reduced spanning set over F_p that remembers how each row was
    built from the inserted vectors."""

    def __init__(self, p, width):
        self.p = p
        self.width = width
        self.rows = []
        self.pivots = []
        self.history = []
        self.n_inserted = 0

    def reduce(self, vec):
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

    def insert(self, vec):
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


def _mat_vec(M, v, p):
    return [sum(m * x for m, x in zip(row, v)) % p for row in M]


def _restricted_matrix(M, basis, p):
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


def _min_poly_of_vector(A, v, p):
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


def _poly_eval(poly, x, p):
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % p
    return acc


def _eigenvalues(A, p):
    d = len(A)
    roots = set()
    for start in range(d):
        v = [0] * d
        v[start] = 1
        poly = _min_poly_of_vector(A, v, p)
        roots.update(x for x in range(p) if _poly_eval(poly, x, p) == 0)
    return sorted(roots)


def _kernel_basis(A, lam, p):
    d = len(A)
    M = [[(A[i][j] - (lam if i == j else 0)) % p for j in range(d)] for i in range(d)]
    pivots = []
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


def reference_common_eigenvectors(mats, k, p):
    """Split F_p^k into the one-dimensional common eigenspaces: class
    matrices in order, each space split by ascending eigenvalue."""
    spaces = [[[1 if i == j else 0 for j in range(k)] for i in range(k)]]
    for M in mats:
        if all(len(s) == 1 for s in spaces):
            break
        nxt = []
        for basis in spaces:
            if len(basis) == 1:
                nxt.append(basis)
                continue
            A = _restricted_matrix(M, basis, p)
            covered = 0
            for lam in _eigenvalues(A, p):
                amb = []
                for coord in _kernel_basis(A, lam, p):
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


# -- the lift -------------------------------------------------------------------


def reference_class_multiplication(G, classes):
    k = classes.num_classes
    a = [[[0] * k for _ in range(k)] for _ in range(k)]
    for l, z in enumerate(classes.class_reps):
        for x in range(G.order):
            a[classes.class_of[x]][classes.class_of[G.mul(G.inv(x), z)]][l] += 1
    return a


def reference_character_table(G: FiniteGroup):
    """The whole per-element pipeline: classes by orbit BFS, eigenvectors by
    the list split, the lift by one pow per term; certified and ordered by
    the package's own _certified_table."""
    classes = reference_conjugacy_classes(G)
    k = classes.num_classes
    e = G.exponent
    p = dixon_prime(G.order, e)
    a = reference_class_multiplication(G, classes)
    mats = [[[a[i][j][l] for l in range(k)] for j in range(k)] for i in range(1, k)]
    eigvecs = reference_common_eigenvectors(mats, k, p)

    inv_class = [classes.class_of[G.inv(r)] for r in classes.class_reps]
    size_inv = [pow(s, p - 2, p) for s in classes.class_sizes]
    z = zring.root_of_unity(e, p)
    e_inv = pow(e, p - 2, p)
    power_class = []
    for rep in classes.class_reps:
        row = []
        x = 0
        for _ in range(e):
            row.append(classes.class_of[x])
            x = G.mul(x, rep)
        power_class.append(row)

    mults = np.zeros((k, k, e), dtype=np.int64)
    degrees = []
    for r, vec in enumerate(eigvecs):
        norm = pow(vec[0], p - 2, p)
        omega = [(v * norm) % p for v in vec]
        s = sum(omega[i] * omega[inv_class[i]] * size_inv[i] for i in range(k)) % p
        d2 = (G.order * pow(s, p - 2, p)) % p
        degree = next(d for d in range(1, isqrt(G.order) + 1) if d * d % p == d2)
        chi_mod = [(degree * omega[j] * size_inv[j]) % p for j in range(k)]
        for j in range(k):
            for t in range(e):
                acc = 0
                for s_idx in range(e):
                    acc += chi_mod[power_class[j][s_idx]] * pow(
                        z, (p - 1 - t) * s_idx % (p - 1), p
                    )
                mults[r, j, t] = (acc * e_inv) % p
        degrees.append(degree)

    P = zring.reduce(mults)
    order_idx = sorted(range(k), key=lambda i: _row_sort_key(P[i], degrees[i]))
    return _certified_table(G, classes, P[order_idx], [degrees[i] for i in order_idx], order_idx)


# -- certification and serialization ----------------------------------------------


def reference_certify(G: FiniteGroup, classes: ClassData, T: np.ndarray, degrees) -> None:
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
        max(sizes) * sum(zring.abs_row_sums(T)) ** 2 * reduction_gain(T.shape[-1])
    )
    T = T.astype(dtype)
    conj = conjugate(T)
    weighted = T * np.array(sizes, dtype=dtype)[None, :, None]
    checks = (
        ("row", convmatmul(weighted, conj.transpose(1, 0, 2)), [order] * k),
        ("column", convmatmul(T.transpose(1, 0, 2), conj), [order // s for s in sizes]),
    )
    for name, product, diagonal in checks:
        reduced = zring.reduce(product)
        expected = np.zeros_like(reduced)
        expected[range(k), range(k), 0] = diagonal
        bad = np.argwhere((reduced != expected).any(axis=-1))
        if len(bad):
            a, b = bad[0].tolist()
            raise LiftVerificationFailed(f"{name} orthogonality fails at ({a},{b})")


def reference_values(ct) -> tuple:
    """One Cyclotomic per entry of the power-basis coefficients."""
    d = euler_phi(ct.conductor)
    return tuple(
        tuple(Cyclotomic._raw(ct.conductor, c) for c in row)
        for row in ct.zvalues[..., :d].tolist()
    )


def reference_to_json(ct) -> dict:
    return {
        "group": ct.group.name,
        "order": ct.group.order,
        "conductor": ct.conductor,
        "class_sizes": list(ct.classes.class_sizes),
        "class_reps": [ct.group.element_labels[r] for r in ct.classes.class_reps],
        "degrees": list(ct.degrees),
        "values": [[v.to_json() for v in row] for row in reference_values(ct)],
    }


def reference_dump_cached(ct) -> dict:
    return {
        "conductor": ct.conductor,
        "degrees": list(ct.degrees),
        "irrep_order": list(ct.irrep_order),
        "values": [[v.to_json() for v in row] for row in reference_values(ct)],
    }


def reference_cached_coefficients(rows, k: int, m: int):
    """The (k, k, phi(m)) int64 coefficients of a cache blob's values, parsed
    with one Fraction per coefficient, or None where the loader refuses
    them; exceptions propagate as they would to the loader."""
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
    return P


# -- abelian groups -------------------------------------------------------------


def reference_abelian_basis(G: FiniteGroup) -> tuple[list[int], list[int]]:
    """chartable.abelian_basis one element at a time: the order of each
    element modulo the span by repeated products, the span by closure."""
    basis: list[int] = []
    orders: list[int] = []
    span = {0}
    while len(span) < G.order:
        best_g, best_t = None, 0
        for g in range(G.order):
            if g in span:
                continue
            t, x = 1, g
            while x not in span:
                x = G.mul(x, g)
                t += 1
            if t > best_t:
                best_g, best_t = g, t
        g, t = best_g, best_t
        if G.power(g, t) != 0:
            target = G.inv(G.power(g, t))
            fix = next((s for s in sorted(span) if G.power(s, t) == target), None)
            if fix is None:
                raise NonIntegerMultiplicity("abelian basis lift failed")
            g = G.mul(g, fix)
        basis.append(g)
        orders.append(t)
        span = {G.mul(s, G.power(g, a)) for s in span for a in range(t)}
    return basis, orders


def reference_abelian_pairing_exponents(G: FiniteGroup) -> list[list[int]]:
    """chartable.abelian_pairing_exponents with one product per element."""
    basis, orders = reference_abelian_basis(G)
    m = G.exponent
    coords: dict[int, tuple[int, ...]] = {}
    for mix in product(*(range(t) for t in orders)):
        x = 0
        for b, a in zip(basis, mix):
            x = G.mul(x, G.power(b, a))
        if x in coords:
            raise NonIntegerMultiplicity("abelian basis is not a direct decomposition")
        coords[x] = mix
    return [
        [sum(a * b * (m // t) for a, b, t in zip(coords[x], coords[y], orders)) % m for y in range(G.order)]
        for x in range(G.order)
    ]
