"""Independent references for the torus log grid in column order, the
generator matrix, the enumeration kernel, the census grouping and its
integer certificates, exponent maps between point sets and their action
on G, the census parameter sweeps, the lattice determinants and the
Hermite normal form, and the column partition of the T and P21 codes,
kept for tests only."""

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, permutations, product
from math import gcd

import numpy as np

from toric3.classify import EQUIVALENT, theorem_verdict, witness_equivalence
from toric3.codes import build_code
from toric3.errors import UnsupportedFamily
from toric3.galois import make_field
from toric3.polytopes import EMPTY_TETRA, SIG21, SIG22, SIG31, SIG32


def torus_logs(n1, m):
    """(m, n1^m) discrete logs of the torus points, one column per point,
    in lexicographic order: the column order the library documents for
    every generator matrix, built here independently of it."""
    return np.indices((n1,) * m).reshape(m, -1)


def torus_points(field, m):
    """The torus points (alpha^i, alpha^j, ...) as m-tuples of field
    elements, in the column order of ``torus_logs``."""
    return list(map(tuple, field.exp_table[torus_logs(field.q - 1, m)].T.tolist()))


def generator_matrix_reference(field, exponent_vectors):
    """uint8 G as one int64 product of the exponents with the torus log
    grid, reduced mod q-1: the build the per-axis log sums replaced."""
    E = np.array(exponent_vectors, dtype=np.int64)
    n1 = field.q - 1
    return field.exp_u8[E @ torus_logs(n1, E.shape[1]) % n1]


def projective_reference(code):
    """(max zeros, min weight, enumerator) with one codeword per projective
    class (first nonzero coefficient 1): the loop the orbit kernel replaced."""
    q, k = code.field.q, code.k
    mz, counts = 0, Counter({0: 1})
    for lead in range(k):
        tails = np.array(list(product(range(q), repeat=k - lead - 1)), dtype=np.int64)
        block = np.zeros((len(tails), k), dtype=np.int64)
        block[:, lead] = 1
        block[:, lead + 1 :] = tails.reshape(len(tails), k - lead - 1)
        zeros = np.count_nonzero(code._words(block) == 0, axis=1)
        mz = max(mz, int(zeros.max()))
        for w, c in Counter((code.n - zeros).tolist()).items():
            counts[w] += c * (q - 1)
    return mz, min(w for w in counts if w), dict(counts)


def all_pairs_classes(q, entries):
    """Class ids of census entries by the all-pairs loop the keyed census
    replaced: union-find over every pair that the witness or the theorem
    calls EQUIVALENT, classes numbered in order of their first entry.
    Each entry's own code is built from its polytope, since the census
    keeps one code per column key."""
    field = make_field(q)
    codes = [build_code(field, e.polytope) for e in entries]
    parent = list(range(len(entries)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in combinations(range(len(entries)), 2):
        a, b = entries[i], entries[j]
        verdicts = (
            witness_equivalence(codes[i], codes[j]),
            theorem_verdict(q, a.polytope, b.polytope),
        )
        if any(v.status == EQUIVALENT for v in verdicts):
            parent[find(i)] = find(j)
    roots = {}
    return [roots.setdefault(find(i), len(roots)) for i in range(len(entries))]


def exponent_perm(c1, A) -> np.ndarray:
    """perm[x] = the column A*x mod q-1 of c1's torus at every column x,
    as one int64 product of A with the torus log grid."""
    n1, m = c1.field.q - 1, c1.m
    z = np.array(A, dtype=np.int64) @ torus_logs(n1, m) % n1
    return np.ravel_multi_index(tuple(z), (n1,) * m)


def certificate_holds(c1, c2, A) -> bool:
    """True when x -> A*x mod q-1 is a bijection of the torus and
    G2 == G1[:, A*x]: an integer certificate checked on G."""
    perm = exponent_perm(c1, A)
    return len(np.unique(perm)) == c1.n and np.array_equal(c1.G[:, perm], c2.G)


def lattice_map(points_a, points_b, q):
    """An exponent map (A, b), p -> A p + b mod q-1 with gcd(det A, q-1) = 1,
    that sends the points points_a onto points_b, or None when there is
    none.  points_a must hold 0, e1 and e3 and a point off the plane y = 0,
    as every census polytope does (P22, P31 and P32 hold e2 itself).

    For each bijection of the points, b, A e1 and A e3 are fixed by the
    images of 0, e1 and e3, and A e2 ranges over the solutions of
    y * A e2 = f(p) - b - x * A e1 - z * A e3 mod q-1, p = (x, y, z) the
    point with the least gcd(y, q-1): e2 itself when it is there.  A comes
    back as a tuple of rows, b as a tuple, both reduced mod q-1.
    """
    n1 = q - 1
    src = [tuple(p) for p in points_a]
    i0, i1, i3 = (src.index(p) for p in ((0, 0, 0), (1, 0, 0), (0, 0, 1)))
    ip = min((i for i, p in enumerate(src) if p[1]), key=lambda i: gcd(src[i][1], n1))
    x, y, z = src[ip]
    g = gcd(y, n1)
    step = n1 // g
    lift = pow(y // g, -1, step) if step > 1 else 0
    offsets = step * np.indices((g,) * 3).reshape(3, -1).T
    points = np.array(src).T
    for img in map(np.array, permutations(np.array(points_b) % n1)):
        b, a1, a3 = img[i0], img[i1] - img[i0], img[i3] - img[i0]
        c = (img[ip] - b - x * a1 - z * a3) % n1  # y * A e2
        if (c % g).any():
            continue
        a2 = (c // g * lift + offsets) % n1
        A = np.stack(np.broadcast_arrays(a1, a2, a3), axis=2)  # one A per a2
        onto = ((A @ points).transpose(0, 2, 1) + b - img) % n1 == 0
        unit = np.gcd(np.cross(a2, a3) @ a1, n1) == 1
        for o in np.flatnonzero(onto.all(axis=(1, 2)) & unit):
            return tuple(map(tuple, (A[o] % n1).tolist())), tuple((b % n1).tolist())
    return None


def is_monomial_map(field, poly_from, poly_to, A, b) -> bool:
    """True iff the exponent map p -> A p + b (mod q-1) sends the points
    of poly_from onto those of poly_to, and on generator matrices is a
    column permutation times a diagonal: G_to with its rows permuted
    equals G_from[:, perm] * D.

    At the torus point x = alpha^u (columns in lex order of u),
    x^(A p + b) = (alpha^(A^T u))^p * alpha^(u.b), so perm[u] is the
    column of A^T u and D[u] = alpha^(u.b), the values of x^b.
    """
    n1 = field.q - 1
    A = np.asarray(A, dtype=np.int64)
    image = [tuple(int(c) % n1 for c in A @ p + b) for p in poly_from.points]
    target = [tuple(c % n1 for c in p) for p in poly_to.points]
    if sorted(image) != sorted(target):
        return False
    u = torus_logs(n1, 3)
    v = (A.T @ u) % n1
    perm = (v[0] * n1 + v[1]) * n1 + v[2]
    if not np.array_equal(np.sort(perm), np.arange(n1 ** 3)):
        return False  # det A is not a unit mod q-1
    diag = field.exp_table[(np.asarray(b) @ u) % n1]
    rows = [target.index(p) for p in image]
    g_from = build_code(field, poly_from).G
    g_to = build_code(field, poly_to).G
    return np.array_equal(field.mul_table[g_from[:, perm], diag], g_to[rows])


def dim4_parameter_sweep(q: int):
    """All (s, t) with 1 <= t <= q-2, gcd(s,t)=1, 0 <= s < t, plus (1,1)."""
    out = []
    for t in range(1, q - 1):
        for s in range(t):
            if gcd(s, t) == 1:
                out.append((s, t))
        if t == 1:
            out.append((1, 1))
    return out


def dim5_parameter_sweep(q: int):
    """Width-1 tuples fitting [-(q-2), q-2] exponents with t <= q-2."""
    out = []
    for t in range(1, q - 1):
        for s in range(t + 1):
            if 2 * s <= t and gcd(s, t) == 1:
                out.append((SIG21, s, t))
    out.append((SIG22, 0, 0))
    out.append((SIG31, 0, 0))
    for t in range(1, q - 1):
        for s in range(1, t + 1):
            if gcd(s, t) == 1:
                out.append((SIG32, s, t))
    return out


def det3_reference(r0, r1, r2) -> int:
    return (
        r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
        - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
        + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0])
    )


def det4_reference(rows) -> int:
    """Cofactor expansion of a 4x4 matrix along its first row."""
    total = 0
    for c in range(4):
        minor = [[row[j] for j in range(4) if j != c] for row in rows[1:]]
        term = rows[0][c] * det3_reference(*minor)
        total += term if c % 2 == 0 else -term
    return total


def affine_volumes_reference(points):
    """Signed minors of the homogeneous 4x5 coordinate matrix of five
    points, column k deleted for coefficient k, with the first nonzero
    entry made negative: the loop the orientation primitive replaced."""
    cols = [(1, p[0], p[1], p[2]) for p in points]
    coeffs = []
    for k in range(5):
        rows = [[cols[j][r] for j in range(5) if j != k] for r in range(4)]
        coeffs.append((1 if k % 2 == 0 else -1) * det4_reference(rows))
    first = next((c for c in coeffs if c != 0), 0)
    return tuple(-c for c in coeffs) if first > 0 else tuple(coeffs)


def volume_reference(p0, p1, p2, p3) -> int:
    return abs(det3_reference(*[tuple(a - b for a, b in zip(p, p0)) for p in (p1, p2, p3)]))


def hull_reference(v):
    """Lattice points of the tetrahedron on 4 vertices, None if they are
    coplanar: the nested bounding-box loop the comprehension replaced."""
    vol = det3_reference(*[tuple(a - b for a, b in zip(p, v[0])) for p in v[1:]])
    if vol == 0:
        return None
    inside = []
    los = [min(p[i] for p in v) for i in range(3)]
    his = [max(p[i] for p in v) for i in range(3)]
    for x in range(los[0], his[0] + 1):
        for y in range(los[1], his[1] + 1):
            for z in range(los[2], his[2] + 1):
                p = (x, y, z)
                ok = True
                for i in range(4):
                    repl = [p if j == i else v[j] for j in range(4)]
                    d = det3_reference(
                        *[tuple(a - b for a, b in zip(q, repl[0])) for q in repl[1:]]
                    )
                    if d * vol < 0:
                        ok = False
                        break
                if ok:
                    inside.append(p)
    return inside


def is_hermite_normal_form(basis) -> bool:
    """Triangular with positive pivots, each entry above a pivot in [0, pivot)."""
    return all(
        not any(b[:i]) and b[i] > 0 and all(0 <= row[i] < b[i] for row in basis[:i])
        for i, b in enumerate(basis)
    )


@dataclass(frozen=True)
class ColumnPartition:
    """Columns grouped by (x, z, y^t)."""

    t: int
    cells: dict


def column_partition(code) -> ColumnPartition:
    """Partition of the torus columns by first coordinate, last
    coordinate, and the t-th power of the middle one."""
    fam = code.polytope.family
    if fam not in (EMPTY_TETRA, SIG21):
        raise UnsupportedFamily(f"column partition is defined for T and P21, not {fam}")
    _, t = code.polytope.params
    exp, n1 = code.field.exp_table, code.field.q - 1
    # x = alpha^i, y = alpha^j, z = alpha^l per column, so y^t = alpha^(j*t)
    i, j, l = torus_logs(n1, code.m)
    keys = zip(exp[i].tolist(), exp[l].tolist(), exp[j * t % n1].tolist())
    cells: dict = {}
    for idx, key in enumerate(keys):
        cells.setdefault(key, []).append(idx)
    return ColumnPartition(t, cells)
