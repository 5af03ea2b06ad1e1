"""Toric code construction and its enumeration kernel.

A code is built from GF(q) and a lattice polytope P: the generator
matrix evaluates the monomial of each lattice point at every point of
the torus (F_q*)^m, where m is the length of the points as given.
Columns are ordered lexicographically by the exponent vector (i, j, ...)
of (alpha^i, alpha^j, ...), so matrices are reproducible across runs.

The zero-counting kernel, the only one in the library, works on every
torus dimension m and evaluates one polynomial per torus orbit.
Scaling the variables by a torus point and the polynomial by a unit
permutes the torus, so it keeps the zero count.  On the codewords whose
coefficients have support S, written in discrete logs, this action is
translation by the lattice L_S spanned by the columns of the
homogenized exponent matrix H_S (one row (1, p) per point p of S) and
by (q-1)Z^|S|.  The orbits are the cosets of L_S, so one codeword per
coset, weighted by the coset size, gives the exact weight enumerator
and distance; this is exact, not a heuristic.  The coset boxes of all
supports come from one integer recurrence over the support masks, on
orbit counts and gcds of maximal minors (``_box_sides``), not from a
lattice reduction per support.  The representatives of all supports
are numbered in one range, and each block of coefficients is built from
its index range alone, so a small code is evaluated in a single block.
Two exact checks guard the enumerator: it sums to q^k, and its first
moment is n(q-1)q^(k-1).

G and the codewords are uint8, one byte per field element.  A
representative's codeword is a sum of k terms alpha^d * G[r], or zero
off its support, and the digit d at point r stays below the largest box
side there, which is 1 at most points.  So a pass scales each row of G
once per digit into one table, and builds every block from row copies
of it; ``_words``, the evaluator of ``encode`` and ``count_zeros``,
gathers each term from the mul table instead.  Both sum through
``_add_words``: XOR in characteristic 2, a byte add reduced mod p in a
prime field and an add-table gather otherwise.  A word's zeros are
counted over the whole block for short words and row by row from
n = _ROW_COUNT_WIDTH on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    ExponentCollision, InternalCheckFailed, InvalidParams, ShapeMismatch, ZeroPolynomial
)
from .galois import FieldSpec
from .polytopes import LatticePolytope

# bounds a codeword block to _WORD_BYTES // (8 n) rows: its uint8 words take
# an eighth of the budget, the term and gather index of one addition a half.
# A pass adds its table of scaled rows of G, a fixed (1 + sum of top_r) * n
# bytes, top_r the largest box side at point r: at most 32.3 MB on q <= 64,
# for the segment E:1 at q=64 (tops 1, 1, 63, 63: 129 rows of 250 047 bytes)
_WORD_BYTES = 1 << 25
# from this word length on, a codeword's zeros are counted by one
# count_nonzero call per row, which beats one over the whole block: 0.35 vs
# 2.3 ms for 16 x 250 047; the two are even at n = 1000, and per row is
# 2.7x slower at n = 64 (measured on 2 cores)
_ROW_COUNT_WIDTH = 1024


@dataclass(frozen=True)
class DistanceResult:
    """Exact distance or closed interval [lower, upper]."""

    lower: int
    upper: int
    method: str  # "brute" | "formula" | "bound"

    def __post_init__(self):
        if not 0 < self.lower <= self.upper:
            raise InvalidParams(f"bad distance interval [{self.lower}, {self.upper}]")

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    @property
    def value(self) -> int:
        if not self.exact:
            raise InvalidParams("interval result has no single value")
        return self.lower

    def to_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "method": self.method,
        }


def build_generator_matrix(field: FieldSpec, exponent_vectors) -> np.ndarray:
    """k x (q-1)^m uint8 matrix of monomial evaluations on (F_q*)^m, m
    the common length of the exponent vectors; rows follow their order.

    The log of a monomial at a torus point is a sum of per-axis logs
    e_j * i_j mod q-1.  Those of the first m-1 axes are summed in uint16,
    one axis at a time; row c of a small (q-1, q-1) table per monomial
    holds the field values of the last axis shifted by c, so each block
    of q-1 columns of G is one row of that table, gathered by the sum.
    """
    n1 = field.q - 1
    lengths = {len(e) for e in exponent_vectors}
    if len(lengths) != 1 or 0 in lengths:
        raise ShapeMismatch("exponent vectors must be nonempty and of one length")
    reduced = [tuple(int(a) % n1 for a in e) for e in exponent_vectors]
    if len(set(reduced)) != len(reduced):
        raise ExponentCollision(
            "two lattice points are congruent mod q-1 componentwise; "
            "the polytope does not fit GF(%d)" % field.q
        )
    k, m = len(reduced), len(reduced[0])
    units = np.arange(n1, dtype=np.uint16)
    # steps[r, j, i] = e_rj * i mod q-1, the log of x_j^e_rj at alpha^i;
    # the product is below 63^2, so it fits uint16
    steps = np.array(reduced, dtype=np.uint16)[:, :, None] * units % n1
    # head[r, c]: log of the product of the first m-1 factors at the c-th
    # point of their torus, lexicographic
    head = _log_sums(steps[:, : m - 1], n1)
    shifted = field.exp_u8[(units[:, None] + steps[:, m - 1, None, :]) % n1]
    return shifted[np.arange(k)[:, None], head].reshape(k, -1)


def _log_sums(steps: np.ndarray, n1: int) -> np.ndarray:
    """Sums mod n1 over the torus, in column order, of the uint16 per-axis
    logs steps[..., j, :] (each below n1): shape (..., n1^m), m axes."""
    acc = np.zeros((*steps.shape[:-2], 1), dtype=np.uint16)
    for j in range(steps.shape[-2]):
        acc = (acc[..., :, None] + steps[..., j, None, :]).reshape(*acc.shape[:-1], -1)
        # a sum s < 2(q-1) wraps below zero past s when s < q-1
        np.minimum(acc, acc - np.uint16(n1), out=acc)
    return acc


def _torus_logs(n1: int, m: int) -> np.ndarray:
    """(m, n1^m) discrete logs of the torus points, one column per
    point, lexicographic: the column order of every generator matrix."""
    return np.indices((n1,) * m).reshape(m, -1)


class ToricCode:
    """Evaluation code C_P over GF(q); immutable after construction."""

    def __init__(self, field: FieldSpec, polytope: LatticePolytope):
        self.field = field
        self.polytope = polytope
        self.k = polytope.k
        self.G = build_generator_matrix(field, polytope.points)
        self.G.setflags(write=False)
        self.m = len(polytope.points[0])
        self.n = self.G.shape[1]

    def columns(self):
        """Torus points as m-tuples, in column order."""
        points = self.field.exp_table[_torus_logs(self.field.q - 1, self.m)]
        return list(map(tuple, points.T.tolist()))

    def _coefficients(self, u) -> np.ndarray:
        """u as a (1, k) block, after checking its length and entries."""
        u = list(u)
        if len(u) != self.k:
            raise ShapeMismatch(f"coefficient vector must have length {self.k}")
        if not all(isinstance(c, (int, np.integer)) and 0 <= c < self.field.q for c in u):
            raise InvalidParams(f"coefficients must be integers in range({self.field.q}); got {u}")
        return np.array([u], dtype=np.int64)

    def encode(self, u) -> np.ndarray:
        """Codeword uG as a length-n uint8 vector of field values."""
        return self._words(self._coefficients(u))[0]

    def _words(self, block) -> np.ndarray:
        """uint8 codewords uG, one row per row u of a (b, k) coefficient
        block with entries in range(q)."""
        f = self.field
        words = f.mul_u8[block[:, 0]][:, self.G[0]]
        for r in range(1, self.k):
            words = _add_words(f, words, f.mul_u8[block[:, r]][:, self.G[r]])
        return words

    def count_zeros(self, u) -> int:
        """Number of torus points at which the polynomial with
        coefficients u vanishes."""
        block = self._coefficients(u)
        if not block.any():
            raise ZeroPolynomial("the zero polynomial vanishes everywhere")
        return int(np.count_nonzero(self._words(block) == 0))

    def _zero_counts(self):
        """Yield (zeros, classes) arrays, one entry per torus orbit: the
        zero count of its representative and its number of projective
        classes.

        The representatives of all supports are numbered in one range:
        supports in mask order, each support's box in C order, its sides
        from ``_box_sides`` for all supports at once.  A block
        is built from its index range alone: a row's support is found on
        the cumulative orbit counts, its coefficients are alpha to the
        power of its mixed-radix digits, zero off the support.

        The term of point r is one of few rows, since its digit stays
        below top_r, the largest side at r over all supports.  One table,
        built once per pass, holds a zero row, the term of a point off the
        support, and then alpha^d * G[r] for d < top_r, point by point; a
        block is k row copies from it, summed.
        """
        f, k, n1 = self.field, self.k, self.field.q - 1
        on = (np.arange(1, 2**k)[:, None] >> np.arange(k) & 1).astype(np.uint8)
        sides = _box_sides(self.polytope.points, n1)
        tops = sides.max(axis=0)
        first = np.cumsum(tops) - tops + 1  # the table row of G[r] itself
        table = np.zeros((1 + int(tops.sum()), self.n), dtype=np.uint8)
        for g, top, row in zip(self.G, tops, first):
            if top == 1:  # alpha^0 * G[r] is G[r] itself
                table[row] = g
            else:
                # G's entries index the q columns, so "clip" never acts; it
                # lets take write into the table with no buffered copy
                np.take(f.mul_u8[f.exp_u8[:top]], g, 1, table[row : row + top], "clip")
        orbits = sides.prod(axis=1)
        classes = n1 ** (on.sum(axis=1, dtype=np.int64) - 1) // orbits
        strides = orbits[:, None] // np.cumprod(sides, axis=1)
        ends = np.cumsum(orbits)
        starts, total = ends - orbits, int(ends[-1])
        rows = max(1, _WORD_BYTES // (8 * self.n))
        for lo in range(0, total, rows):
            index = np.arange(lo, min(lo + rows, total))
            s = np.searchsorted(ends, index, side="right")  # each row's support
            digits = (index - starts[s])[:, None] // strides[s] % sides[s]
            rank = (digits + first) * on[s]  # each term's table row
            words = table[rank[:, 0]]
            for r in range(1, k):
                words = _add_words(f, words, table[rank[:, r]])
            if self.n < _ROW_COUNT_WIDTH:
                zeros = np.count_nonzero(words == 0, axis=1)
            else:
                zeros = self.n - np.array([np.count_nonzero(w) for w in words])
            yield zeros, classes[s]

    @cached_property
    def _invariants(self) -> tuple[int, dict[int, int]]:
        """(minimum distance, weight enumerator) from one kernel pass.

        Lazy, so a code is only enumerated when asked.  Every projective
        class contributes q-1 codewords of equal weight.  Two exact checks:
        the enumerator sums to q^k, and its first moment is n(q-1)q^(k-1),
        since every column of G is nonzero and so each coordinate is
        nonzero on (q-1)q^(k-1) codewords.
        """
        q, k, n = self.field.q, self.k, self.n
        per_weight = np.zeros(n + 1, dtype=np.int64)
        # weights in order of first appearance, the enumerator's key order
        seen = {0: None}
        for zeros, classes in self._zero_counts():
            weights = n - zeros
            np.add.at(per_weight, weights, classes)
            seen.update(dict.fromkeys(weights.tolist()))
        counts = {w: int(per_weight[w]) * (q - 1) for w in seen}
        counts[0] += 1  # the zero codeword
        if sum(counts.values()) != q**k:
            raise InternalCheckFailed(
                f"weight enumerator sums to {sum(counts.values())}, not q^k = {q**k}"
            )
        moment = sum(w * c for w, c in counts.items())
        if moment != n * (q - 1) * q ** (k - 1):
            raise InternalCheckFailed(
                f"weight enumerator has first moment {moment}, "
                f"not n(q-1)q^(k-1) = {n * (q - 1) * q ** (k - 1)}"
            )
        return min(w for w in seen if w), counts

    def max_zeros(self) -> int:
        """max Z(f) over nonzero f in the span of P's monomials: n - d."""
        return self.n - self._invariants[0]

    def min_distance_brute(self) -> DistanceResult:
        """Exact minimum distance, the least nonzero weight of the orbit
        enumeration, whose enumerator passed its sum and moment checks."""
        d = self._invariants[0]
        return DistanceResult(d, d, "brute")

    def weight_enumerator(self) -> dict[int, int]:
        """weight -> count over all q^k codewords, as a new dict."""
        return dict(self._invariants[1])

    def column_tuples(self) -> np.ndarray:
        """Columns of G as the rows of a read-only (n, k) view, no copy."""
        return self.G.T

    @cached_property
    def _column_key(self) -> tuple[tuple[int, ...], ...]:
        """Hermite normal form of the lattice E*Z^m + (q-1)*Z^k, E the
        points as rows.  The logs of G's columns run over its residues mod
        q-1, each equally often, so keys are equal iff column multisets are."""
        return tuple(map(tuple, _orbit_box(self.polytope.points, self.field.q - 1)))

    @cached_property
    def _tracked_basis(self) -> tuple[list, list]:
        """(basis, kernel) of the exponent lattice, reduced once for a witness.

        One ``_orbit_box`` of the points over the m x m identity reduces
        E*Z^m + (q-1)*Z^k while each generator carries an exponent vector
        c mod q-1.  Its first k pivots give the pairs (b, c) of basis, b
        triangular with b = E*c mod q-1.  Its last m pivots are zero on E's
        rows; their c, nonnegative with pivots d_j dividing q-1, form the
        triangular basis kernel of ker(E mod q-1) + (q-1)*Z^m.
        """
        k, m = self.k, self.m
        eye = [[int(i == j) for j in range(m)] for i in range(m)]
        pivots = _orbit_box([*self.polytope.points, *eye], self.field.q - 1)
        return [(b[:k], b[k:]) for b in pivots[:k]], [g[k:] for g in pivots[k:]]

    def dump_log_matrix(self) -> list[list[int]]:
        """Rows of discrete-log indices; every entry of G is a unit."""
        return self.field.log_table[self.G].tolist()


def _add_words(field: FieldSpec, words: np.ndarray, term: np.ndarray) -> np.ndarray:
    """words + term in GF(q), entrywise on two uint8 arrays of one shape.
    The sum overwrites words, except where it is read off the add table."""
    if field.p == 2:
        return np.bitwise_xor(words, term, out=words)
    if field.m == 1:
        # the sum s <= 2p - 2 fits a byte; s - p wraps past s when
        # s < p <= 61, so the minimum of the two is s mod p
        words += term
        return np.minimum(words, words - np.uint8(field.p), out=words)
    # a + b is entry a*q + b < 4096 of the flattened add table
    index = np.multiply(words, field.q, dtype=np.uint16)
    index += term
    return field.add_u8.reshape(-1)[index]


def _box_sides(points, n1: int) -> np.ndarray:
    """(2^k - 1, k) table: row S-1 holds the orbit box sides of support
    mask S, 1 off S; their product N(S) is the number of torus orbits.

    N(S) is the index of L_S = H_S*Z^(m+1) + n1*Z^|S| in Z^|S|, H_S one
    row (1, p) per point p of S: the gcd of the maximal minors of
    [H_S | n1*I].  A minor with the identity column of i in S is n1 times
    a maximal minor for S - {i}, and the others are the maximal minors
    of H_S, whose gcd M(S) is 0 past m+1 points.  So

        N(S) = gcd(M(S), n1 * gcd over i in S of N(S - {i})),  N({}) = 1,

    which one pass per point i over all masks unrolls, each mask with
    point i taking n1 * N of its mask without it.  The maximal minors of
    H_S are the wedge of its rows: those of S without its last point,
    expanded by Laplace along that row.  Reducing H mod n1 keeps L_S, and
    minors mod n1^(m+1) keep each term's gcd with n1^|S|, so whatever the
    coordinates, the int64 values stay below (m+1)*n1^(m+2) and n1^k:
    exact for every code whose G and pass fit in memory and time.

    The sides come from a prefix lemma.  A triangular basis of L_S (b_i
    zero before i, as ``_orbit_box`` gives) projects onto S's first j
    points as a triangular basis with the first j sides on its diagonal,
    and that projection of L_S is the lattice of the prefix support.  So
    the side at point i is N(S & {0..i}) // N(S & {0..i-1}), the diagonal
    of ``_orbit_box`` for H_S without a reduction per support.
    """
    k, cols = len(points), len(points[0]) + 1
    h = np.array([(1, *p) for p in points], dtype=np.int64) % n1
    # steps[i]: the wedge with row (1, p_i), as a matrix on the minors
    steps = (h @ _wedge_steps(cols).reshape(cols, -1)).reshape(k, 2**cols, 2**cols)
    modulus = n1**cols
    minors = np.zeros((2**k, 2**cols), dtype=np.int64)
    minors[0, 0] = 1
    for i, step in enumerate(steps):
        minors[1 << i : 2 << i] = minors[: 1 << i] @ step % modulus
    size = (np.arange(2**k)[:, None] >> np.arange(k) & 1).sum(axis=1, dtype=np.int64)
    index = np.gcd(np.gcd.reduce(minors, axis=1), n1**size)
    for i in range(k):
        pairs = index.reshape(-1, 2, 1 << i)  # [:, 1] has point i, [:, 0] not
        pairs[:, 1] = np.gcd(pairs[:, 1], n1 * pairs[:, 0])
    masks = np.arange(1, 2**k)[:, None]
    prefix = (2 << np.arange(k)) - 1
    return index[masks & prefix] // index[masks & prefix >> 1]


@lru_cache(maxsize=None)
def _wedge_steps(cols: int) -> np.ndarray:
    """Read-only (cols, 2^cols, 2^cols) int64: entry [c, A, B] is the sign
    of e_A ^ e_c = +-e_B, column subsets as masks, 0 unless B = A + {c}.
    The sign is -1 to the number of elements of A above c."""
    wedge = np.zeros((cols, 2**cols, 2**cols), dtype=np.int64)
    for c in range(cols):
        for a in range(2**cols):
            if not a >> c & 1:
                wedge[c, a, a | 1 << c] = (-1) ** bin(a >> c).count("1")
    wedge.setflags(write=False)
    return wedge


def _orbit_box(rows, n1: int) -> list[list[int]]:
    """Hermite normal form b of the lattice spanned by the columns of the
    integer matrix ``rows`` (r rows) and by n1*Z^r: b[i] zero before i,
    pivot h_i = b[i][i] > 0, and 0 <= b[j][i] < h_i in every earlier row j.

    The box 0 <= y_i < h_i holds exactly one point of each coset of the
    lattice in Z^r, so prod(h) is its index, and each h_i divides n1.
    Integer echelon reduction: per column, Euclid on the remaining
    generators until one is nonzero there, the pivot b[i], then its sign
    and the entries above it.  The form is unique to the lattice.  Its
    callers are ``ToricCode._column_key`` and ``ToricCode._tracked_basis``;
    the kernel's boxes come from ``_box_sides``, which tests check against it.
    """
    r = len(rows)
    gens = [list(col) for col in zip(*rows)]
    gens += [[n1 if i == j else 0 for j in range(r)] for i in range(r)]
    pivots = []
    for col in range(r):
        while len(live := [g for g in gens if g[col]]) > 1:
            pivot = min(live, key=lambda g: abs(g[col]))
            for g in live:
                if g is not pivot:
                    c = g[col] // pivot[col]
                    g[:] = [a - c * b for a, b in zip(g, pivot)]
        b = live[0] if live[0][col] > 0 else [-a for a in live[0]]
        for row in pivots:
            if c := row[col] // b[col]:
                row[:] = [a - c * e for a, e in zip(row, b)]
        pivots.append(b)
        gens = [g for g in gens if g is not live[0]]
    return pivots


def build_code(field: FieldSpec, polytope: LatticePolytope) -> ToricCode:
    return ToricCode(field, polytope)

