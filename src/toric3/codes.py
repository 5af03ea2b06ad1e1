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
lattice reduction per support, for a whole stack of codes at once.

The kernel runs on a batch of codes that share q, k and m, and
``_fill_invariants`` is its only entry: a census enumerates all the codes
it keeps together, and a code asked alone runs ``_fill_invariants([code])``.
A code builds its G only when G is read, and no pass reads it: a pass
writes its table from its codes' points and frees it when it ends, so a
census holds the table of one batch at a time.  The representatives of all
(code, support) pairs are numbered in one range, and each block of
coefficients is built from its index range alone, so the small codes of a
census are evaluated in a single block, and each block is one accumulation
into the batch's counts by weight.  Each code's enumerator is keyed by
ascending weight, and two exact checks guard it: it sums to q^k, and its
first moment is n(q-1)q^(k-1).

A code's column key, the Hermite form ``_orbit_box`` of its points' lattice
mod q-1, groups codes by column multiset before any G is built.

G and the codewords are uint8, one byte per field element.  A
representative's codeword is a sum of k terms alpha^d * G[r], or zero
off its support, and the digit d at point r stays below the largest box
side there, which is 1 at most points.  So a pass writes each term it
needs once into one table, in one ``_monomial_rows``, and builds every
block from row copies of it; ``_words``, the evaluator of ``encode`` and
``count_zeros``, gathers each term from the mul table instead.  Both sum
through one adder, ``_add_words``, which reads no table: XOR in
characteristic 2 and a byte add reduced mod p in a prime field.  GF(9),
GF(25), GF(27) and GF(49) are summed in another layout (``_layout``),
one base-p digit per nibble, uint16 for the three digits of GF(27), and
each nibble is reduced as a prime field's byte is; ``_words`` reads its
sums back to the field's bytes.  Zero is the word 0 in every layout, so
the kernel's zero counts are those of the field's own bytes.  A word's
zeros are counted over the whole block for short words and row by row
from n = _ROW_COUNT_WIDTH on.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    ExponentCollision, InternalCheckFailed, InvalidParams, ShapeMismatch, ZeroPolynomial
)
from .galois import FieldSpec
from .polytopes import LatticePolytope

# bounds a codeword block to _WORD_BYTES // (8 n w) rows, w the bytes of a
# word entry (2 at q = 27, else 1): its words take an eighth of the budget.
# Blocks this small fit the cache: a pass at q=64 takes 0.03-0.05 s for
# P32(1,1) in 2-row blocks against 0.05-0.08 s in 16-row blocks (2 cores).
# A pass adds its table of monomial rows, a fixed (1 + sum of top_r) * n w
# bytes for one code, top_r the largest box side at point r: at most 32.3 MB
# on q <= 64, for the segment E:1 at q=64 (tops 1, 1, 63, 63: 129 rows of
# 250 047 bytes)
_WORD_BYTES = 1 << 22
# bounds a batch of codes enumerated in one pass, unless one code passes it
# alone: its table (one zero row and every code's sum of top_r rows of n w
# bytes) and its int64 weight counts (n + 1 per code).  A census batch holds
# all the kept codes up to q = 29 dim 4 and q = 16 dim 5, 14 or 16 of them at
# q = 25 dim 5, 2 to 6 at q = 27 dim 5 and 1 from q = 47 dim 5 on
_BATCH_BYTES = 1 << 23
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
    the common length of the exponent vectors; rows follow their order:
    ``_monomial_rows`` at digit 0, in the field's own bytes."""
    points = _reduced_points(field, exponent_vectors)
    G = np.empty((len(points), (field.q - 1) ** len(points[0])), dtype=np.uint8)
    return _monomial_rows(points, 0, field.exp_u8, G)


def _monomial_rows(points, digits, words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill and return ``out``: row i is alpha^d_i times the monomial of
    points[i], reduced mod q-1, at every torus point in column order, with
    alpha^j written as words[j]; d_i < q-1 is digits[i], or ``digits``.
    ``words`` is any table indexed by log: the field's bytes for G, those
    or their ``_layout`` for a pass's table, and the logs themselves,
    arange(q-1), for the witness's permutation x -> A*x, whose points are
    the rows of A.

    The log of a monomial at a torus point is a sum of per-axis logs
    e_j * i_j mod q-1.  Those of the first m-1 axes are summed in uint16,
    one axis at a time; row c of a small (q-1, q-1) table per row holds
    the words of the last axis shifted by c + d_i, so each block of q-1
    columns of out is one row of that table, gathered by the sum.
    """
    n1 = len(words)
    units = np.arange(n1, dtype=np.uint16)
    # steps[i, j, a] = e_ij * a mod q-1, the log of x_j^e_ij at alpha^a;
    # the product is below 63^2, so it fits uint16
    steps = np.array(points, dtype=np.uint16)[..., None] * units % n1
    rows, m, _ = steps.shape
    # head[i, c]: log of the product of the first m-1 factors at the c-th
    # point of their torus, lexicographic
    head = np.zeros((rows, 1), dtype=np.uint16)
    for j in range(m - 1):
        head = (head[:, :, None] + steps[:, j, None, :]).reshape(rows, -1)
        # a sum s < 2(q-1) wraps below zero past s when s < q-1
        np.minimum(head, head - np.uint16(n1), out=head)
    last = steps[:, m - 1] + np.asarray(digits, dtype=np.uint16).reshape(-1, 1)
    shifted = words[(units[:, None] + last[:, None, :]) % n1].reshape(-1, n1)
    # the index is in range, so "clip" never acts; it lets take write into
    # out with no buffered copy.  The int64 index is 8 / (q-1) bytes a word
    index = head + np.arange(0, rows * n1, n1)[:, None]
    np.take(shifted, index, 0, out.reshape(rows, -1, n1), "clip")
    return out


def _reduced_points(field: FieldSpec, exponent_vectors) -> list[tuple[int, ...]]:
    """The exponent vectors mod q-1, after checking that they are nonempty,
    of one length, distinct mod q-1 and integers to ``operator.index``."""
    n1 = field.q - 1
    vectors = tuple(exponent_vectors)  # read once: the length check would use up a generator
    lengths = {len(e) for e in vectors}
    if len(lengths) != 1 or 0 in lengths:
        raise ShapeMismatch("exponent vectors must be nonempty and of one length")
    try:
        reduced = [tuple([operator.index(a) % n1 for a in e]) for e in vectors]
    except TypeError:
        raise InvalidParams(f"exponents must be integers; got {vectors}") from None
    if len(set(reduced)) != len(reduced):
        raise ExponentCollision(
            "two lattice points are congruent mod q-1 componentwise; "
            "the polytope does not fit GF(%d)" % field.q
        )
    return reduced


class ToricCode:
    """Evaluation code C_P over GF(q); immutable after construction."""

    def __init__(self, field: FieldSpec, polytope: LatticePolytope):
        self.field = field
        self.polytope = polytope
        self.k = polytope.k
        self._points = _reduced_points(field, polytope.points)  # what a pass reads
        self.m = len(self._points[0])
        self.n = (field.q - 1) ** self.m
        self._enumerated = None  # (d, enumerator), set by _fill_invariants

    @cached_property
    def G(self) -> np.ndarray:
        """The read-only k x n generator matrix, built on first read."""
        G = build_generator_matrix(self.field, self.polytope.points)
        G.setflags(write=False)
        return G

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
        block with entries in range(q), summed in the field's word format
        and read back from a ``_layout`` through its inverse."""
        f, layout = self.field, _layout(self.field)
        products = f.mul_u8 if layout is None else layout[f.mul_u8]
        words = products[block[:, 0]][:, self.G[0]]
        for r in range(1, self.k):
            words = _add_words(f, words, products[block[:, r]][:, self.G[r]])
        if layout is None:
            return words
        elements = np.zeros(int(layout.max()) + 1, dtype=np.uint8)
        elements[layout] = np.arange(f.q)
        return elements[words]

    def count_zeros(self, u) -> int:
        """Number of torus points at which the polynomial with
        coefficients u vanishes."""
        block = self._coefficients(u)
        if not block.any():
            raise ZeroPolynomial("the zero polynomial vanishes everywhere")
        return int(np.count_nonzero(self._words(block) == 0))

    @property
    def _invariants(self) -> tuple[int, dict[int, int]]:
        """(minimum distance, weight enumerator), from the kernel pass of
        the batch the code was first enumerated in: ``_fill_invariants([self])``
        unless the census gave it to ``_fill_invariants`` with others.  Lazy,
        so a code is only enumerated when asked."""
        if self._enumerated is None:
            _fill_invariants([self])
        return self._enumerated

    def max_zeros(self) -> int:
        """max Z(f) over nonzero f in the span of P's monomials: n - d."""
        return self.n - self._invariants[0]

    def min_distance_brute(self) -> DistanceResult:
        """Exact minimum distance, the least nonzero weight of the orbit
        enumeration, whose enumerator passed its sum and moment checks."""
        d = self._invariants[0]
        return DistanceResult(d, d, "brute")

    def weight_enumerator(self) -> dict[int, int]:
        """weight -> count over all q^k codewords, as a new dict in
        ascending weight."""
        return dict(self._invariants[1])

    def column_tuples(self) -> np.ndarray:
        """Columns of G as the rows of a read-only (n, k) view, no copy."""
        return self.G.T

    @cached_property
    def _tracked_basis(self) -> tuple[list, list]:
        """(basis, kernel) of the exponent lattice, reduced once for the
        exponent maps of ``classify._unit_exponent_map``.

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


def _fill_invariants(codes) -> None:
    """Set (minimum distance, weight enumerator) on each of a nonempty
    list of codes that share one field, k and m.

    The codes are cut into batches, in order, where a batch's table of
    monomial rows and weight counts would pass _BATCH_BYTES (a code that
    passes it alone is a batch alone): ``_box_sides``, stacked over the
    most codes a batch can hold at a time, gives each code's size once,
    and every batch is cut from their cumulative sum.  Each batch is one
    kernel pass, ``_zero_counts``, on the codes' points as ``ToricCode``
    reduced them, that adds every block's codewords into one int64
    (codes, n + 1) array of counts by weight: each projective class
    contributes q-1 codewords of equal weight.  The zero codeword is added
    to weight 0, so that a nonzero codeword of weight 0 still fails the
    sum check.  Two exact checks per code: the enumerator sums to q^k, and
    its first moment is n(q-1)q^(k-1), since every column of G is nonzero
    and so each coordinate is nonzero on (q-1)q^(k-1) codewords.  The
    enumerator's keys are its weights in ascending order, so the distance
    is the second.
    """
    field, k, m, n = codes[0].field, codes[0].k, codes[0].m, codes[0].n
    q = field.q
    if any((c.field.q, c.k, c.m) != (q, k, m) for c in codes):
        raise ShapeMismatch("a kernel batch needs codes of one field, k and m")
    row = n if (layout := _layout(field)) is None else n * layout.itemsize  # a table row's bytes
    # a code's table rows and weight counts take at least this many bytes,
    # with every top 1, so a batch holds at most `most` codes
    most = max(1, (_BATCH_BYTES - row) // (k * row + 8 * (n + 1)))
    points = [c._points for c in codes]
    sides = np.concatenate([_box_sides(points[lo : lo + most], q - 1)
                            for lo in range(0, len(codes), most)])
    # start[i]: the bytes of the codes before code i; a batch adds a zero row
    start = np.cumsum([0, *(sides.max(axis=1).sum(axis=1) * row + 8 * (n + 1))])
    lo = 0
    while lo < len(codes):
        hi = max(lo + 1, int(np.searchsorted(start, start[lo] + _BATCH_BYTES - row, "right")) - 1)
        per_weight = np.zeros((hi - lo, n + 1), dtype=np.int64)
        for c, zeros, classes in _zero_counts(field, points[lo:hi], sides[lo:hi]):
            np.add.at(per_weight, (c, n - zeros), classes * (q - 1))
        per_weight[:, 0] += 1  # the zero codeword
        for code, counted in zip(codes[lo:hi], per_weight):
            weights = np.flatnonzero(counted != 0)  # a bool scan beats an int64 one
            counts = dict(zip(weights.tolist(), counted[weights].tolist()))
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
            code._enumerated = (int(weights[1]), counts)
        lo = hi
        del per_weight, counted  # before the next batch allocates its own


def _zero_counts(field: FieldSpec, points, sides: np.ndarray):
    """Yield (c, zeros, classes) per block for one pass over a batch of
    codes that share one field, k and m, given as their points, each code
    k m-tuples reduced mod q-1: three arrays with one entry per torus
    orbit in the block, the index in the batch of the orbit's code, the
    zero count of the orbit's representative and its number of projective
    classes.  ``sides`` is the stacked ``_box_sides`` of the codes' points.

    The representatives of all (code, support) pairs are numbered in one
    range: codes in batch order, each code's supports in mask order, each
    support's box in C order.  A block is built from its index range
    alone: a row's pair is found on the cumulative orbit counts, its
    coefficients are alpha to the power of its mixed-radix digits, zero
    off the support, so a block may hold rows of several codes.

    The term of point r of code c is one of few rows, since its digit
    stays below top_cr, the largest side at r over the code's supports.
    One table, built once per pass and freed with it, holds one zero row,
    the term of a point off the support, and then alpha^d * G_c[r] at row
    first_cr + d for d < top_cr, code by code and point by point, all
    written by one ``_monomial_rows``.  A block is k row copies from it,
    summed.  In GF(9), GF(25), GF(27) and GF(49) the table is in the
    field's ``_layout``, the format ``_add_words`` adds with no gather.
    """
    k, m = len(points[0]), len(points[0][0])
    n1 = field.q - 1
    n = n1**m
    on = _mask_tables(k)[0][1:]  # the points of each support
    tops = sides.max(axis=1).ravel()  # per (code, point), in batch order
    first = np.cumsum(tops) - tops + 1  # the table row of alpha^0 * G_c[r]
    # the word of alpha^j at j
    powers = field.exp_u8 if (layout := _layout(field)) is None else layout[field.exp_u8]
    table = np.zeros((1 + int(tops.sum()), n), dtype=powers.dtype)
    # row first_cr + d: point r of code c at digit d
    _monomial_rows(np.repeat(np.reshape(points, (-1, m)), tops, 0),
                   np.arange(1, len(table)) - np.repeat(first, tops), powers, table[1:])
    # per (code, support) pair, code-major: a term's table row at digit 0,
    # row 0 off the support, where the digit is 0 too
    pair_first = (first.reshape(-1, 1, k) * on).reshape(-1, k)
    pair_sides = sides.reshape(-1, k)
    orbits = sides.prod(axis=2)
    classes = (n1 ** (on.sum(axis=1, dtype=np.int64) - 1) // orbits).ravel()
    orbits = orbits.ravel()
    strides = orbits[:, None] // np.cumprod(pair_sides, axis=1)
    ends = np.cumsum(orbits)
    starts, total = ends - orbits, int(ends[-1])
    rows = max(1, _WORD_BYTES // (8 * n * table.itemsize))
    for lo in range(0, total, rows):
        hi = min(lo + rows, total)
        index = np.arange(lo, hi)
        pair = np.searchsorted(ends, index, side="right")  # each row's pair
        digits = (index - starts[pair])[:, None] // strides[pair] % pair_sides[pair]
        rank = digits + pair_first[pair]  # each term's table row
        words = table[rank[:, 0]]
        for r in range(1, k):
            words = _add_words(field, words, table[rank[:, r]])
        if n < _ROW_COUNT_WIDTH:
            zeros = np.count_nonzero(words == 0, axis=1)
        else:
            zeros = n - np.array([np.count_nonzero(w) for w in words])
        yield pair // len(on), zeros, classes[pair]


@lru_cache(maxsize=None)
def _layout(field: FieldSpec) -> np.ndarray | None:
    """The word that ``_add_words`` adds for each element of GF(p^m), p odd
    and m > 1: the sum of d_i * 16^i over its base-p digits d_i, one digit
    per nibble, so zero is still 0; uint8 for m = 2 and uint16 for q = 27.
    None for the other fields, whose words are their elements."""
    if field.p == 2 or field.m == 1:
        return None
    elements = np.arange(field.q)
    words = sum(elements // field.p**i % field.p << 4 * i for i in range(field.m))
    words = words.astype(np.uint8 if field.m == 2 else np.uint16)
    words.setflags(write=False)
    return words


def _add_words(field: FieldSpec, words: np.ndarray, term: np.ndarray) -> np.ndarray:
    """words + term in GF(q), entrywise on two arrays of one shape in the
    field's ``_layout``, or its bytes where that is None; the sum may
    overwrite words.  XOR in characteristic 2; otherwise each base-p digit,
    a byte in a prime field and a nibble in a layout, sums to s <= 2p - 2,
    which carries into no other digit, and s - p, shifted to the digit,
    wraps past s when s < p <= 61, so the minimum of the two is s mod p."""
    if field.p == 2:
        return np.bitwise_xor(words, term, out=words)
    words += term
    one = words.dtype.type
    if field.m == 1:
        return np.minimum(words, words - one(field.p), out=words)
    low = words & one(15)
    np.minimum(low, low - one(field.p), out=low)
    for shift in range(4, 4 * field.m, 4):
        digit = words & one(15 << shift)
        np.minimum(digit, digit - one(field.p << shift), out=digit)
        low |= digit
    return low


def _box_sides(points, n1: int) -> np.ndarray:
    """(..., 2^k - 1, k) table: row S-1 holds the orbit box sides of support
    mask S, 1 off S; their product N(S) is the number of torus orbits.
    ``points`` is (..., k, m): one code's k points, or a stack of codes'
    with the same k and m, each leading index one code.

    N(S) is the index of L_S = H_S*Z^(m+1) + n1*Z^|S| in Z^|S|, H_S one
    row (1, p) per point p of S: the gcd of the maximal minors of
    [H_S | n1*I].  A minor with the identity column of i in S is n1 times
    a maximal minor for S - {i}, and the others are the maximal minors
    of H_S, whose gcd M(S) is 0 past m+1 points.  So

        N(S) = gcd(M(S), n1 * gcd over i in S of N(S - {i})),  N({}) = 1,

    which one pass per point i over all masks unrolls, each mask with
    point i taking n1 * N of its mask without it.  The maximal minors of
    H_S are the wedge of its rows: those of S without its last point,
    expanded by Laplace along that row, one matmul per point for the whole
    stack.  Reducing H mod n1 keeps L_S, and minors mod n1^(m+1) keep each
    term's gcd with n1^|S|, so whatever the coordinates, the int64 values
    stay below (m+1)*n1^(m+2) and n1^k: exact for every code whose G and
    pass fit in memory and time.

    The sides come from a prefix lemma.  A triangular basis of L_S (b_i
    zero before i, as ``_orbit_box`` gives) projects onto S's first j
    points as a triangular basis with the first j sides on its diagonal,
    and that projection of L_S is the lattice of the prefix support.  So
    the side at point i is N(S & {0..i}) // N(S & {0..i-1}), the diagonal
    of ``_orbit_box`` for H_S without a reduction per support.
    """
    e = np.asarray(points, dtype=np.int64)
    *stack, k, m = e.shape
    cols = m + 1
    bits, upto, below = _mask_tables(k)
    h = np.concatenate([np.ones((*stack, k, 1), dtype=np.int64), e], axis=-1) % n1
    # steps[..., i, :, :]: the wedge with row (1, p_i), as a matrix on the minors
    steps = (h @ _wedge_steps(cols).reshape(cols, -1)).reshape(*stack, k, 2**cols, 2**cols)
    modulus = n1**cols
    minors = np.zeros((*stack, 2**k, 2**cols), dtype=np.int64)
    minors[..., 0, 0] = 1
    for i in range(k):
        minors[..., 1 << i : 2 << i, :] = minors[..., : 1 << i, :] @ steps[..., i, :, :] % modulus
    index = np.gcd(np.gcd.reduce(minors, axis=-1), n1 ** bits.sum(axis=1, dtype=np.int64))
    for i in range(k):
        pairs = index.reshape(*stack, -1, 2, 1 << i)  # [..., 1, :] has point i, [..., 0, :] not
        pairs[..., 1, :] = np.gcd(pairs[..., 1, :], n1 * pairs[..., 0, :])
    return index[..., upto] // index[..., below]


@lru_cache(maxsize=None)
def _mask_tables(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only tables of the support masks S of k points: bits, (2^k, k)
    uint8, has bits[S, i] = 1 when point i is in S; upto and below, each
    (2^k - 1, k), hold the masks S & {0..i} and S & {0..i-1} of S >= 1."""
    masks = np.arange(2**k)[:, None]
    bits = (masks >> np.arange(k) & 1).astype(np.uint8)
    prefix = (2 << np.arange(k)) - 1
    tables = bits, masks[1:] & prefix, masks[1:] & prefix >> 1
    for t in tables:
        t.setflags(write=False)
    return tables


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


def _orbit_box(rows, n1: int) -> tuple[tuple[int, ...], ...]:
    """Hermite normal form b, as row tuples, of the lattice spanned by the
    columns of the integer matrix ``rows`` (r rows) and by n1*Z^r: b[i] zero
    before i, pivot h_i = b[i][i] > 0, and 0 <= b[j][i] < h_i for all j < i.

    The box 0 <= y_i < h_i holds exactly one point of each coset of the
    lattice in Z^r, so prod(h) is its index, and each h_i divides n1.
    Echelon reduction mod n1, which the lattice contains on every axis:
    per column, the pivot b[i] is n1*e_i combined by extended Euclid with
    each generator until its entry there is the gcd h_i; the generators
    lose their multiples of b[i], and (n1/h_i)*b[i] - n1*e_i, zero there,
    joins them.  Then the entries above the pivot are reduced.  The form is
    unique to the lattice, so on a code's points E it is the column key: G's
    column logs run over the residues of E*Z^m + n1*Z^k, each equally often,
    so two codes' keys are equal iff their column multisets are.  Tests
    check ``_box_sides``, which gives the kernel's boxes, against it.
    """
    r = len(rows)
    gens = [[a % n1 for a in col] for col in zip(*rows)]
    pivots = []
    for col in range(r):
        b = [0] * r
        b[col] = n1
        for g in gens:
            if g[col] % b[col]:
                h, x, y = _extended_gcd(b[col], g[col])
                b = [(x * u + y * v) % n1 for u, v in zip(b, g)]
                b[col] = h
        h = b[col]
        rest = []
        for g in [*gens, [n1 // h * v % n1 for v in b]]:
            if c := g[col] // h:
                g = [(u - c * v) % n1 for u, v in zip(g, b)]
            if any(g):
                rest.append(g)
        gens = rest
        for row in pivots:
            if c := row[col] // h:
                row[:] = [a - c * e for a, e in zip(row, b)]
        pivots.append(b)
    return tuple(map(tuple, pivots))


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = x*a + y*b, for a > 0 and b >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        c, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - c * x1
        y0, y1 = y1, y0 - c * y1
    return a, x0, y0


def build_code(field: FieldSpec, polytope: LatticePolytope) -> ToricCode:
    return ToricCode(field, polytope)

