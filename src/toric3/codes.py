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
and distance; this is exact, not a heuristic.  All inner loops are
numpy table lookups batched over coefficient blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod

import numpy as np

from .errors import (
    ExponentCollision, InternalCheckFailed, InvalidParams, ShapeMismatch, ZeroPolynomial
)
from .galois import FieldSpec
from .polytopes import LatticePolytope

# bytes of int64 codewords evaluated per numpy block
_WORD_BYTES = 1 << 25


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
    """k x (q-1)^m matrix of monomial evaluations on (F_q*)^m, m the
    common length of the exponent vectors; rows follow their order."""
    n1 = field.q - 1
    if len({len(e) for e in exponent_vectors}) != 1:
        raise ShapeMismatch("exponent vectors must be nonempty and of one length")
    reduced = [tuple(int(a) % n1 for a in e) for e in exponent_vectors]
    if len(set(reduced)) != len(reduced):
        raise ExponentCollision(
            "two lattice points are congruent mod q-1 componentwise; "
            "the polytope does not fit GF(%d)" % field.q
        )
    logs = _torus_logs(n1, len(reduced[0]))
    return field.exp_table[np.array(reduced, dtype=np.int64) @ logs % n1]


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

    def encode(self, u) -> np.ndarray:
        """Codeword uG as a length-n vector of field values."""
        u = list(u)
        if len(u) != self.k:
            raise ShapeMismatch(f"coefficient vector must have length {self.k}")
        if not all(isinstance(c, (int, np.integer)) and 0 <= c < self.field.q for c in u):
            raise InvalidParams(f"coefficients must be integers in range({self.field.q}); got {u}")
        return self._words(np.array([u], dtype=np.int64))[0]

    def _words(self, block) -> np.ndarray:
        """Codewords uG, one row per row u of a (b, k) coefficient block."""
        f = self.field
        words = np.zeros((len(block), self.n), dtype=np.int64)
        for r in range(self.k):
            words = f.add_table[words, f.mul_table[block[:, r]][:, self.G[r]]]
        return words

    def count_zeros(self, u) -> int:
        """Number of torus points at which the polynomial with
        coefficients u vanishes."""
        if all(c == 0 for c in u):
            raise ZeroPolynomial("the zero polynomial vanishes everywhere")
        return int(np.count_nonzero(self.encode(u) == 0))

    def _zero_weight_per_class(self):
        """Yield (zeros, weights, classes) arrays, one entry per torus
        orbit: its zero count, its weight and its number of projective
        classes."""
        k, n1 = self.k, self.field.q - 1
        hom = [(1, *p) for p in self.polytope.points]
        rows = max(1, _WORD_BYTES // (8 * self.n))
        for mask in range(1, 2**k):
            support = [i for i in range(k) if mask >> i & 1]
            pivots = _orbit_box([hom[i] for i in support], n1)
            box = tuple(abs(b[i]) for i, b in enumerate(pivots))
            orbits = prod(box)
            classes = n1 ** (len(support) - 1) // orbits
            for lo in range(0, orbits, rows):
                flat = np.arange(lo, min(lo + rows, orbits))
                block = np.zeros((len(flat), k), dtype=np.int64)
                block[:, support] = self.field.exp_table[
                    np.stack(np.unravel_index(flat, box), axis=1)
                ]
                zeros = np.count_nonzero(self._words(block) == 0, axis=1)
                yield zeros, self.n - zeros, np.full(len(flat), classes)

    @cached_property
    def _invariants(self) -> tuple[int, int, dict[int, int]]:
        """(max zeros, min weight, weight enumerator) from one kernel pass.

        Lazy, so a code is only enumerated when asked.  Every projective
        class contributes q-1 codewords of equal weight.
        """
        q = self.field.q
        mz, mw = 0, self.n
        counts: dict[int, int] = {0: 1}
        for zeros, weights, classes in self._zero_weight_per_class():
            mz = max(mz, int(zeros.max()))
            mw = min(mw, int(weights.min()))
            for w, c in zip(weights.tolist(), classes.tolist()):
                counts[w] = counts.get(w, 0) + c * (q - 1)
        if self.n - mz != mw:
            raise InternalCheckFailed(
                f"distance cross-check failed: n - maxZ = {self.n - mz}, "
                f"min weight = {mw}"
            )
        if sum(counts.values()) != q**self.k:
            raise InternalCheckFailed(
                f"weight enumerator sums to {sum(counts.values())}, not q^k = {q**self.k}"
            )
        return mz, mw, counts

    def max_zeros(self) -> int:
        """max Z(f) over nonzero f in the span of P's monomials."""
        return self._invariants[0]

    def min_distance_brute(self) -> DistanceResult:
        """Exact minimum distance; n - max Z(f) cross-checked against the
        minimum nonzero codeword weight."""
        mw = self._invariants[1]
        return DistanceResult(mw, mw, "brute")

    def weight_enumerator(self) -> dict[int, int]:
        """weight -> count over all q^k codewords, as a new dict."""
        return dict(self._invariants[2])

    def column_tuples(self) -> np.ndarray:
        """Columns of G as the rows of a read-only (n, k) view, no copy."""
        return self.G.T

    @cached_property
    def _column_key(self) -> tuple[tuple[int, ...], ...]:
        """Hermite basis of the lattice E*Z^m + (q-1)*Z^k, E the points as
        rows.  The logs of G's columns run over its residues mod q-1, each
        equally often, so keys are equal iff column multisets are."""
        basis = _orbit_box(self.polytope.points, self.field.q - 1)
        for i, b in enumerate(basis):
            if b[i] < 0:
                b[:] = [-a for a in b]
            # 0 <= row[i] < b[i] in every earlier row
            for row in basis[:i]:
                c = row[i] // b[i]
                row[:] = [a - c * e for a, e in zip(row, b)]
        return tuple(map(tuple, basis))

    @cached_property
    def _column_order(self) -> np.ndarray:
        """G's column indices in stable lexicographic order, sorted once."""
        order = np.lexsort(self.column_tuples().T[::-1])
        order.setflags(write=False)
        return order

    def dump_log_matrix(self) -> list[list[int]]:
        """Rows of discrete-log indices; every entry of G is a unit."""
        return self.field.log_table[self.G].tolist()


def _orbit_box(rows, n1: int) -> list[list[int]]:
    """Triangular basis b of the lattice spanned by the columns of the
    integer matrix ``rows`` (r rows) and by n1*Z^r, b[i] zero before i.

    With h_i = |b[i][i]|, the box 0 <= y_i < h_i holds exactly one point
    of each coset of the lattice in Z^r, so prod(h) is its index.
    Integer echelon reduction: per column, Euclid on the remaining
    generators until one is nonzero there, the pivot b[i].
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
        pivots.append(live[0])
        gens = [g for g in gens if g is not live[0]]
    return pivots


def build_code(field: FieldSpec, polytope: LatticePolytope) -> ToricCode:
    return ToricCode(field, polytope)

