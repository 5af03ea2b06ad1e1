"""Toric code construction and brute-force kernels.

A code is built from GF(q) and a lattice polytope P: the generator
matrix evaluates the monomial of each lattice point at every point of
the torus (F_q*)^m.  Columns are ordered lexicographically by the
exponent triple (i, j, l) of (alpha^i, alpha^j, alpha^l), so matrices
are reproducible across runs.

The zero-counting kernels enumerate one polynomial per projective class
(first nonzero coefficient = 1); scaling by a unit preserves the zero
set, so this is exact, not a heuristic.  All inner loops are numpy
table lookups batched over coefficient blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .errors import ExponentCollision, InternalCheckFailed, ShapeMismatch, ZeroPolynomial
from .galois import FieldSpec
from .polytopes import LatticePolytope

# batch of projective representatives processed per numpy block
_BLOCK = 512


@dataclass(frozen=True)
class DistanceResult:
    """Exact distance or closed interval [lower, upper]."""

    lower: int
    upper: int
    method: str  # "brute" | "formula" | "bound"

    def __post_init__(self):
        if not 0 < self.lower <= self.upper:
            raise ValueError(f"bad distance interval [{self.lower}, {self.upper}]")

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    @property
    def value(self) -> int:
        if not self.exact:
            raise ValueError("interval result has no single value")
        return self.lower

    def to_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "method": self.method,
        }


def _monomial_row(field: FieldSpec, exponents, m: int) -> np.ndarray:
    """Evaluations of x^a over the torus (F_q*)^m, columns in lex order
    of the discrete-log indices."""
    n1 = field.q - 1
    grids = np.meshgrid(*[np.arange(n1)] * m, indexing="ij")
    idx = sum(int(a) * g for a, g in zip(exponents, grids)) % n1
    return field.exp_table[idx].reshape(-1)


def build_generator_matrix(field: FieldSpec, exponent_vectors, m: int) -> np.ndarray:
    """k x (q-1)^m matrix of monomial evaluations; rows follow the
    given exponent order."""
    n1 = field.q - 1
    reduced = [tuple(int(a) % n1 for a in e) for e in exponent_vectors]
    if len(set(reduced)) != len(reduced):
        raise ExponentCollision(
            "two lattice points are congruent mod q-1 componentwise; "
            "the polytope does not fit GF(%d)" % field.q
        )
    return np.stack([_monomial_row(field, e, m) for e in exponent_vectors])


class ToricCode:
    """Evaluation code C_P over GF(q); immutable after construction."""

    def __init__(self, field: FieldSpec, polytope: LatticePolytope):
        self.field = field
        self.polytope = polytope
        self.k = polytope.k
        self.n = (field.q - 1) ** 3
        self.G = build_generator_matrix(field, polytope.points, 3)
        self.G.setflags(write=False)

    def columns(self):
        """Torus points (x, y, z) in column order."""
        exp = self.field.exp_table
        n1 = self.field.q - 1
        return [
            (int(exp[i]), int(exp[j]), int(exp[l]))
            for i, j, l in product(range(n1), repeat=3)
        ]

    def encode(self, u) -> np.ndarray:
        """Codeword uG as a length-n vector of field values."""
        u = list(u)
        if len(u) != self.k:
            raise ShapeMismatch(f"coefficient vector must have length {self.k}")
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

    def _projective_blocks(self):
        """Yield blocks of coefficient vectors, one per projective class
        (first nonzero coefficient = 1), as (block, k) int arrays."""
        q, k = self.field.q, self.k
        for lead in range(k):
            # u = (0,...,0, 1, *) with q^(k-lead-1) free tails
            tail = k - lead - 1
            tails = np.array(list(product(range(q), repeat=tail)), dtype=np.int64)
            tails = tails.reshape(len(tails), tail)
            block = np.zeros((len(tails), k), dtype=np.int64)
            block[:, lead] = 1
            if tail:
                block[:, lead + 1 :] = tails
            for lo in range(0, len(block), _BLOCK):
                yield block[lo : lo + _BLOCK]

    def _zero_weight_per_class(self):
        """Yield (zeros, weights) arrays over projective classes."""
        for block in self._projective_blocks():
            zeros = np.count_nonzero(self._words(block) == 0, axis=1)
            yield zeros, self.n - zeros

    @cached_property
    def _invariants(self) -> tuple[int, int, dict[int, int]]:
        """(max zeros, min weight, weight enumerator) from one kernel pass.

        Lazy, so a code too large for the kernel (q = 64) can still be
        built and matched column by column.  Every nonzero projective
        class contributes q-1 codewords of equal weight.
        """
        q = self.field.q
        mz, mw = 0, self.n
        counts: dict[int, int] = {0: 1}
        for zeros, weights in self._zero_weight_per_class():
            mz = max(mz, int(zeros.max()))
            mw = min(mw, int(weights.min()))
            ws, cs = np.unique(weights, return_counts=True)
            for w, c in zip(ws, cs):
                counts[int(w)] = counts.get(int(w), 0) + int(c) * (q - 1)
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

    def dump_log_matrix(self) -> list[list]:
        """Rows of discrete-log indices; zero entries marked '-inf'."""
        log = self.field.log_table
        out = []
        for row in self.G:
            out.append([int(log[v]) if v != 0 else "-inf" for v in row])
        return out


def build_code(field: FieldSpec, polytope: LatticePolytope) -> ToricCode:
    return ToricCode(field, polytope)


def brute_min_distance_generic(field: FieldSpec, exponent_vectors, m: int) -> int:
    """Minimum distance of the evaluation code on (F_q*)^m for arbitrary
    m; independent oracle for the product-theorem checks."""
    G = build_generator_matrix(field, exponent_vectors, m)
    k = len(exponent_vectors)
    q = field.q
    n = (q - 1) ** m
    best = n
    for u in product(range(q), repeat=k):
        if all(c == 0 for c in u):
            continue
        if next(c for c in u if c != 0) != 1:
            continue  # one representative per projective class
        word = np.zeros(n, dtype=np.int64)
        for c, row in zip(u, G):
            word = field.add_table[word, field.mul_table[c, row]]
        best = min(best, int(np.count_nonzero(word)))
    return best
