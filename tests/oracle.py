"""Independent references for the generator matrix, the enumeration
kernel and the census grouping, kept for tests only."""

from collections import Counter
from itertools import combinations, product

import numpy as np

from toric3.classify import EQUIVALENT, theorem_verdict, witness_equivalence
from toric3.codes import _torus_logs, build_code
from toric3.galois import make_field


def generator_matrix_reference(field, exponent_vectors):
    """uint8 G as one int64 product of the exponents with the torus log
    grid, reduced mod q-1: the build the per-axis log sums replaced."""
    E = np.array(exponent_vectors, dtype=np.int64)
    n1 = field.q - 1
    return field.exp_u8[E @ _torus_logs(n1, E.shape[1]) % n1]


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
