"""Independent reference for the enumeration kernel, kept for tests only."""

from collections import Counter
from itertools import product

import numpy as np


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
