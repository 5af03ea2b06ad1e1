"""Columns matched as rows of G's own view, and codewords from the one
evaluator, each against a plain Python reference."""

import random
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest

from toric3.classify import EQUIVALENT, _census_entries, census, witness_equivalence
from toric3.codes import ToricCode, build_code
from toric3.galois import make_field
from toric3.polytopes import LatticePolytope, empty_tetrahedron, parse_polytope_spec


def _reference_perm(c1, c2):
    """The witness permutation by a stable Python sort of the column
    tuples, or None when the column multisets differ."""
    cols1, cols2 = ([tuple(int(v) for v in c.G[:, j]) for j in range(c.n)] for c in (c1, c2))
    order1 = sorted(range(c1.n), key=cols1.__getitem__)
    order2 = sorted(range(c2.n), key=cols2.__getitem__)
    if [cols1[i] for i in order1] != [cols2[j] for j in order2]:
        return None
    perm = [0] * c1.n
    for i, j in zip(order1, order2):
        perm[j] = i
    return perm


@pytest.mark.parametrize("q, dim", [(7, 5), (9, 4)])
def test_witness_permutation_equals_the_reference(q, dim):
    codes = [e.code for e in _census_entries(make_field(q), dim)]
    matched = tied = 0
    for c1, c2 in combinations(codes, 2):
        wit = witness_equivalence(c1, c2)
        ref = _reference_perm(c1, c2)
        assert (wit.evidence_kind == "WITNESS") == (ref is not None)
        if ref is not None:
            assert wit.status == EQUIVALENT
            assert wit.detail.tolist() == ref
            matched += 1
            # repeated columns, where only a stable sort gives the reference
            tied += np.unique(c1.G, axis=1).shape[1] < c1.n
    assert matched and tied


def _random_points(rng, q, m, k):
    """k exponent vectors of length m, distinct mod q-1, with negative
    entries and entries beyond q."""
    while True:
        pts = [tuple(rng.randint(-2 * q, 2 * q) for _ in range(m)) for _ in range(k)]
        if len({tuple(a % (q - 1) for a in p) for p in pts}) == k:
            return pts


def _related_points(rng, q, pts):
    """pts with a random unimodular change of torus coordinates, random
    multiples of q-1 added, and, one time in three, two rows swapped:
    the first two keep the column multiset, the swap in general does not."""
    m = len(pts[0])
    A = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(3):
        i, j = rng.sample(range(m), 2) if m > 1 else (0, 0)
        if i == j:
            A[i] = [-a for a in A[i]]
        else:
            c = rng.randint(-2, 2)
            A[i] = [a + c * b for a, b in zip(A[i], A[j])]
    out = [
        tuple(
            sum(p[l] * A[l][j] for l in range(m)) + (q - 1) * rng.randint(-1, 1)
            for j in range(m)
        )
        for p in pts
    ]
    if rng.random() < 1 / 3:
        i, j = rng.sample(range(len(out)), 2)
        out[i], out[j] = out[j], out[i]
    return out


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 13])
def test_column_key_decides_equal_column_multisets(q):
    rng, field = random.Random(q), make_field(q)
    pairs = equal = 0
    for m, k in product((1, 2, 3), range(2, 6)):
        if k > (q - 1) ** m:
            continue
        codes = []
        for _ in range(4):
            pts = _random_points(rng, q, m, k)
            codes.append(build_code(field, LatticePolytope(tuple(pts))))
            for _ in range(2):
                codes.append(build_code(field, LatticePolytope(tuple(_related_points(rng, q, pts)))))
        cols = [sorted(map(tuple, c.G.T.tolist())) for c in codes]
        for (c1, s1), (c2, s2) in combinations(zip(codes, cols), 2):
            pairs += 1
            equal += s1 == s2
            assert (c1._column_key == c2._column_key) == (s1 == s2), (
                c1.polytope.points, c2.polytope.points)
    assert 0 < equal < pairs


def test_column_tuples_is_a_read_only_view_of_g():
    code = build_code(make_field(7), empty_tetrahedron(1, 3))
    cols = code.column_tuples()
    assert cols.shape == (code.n, code.k)
    assert np.shares_memory(cols, code.G)
    assert not cols.flags.writeable
    assert [tuple(c) for c in cols.tolist()] == [
        tuple(int(v) for v in code.G[:, j]) for j in range(code.n)
    ]


def test_witness_reads_the_columns_once_per_code(monkeypatch):
    calls = Counter()
    column_tuples = ToricCode.column_tuples

    def counted(self):
        calls[id(self)] += 1
        return column_tuples(self)

    monkeypatch.setattr(ToricCode, "column_tuples", counted)
    field = make_field(7)
    c1, c2 = (build_code(field, empty_tetrahedron(s, 4)) for s in (1, 3))
    assert witness_equivalence(c1, c2).status == EQUIVALENT
    assert calls == Counter({id(c1): 1, id(c2): 1})


@pytest.fixture
def sorts(monkeypatch):
    """Calls of np.lexsort, counted."""
    calls = []
    lexsort = np.lexsort

    def counted(keys, *args, **kwargs):
        calls.append(len(keys))
        return lexsort(keys, *args, **kwargs)

    monkeypatch.setattr(np, "lexsort", counted)
    return calls


def test_census_sorts_each_code_once(sorts):
    # GF(7) width 1: 18 entries, 3 witnessed against the first entry with
    # their key; only the 5 entries whose column key another entry shares
    # are ever sorted
    entries = census(make_field(7), 5)
    keys = Counter(e.code._column_key for e in entries)
    shared = [e for e in entries if keys[e.code._column_key] > 1]
    assert len(entries) == 18
    assert len(sorts) == len(shared) == 5


def test_witness_on_unmatched_codes_sorts_and_reads_nothing(sorts, monkeypatch):
    read = []
    column_tuples = ToricCode.column_tuples
    monkeypatch.setattr(
        ToricCode, "column_tuples", lambda self: read.append(self) or column_tuples(self)
    )
    field = make_field(7)
    c1, c2 = (build_code(field, empty_tetrahedron(1, t)) for t in (2, 3))
    assert witness_equivalence(c1, c2).evidence_kind == "INVARIANT"
    assert sorts == [] and read == []
    assert "_column_order" not in vars(c1) and "_column_order" not in vars(c2)


def test_witness_sorts_fresh_codes_once_each(sorts):
    field = make_field(7)
    c1, c2 = (build_code(field, empty_tetrahedron(s, 4)) for s in (1, 3))
    assert witness_equivalence(c1, c2).status == EQUIVALENT
    assert sorts == [4, 4]
    assert witness_equivalence(c2, c1).status == EQUIVALENT
    assert sorts == [4, 4]
    assert not c1._column_order.flags.writeable


@pytest.mark.parametrize("q, spec", [(5, "T(1,2)"), (7, "P21(1,3)"), (8, "T(1,3)")])
def test_codewords_equal_pointwise_evaluation(q, spec):
    field = make_field(q)
    poly = parse_polytope_spec(spec)
    code = build_code(field, poly)
    rng = np.random.default_rng(0)
    block = rng.integers(0, q, size=(6, code.k))
    words = code._words(block)
    for u, word in zip(block.tolist(), words):
        expected = []
        for x in code.columns():
            v = 0
            for c, a in zip(u, poly.points):
                mono = 1
                for xi, ai in zip(x, a):
                    mono = field.mul(mono, field.pow(xi, ai))
                v = field.add(v, field.mul(c, mono))
            expected.append(v)
        assert word.tolist() == expected
        assert code.encode(u).tolist() == expected
