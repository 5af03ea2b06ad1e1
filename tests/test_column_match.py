"""Columns matched as rows of G's own view, and codewords from the one
evaluator, each against a plain Python reference."""

from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from toric3.classify import EQUIVALENT, _census_entries, census, witness_equivalence
from toric3.codes import ToricCode, build_code
from toric3.galois import make_field
from toric3.polytopes import empty_tetrahedron, parse_polytope_spec


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
    # GF(7) width 1: 18 entries, 153 pairs, all witnessed
    entries = census(make_field(7), 5)
    assert len(sorts) == len(entries) == 18


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
