"""Census grouping: one witness per code against the first code with its
column key, one code kept per key, theorem verdicts on every pair, each
against the all-pairs reference."""

import gc
import re
import weakref
from collections import Counter

import pytest

from toric3 import classify
from toric3.classify import (
    EQUIVALENT,
    INEQUIVALENT,
    EquivalenceVerdict,
    _census_entries,
    _group_classes,
    census,
)
from toric3.codes import ToricCode
from toric3.errors import TheoremWitnessMismatch
from toric3.galois import make_field

from oracle import all_pairs_classes


@pytest.fixture
def witnessed(monkeypatch):
    """Calls of witness_equivalence from the census, as (first, other) pairs."""
    calls = []
    witness = classify.witness_equivalence

    def counted(c1, c2):
        calls.append((c1, c2))
        return witness(c1, c2)

    monkeypatch.setattr(classify, "witness_equivalence", counted)
    return calls


@pytest.mark.parametrize(
    "q, dim", [(q, dim) for q in (5, 7, 8, 9, 11, 13) for dim in (4, 5)] + [(16, 4)]
)
def test_keyed_census_matches_the_all_pairs_partition(q, dim, witnessed):
    entries = _census_entries(make_field(q), dim)
    expected = all_pairs_classes(q, entries)
    _group_classes(q, entries)
    assert [e.class_id for e in entries] == expected
    keys = Counter(e.code._column_key for e in entries)
    assert len(witnessed) == len(entries) - len(keys)
    for c1, c2 in witnessed:
        assert c1._column_key == c2._column_key and c1 is not c2


def test_census_runs_one_witness_per_repeated_key(witnessed):
    # GF(7) width 1: 18 entries with 15 distinct column keys; the
    # all-pairs loop ran the witness on all 153 pairs
    entries = census(make_field(7), 5)
    assert len(entries) == 18
    assert len(witnessed) == 3


def test_census_keeps_one_code_per_column_key(monkeypatch):
    # GF(16) dim 4: 65 entries with 7 column keys; every later code with a
    # key is dropped once its witness is checked
    built = []
    init = ToricCode.__init__

    def recorded(self, *args):
        init(self, *args)
        built.append(weakref.ref(self))

    monkeypatch.setattr(ToricCode, "__init__", recorded)
    entries = census(make_field(16), 4)
    gc.collect()
    assert len(entries) == len(built) == 65
    assert sum(ref() is not None for ref in built) == 7
    assert len({id(e.code) for e in entries}) == 7


def _forced(monkeypatch, status):
    def forced(q, pa, pb):
        return EquivalenceVerdict(status, "THEOREM", "forced")

    monkeypatch.setattr(classify, "theorem_verdict", forced)


def _named(message, entries):
    """The two census entries a mismatch message names, in order."""
    names = re.match(r"q=\d+: (\S+) vs (\S+):", message).groups()
    by_name = {e.polytope.describe(): e for e in entries}
    return [by_name[n] for n in names]


def test_theorem_inequivalent_between_equal_keys_raises(monkeypatch):
    entries = _census_entries(make_field(7), 5)
    _forced(monkeypatch, INEQUIVALENT)
    with pytest.raises(TheoremWitnessMismatch) as err:
        _group_classes(7, entries)
    message = str(err.value)
    a, b = _named(message, entries)
    assert a is not b and a.code._column_key == b.code._column_key
    assert f"theorem says {INEQUIVALENT} (forced), witness says {EQUIVALENT}" in message


def test_theorem_equivalent_with_unequal_enumerators_raises(monkeypatch):
    entries = _census_entries(make_field(5), 4)
    _forced(monkeypatch, EQUIVALENT)
    with pytest.raises(TheoremWitnessMismatch) as err:
        _group_classes(5, entries)
    message = str(err.value)
    a, b = _named(message, entries)
    assert a.code.weight_enumerator() != b.code.weight_enumerator()
    assert "weight enumerators differ" in message
