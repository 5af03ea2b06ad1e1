"""Census grouping: each code whose column key an earlier code has is
proved to be that code with its columns permuted, by an integer
certificate or else one witness checked on G; one code kept per key,
theorem verdicts on every pair, each against the all-pairs reference."""

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
from toric3.codes import ToricCode, _lattice_key
from toric3.errors import TheoremWitnessMismatch
from toric3.galois import make_field

from oracle import all_pairs_classes


@pytest.fixture
def routes(monkeypatch):
    """How the census proved each merge: "certified" holds (first code,
    points) for each integer certificate that held, "witnessed" (first,
    other) for each call of witness_equivalence."""
    found = {"certified": [], "witnessed": []}
    certifies, witness = classify._certifies, classify.witness_equivalence

    def certified(c1, points, A):
        if held := certifies(c1, points, A):
            found["certified"].append((c1, points))
        return held

    def witnessed(c1, c2):
        found["witnessed"].append((c1, c2))
        return witness(c1, c2)

    monkeypatch.setattr(classify, "_certifies", certified)
    monkeypatch.setattr(classify, "witness_equivalence", witnessed)
    return found


@pytest.mark.parametrize(
    "q, dim", [(q, dim) for q in (5, 7, 8, 9, 11, 13) for dim in (4, 5)] + [(16, 4)]
)
def test_keyed_census_matches_the_all_pairs_partition(q, dim, routes):
    entries = _census_entries(make_field(q), dim)
    expected = all_pairs_classes(q, entries)
    _group_classes(q, entries)
    assert [e.class_id for e in entries] == expected
    keys = Counter(e.code._column_key for e in entries)
    # every merge is proved once, by one route or the other
    assert len(routes["certified"]) + len(routes["witnessed"]) == len(entries) - len(keys)
    for c1, points in routes["certified"]:
        assert c1._column_key == _lattice_key(points, q - 1) and c1.polytope.points != points
    for c1, c2 in routes["witnessed"]:
        assert c1._column_key == c2._column_key and c1 is not c2


@pytest.mark.parametrize(
    "q, dim, certified, witnessed", [(7, 5, 2, 1), (9, 4, 15, 0), (16, 4, 52, 6)]
)
def test_census_proves_each_repeated_key_once(routes, q, dim, certified, witnessed):
    # GF(7) width 1: 18 entries with 15 distinct column keys, one merge with
    # a singular A; GF(9) dim 4: 19 entries, 4 keys; GF(16) dim 4: 65, 7.
    # The all-pairs loop once ran the witness on every pair
    entries = census(make_field(q), dim)
    keys = len({id(e.code) for e in entries})
    assert (len(routes["certified"]), len(routes["witnessed"])) == (certified, witnessed)
    assert certified + witnessed == len(entries) - keys


def test_a_forged_certificate_falls_back_to_the_witness(monkeypatch, routes):
    # every A replaced by 2I: E2 = E1*A fails, and det A = 8 is no unit
    # mod 8 either, so each of GF(9)'s 15 merges goes to a witness on G
    expected = [e.class_id for e in census(make_field(9), 4)]
    certifies = classify._certifies
    forged = [[2 * (i == j) for j in range(3)] for i in range(3)]
    monkeypatch.setattr(classify, "_certifies", lambda c1, points, A: certifies(c1, points, forged))
    routes["witnessed"].clear()
    entries = census(make_field(9), 4)
    assert [e.class_id for e in entries] == expected
    assert len(routes["witnessed"]) == 15


def test_census_keeps_one_code_per_column_key(monkeypatch):
    # GF(16) dim 4: 65 entries with 7 column keys; a later tuple with a key
    # gets a code only when its certificate fails (6 of 58), and that code
    # is dropped once its witness is checked
    built = []
    init = ToricCode.__init__

    def recorded(self, *args):
        init(self, *args)
        built.append(weakref.ref(self))

    monkeypatch.setattr(ToricCode, "__init__", recorded)
    entries = census(make_field(16), 4)
    gc.collect()
    assert len(entries) == 65 and len(built) == 7 + 6
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
