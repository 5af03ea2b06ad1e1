"""Census grouping: each code whose column key an earlier code has is
proved to be that code with its columns permuted, by an integer
certificate with no G read; one code kept per key, theorem keys read once
per entry, each against the all-pairs reference."""

import gc
import re
import weakref
from collections import Counter

import pytest

from toric3 import classify
from toric3.classify import (
    EQUIVALENT,
    INEQUIVALENT,
    _census_entries,
    _group_classes,
    census,
)
from toric3.codes import ToricCode, _orbit_box
from toric3.errors import InternalCheckFailed, TheoremWitnessMismatch
from toric3.galois import make_field

from oracle import all_pairs_classes


@pytest.fixture
def routes(monkeypatch):
    """How the census proved each merge: "certified" holds (first code,
    points) for each integer certificate found, "witnessed" (first, other)
    for each call of witness_equivalence."""
    found = {"certified": [], "witnessed": []}
    certifies, witness = classify._unit_exponent_map, classify.witness_equivalence

    def certified(c1, points):
        if (A := certifies(c1, points)) is not None:
            found["certified"].append((c1, points))
        return A

    def witnessed(c1, c2):
        found["witnessed"].append((c1, c2))
        return witness(c1, c2)

    monkeypatch.setattr(classify, "_unit_exponent_map", certified)
    monkeypatch.setattr(classify, "witness_equivalence", witnessed)
    return found


@pytest.mark.parametrize(
    "q, dim", [(q, dim) for q in (5, 7, 8, 9, 11, 13) for dim in (4, 5)] + [(16, 4)]
)
def test_keyed_census_matches_the_all_pairs_partition(q, dim, routes):
    entries = _census_entries(make_field(q), dim)
    # the census's routes, before the reference's witnesses add their own
    certified, witnessed = list(routes["certified"]), list(routes["witnessed"])
    expected = all_pairs_classes(q, entries)
    _group_classes(q, entries)
    assert [e.class_id for e in entries] == expected
    keys = Counter(_orbit_box(e.code.polytope.points, q - 1) for e in entries)
    # every merge is proved once, by an integer certificate
    assert len(certified) == len(entries) - len(keys) and witnessed == []
    for c1, points in certified:
        assert _orbit_box(c1.polytope.points, q - 1) == _orbit_box(points, q - 1)
        assert c1.polytope.points != points


@pytest.mark.parametrize(
    "q, dim, certified, witnessed", [(7, 5, 3, 0), (9, 4, 15, 0), (16, 4, 58, 0)]
)
def test_census_proves_each_repeated_key_once(routes, q, dim, certified, witnessed):
    # GF(7) width 1: 18 entries with 15 distinct column keys, one merge whose
    # first A is singular; GF(9) dim 4: 19 entries, 4 keys; GF(16) dim 4: 65,
    # 7.  The all-pairs loop once ran the witness on every pair
    entries = census(make_field(q), dim)
    keys = len({id(e.code) for e in entries})
    assert (len(routes["certified"]), len(routes["witnessed"])) == (certified, witnessed)
    assert certified + witnessed == len(entries) - keys


def test_a_missing_certificate_raises(monkeypatch):
    # equal keys with no certificate: the census has no second route, so it
    # raises and names both polytopes
    monkeypatch.setattr(classify, "_unit_exponent_map", lambda c1, points: None)
    with pytest.raises(InternalCheckFailed) as err:
        census(make_field(9), 4)
    assert re.fullmatch(
        r"q=9: T\(\d,\d\) vs T\(\d,\d\): column keys match, yet no exponent map "
        r"E2 = E1\*A mod q-1 has det A a unit", str(err.value))


def test_census_keeps_one_code_per_column_key(monkeypatch):
    # GF(16) dim 4: 65 entries with 7 column keys; a later tuple with a key
    # gets no code of its own, its certificate read off its points
    built = []
    init = ToricCode.__init__

    def recorded(self, *args):
        init(self, *args)
        built.append(weakref.ref(self))

    monkeypatch.setattr(ToricCode, "__init__", recorded)
    entries = census(make_field(16), 4)
    gc.collect()
    assert len(entries) == 65 and len(built) == 7
    assert sum(ref() is not None for ref in built) == 7
    assert len({id(e.code) for e in entries}) == 7


def _forced(monkeypatch, status):
    # every polytope in one bucket, whose last key all share (EQUIVALENT) or
    # each has its own (INEQUIVALENT)
    def forced(q, poly):
        key = 0 if status == EQUIVALENT else poly.describe()
        return [("forced", [("forced", key)], "forced")]

    monkeypatch.setattr(classify, "_criteria", forced)


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
    assert a is not b
    assert _orbit_box(a.code.polytope.points, 6) == _orbit_box(b.code.polytope.points, 6)
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
