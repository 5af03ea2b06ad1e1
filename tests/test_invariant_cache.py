"""One kernel pass per batch of codes, each code enumerated once, and the
checks on what the pass and the witness return."""

import numpy as np
import pytest

from toric3 import classify, codes
from toric3.classify import (
    INCONCLUSIVE,
    census,
    witness_equivalence,
)
from toric3.cli import main
from toric3.codes import ToricCode, _box_sides, _orbit_box, build_code
from toric3.errors import InternalCheckFailed, TheoremWitnessMismatch
from toric3.galois import make_field
from toric3.polytopes import FAMILIES, empty_tetrahedron, parameter_sweep, parse_polytope_spec


@pytest.fixture
def passes(monkeypatch):
    """Kernel passes, each as the list of its batch's point sets."""
    batches = []
    kernel = codes._zero_counts

    def counted(field, points, sides):
        batches.append(list(points))
        return kernel(field, points, sides)

    monkeypatch.setattr(codes, "_zero_counts", counted)
    return batches


def _points(*codes):
    return [c._points for c in codes]


def test_census_fills_each_column_key_once_in_one_pass(passes):
    # GF(7) width 1: 18 entries with 15 distinct column keys; an entry whose
    # key an earlier entry has shares that entry's code and its invariants,
    # and the 15 kept codes are enumerated in one batch
    entries = census(make_field(7), 5)
    assert len(entries) == 18
    kept = list(dict.fromkeys(e.code for e in entries))
    assert len(kept) == 15 and len(passes) == 1
    assert passes[0] == _points(*kept)


def test_verify_fills_each_code_once(passes, capsys):
    # GF(5): one batch per census sweep, holding one code per column key of
    # the 5 dim-4 and 9 width-1 tuples, then a batch of one for each of the
    # 4 embedded polygons and their 4 planar codes for the product theorem
    sweeps = (parameter_sweep(5, 4), parameter_sweep(5, 5))
    keys = [len({_orbit_box(FAMILIES[f].make(s, t).points, 4) for f, s, t in sweep})
            for sweep in sweeps]
    assert keys == [2, 8]
    assert main(["verify", "--q", "5"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    # 18 distinct point sets: no code is filled twice
    assert len({tuple(points) for batch in passes for points in batch}) == sum(keys) + 4 + 4 == 18
    assert [len(batch) for batch in passes] == keys + [1] * 8


def test_verify_reports_a_concordance_failure_next_to_the_formula_check(monkeypatch, capsys):
    def mismatch(q, entries):
        raise TheoremWitnessMismatch(f"q={q}: forced")

    monkeypatch.setattr(classify, "_group_classes", mismatch)
    assert main(["verify", "--q", "5"]) == 1
    out, err = capsys.readouterr()
    assert "PASS  dim4 formula == brute" in out
    assert "FAIL  dim4 census concordance" in out
    assert "PASS  dim5 width-1 formulas/bounds" in out
    assert "q=5: forced" in err


def test_witness_fallback_reads_the_cached_invariants(passes):
    # GF(7) T(1,3) and T(2,3): the column match fails and the distances
    # agree, so the fallback compares both invariants, from one pass of both
    field = make_field(7)
    c1, c2 = (build_code(field, empty_tetrahedron(s, 3)) for s in (1, 2))
    assert witness_equivalence(c1, c2).status == INCONCLUSIVE
    assert passes == [_points(c1, c2)]
    passes.clear()
    assert witness_equivalence(c1, c2).status == INCONCLUSIVE
    assert not passes
    # with one code enumerated, the pass holds only the other
    c3 = build_code(field, empty_tetrahedron(1, 3))
    assert witness_equivalence(c3, c2).status == INCONCLUSIVE
    assert passes == [_points(c3)]


def test_weight_enumerator_returns_a_new_dict():
    code = build_code(make_field(5), empty_tetrahedron(1, 2))
    enum = code.weight_enumerator()
    expected = dict(enum)
    enum[0] = 7
    enum.clear()
    assert code.weight_enumerator() == expected


def test_enumerator_keys_ascend():
    # `equiv` prints a separating enumerator in this order
    code = build_code(make_field(7), parse_polytope_spec("P21(0,1)"))
    assert list(code.weight_enumerator()) == [0, 144, 180, 184, 185, 186, 192, 216]


@pytest.mark.parametrize("q", [7, 8, 9, 27])
def test_kernel_yields_integers_only(q):
    # one arithmetic branch each: add mod p, XOR, nibbles in bytes, in uint16
    code = build_code(make_field(q), parse_polytope_spec("P32(1,1)"))
    sides = _box_sides([code._points], q - 1)
    for arrays in codes._zero_counts(code.field, [code._points], sides):
        assert len(arrays) == 3 and not arrays[0].any()
        assert all(np.issubdtype(a.dtype, np.integer) for a in arrays)
    assert all(type(w) is int and type(c) is int for w, c in code.weight_enumerator().items())


def _one_block(monkeypatch, zeros, classes):
    """The kernel replaced by one block of one orbit of the first code."""
    block = (np.array([0]), np.array([zeros]), np.array([classes]))
    monkeypatch.setattr(codes, "_zero_counts", lambda field, points, sides: iter([block]))


def test_kernel_enumerator_sum_check(monkeypatch):
    code = build_code(make_field(5), empty_tetrahedron(1, 2))
    # a single projective class
    _one_block(monkeypatch, 2, 1)
    with pytest.raises(InternalCheckFailed, match="sums to"):
        code.weight_enumerator()


def test_a_nonzero_codeword_of_weight_0_fails_the_sum_check(monkeypatch):
    # the zero codeword is added to weight 0, not written over it, so one
    # more orbit of weight 0 makes the sum q - 1 too large
    code = build_code(make_field(5), empty_tetrahedron(1, 2))
    kernel = codes._zero_counts

    def with_a_zero_word(field, points, sides):
        yield from kernel(field, points, sides)
        yield np.array([0]), np.array([code.n]), np.array([1])

    monkeypatch.setattr(codes, "_zero_counts", with_a_zero_word)
    with pytest.raises(InternalCheckFailed, match="sums to 629,"):
        code.weight_enumerator()


def test_kernel_enumerator_first_moment_check(monkeypatch):
    code = build_code(make_field(5), empty_tetrahedron(1, 2))
    # 156 classes of weight n - 2: 4 * 156 + 1 = 5^4 codewords, but a first
    # moment of 62 * 624, not n * 4 * 5^3 = 32000
    _one_block(monkeypatch, 2, 156)
    with pytest.raises(InternalCheckFailed, match="first moment"):
        code.min_distance_brute()


def test_witness_checks_its_permutation(monkeypatch):
    field = make_field(5)
    c1 = build_code(field, empty_tetrahedron(1, 1))
    c2 = build_code(field, empty_tetrahedron(1, 2))
    # the keys match and the map (the identity) is a bijection, the
    # matrices do not match
    monkeypatch.setattr(classify, "_orbit_box", lambda points, n1: ())
    identity = [[int(i == j) for j in range(3)] for i in range(3)]
    monkeypatch.setattr(classify, "_unit_exponent_map", lambda c1, points: identity)
    with pytest.raises(InternalCheckFailed, match=r"G1\[:, perm\] != G2 \(columns differ\)"):
        witness_equivalence(c1, c2)


def test_cli_exits_1_on_a_failed_witness_check(monkeypatch, capsys):
    monkeypatch.setattr(
        ToricCode, "column_tuples", lambda self: np.zeros((self.n, self.k), dtype=np.int64)
    )
    monkeypatch.setattr(classify, "_orbit_box", lambda points, n1: ())
    argv = ["equiv", "--q", "5", "--a", "T(1,1)", "--b", "T(1,2)", "--method", "witness"]
    assert main(argv) == 1
    assert "G1[:, perm] != G2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["census --q 5 --dim 4", "verify --q 5"])
def test_a_failed_witness_in_the_census_names_both_codes(monkeypatch, capsys, command):
    # one key for every tuple, as the census and the witness read it: the
    # first dim-4 tuple whose lattice differs from T(0,1)'s gets no
    # certificate, and the census raises before it builds a code
    monkeypatch.setattr(classify, "_orbit_box", lambda points, n1: ())
    assert main(command.split()) == 1
    err = capsys.readouterr().err
    assert "q=5: T(0,1) vs T(1,2): column keys match, yet no exponent map" in err
