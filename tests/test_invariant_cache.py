"""One kernel pass per code, and the checks on what the pass and the
witness return."""

from collections import Counter

import numpy as np
import pytest

from toric3 import classify
from toric3.classify import (
    INCONCLUSIVE,
    census,
    witness_equivalence,
)
from toric3.cli import main
from toric3.codes import ToricCode, build_code
from toric3.errors import InternalCheckFailed, TheoremWitnessMismatch
from toric3.galois import make_field
from toric3.polytopes import FAMILIES, empty_tetrahedron, parameter_sweep, parse_polytope_spec


@pytest.fixture
def passes(monkeypatch):
    """Kernel passes counted per code.  Keyed by the code itself, which
    hashes by identity and stays alive here, since the id of a freed code
    can be reused."""
    counts = Counter()
    kernel = ToricCode._zero_counts

    def counted(self):
        counts[self] += 1
        return kernel(self)

    monkeypatch.setattr(ToricCode, "_zero_counts", counted)
    return counts


def test_census_runs_one_pass_per_column_key(passes):
    # GF(7) width 1: 18 entries with 15 distinct column keys; an entry whose
    # key an earlier entry has shares that entry's code and its pass
    entries = census(make_field(7), 5)
    assert len(entries) == 18
    assert passes == Counter(dict.fromkeys((e.code for e in entries), 1))
    assert len(passes) == 15


def test_verify_runs_one_pass_per_code(passes, capsys):
    # GF(5): one pass per column key of the 5 dim-4 and 9 width-1 census
    # tuples, then 4 embedded polygons and their 4 planar codes for the
    # product theorem
    field = make_field(5)
    sweeps = (parameter_sweep(5, 4), parameter_sweep(5, 5))
    keys = [len({build_code(field, FAMILIES[f].make(s, t))._column_key for f, s, t in sweep})
            for sweep in sweeps]
    assert keys == [2, 8]
    assert main(["verify", "--q", "5"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert set(passes.values()) == {1}
    assert sum(passes.values()) == sum(keys) + 4 + 4 == 18


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
    # agree, so the fallback compares both invariants.
    field = make_field(7)
    c1, c2 = (build_code(field, empty_tetrahedron(s, 3)) for s in (1, 2))
    assert witness_equivalence(c1, c2).status == INCONCLUSIVE
    assert passes == Counter({c1: 1, c2: 1})
    passes.clear()
    assert witness_equivalence(c1, c2).status == INCONCLUSIVE
    assert not passes


def test_weight_enumerator_returns_a_new_dict():
    code = build_code(make_field(5), empty_tetrahedron(1, 2))
    enum = code.weight_enumerator()
    expected = dict(enum)
    enum[0] = 7
    enum.clear()
    assert code.weight_enumerator() == expected


def test_enumerator_keys_keep_the_order_weights_are_first_met():
    # `equiv` prints a separating enumerator in this order
    code = build_code(make_field(7), parse_polytope_spec("P21(0,1)"))
    assert list(code.weight_enumerator()) == [0, 216, 180, 186, 144, 192, 185, 184]


@pytest.mark.parametrize("q", [7, 8, 9])
def test_kernel_yields_integers_only(q):
    # one arithmetic branch each: add mod p, XOR, add-table gather
    code = build_code(make_field(q), parse_polytope_spec("P32(1,1)"))
    for arrays in code._zero_counts():
        assert len(arrays) == 2
        assert all(np.issubdtype(a.dtype, np.integer) for a in arrays)
    assert all(type(w) is int and type(c) is int for w, c in code.weight_enumerator().items())


def test_kernel_enumerator_sum_check():
    code = build_code(make_field(5), empty_tetrahedron(1, 2))
    # a single projective class
    code._zero_counts = lambda: iter([(np.array([2]), np.array([1]))])
    with pytest.raises(InternalCheckFailed, match="sums to"):
        code.weight_enumerator()


def test_kernel_enumerator_first_moment_check():
    code = build_code(make_field(5), empty_tetrahedron(1, 2))
    # 156 classes of weight n - 2: 4 * 156 + 1 = 5^4 codewords, but a first
    # moment of 62 * 624, not n * 4 * 5^3 = 32000
    code._zero_counts = lambda: iter([(np.array([2]), np.array([156]))])
    with pytest.raises(InternalCheckFailed, match="first moment"):
        code.min_distance_brute()


def test_witness_checks_its_permutation(monkeypatch):
    field = make_field(5)
    c1 = build_code(field, empty_tetrahedron(1, 1))
    c2 = build_code(field, empty_tetrahedron(1, 2))
    # the keys match and the map is a bijection, the matrices do not match
    c2._column_key = c1._column_key
    monkeypatch.setattr(classify, "_lattice_perm", lambda c1, c2: np.arange(c1.n))
    with pytest.raises(InternalCheckFailed, match=r"G1\[:, perm\] != G2 \(columns differ\)"):
        witness_equivalence(c1, c2)


def test_cli_exits_1_on_a_failed_witness_check(monkeypatch, capsys):
    monkeypatch.setattr(
        ToricCode, "column_tuples", lambda self: np.zeros((self.n, self.k), dtype=np.int64)
    )
    monkeypatch.setattr(ToricCode, "_column_key", ())
    argv = ["equiv", "--q", "5", "--a", "T(1,1)", "--b", "T(1,2)", "--method", "witness"]
    assert main(argv) == 1
    assert "G1[:, perm] != G2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["census --q 5 --dim 4", "verify --q 5"])
def test_a_failed_witness_in_the_census_names_both_codes(monkeypatch, capsys, command):
    # one key for every code: the first dim-4 code whose columns differ
    # from T(0,1)'s fails its witness while the census builds it
    monkeypatch.setattr(ToricCode, "_column_key", ())
    assert main(command.split()) == 1
    err = capsys.readouterr().err
    assert "q=5: T(0,1) vs T(1,2): column multisets match, yet G1[:, perm] != G2" in err
