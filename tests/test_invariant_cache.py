"""One kernel pass per code, and the checks on what the pass and the
witness return."""

from collections import Counter

import numpy as np
import pytest

from toric3 import classify
from toric3.classify import INCONCLUSIVE, census, witness_equivalence
from toric3.cli import main
from toric3.codes import ToricCode, build_code
from toric3.errors import InternalCheckFailed, TheoremWitnessMismatch
from toric3.galois import make_field
from toric3.polytopes import empty_tetrahedron


@pytest.fixture
def passes(monkeypatch):
    """Kernel passes counted per code id."""
    counts = Counter()
    kernel = ToricCode._zero_weight_per_class

    def counted(self):
        counts[id(self)] += 1
        return kernel(self)

    monkeypatch.setattr(ToricCode, "_zero_weight_per_class", counted)
    return counts


@pytest.mark.parametrize("workers", [None, 2])
def test_census_runs_one_pass_per_entry(passes, workers):
    entries = census(make_field(7), 5, max_workers=workers)
    assert passes == Counter(id(e.code) for e in entries)


def test_verify_runs_one_pass_per_code(passes, capsys):
    # GF(5): 5 dim-4 and 9 width-1 census entries, then 4 embedded polygons
    assert main(["verify", "--q", "5"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert sum(passes.values()) == 18


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
    assert passes == Counter({id(c1): 1, id(c2): 1})
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


def test_kernel_distance_cross_check():
    code = build_code(make_field(5), empty_tetrahedron(1, 2))
    # n - maxZ = n - 3, but the least weight is n - 2
    code._zero_weight_per_class = lambda: iter([(np.array([3]), np.array([code.n - 2]))])
    with pytest.raises(InternalCheckFailed, match="cross-check"):
        code.min_distance_brute()


def test_kernel_enumerator_sum_check():
    code = build_code(make_field(5), empty_tetrahedron(1, 2))
    # consistent distance, but a single projective class
    code._zero_weight_per_class = lambda: iter([(np.array([2]), np.array([code.n - 2]))])
    with pytest.raises(InternalCheckFailed, match="sums to"):
        code.weight_enumerator()


def test_witness_checks_its_permutation():
    field = make_field(5)
    c1 = build_code(field, empty_tetrahedron(1, 1))
    c2 = build_code(field, empty_tetrahedron(1, 2))
    c2.column_tuples = c1.column_tuples  # the multisets match, the matrices do not
    with pytest.raises(InternalCheckFailed, match="perm"):
        witness_equivalence(c1, c2)


def test_cli_exits_1_on_a_failed_witness_check(monkeypatch, capsys):
    monkeypatch.setattr(
        ToricCode, "column_tuples", lambda self: np.zeros((self.n, self.k), dtype=np.int64)
    )
    argv = ["equiv", "--q", "5", "--a", "T(1,1)", "--b", "T(1,2)", "--method", "witness"]
    assert main(argv) == 1
    assert "G1[:, perm] != G2" in capsys.readouterr().err
