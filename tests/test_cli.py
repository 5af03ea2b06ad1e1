import json
import sys

import pytest

from toric3 import classify, cli, formulas
from toric3.cli import build_parser, main
from toric3.codes import DistanceResult, ToricCode
from toric3.galois import make_field
from toric3.polytopes import embedded_polygon


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_field_info(capsys):
    code, out, _ = run(capsys, "field-info", "--q", "9")
    assert code == 0
    info = json.loads(out)
    assert info["p"] == 3 and info["m"] == 2
    assert len(info["units"]) == 8


def test_mindist_both_consistent(capsys):
    code, out, _ = run(capsys, "mindist", "--q", "5", "--poly", "T(1,2)", "--method", "both")
    assert code == 0
    payload = json.loads(out)
    assert payload["formula"]["lower"] == 46
    assert payload["brute"]["lower"] == 46
    assert payload["consistent"] is True


def test_mindist_formula_only(capsys):
    code, out, _ = run(capsys, "mindist", "--q", "5", "--poly", "P22", "--method", "formula")
    assert code == 0
    assert json.loads(out)["formula"]["lower"] == 36


def test_mindist_formula_for_an_embedded_polygon(capsys):
    # E:3, the unit square at z=0: (q-1) times the planar d = (q-2)^2
    code, out, _ = run(capsys, "mindist", "--q", "7", "--poly", "E:3", "--method", "formula")
    assert code == 0
    assert json.loads(out)["formula"] == {
        "lower": 150, "upper": 150, "exact": True, "method": "formula",
    }


def test_mindist_no_formula_for_width2(capsys):
    code, _, err = run(capsys, "mindist", "--q", "5", "--poly", "W2:1", "--method", "formula")
    assert code == 1
    assert "no closed-form" in err


@pytest.mark.parametrize("q, spec", [
    (7, "W2:1"),  # no closed form for the family
    (7, "[(0,0,0);(1,0,0);(0,1,0);(0,0,1)]"),  # nor for a point list
    (4, "P22"),  # the width-1 formulas need q >= 5
])
def test_mindist_both_without_a_formula_gives_the_brute_distance(capsys, q, spec):
    code, out, err = run(capsys, "mindist", "--q", str(q), "--poly", spec)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert list(payload) == ["q", "poly", "method", "formula", "brute"]
    assert payload["method"] == "both" and payload["formula"] is None
    assert payload["brute"]["exact"] is True


def test_mindist_both_still_fails_on_a_polytope_too_big_for_the_field(capsys):
    # E:1 has no formula at q=4 and does not fit GF(4) either
    code, _, err = run(capsys, "mindist", "--q", "4", "--poly", "E:1")
    assert code == 1 and "does not fit GF(4)" in err


def test_mindist_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "mindist", "--q", "5", "--poly", "T(2,4)")
    assert code == 2
    assert "error" in err


def test_equiv_theorem_and_witness(capsys):
    code, out, _ = run(capsys, "equiv", "--q", "5", "--a", "T(1,2)", "--b", "T(3,2)")
    assert code == 0
    payload = json.loads(out)
    assert payload["theorem"]["status"] == "EQUIVALENT"
    assert payload["witness"]["status"] == "EQUIVALENT"
    assert payload["agreement"] is True


def test_equiv_disagreement_exits_1(capsys, monkeypatch):
    def inequivalent(q, pa, pb):
        return classify.EquivalenceVerdict(classify.INEQUIVALENT, "THEOREM", "forced")

    monkeypatch.setattr(classify, "theorem_verdict", inequivalent)
    code, out, _ = run(capsys, "equiv", "--q", "5", "--a", "T(1,2)", "--b", "T(3,2)")
    payload = json.loads(out)
    assert payload["witness"]["status"] == "EQUIVALENT"
    assert payload["agreement"] is False
    assert code == 1


def test_equiv_cross_signature(capsys):
    # no criterion spans two signatures; the witness's invariant separates them
    code, out, _ = run(capsys, "equiv", "--q", "5", "--a", "P22", "--b", "P31", "--method", "both")
    assert code == 0
    payload = json.loads(out)
    assert payload["theorem"] == {"status": "INCONCLUSIVE", "evidence": "NONE"}
    assert payload["witness"] == {
        "status": "INEQUIVALENT", "evidence": "INVARIANT",
        "invariant": {"name": "min_distance", "a": 36, "b": 40},
    }
    assert payload["agreement"] is True


def test_equiv_prints_a_separating_weight_enumerator(capsys):
    # equal distances, so the enumerators separate; each in ascending weight
    code, out, _ = run(
        capsys, "equiv", "--q", "5", "--a", "P21(0,1)", "--b", "P21(1,2)", "--method", "witness",
    )
    assert code == 0
    witness = json.loads(out)["witness"]
    assert (witness["status"], witness["evidence"]) == ("INEQUIVALENT", "INVARIANT")
    invariant = witness["invariant"]
    assert list(invariant) == ["name", "a", "b"]
    assert invariant["name"] == "weight_enumerator"
    assert list(invariant["a"].items()) == [
        ("0", 1), ("32", 24), ("48", 480), ("50", 384), ("51", 768), ("52", 1216),
        ("56", 192), ("64", 60),
    ]
    assert list(invariant["b"].items()) == [
        ("0", 1), ("32", 24), ("40", 64), ("46", 384), ("48", 480), ("50", 256),
        ("52", 1216), ("56", 576), ("60", 64), ("64", 60),
    ]


def test_equiv_verbose_dumps_permutation(capsys):
    code, out, _ = run(
        capsys, "equiv", "--q", "5", "--a", "T(1,2)", "--b", "T(3,2)",
        "--method", "witness", "--verbose",
    )
    assert code == 0
    perm = json.loads(out)["witness"]["permutation"]
    assert sorted(perm) == list(range(64))


def test_census_json_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for path in (out1, out2):
        code, _, _ = run(capsys, "census", "--q", "5", "--dim", "4", "--out", str(path))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = json.loads(out1.read_text())
    assert [(r["s"], r["t"]) for r in rows] == [(0, 1), (1, 1), (1, 2), (1, 3), (2, 3)]
    assert all(r["theorem_agrees"] for r in rows)


def test_census_csv(tmp_path, capsys):
    path = tmp_path / "census.csv"
    code, _, _ = run(capsys, "census", "--q", "5", "--dim", "4", "--out", str(path), "--format", "csv")
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("q,family,s,t,n,k")
    assert len(lines) == 6


@pytest.mark.parametrize("where", ["missing-dir/x.json", "."])
def test_census_out_that_cannot_be_opened_fails_first(where, tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(classify, "census", lambda *a: ran.append(a) or [])
    code, out, err = run(capsys, "census", "--q", "5", "--dim", "4", "--out", str(tmp_path / where))
    assert code == 2
    assert out == "" and ran == []
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not sys.stdout.closed


def test_census_not_prime_power(capsys):
    code, _, err = run(capsys, "census", "--q", "6", "--dim", "4")
    assert code == 1
    assert "prime power" in err


@pytest.mark.parametrize("q", [3, 4])
def test_census_dim5_below_q5_names_the_formula_bound(q, monkeypatch, capsys):
    # checked before any tuple is keyed or built: at q=3 two points of a
    # width-1 polytope once collided first, with another message
    swept = []
    monkeypatch.setattr(classify, "parameter_sweep", lambda *a: swept.append(a) or [])
    code, out, err = run(capsys, "census", "--q", str(q), "--dim", "5")
    assert (code, out, err) == (1, "", f"error: formula needs q >= 5; got {q}\n")
    assert swept == []


def test_verify_q5(capsys):
    code, out, _ = run(capsys, "verify", "--q", "5")
    assert code == 0
    assert "FAIL" not in out
    assert "PASS" in out


def test_verify_not_prime_power(capsys):
    code, _, err = run(capsys, "verify", "--q", "6")
    assert code == 1


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["mindist", "--q", "5"])  # missing --poly
    assert exc.value.code == 2


def test_equiv_theorem_closure_criterion(capsys):
    code, out, _ = run(
        capsys, "equiv", "--q", "13", "--a", "T(1,9)", "--b", "T(2,9)", "--method", "theorem",
    )
    assert code == 0
    assert json.loads(out)["theorem"] == {
        "status": "EQUIVALENT", "evidence": "THEOREM", "criterion": "same-t:orbit-mod-gcd",
    }


def test_verify_bad_q_list_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--q", "5,x"])
    assert exc.value.code == 2
    assert "comma-separated list of ints" in capsys.readouterr().err


def test_verify_names_the_polytope_that_fails_its_formula(monkeypatch, capsys):
    formula = classify.distance_formula

    def wrong_for_t13(poly, q):
        f = formula(poly, q)
        return DistanceResult(49, 50, f.method) if poly.describe() == "T(1,3)" else f

    monkeypatch.setattr(classify, "distance_formula", wrong_for_t13)
    code, out, err = run(capsys, "verify", "--q", "5")
    assert code == 1
    assert "FAIL  dim4 formula == brute" in out
    assert "PASS  dim4 census concordance" in out
    assert "PASS  dim5 width-1 formulas/bounds" in out
    # d(T(1,3)) = 48 over GF(5)
    assert err == "error: q=5: T(1,3): d=48 outside [49, 50]\n"


def test_verify_names_the_polygon_that_fails_its_degenerate_distance(monkeypatch, capsys):
    degenerate = formulas.degenerate_distance

    def wrong_for_e2(i, q):
        return DistanceResult(1, 1, "formula") if i == 2 else degenerate(i, q)

    monkeypatch.setattr(formulas, "degenerate_distance", wrong_for_e2)
    code, out, err = run(capsys, "verify", "--q", "5")
    assert code == 1
    assert "FAIL  degenerate + product theorem" in out
    assert err.startswith("error: q=5: E:2: d=") and err.endswith(" outside [1, 1]\n")


def test_verify_names_the_polygon_that_fails_the_product_theorem(monkeypatch, capsys):
    brute = ToricCode.min_distance_brute

    def off_by_one_on_planar_codes(self):
        d = brute(self)
        return DistanceResult(d.value + 1, d.value + 1, d.method) if self.m == 2 else d

    monkeypatch.setattr(ToricCode, "min_distance_brute", off_by_one_on_planar_codes)
    code, out, err = run(capsys, "verify", "--q", "5")
    assert code == 1
    assert "FAIL  degenerate + product theorem" in out
    # the theorem holds, d3 = 4*d2, so the planar distance off by one adds 4
    d3 = brute(ToricCode(make_field(5), embedded_polygon(1))).value
    assert err == f"error: q=5: E:1: d3={d3} != (q-1)*d2={d3 + 4}\n"


def test_main_shares_one_parser_across_calls(capsys):
    # parsing leaves the cached parser as it was: calls in a row print and
    # exit as calls that each build a fresh parser
    argvs = [
        ["field-info", "--q", "9"],
        ["mindist", "--q", "5", "--poly", "P22", "--method", "formula"],
        ["verify", "--q", "5,x"],
        ["equiv", "--q", "5", "--a", "T(1,2)", "--b", "T(3,2)", "--method", "theorem"],
        ["mindist", "--q", "5", "--poly", "T(2,4)"],
        ["field-info", "--q", "9"],
    ]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as e:
            code = ("exit", e.code)
        out = capsys.readouterr()
        return code, out.out, out.err

    fresh = []
    for argv in argvs:
        build_parser.cache_clear()
        fresh.append(call(argv))
    build_parser.cache_clear()
    in_a_row = [call(argv) for argv in argvs]
    assert in_a_row == fresh
    assert [c for c, _, _ in fresh] == [0, 0, ("exit", 2), 0, 2, 0]
    assert build_parser() is build_parser()


def test_main_runs_a_command_replaced_after_the_parser_was_built(monkeypatch, capsys):
    # a tracer or a test patches cli.cmd_* after the first main call
    assert run(capsys, "field-info", "--q", "9")[0] == 0
    monkeypatch.setattr(cli, "cmd_field_info", lambda args: print("patched") or 7)
    assert run(capsys, "field-info", "--q", "9") == (7, "patched\n", "")
