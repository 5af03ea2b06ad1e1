"""Tests of the benchmark's own checks, time-out and tracer.

    python3 -m pytest perfbench
"""

import copy
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import toric3  # noqa: E402
import calibrate  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402
from worker import attempt, run_passes  # noqa: E402

REF = wl.load_reference()


def recorded_invariants(key="T(1,9)@GF(16)", family="T", s=1, t=9):
    rec = REF["invariants"][key]
    return {"family": family, "s": s, "t": t, "q": rec["q"], "k": rec["k"], "n": rec["n"],
            "d": rec["d"], "enumerator": {int(w): c for w, c in rec["enumerator"].items()}}


def test_recorded_invariants_pass_the_checks():
    assert wl.check_invariants(recorded_invariants(), REF) == []
    res = recorded_invariants("P32(1,1)@GF(11)", "P32", 1, 1)
    assert wl.check_invariants(res, REF) == []


def test_tampered_enumerator_is_counted_as_failed():
    res = recorded_invariants()
    weight = max(res["enumerator"])
    res["enumerator"][weight] += 1
    assert wl.check_invariants(res, REF)
    inst = wl.Instance("tampered", lambda: res, wl.check_invariants, 5.0)
    passes = run_passes([inst], REF, 0.0, None)
    records = [r for p in passes for r in p["instances"]]
    assert records and not any(r["ok"] for r in records)
    assert "weight enumerator differs from the recorded one" in records[0]["errors"]


def test_tampered_distance_is_counted_as_failed():
    res = recorded_invariants()
    res["d"] += 1
    assert not attempt(wl.Instance("tampered", lambda: res, wl.check_invariants, 5.0), REF)["ok"]


def test_time_out_is_counted_as_failed():
    inst = wl.Instance("slow", lambda: time.sleep(5), lambda res, ref: [], 0.2)
    start = time.perf_counter()
    rec = attempt(inst, REF)
    assert time.perf_counter() - start < 2
    assert not rec["ok"] and "timed out" in rec["errors"][0]


def test_exception_is_counted_as_failed():
    rec = attempt(wl.Instance("raises", lambda: 1 // 0, lambda res, ref: [], 5.0), REF)
    assert not rec["ok"] and rec["errors"][0].startswith("ZeroDivisionError")


def recorded_census_output(key="census --q 7 --dim 5"):
    return copy.deepcopy(REF["census"][key])


def census_result(rows, q=7, dim=5):
    return {"q": q, "dim": dim, "rc": 0, "output": json.dumps(rows)}


def test_census_check_compares_recorded_fields_only():
    rows = recorded_census_output()
    last = max(r["class_id"] for r in rows)
    for r in rows:
        r["evidence"] = "a field added later"
        r["class_id"] = last - r["class_id"]  # renumbered classes
    assert wl.check_census(census_result(rows), REF) == []


def test_tampered_census_row_is_counted_as_failed():
    rows = recorded_census_output()
    rows[3]["d_brute"] -= 1
    assert wl.check_census(census_result(rows), REF)
    rows = recorded_census_output()
    rows[0]["class_id"] = rows[1]["class_id"] if rows[0]["class_id"] != rows[1]["class_id"] else 99
    assert wl.check_census(census_result(rows), REF)
    assert wl.check_census({"q": 7, "dim": 5, "rc": 1, "output": ""}, REF)


def small_witness():
    # GF(8): gcd(5, 7) = 1, so the column multisets of T(1,5) and T(2,5) match
    res = wl.run_witness(1, 2, 5, 8)
    return res, {"witness": {res["key"]: wl.verdict_record(res)}}


def test_witness_permutation_is_verified_outside_the_library():
    res, ref = small_witness()
    assert wl.check_witness(res, ref) == []
    perm = np.array(res["witness"].detail)
    j = next(j for j in range(1, len(perm)) if not np.array_equal(
        res["G1"][:, perm[0]], res["G1"][:, perm[j]]))
    perm[[0, j]] = perm[[j, 0]]
    bad = dict(res, witness=toric3.EquivalenceVerdict("EQUIVALENT", "WITNESS", perm))
    assert "G2 != G1[:, perm]" in wl.check_witness(bad, ref)


def test_seed_picks_from_the_recorded_pools():
    for seed in range(20):
        for name in wl.WORKLOADS:
            insts = wl.instances(name, seed)
            assert insts
            keys = {i.name for i in insts}
            recorded = set(REF["invariants"]) | set(REF["census"]) | set(REF["witness"])
            assert keys <= recorded, keys - recorded
    assert [i.name for i in wl.instances("witness-large-q", 0)] == [
        "T(1,4)~T(3,4)@GF(64)", "T(1,5)~T(2,5)@GF(64)", "T(1,8)~T(3,8)@GF(64)"]


def test_tracer_counts_calls_and_restores_the_library():
    original = toric3.witness_equivalence
    tracer = tracing.Tracer()
    tracer.instance = (0, 0)
    tracer.install()
    try:
        assert toric3.witness_equivalence is not original
        assert toric3.classify.witness_equivalence is toric3.witness_equivalence
        small_witness()
    finally:
        tracer.uninstall()
    assert toric3.witness_equivalence is original
    assert not hasattr(toric3.codes.ToricCode.column_tuples, "__wrapped__")
    selfs = tracing._self_times(tracer.spans)
    m = tracing.pass_metrics(tracer.spans, range(len(tracer.spans)), selfs, 0)
    assert m["classify.witness_calls"] == 1 and m["classify.witness_hits"] == 1
    assert m["codes.column_tuples_calls"] == 2 and m["codes.kernel_calls"] == 0
    assert m["polytopes.specs_parsed"] == 2 and m["classify.theorem_calls"] == 1
    assert 0 <= m["classify.witness_self_s"] <= m["classify.witness_s"]


def test_times_are_scaled_by_the_speed_sampled_while_they_ran():
    ref = run.REFERENCE_S

    def inst(wall, unit_s, probe):
        return {"wall_s": wall, "unit_s": unit_s, "setup_probes": [(probe, unit_s)]}

    # the second pass ran on a machine half as fast: twice the time, twice the unit time
    passes = [{"instances": [inst(1.0, ref, 0.1), inst(3.0, ref, 0.2)]},
              {"instances": [inst(2.0, 2 * ref, 0.2), inst(6.0, 2 * ref, 0.4)]},
              {"instances": [inst(1.5, ref, 0.1), inst(3.0, ref, 0.2)]}]
    solve = run.solve_times(passes)
    assert abs(solve["scaled"] - 4.0) < 1e-9 and solve["wall"] == 4.5
    setup = run.setup_times(passes)
    assert abs(setup["scaled"] - 0.15) < 1e-9 and setup["wall"] == 0.2


def test_sampler_takes_its_time_off_the_wall_time():
    inst = wl.Instance("busy", lambda: sum(range(3_000_000)), lambda res, ref: [], 5.0)
    rec = attempt(inst, REF, calibrate.Sampler())
    assert rec["ok"] and rec["samples"] >= 3 and rec["sampled_s"] > 0
    assert 0 < rec["unit_s"] < 0.1 and rec["wall_s"] > 0
