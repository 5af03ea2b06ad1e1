"""Workload instances for the toric3 benchmark, and the checks on their outputs.

Each workload is a fixed list of instances run in order; one pass runs the
whole list.  The seed only chooses among instances of equal cost: the same
field, code length n and dimension k, so the exhaustive search does the same
work whatever the seed.  Seed 0 is the default and gives the instances named
in README.md.

Checks hold for any seed (the enumerator sums to q^k, its least nonzero weight
is d, d agrees with the closed forms, a witness permutation maps G1 onto G2)
and, in addition, compare with the outputs recorded in reference.json.  Only
the recorded fields are compared, so a field added to a result later is not a
failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from typing import Callable

import numpy as np

import toric3
import toric3.cli

# Bound at import, before a tracer patches the toric3 modules, so that the
# checks use the library's formulas without being counted in its layers.
from toric3.formulas import dim4_distance, dim5_distance

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# invariants: T(s,9) over GF(16) (k=4, n=3375) and P32(s,t) over GF(11)
# (k=5, n=1000).  Every member of a pool has the same q, k and n.
T9_S_POOL = tuple(s for s in range(1, 9) if gcd(s, 9) == 1)
P32_POOL = ((1, 1), (1, 2), (1, 3), (2, 3), (1, 4), (3, 4))

# witness-large-q: T(s1,t) ~ T(s2,t) over GF(64) with gcd(t, 63) = 1, so the
# theorem says EQUIVALENT and the column multisets match: the kernel fallback,
# which does not finish at q=64, is never reached.  record_reference.py
# confirms that every pair reaches EQUIVALENT by WITNESS.
WITNESS_Q = 64
WITNESS_POOL = tuple(
    (s1, s2, t)
    for t in (4, 5, 8, 10)
    for s1 in range(1, t)
    for s2 in range(s1 + 1, t)
    if gcd(s1, t) == 1 and gcd(s2, t) == 1
)

CENSUS_RUNS = ((9, 4), (7, 5))  # (q, dim)

# Census row fields recorded in reference.json and compared by the check.
CENSUS_FIELDS = (
    "q", "family", "s", "t", "n", "k", "d_brute",
    "d_formula_lower", "d_formula_upper", "class_id", "theorem_agrees",
)

# Per-instance time-outs, about three times an instance's slowest time seen at
# the seed.  A time-out counts as a failed instance, so a regression that sends
# a q=64 pair to the brute-force fallback fails instead of hanging.  Two passes
# that all time out still end inside run.py's limit on the workload process.
INVARIANTS_TIMEOUT_S = 20.0
CENSUS_TIMEOUT_S = 30.0
WITNESS_TIMEOUT_S = 15.0


@dataclass
class Instance:
    name: str
    run: Callable[[], object]
    check: Callable[[object, dict], list]  # (result, reference) -> errors
    timeout_s: float


# -- invariants -----------------------------------------------------------------


def run_invariants(family: str, s: int, t: int, q: int) -> dict:
    """parse_polytope_spec -> build_code -> min_distance_brute -> weight_enumerator."""
    field = toric3.make_field(q)
    poly = toric3.parse_polytope_spec(f"{family}({s},{t})")
    code = toric3.build_code(field, poly)
    d = code.min_distance_brute().value
    enum = code.weight_enumerator()
    return {"family": family, "s": s, "t": t, "q": q, "k": code.k, "n": code.n,
            "d": d, "enumerator": {int(w): int(c) for w, c in enum.items()}}


def invariants_key(family: str, s: int, t: int, q: int) -> str:
    return f"{family}({s},{t})@GF({q})"


def check_invariants(res: dict, ref: dict) -> list:
    errors = []
    q, k, d, enum = res["q"], res["k"], res["d"], res["enumerator"]
    if sum(enum.values()) != q**k:
        errors.append(f"enumerator sums to {sum(enum.values())}, not q^k = {q**k}")
    if enum.get(0) != 1:
        errors.append("weight 0 must occur exactly once")
    least = min((w for w, c in enum.items() if w > 0 and c > 0), default=None)
    if least != d:
        errors.append(f"least nonzero weight {least} != d = {d}")
    if res["family"] == "T":
        want = dim4_distance(q, res["t"]).value
        if d != want:
            errors.append(f"d = {d} != dim4_distance = {want}")
    else:
        f = dim5_distance((3, 2), q, res["s"], res["t"])
        if not f.lower <= d <= f.upper:
            errors.append(f"d = {d} outside dim5_distance [{f.lower}, {f.upper}]")
    key = invariants_key(res["family"], res["s"], res["t"], q)
    rec = ref.get("invariants", {}).get(key)
    if rec is None:
        return errors + [f"no recorded reference for {key}"]
    got = (res["n"], k, d)
    if (rec["n"], rec["k"], rec["d"]) != got:
        errors.append(f"(n, k, d) = {got} != recorded ({rec['n']}, {rec['k']}, {rec['d']})")
    if {int(w): c for w, c in rec["enumerator"].items()} != enum:
        errors.append("weight enumerator differs from the recorded one")
    return errors


def invariants_instances(seed: int) -> list:
    if seed == 0:
        s, (ps, pt) = 1, (1, 1)
    else:
        rng = random.Random(seed)
        s, (ps, pt) = rng.choice(T9_S_POOL), rng.choice(P32_POOL)
    picks = (("T", s, 9, 16), ("P32", ps, pt, 11))
    return [
        Instance(invariants_key(*p), lambda p=p: run_invariants(*p),
                 check_invariants, INVARIANTS_TIMEOUT_S)
        for p in picks
    ]


# -- census ---------------------------------------------------------------------


def census_key(q: int, dim: int) -> str:
    return f"census --q {q} --dim {dim}"


def run_census(q: int, dim: int) -> dict:
    """toric3.cli.main in-process, its JSON output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = toric3.cli.main(["census", "--q", str(q), "--dim", str(dim)])
    return {"q": q, "dim": dim, "rc": rc, "output": buf.getvalue()}


def _partition(rows) -> set:
    """The classes as a set of frozensets of (family, s, t)."""
    classes: dict = {}
    for r in rows:
        classes.setdefault(r["class_id"], set()).add((r["family"], r["s"], r["t"]))
    return {frozenset(c) for c in classes.values()}


def check_census(res: dict, ref: dict) -> list:
    if res["rc"] != 0:
        return [f"cli exit code {res['rc']}"]
    rows = json.loads(res["output"])
    q = res["q"]
    errors = []
    for r in rows:
        tag = f"{r['family']}({r['s']},{r['t']})"
        if r["q"] != q or r["n"] != (q - 1) ** 3:
            errors.append(f"{tag}: q or n wrong")
        if not r["d_formula_lower"] <= r["d_brute"] <= r["d_formula_upper"]:
            errors.append(f"{tag}: d_brute outside the formula interval")
        if r["theorem_agrees"] is not True:
            errors.append(f"{tag}: theorem disagrees with witness")
    ids = {r["class_id"] for r in rows}
    if ids != set(range(len(ids))):
        errors.append("class ids are not 0..c-1")
    key = census_key(q, res["dim"])
    recorded = ref.get("census", {}).get(key)
    if recorded is None:
        return errors + [f"no recorded reference for {key}"]
    by_tuple = {(r["family"], r["s"], r["t"]): r for r in rows}
    if len(by_tuple) != len(rows) or set(by_tuple) != {
        (r["family"], r["s"], r["t"]) for r in recorded
    }:
        return errors + ["census entries differ from the recorded ones"]
    for rec in recorded:
        row = by_tuple[(rec["family"], rec["s"], rec["t"])]
        diff = [f for f in CENSUS_FIELDS if f != "class_id" and row.get(f) != rec[f]]
        if diff:
            errors.append(f"{rec['family']}({rec['s']},{rec['t']}): {diff} differ")
    # class ids are compared as a partition, so renumbering is not a failure
    if _partition(rows) != _partition(recorded):
        errors.append("equivalence classes differ from the recorded ones")
    return errors


def census_instances(seed: int) -> list:
    del seed  # the census sweep has no free choice
    return [
        Instance(census_key(q, dim), lambda q=q, dim=dim: run_census(q, dim),
                 check_census, CENSUS_TIMEOUT_S)
        for q, dim in CENSUS_RUNS
    ]


# -- witness-large-q ------------------------------------------------------------


def witness_key(s1: int, s2: int, t: int, q: int) -> str:
    return f"T({s1},{t})~T({s2},{t})@GF({q})"


def run_witness(s1: int, s2: int, t: int, q: int) -> dict:
    thm = toric3.dim4_theorem_verdict(q, s1, t, s2, t)
    field = toric3.make_field(q)
    c1 = toric3.build_code(field, toric3.parse_polytope_spec(f"T({s1},{t})"))
    c2 = toric3.build_code(field, toric3.parse_polytope_spec(f"T({s2},{t})"))
    wit = toric3.witness_equivalence(c1, c2)
    return {"key": witness_key(s1, s2, t, q), "theorem": thm, "witness": wit,
            "G1": c1.G, "G2": c2.G}


def verdict_record(res: dict) -> dict:
    thm, wit = res["theorem"], res["witness"]
    return {"theorem": {"status": thm.status, "criterion": thm.detail},
            "witness": {"status": wit.status, "evidence": wit.evidence_kind}}


def check_witness(res: dict, ref: dict) -> list:
    errors = []
    thm, wit = res["theorem"], res["witness"]
    if thm.status != "EQUIVALENT":
        errors.append(f"theorem verdict {thm.status}, expected EQUIVALENT")
    if (wit.status, wit.evidence_kind) != ("EQUIVALENT", "WITNESS"):
        errors.append(f"witness verdict {wit.status} by {wit.evidence_kind}")
    else:
        # re-verify the permutation outside the library
        G1, G2 = res["G1"], res["G2"]
        perm = np.asarray(wit.detail)
        n = G1.shape[1]
        if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
            errors.append("witness is not a permutation of the columns")
        elif not np.array_equal(G2, G1[:, perm]):
            errors.append("G2 != G1[:, perm]")
    rec = ref.get("witness", {}).get(res["key"])
    if rec is None:
        return errors + [f"no recorded reference for {res['key']}"]
    if verdict_record(res) != rec:
        errors.append(f"verdicts {verdict_record(res)} != recorded {rec}")
    return errors


def witness_instances(seed: int) -> list:
    if seed == 0:
        picks = ((1, 3, 4), (1, 2, 5), (1, 3, 8))
    else:
        picks = random.Random(seed).sample(WITNESS_POOL, 3)
    return [
        Instance(witness_key(*p, WITNESS_Q),
                 lambda p=p: run_witness(*p, WITNESS_Q),
                 check_witness, WITNESS_TIMEOUT_S)
        for p in picks
    ]


# -- registry -------------------------------------------------------------------

WORKLOADS = {
    "invariants": (invariants_instances, (16, 11)),
    "census": (census_instances, (9, 7)),
    "witness-large-q": (witness_instances, (WITNESS_Q,)),
}


def instances(workload: str, seed: int) -> list:
    return WORKLOADS[workload][0](seed)


def field_orders(workload: str) -> tuple:
    """The q of every field the workload uses, built during set-up."""
    return WORKLOADS[workload][1]


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
