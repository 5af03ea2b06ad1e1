"""Record the reference outputs that the benchmark checks every run against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Computes, with the library as it is, the outputs of every instance any seed
can pick: the invariants (d and weight enumerator) of each pool member, the
census rows, and the verdicts of every witness-large-q pair.  It fails unless
each witness pair is EQUIVALENT both by theorem and by a verified column
witness, since at q=64 the kernel fallback does not finish.  Re-record only
when the library's answers are meant to change.
"""

from __future__ import annotations

import json
import sys
import time

import workloads as wl


def main() -> int:
    ref = {"invariants": {}, "census": {}, "witness": {}}
    for family, pool, q in (
        ("T", [(s, 9) for s in wl.T9_S_POOL], 16),
        ("P32", wl.P32_POOL, 11),
    ):
        for s, t in pool:
            start = time.perf_counter()
            res = wl.run_invariants(family, s, t, q)
            rec = {f: res[f] for f in ("q", "k", "n", "d")}
            rec["enumerator"] = {str(w): c for w, c in sorted(res["enumerator"].items())}
            ref["invariants"][wl.invariants_key(family, s, t, q)] = rec
            print(f"{wl.invariants_key(family, s, t, q)}: d={res['d']} "
                  f"{time.perf_counter() - start:.2f} s", file=sys.stderr)
    for q, dim in wl.CENSUS_RUNS:
        start = time.perf_counter()
        res = wl.run_census(q, dim)
        if res["rc"] != 0:
            print(f"{wl.census_key(q, dim)}: exit code {res['rc']}", file=sys.stderr)
            return 1
        rows = json.loads(res["output"])
        ref["census"][wl.census_key(q, dim)] = [
            {f: r[f] for f in wl.CENSUS_FIELDS} for r in rows
        ]
        print(f"{wl.census_key(q, dim)}: {len(rows)} rows "
              f"{time.perf_counter() - start:.2f} s", file=sys.stderr)
    for s1, s2, t in wl.WITNESS_POOL:
        start = time.perf_counter()
        res = wl.run_witness(s1, s2, t, wl.WITNESS_Q)
        rec = wl.verdict_record(res)
        if rec["theorem"]["status"] != "EQUIVALENT" or rec["witness"] != {
            "status": "EQUIVALENT", "evidence": "WITNESS"
        }:
            print(f"{res['key']}: {rec} is not EQUIVALENT by WITNESS", file=sys.stderr)
            return 1
        errors = wl.check_witness(res, {"witness": {res["key"]: rec}})
        if errors:
            print(f"{res['key']}: {errors}", file=sys.stderr)
            return 1
        ref["witness"][res["key"]] = rec
        print(f"{res['key']}: {rec} {time.perf_counter() - start:.2f} s", file=sys.stderr)
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
