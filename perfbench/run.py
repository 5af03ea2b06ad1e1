"""Benchmark entry point for toric3; run from the root of a checkout.

    python3 perfbench/run.py --workload invariants|census|witness-large-q \
        --seed N --seconds S --trace 0|1

Starts one workload process (worker.py) with src/ on PYTHONPATH and one
BLAS/OpenMP thread, and kills it, with the set-up probes it started, if it
overruns.  Writes a run record (metadata, every pass and, when traced, every
span) to perfbench/out/ and prints as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics untraced and the per-layer metrics traced.
Untraced times are scaled to the reference speed of calibrate.py; the run
record keeps them unscaled too.  Exits 2 without a result when the checkout has no toric3 sources, and 1 when
the workload process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from calibrate import REFERENCE_S
from tracer import UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("invariants", "census", "witness-large-q")

# The whole run ends well inside 180 s.
WORKER_LIMIT_S = 150.0

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # the library iterates over sets; fix their order
    return env


def run_worker(args: list) -> dict:
    """Run worker.py in its own process group; on time-out kill the group."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args], env=worker_env(), cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=WORKER_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"workload process killed after {WORKER_LIMIT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_sha256() -> str:
    """Digest of the library sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def scaled(seconds: float, unit_s: float) -> float:
    """A time taken while a reference unit took unit_s, at the reference speed."""
    return seconds * REFERENCE_S / unit_s


def solve_times(passes: list) -> dict:
    """Time of one pass, as the sum over instances of the median over passes.

    ``scaled`` scales each instance's time by the speed sampled while it ran;
    ``wall`` is the same sum unscaled.
    """
    wall = scaled_sum = 0.0
    for runs in zip(*(p["instances"] for p in passes)):
        wall += median(r["wall_s"] for r in runs)
        scaled_sum += median(scaled(r["wall_s"], r["unit_s"]) for r in runs)
    return {"scaled": scaled_sum, "wall": wall}


def setup_times(passes: list) -> dict:
    """Median set-up probe, each scaled by the speed measured right after it."""
    probes = [pair for p in passes for r in p["instances"] for pair in r["setup_probes"]]
    return {"scaled": median(scaled(s, unit_s) for s, unit_s in probes),
            "wall": median(s for s, _ in probes)}


def end_to_end(report: dict, attempted: int, failed: int) -> dict:
    return {
        "solve_s": {"value": solve_times(report["passes"])["scaled"], "unit": "s"},
        "setup_s": {"value": setup_times(report["passes"])["scaled"], "unit": "s"},
        "peak_rss_mb": {"value": report["peak_rss_kb"] / 1024, "unit": "MB"},
        "success_pct": {"value": 100.0 * (attempted - failed) / attempted, "unit": "%"},
    }


def per_layer(report: dict) -> dict:
    return {name: {"value": value, "unit": UNITS[name]}
            for name, value in report["layers"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "toric3" / "__init__.py").is_file():
        print(f"error: no toric3 sources under {SRC}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        report = run_worker(["--workload", args.workload, "--seed", str(args.seed),
                             "--seconds", str(args.seconds), "--trace", str(args.trace)])
    except (RuntimeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    passes = report["passes"]
    attempted = sum(len(p["instances"]) for p in passes)
    failed = sum(not r["ok"] for p in passes for r in p["instances"])
    metrics = per_layer(report) if args.trace else end_to_end(report, attempted, failed)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "numpy": report["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "instances": report["instances"],
        "worker_setup_s": report["setup_s"],
        "reference_s": REFERENCE_S,
        "passes": passes,
        "metrics": metrics,
        "unscaled": None if args.trace else {
            "solve_s": solve_times(passes)["wall"], "setup_s": setup_times(passes)["wall"]},
        "run_wall_s": time.perf_counter() - started,
        "spans": report.get("spans", []),
    }
    OUT.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    with open(path, "w") as fh:
        json.dump(record, fh)
    for p in passes:
        for r in p["instances"]:
            if not r["ok"]:
                print(f"FAILED pass {p['pass']} {r['name']}: {r['errors']}", file=sys.stderr)
    print(f"run record: {path.relative_to(ROOT)}", file=sys.stderr)

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
