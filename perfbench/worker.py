"""The workload process of the toric3 benchmark.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --setup-only

run.py starts it with src/ on PYTHONPATH and BLAS/OpenMP threads set to 1.
It times set-up (``import toric3`` plus ``make_field`` for every q the
workload uses), then runs passes over the workload's instances in a closed
loop, one thread, each instance starting when the previous one returns.  It
starts no pass that would end past --seconds, but runs at least two.  With
--trace 1 the passes alternate untraced and traced, so the tracing overhead
is measured in the same process.  Untraced, the machine's speed is sampled
while each instance runs (calibrate.py), and set-up probes (fresh processes
running ``--setup-only``), each followed by a measure of the machine's speed,
run after every instance.  The last line of stdout is a JSON report for run.py.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import subprocess
import sys
import time
from statistics import median

import calibrate

# A q=64 code sent to the brute-force kernel would allocate blocks of about
# 1 GB each; the cap turns that into a MemoryError, counted as a failure.
ADDRESS_SPACE_LIMIT = 1 << 30

# Set-up probes run between instances, so that their median covers the whole
# run rather than one moment of it: the machine's speed drifts over seconds.
PROBE_LIMIT_S = 10.0
PROBES_PER_INSTANCE = 2
# Reference units run after each probe to scale it (about 0.1 s, as a probe).
CALIBRATION_UNITS = 100

# Two passes at least: a median of two, and when traced one pass of each kind.
MIN_PASSES = 2


class InstanceTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise InstanceTimeout()


def attempt(inst, reference, sampler=None) -> dict:
    """Run and check one instance under its time-out; never raises.

    With a ``calibrate.Sampler`` the machine's speed is sampled while the
    instance runs: ``unit_s`` is the mean time of the reference unit, and
    ``wall_s`` leaves out the time the samples took.
    """
    if sampler is not None:
        sampler.start()
    start = time.perf_counter()
    signal.signal(signal.SIGALRM, _alarm)
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, inst.timeout_s)
            result = inst.run()
            errors = inst.check(result, reference)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except InstanceTimeout:
        result, errors = None, [f"timed out after {inst.timeout_s} s"]
    except Exception as e:  # any failure of one instance is counted, not fatal
        result, errors = None, [f"{type(e).__name__}: {e}"]
    wall = time.perf_counter() - start
    output = result.get("output", "") if isinstance(result, dict) else ""
    rec = {"name": inst.name, "wall_s": wall, "ok": not errors, "errors": errors,
           "output_bytes": len(output.encode())}
    if sampler is not None:
        unit_s, sampled_s, samples = sampler.stop()
        rec.update(wall_s=wall - sampled_s, unit_s=unit_s, sampled_s=sampled_s, samples=samples)
    return rec


def probe_setup(workload: str) -> float:
    """Set-up time of a fresh process that only imports toric3 and builds the fields."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--setup-only"],
        capture_output=True, text=True, timeout=PROBE_LIMIT_S, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def run_passes(insts, reference, seconds: float, tracer=None, probe=None) -> list:
    """Passes over insts until the next one would end past ``seconds``.

    Untraced instances run under a ``calibrate.Sampler``.  ``probe``, when
    given, is called PROBES_PER_INSTANCE times after every instance, each time
    followed by CALIBRATION_UNITS units of reference work; the instance record
    holds the pairs (set-up seconds, unit seconds) as ``setup_probes``.
    A pass's wall time is the sum of its instances' times.
    """
    sampler = calibrate.Sampler()
    passes = []
    start = time.perf_counter()
    while True:
        number = len(passes)
        traced = tracer is not None and number % 2 == 1
        if traced:
            tracer.install()
        records = []
        for i, inst in enumerate(insts):
            if traced:
                tracer.instance = (number, i)
            rec = attempt(inst, reference, None if traced else sampler)
            if probe is not None:
                rec["setup_probes"] = [(probe(), calibrate.measure(CALIBRATION_UNITS))
                                       for _ in range(PROBES_PER_INSTANCE)]
            records.append(rec)
        if traced:
            tracer.uninstall()
        wall = sum(r["wall_s"] for r in records)
        passes.append({"pass": number, "traced": traced, "wall_s": wall, "instances": records})
        elapsed = time.perf_counter() - start
        typical = median(p["wall_s"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > ADDRESS_SPACE_LIMIT:
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, hard))

    t0 = time.perf_counter()
    import toric3
    import_s = time.perf_counter() - t0

    import numpy
    import tracer as tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.instance = ("setup", None)
        tracer.install()
    t1 = time.perf_counter()
    for q in workloads.field_orders(args.workload):
        toric3.make_field(q)
    setup_s = import_s + time.perf_counter() - t1
    if tracer is not None:
        tracer.uninstall()

    report = {"setup_s": setup_s}
    if not args.setup_only:
        insts = workloads.instances(args.workload, args.seed)
        probe = None if tracer else lambda: probe_setup(args.workload)
        passes = run_passes(insts, workloads.load_reference(), args.seconds, tracer, probe)
        report.update(
            numpy=numpy.__version__,
            instances=[inst.name for inst in insts],
            passes=passes,
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
        if tracer is not None:
            traced = [p["pass"] for p in passes if p["traced"]]
            plain = [p["wall_s"] for p in passes if not p["traced"]]
            layers = tracing.layer_metrics(
                tracer.spans, "setup", traced,
                {p["pass"]: sum(r["output_bytes"] for r in p["instances"]) for p in passes},
            )
            layers["trace.overhead_s"] = (
                median(p["wall_s"] for p in passes if p["traced"]) - median(plain)
            )
            report.update(layers=layers, spans=[sp.to_list() for sp in tracer.spans])
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
