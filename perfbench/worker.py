"""One benchmark pass in a fresh interpreter (spawned by ``run.py``).

Sets the workload up, runs one untimed warm-up evaluation (the end of which
closes ``setup_s``), then evaluates in a closed loop: one caller, each
evaluation submitted after the previous one returned, until the next one
would overrun the time budget.  On the sim workloads a ``HostGauge``
samples the host's speed from interpreter start on, and every evaluation
and the set-up are also recorded in scaled seconds (see ``reference.py``).
With ``--trace 1`` the loop runs untraced for half the budget, the tracer is
installed, and the same jobs are replayed traced (on a fresh instance with
the same seed for a stateful workload), so the two passes can be compared
evaluation by evaluation.

Writes one JSON document to ``--out``; ``run.py`` turns it into metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def host_fingerprint() -> dict:
    import numpy
    from repro.field import kernels

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "kernel": kernels.kernel_name(),
        "gmpy2": kernels.gmpy2_available(),
        "dispatch_thresholds": dict(kernels.DISPATCH_THRESHOLDS),
        "calibration_file_applied": kernels.load_dispatch_calibration(),
    }


def timed_pass(runner, next_job, budget, limit=None, tracer=None, gauge=None):
    """Closed loop over jobs; returns (records, jobs, wall seconds).

    Always runs at least one evaluation; stops before an evaluation that
    the median so far says would end past ``budget``, after ``limit``
    evaluations, or after the first failure.
    """
    records, jobs, walls = [], [], []
    started = time.perf_counter()
    while limit is None or len(records) < limit:
        if walls and time.perf_counter() - started + statistics.median(walls) > budget:
            break
        job = next_job(len(records))
        since = gauge.mark() if gauge is not None else None
        begun = time.perf_counter()
        try:
            if tracer is None:
                record = runner.run(job)
            else:
                tracer.begin_eval(len(records))
                record = tracer.span("eval", runner.run, job)
                tracer.end_eval()
        except Exception:  # noqa: BLE001 - every failure is counted, not fatal
            record = {"error": traceback.format_exc(limit=8)}
        record["wall"] = time.perf_counter() - begun
        if gauge is not None:
            record["scaled"] = gauge.scaled(record["wall"], since)
        records.append(record)
        jobs.append(job)
        walls.append(record["wall"])
        if "error" in record:
            break
    return records, jobs, time.perf_counter() - started


def neutrality_errors(untraced, traced):
    """Evaluations whose traced replay differs in outputs or counts."""
    errors = []
    for index, (plain, replay) in enumerate(zip(untraced, traced)):
        for key in ("outputs", "messages", "bits", "deltas"):
            if plain.get(key) != replay.get(key):
                errors.append(
                    f"eval {index}: {key} untraced={plain.get(key)!r} traced={replay.get(key)!r}"
                )
    return errors


def service_metrics(records, unused) -> dict:
    levels = [r["reservoir_level"] for r in records if "reservoir_level" in r]
    blocked = [r["wall"] for r in records if r.get("blocked")]
    evals = max(1, len(records))
    return {
        "service.refill_rounds": sum(r.get("refill_rounds", 0) for r in records) / evals,
        "service.blocked_evals": len(blocked) / evals,
        "service.reservoir_min_level": float(min(levels)) if levels else 0.0,
        "service.triples_unused": float(unused),
        "service.blocked_eval_s_p50": statistics.median(blocked) if blocked else 0.0,
    }


def traced_run(args, workload, warm_job, rng, scratch) -> dict:
    """Untraced half-budget pass, then the traced replay of the same jobs."""
    from tracer import Tracer
    from workloads import N, SingleProcessTcp, make_workload

    runner = workload
    startup_s = getattr(workload, "startup_s", None) or 0.0
    if args.workload == "tcp-service":
        # The party processes cannot be wrapped from here; replay the same
        # evaluations in one process over real sockets (see SingleProcessTcp).
        workload.close()
        runner = SingleProcessTcp()
    half = args.seconds / 2.0
    untraced, jobs, _ = timed_pass(runner, lambda i: runner.make_job(rng), half)

    from repro.field.array import cache_stats

    def evictions() -> int:
        return sum(v for k, v in cache_stats().items() if k.endswith("_evictions"))

    tracer = Tracer()
    tracer.install()
    replay = runner
    if runner.stateful:
        replay = make_workload(args.workload, scratch)
        replay.setup(args.seed)
        replay.run(warm_job)
    tracer.reset()
    evictions_before = evictions()
    failed_untraced = any("error" in r for r in untraced)
    traced, _, _ = timed_pass(
        replay,
        lambda i: jobs[i],
        budget=float("inf") if runner.stateful else half,
        limit=0 if failed_untraced else len(jobs),
        tracer=tracer,
    )
    closing = replay.close()
    # Sim replays are deterministic and must match exactly; the real-clock
    # single-process stand-in for tcp-service is not.
    errors = neutrality_errors(untraced, traced) if runner is workload else []

    ok = [r for r in traced if "error" not in r]
    metrics = tracer.layer_metrics(len(traced))
    metrics.update(service_metrics(traced, closing.get("triples_unused", 0)))
    metrics["acs.excluded_inputs"] = (
        sum(N - len(r["subset"]) for r in ok) / max(1, len(ok))
    )
    metrics["field.cache_evictions"] = (evictions() - evictions_before) / max(1, len(traced))
    metrics["launch.startup_s"] = startup_s
    plain_walls = [r["wall"] for r in untraced[: len(traced)]]
    traced_walls = [r["wall"] for r in traced]
    metrics["trace.overhead"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls)
        if traced_walls and plain_walls else 0.0
    )
    metrics["trace.evals"] = float(len(traced))

    artifact = tracer.artifact()
    artifact.update({"workload": args.workload, "seed": args.seed, "metrics": metrics})
    path = os.path.join(scratch, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle)
    return {
        "untraced": untraced,
        "traced": traced,
        "neutrality_errors": errors,
        "layer_metrics": metrics,
        "trace_file": os.path.relpath(path, ROOT),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    scratch = os.path.abspath(args.scratch)
    os.makedirs(scratch, exist_ok=True)
    # Temp files of the program (the TCP supervisor's job spec) stay inside
    # the checkout, and so do those of the party processes it spawns.
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = scratch
    sys.path.insert(0, os.path.join(ROOT, "src"))

    from reference import HostGauge

    # Started before ``import repro`` so that the set-up is sampled too.
    gauge = None if args.trace else HostGauge()
    if gauge is not None:
        gauge.start()

    from workloads import make_workload

    result = {"workload": args.workload, "seed": args.seed, "host": host_fingerprint()}
    rng = random.Random(args.seed)
    workload = make_workload(args.workload, scratch)
    if gauge is not None and not workload.host_scaled:
        gauge.stop()
        gauge = None
    result["host_scaled"] = gauge is not None
    try:
        workload.setup(args.seed)
        warm_job = workload.make_job(rng)
        workload.run(warm_job)
        result["setup_done"] = time.monotonic()
        if gauge is not None:
            result["setup_gauge"] = gauge.mark()
        if args.trace:
            result.update(traced_run(args, workload, warm_job, rng, scratch))
        elif not args.setup_only:
            records, _, wall = timed_pass(
                workload, lambda i: workload.make_job(rng), args.seconds, gauge=gauge
            )
            result["records"] = records
            result["loop_wall"] = wall
    finally:
        if gauge is not None:
            gauge.stop()
        result.update(workload.close())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
