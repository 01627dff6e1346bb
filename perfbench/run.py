"""Layer-attributed end-to-end benchmark of the MPC stack.

Run from the repository root:

    python3 perfbench/run.py --workload oneshot-sync --seed 1 --seconds 30 --trace 0

Each run starts a fresh interpreter, sets the workload up, runs one untimed
warm-up evaluation, then evaluates in a closed loop (one caller thread in
one process; each evaluation is submitted after the previous one returned)
for ``--seconds``.  Every output is checked against ``Circuit.evaluate`` on
the effective inputs; any failure makes the run exit non-zero.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report with
every metric by name, unit and sample count, plus the host fingerprint.

Workloads (n=4, t_s=1, t_a=0, ``default_field()``, auto-selected kernel):

  oneshot-sync   repeated run_mpc(multiplication_circuit(F, 4), offline="tripsh")
                 on the synchronous sim backend, fresh seed and inputs each
                 time; ~ BENCH_runtime.json::mpc_n4_multiplication.
  stream-async   one long-lived MpcService over AsynchronousNetwork(max_delay=3)
                 with a HIM triple reservoir, product circuits with fresh
                 inputs; ~ BENCH_service.json::stream_n4_1000 (which ran
                 synchronous tripsh).
  tcp-service    TcpMpcService(4, 1, 0, offline="him"): one OS process per
                 party over localhost TCP, started once, then product
                 circuits; ~ BENCH_faults.json::supervisor_recovery_n4
                 .warm_eval_wall_s.

End-to-end metrics (``--trace 0``), per workload:

  setup_s            fresh interpreter (incl. ``import repro``) to the end of
                     the warm-up evaluation: cold reservoir fill on
                     stream-async, process spawn + connectivity on tcp-service;
                     median over the run's set-ups
  eval_s_p50         median seconds per timed evaluation
  evals_per_s        correct evaluations per timed second
  messages_per_eval  messages sent per evaluation (exact on the simulator; on
                     tcp-service the party processes' total over all
                     evaluations, spread evenly)
  bits_per_eval      honest bits per evaluation, the paper's unit
  deltas_per_eval    time to honest output in Δ: simulated on the sim
                     workloads; real-clock Δ from the supervisor's go to the
                     last output on tcp-service (includes the 5 Δ go slack)
  peak_rss_mb        peak RSS of the benchmark process (on tcp-service the
                     larger of it and the largest party process)

On the sim workloads (oneshot-sync, stream-async) the seconds in setup_s,
eval_s_p50 and evals_per_s are host-scaled: wall seconds times the host
speed sampled during them by a fixed reference loop (see
``perfbench/reference.py``), i.e. wall seconds on a nominal host.  The shared hosts the
benchmark runs on change speed by up to ~2x within minutes, which the
program cannot cause.  The report prints the unscaled wall figures and the
sampled speed next to them.  tcp-service reports wall seconds: much of its
evaluation is real-clock waiting in five processes.

The report also shows ``eval_s_tail`` (the highest percentile with at least
ten samples beyond it, given only when a run times >= 20 evaluations) and
``failure_rate``; failures are also the ``failed`` / ``attempted`` fields.

``--trace 1`` runs an untraced pass for half the time, installs spans and
counters around the modules' public entry points (from ``perfbench/tracer.py``,
nothing under ``src/`` changes), and replays the same evaluations traced.
It reports the per-layer metrics listed in BENCHMARK.json (all per
evaluation unless named a ratio, peak or p50; every ``*_s`` is self time),
``trace.overhead`` (traced / untraced median evaluation time) and
``trace.unattributed_s`` (evaluation time no layer span covers).  On the sim
workloads the traced replay must reproduce the untraced outputs and message,
bit and Δ counts exactly.  tcp-service replays its evaluations in one process
over ``AsyncioBackend(clock="real", transport=TcpTransport())``, because the
party processes cannot be wrapped; its ``launch.startup_s`` is the
multi-process ``TcpMpcService.start``.  The trace file (aggregates plus a
capped sample of raw spans) is written once, at the end, under
``.perfbench/``.

Seeds: the workload seed makes every input and protocol seed.  Use the
default seed 1 while developing a change and confirm a claimed gain on the
held-out seed 7919, which no change should be tuned on.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from reference import scaled_seconds

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
SCRATCH = os.path.join(ROOT, ".perfbench")
DEFAULT_SEED = 1

#: Whole-run wall budget; the benchmark must exit within 180 seconds.
RUN_DEADLINE_S = 170.0

#: Fresh-interpreter set-ups per run (the first one also runs the loop);
#: set-up is re-measured more often where it is cheap.
SETUPS = {"oneshot-sync": 1, "stream-async": 3, "tcp-service": 2}


class BenchmarkError(Exception):
    """The benchmark itself could not run (not a program failure)."""


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot read {path}: {exc}") from exc


def check_checkout() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise BenchmarkError(
            f"{ROOT} holds no src/repro package: run from a checkout of the repository"
        )


def run_worker(args, out: str, deadline: float, setup_only: bool = False) -> tuple:
    """Run one worker interpreter; returns (its JSON result, start time)."""
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", out, "--scratch", SCRATCH,
    ]
    if setup_only:
        argv.append("--setup-only")
    if os.path.exists(out):
        os.unlink(out)
    started = time.monotonic()
    # Its own session, so a timeout kills the party processes it spawned too.
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker exceeded the run deadline ({RUN_DEADLINE_S}s)") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0 or not os.path.exists(out):
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle), started


def tail(values):
    """(value, percentile) at the highest percentile with >= 10 samples beyond it."""
    if len(values) < 20:
        return None
    ordered = sorted(values)
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def setup_seconds(result, started) -> tuple:
    """(reported, wall) seconds from a worker's start to its set-up's end."""
    wall = result["setup_done"] - started
    if not result["host_scaled"]:
        return wall, wall
    return scaled_seconds(wall, result["setup_gauge"]), wall


def end_to_end(result, setups) -> tuple:
    records = result["records"]
    ok = [r for r in records if "error" not in r]
    scaled = result["host_scaled"]
    time_key = "scaled" if scaled else "wall"
    times = [r[time_key] for r in ok]
    loop_s = sum(r["scaled"] for r in records) if scaled else result["loop_wall"]
    reported_setups = [reported for reported, _ in setups]
    metrics = {
        "setup_s": (statistics.median(reported_setups), len(setups)),
        "eval_s_p50": (statistics.median(times) if times else 0.0, len(times)),
        "evals_per_s": (len(ok) / loop_s, len(ok)),
        "messages_per_eval": (statistics.fmean(r["messages"] for r in ok) if ok else 0.0, len(ok)),
        "bits_per_eval": (statistics.fmean(r["bits"] for r in ok) if ok else 0.0, len(ok)),
        "deltas_per_eval": (statistics.fmean(r["deltas"] for r in ok) if ok else 0.0, len(ok)),
        "peak_rss_mb": (max(result["peak_rss_mb"], result.get("party_peak_rss_mb", 0.0)), 1),
    }
    failed = len(records) - len(ok)
    notes = [f"failure_rate       {failed}/{len(records)}"]
    if scaled and ok:
        raw_walls = [r["wall"] for r in ok]
        notes.append(
            "host-scaled times  unscaled eval_s_p50 "
            f"{statistics.median(raw_walls):.4f} s, setup_s "
            f"{statistics.median(wall for _, wall in setups):.4f} s; host speed "
            f"{sum(times) / sum(raw_walls):.3f} of nominal"
        )
    tail_value = tail(times)
    if tail_value is None:
        notes.append(f"eval_s_tail        n/a ({len(times)} timed evaluations, needs >= 20)")
    else:
        notes.append(
            f"eval_s_tail        {tail_value[0]:.4f} s at p{tail_value[1]:.0f} (n={len(times)})"
        )
    if "party_peak_rss_mb" in result:
        notes.append(
            f"peak_rss_mb        benchmark {result['peak_rss_mb']:.1f} MB, "
            f"largest party {result['party_peak_rss_mb']:.1f} MB"
        )
    notes.extend(r["error"] for r in records if "error" in r)
    return metrics, len(records), failed, notes


def per_layer(result) -> tuple:
    untraced, traced = result["untraced"], result["traced"]
    metrics = {name: (value, len(traced)) for name, value in result["layer_metrics"].items()}
    failed = sum("error" in r for r in untraced + traced) + len(result["neutrality_errors"])
    notes = [f"trace file         {result['trace_file']}"]
    notes.extend(result["neutrality_errors"])
    notes.extend(r["error"] for r in untraced + traced if "error" in r)
    return metrics, len(untraced) + len(traced), failed, notes


def main(argv=None) -> int:
    try:
        spec = load_spec()
        check_checkout()
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=workloads, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_DEADLINE_S
    os.makedirs(SCRATCH, exist_ok=True)
    load_start = os.getloadavg()[0]
    stem = os.path.join(SCRATCH, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        result, started = run_worker(args, stem + ".json", deadline)
        setups = [setup_seconds(result, started)]
        if not args.trace:
            for index in range(1, SETUPS[args.workload]):
                extra, extra_started = run_worker(
                    args, f"{stem}-setup{index}.json", deadline, setup_only=True
                )
                setups.append(setup_seconds(extra, extra_started))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values, attempted, failed, notes = per_layer(result)
        declared = spec["per_layer"]
    else:
        values, attempted, failed, notes = end_to_end(result, setups)
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1

    host = dict(result["host"], load1_start=load_start, load1_end=os.getloadavg()[0])
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} seconds={args.seconds:g}")
    print("host " + json.dumps(host, sort_keys=True))
    for metric in declared:
        value, samples = values[metric["name"]]
        print(f"{metric['name']:<34} {value:>16.6g} {metric['unit']:<10} (n={samples})")
    for note in notes:
        print(note)
    correct = failed == 0
    report = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in declared
        },
    }
    with open(stem + "-report.json", "w", encoding="utf-8") as handle:
        json.dump(dict(report, host=host, notes=notes), handle, indent=1)
    print(json.dumps(report))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
