"""The benchmark's workloads: one runner class per workload.

Every workload uses ``default_field()``, the auto-selected field kernel and
n=4, t_s=1, t_a=0.  A runner turns a *job* (inputs plus, for one-shot runs,
the protocol seed -- all drawn from the benchmark's ``--seed``) into a
record: the outputs, whether they passed the correctness gate, and the
message, bit and Δ counts of that evaluation.

Correctness gate: the outputs must equal ``Circuit.evaluate`` on the
*effective* inputs.  In synchrony every honest party must be in the common
subset, so the effective inputs are all inputs.  In asynchrony inputs of
parties outside a common subset of size >= n - t_s are zeroed.  Inputs are
drawn non-zero, so a product circuit's output changes whenever an input is
dropped: a degraded answer can never pass as a plain number.
"""

from __future__ import annotations

import resource
import shutil
import tempfile
import time
from typing import Any, Dict, List, Optional

from repro import AsynchronousNetwork, SynchronousNetwork, default_field, run_mpc
from repro.circuits import multiplication_circuit
from repro.service import MpcService, ServiceConfig

N, TS, TA = 4, 1, 0
PARTIES = list(range(1, N + 1))
FIELD = default_field()


class EvalFailure(Exception):
    """An evaluation that completed with a wrong, degraded or missing answer."""


def random_inputs(rng) -> Dict[int, int]:
    return {pid: rng.randrange(1, 1 << 31) for pid in PARTIES}


def check_outputs(circuit, inputs, outputs, subset, synchronous: bool) -> None:
    """Raise EvalFailure unless ``outputs`` are right on the effective inputs."""
    if outputs is None:
        raise EvalFailure("no agreed output (stall)")
    subset = sorted(subset) if subset is not None else None
    if subset is None:
        raise EvalFailure("no common subset recorded")
    if synchronous and subset != PARTIES:
        raise EvalFailure(f"synchronous run left parties out of the common subset: {subset}")
    if len(subset) < N - TS:
        raise EvalFailure(f"common subset {subset} is smaller than n - t_s")
    effective = {pid: value for pid, value in inputs.items() if pid in subset}
    expected = [int(v) for v in circuit.evaluate(effective)]
    got = [int(v) for v in outputs]
    if got != expected:
        raise EvalFailure(f"outputs {got} != reference {expected} on subset {subset}")


def _mpc_record(circuit, job, result, synchronous: bool) -> Dict[str, Any]:
    if not result.completed or not result.agreed:
        raise EvalFailure("honest parties did not all output the same value")
    check_outputs(circuit, job["inputs"], result.outputs, result.common_subset, synchronous)
    metrics = result.metrics
    return {
        "outputs": [int(v) for v in result.outputs],
        "messages": metrics.messages_sent,
        "bits": metrics.honest_bits,
        "deltas": max(result.output_times.values()) / result.run.simulator.delta,
        "subset": sorted(result.common_subset),
    }


class OneShot:
    """Repeated one-shot ``run_mpc`` on the sim backend (synchronous)."""

    stateful = False
    host_scaled = True
    synchronous = True

    def __init__(self, circuit, offline: str):
        self.circuit = circuit
        self.offline = offline

    def setup(self, seed: int) -> None:
        pass

    def make_job(self, rng) -> Dict[str, Any]:
        return {
            "seed": rng.randrange(1 << 31),
            "inputs": random_inputs(rng),
        }

    def run(self, job) -> Dict[str, Any]:
        result = run_mpc(
            self.circuit, job["inputs"], n=N, ts=TS, ta=TA,
            network=SynchronousNetwork(), seed=job["seed"], offline=self.offline,
        )
        return _mpc_record(self.circuit, job, result, self.synchronous)

    def close(self) -> Dict[str, Any]:
        return {}


class StreamAsync:
    """One long-lived asynchronous ``MpcService`` with a HIM triple reservoir."""

    stateful = True
    host_scaled = True
    synchronous = False

    def __init__(self):
        self.circuit = multiplication_circuit(FIELD, N)
        self.service: Optional[MpcService] = None
        self.refill_rounds = 0

    def setup(self, seed: int) -> None:
        self.service = MpcService(
            N, TS, TA, network=AsynchronousNetwork(max_delay=3.0), seed=seed,
            config=ServiceConfig(offline="him"),
        )
        # Count refill rounds at the reservoir's public round counter.
        reservoir = self.service.reservoir
        begin_round = reservoir.begin_round

        def counting_begin_round():
            self.refill_rounds += 1
            return begin_round()

        reservoir.begin_round = counting_begin_round

    def make_job(self, rng) -> Dict[str, Any]:
        return {"inputs": random_inputs(rng)}

    def run(self, job) -> Dict[str, Any]:
        svc = self.service
        sim = svc.sim
        need = self.circuit.multiplication_count
        level = svc.reservoir.available(PARTIES)
        rounds = self.refill_rounds
        messages, bits, start = sim.metrics.messages_sent, sim.metrics.honest_bits, sim.now
        result = svc.evaluate(self.circuit, job["inputs"])
        tag = f"eval[{result.eval_id}]"
        subsets = {
            tuple(sim.parties[pid].instances[tag].common_subset or ()) for pid in PARTIES
        }
        if len(subsets) != 1:
            raise EvalFailure(f"parties disagree on the common subset: {subsets}")
        subset = list(subsets.pop())
        check_outputs(self.circuit, job["inputs"], result.outputs, subset, self.synchronous)
        return {
            "outputs": result.output_values,
            "messages": sim.metrics.messages_sent - messages,
            "bits": sim.metrics.honest_bits - bits,
            "deltas": (result.sim_time - start) / svc.delta,
            "subset": subset,
            "reservoir_level": level,
            "blocked": level < need,
            "refill_rounds": self.refill_rounds - rounds,
        }

    def close(self) -> Dict[str, Any]:
        svc = self.service
        return {"triples_unused": svc.reservoir.available(PARTIES)}


class _GoClock:
    """Times each evaluation from the supervisor's ``go`` to the last output.

    Wraps two methods of one :class:`TcpMpcService` instance from outside:
    the ``go`` broadcast starts the clock, and the first completed attempt
    wait after it (every party's output reported) stops it.
    """

    def __init__(self, svc) -> None:
        self.go_at: Optional[float] = None
        self.outputs_at: Optional[float] = None
        broadcast, await_attempt = svc._broadcast, svc._await_attempt

        async def _broadcast(obj):
            if obj.get("type") == "go":
                self.go_at, self.outputs_at = time.monotonic(), None
            await broadcast(obj)

        async def _await_attempt(condition, timeout, epoch):
            done = await await_attempt(condition, timeout, epoch)
            if done and self.go_at is not None and self.outputs_at is None:
                self.outputs_at = time.monotonic()
            return done

        svc._broadcast = _broadcast
        svc._await_attempt = _await_attempt

    def elapsed(self) -> float:
        if self.go_at is None or self.outputs_at is None:
            raise EvalFailure("no go/output timestamps for the evaluation")
        return self.outputs_at - self.go_at


class TcpService:
    """``TcpMpcService``: one OS process per party over localhost TCP.

    Per-evaluation message and bit counts come from the party processes'
    metrics, which the supervisor merges when it closes; they are spread
    evenly over every evaluation the service ran.
    """

    stateful = True
    synchronous = True
    # Much of an evaluation is real-clock waiting, spread over five
    # processes: its wall time does not scale with the speed of one core.
    host_scaled = False

    def __init__(self, scratch: str):
        self.circuit = multiplication_circuit(FIELD, N)
        self.scratch = scratch
        self.service = None
        self.snapshot_dir: Optional[str] = None
        self.clock: Optional[_GoClock] = None
        self.records: List[Dict[str, Any]] = []
        self.startup_s: Optional[float] = None

    def setup(self, seed: int) -> None:
        from repro.runtime.supervisor import TcpMpcService

        self.snapshot_dir = tempfile.mkdtemp(prefix="snapshots-", dir=self.scratch)
        self.service = TcpMpcService(
            N, TS, TA, offline="him", seed=seed, snapshot_dir=self.snapshot_dir
        )
        self.clock = _GoClock(self.service)
        started = time.perf_counter()
        self.service.start()
        self.startup_s = time.perf_counter() - started

    def make_job(self, rng) -> Dict[str, Any]:
        return {"inputs": random_inputs(rng)}

    def run(self, job) -> Dict[str, Any]:
        svc = self.service
        result = svc.evaluate(self.circuit, job["inputs"])
        if sorted(result.parties) != PARTIES:
            raise EvalFailure(f"outputs reported by {result.parties} only")
        # In synchrony every party is in the common subset: the reference
        # is the circuit on all inputs.
        check_outputs(self.circuit, job["inputs"], result.outputs, PARTIES, True)
        record = {
            "outputs": result.output_values,
            "deltas": self.clock.elapsed() / (svc.network.delta * svc.time_scale),
        }
        self.records.append(record)
        return record

    def close(self) -> Dict[str, Any]:
        svc = self.service
        if svc is None:
            return {}
        self.service = None
        try:
            svc.close()
        finally:
            shutil.rmtree(self.snapshot_dir, ignore_errors=True)
        evals = max(1, len(self.records))
        for record in self.records:
            record["messages"] = svc.metrics.messages_sent / evals
            record["bits"] = svc.metrics.honest_bits / evals
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        return {"party_peak_rss_mb": children}


class SingleProcessTcp(OneShot):
    """Traced stand-in for ``tcp-service``: the same evaluations in one process.

    The party processes of ``tcp-service`` cannot be wrapped from the
    benchmark, so the traced run evaluates the same jobs over
    ``AsyncioBackend(4, clock="real", transport=TcpTransport())`` at the
    service's time scale, where every non-self message still crosses a real
    socket through the wire codec.  A real-clock run that misses its
    synchronous deadlines lawfully falls back to the asynchronous arms, so
    the gate here is the asynchronous one.
    """

    synchronous = False

    def __init__(self):
        super().__init__(multiplication_circuit(FIELD, N), offline="him")

    def run(self, job) -> Dict[str, Any]:
        from repro.runtime.asyncio_backend import AsyncioBackend
        from repro.runtime.launcher import DEFAULT_TIME_SCALE
        from repro.runtime.tcp_transport import TcpTransport

        backend = AsyncioBackend(
            N, clock="real", time_scale=DEFAULT_TIME_SCALE,
            transport=TcpTransport(), seed=job["seed"],
        )
        result = run_mpc(
            self.circuit, job["inputs"], n=N, ts=TS, ta=TA,
            offline=self.offline, backend=backend,
        )
        return _mpc_record(self.circuit, job, result, self.synchronous)


def make_workload(name: str, scratch: str):
    if name == "oneshot-sync":
        return OneShot(multiplication_circuit(FIELD, N), offline="tripsh")
    if name == "stream-async":
        return StreamAsync()
    if name == "tcp-service":
        return TcpService(scratch)
    raise ValueError(f"unknown workload {name!r}")
