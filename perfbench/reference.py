"""Host-speed gauge: scales the sim workloads' wall times to a nominal host.

The benchmark's hosts share their cores with other machines.  Their speed
for interpreter-bound Python flips between a fast and a slow state within
seconds, and the share of slow time drifts over minutes, so the same
evaluation took anywhere from 4.3 s to 9.6 s on one 2-core VM within half
an hour.  No amount of work in a 30-second run averages that out.

The sim workloads are single-threaded and CPU-bound, so their wall time
scales with that speed.  :class:`HostGauge` samples it *during* the
evaluations: every :data:`PERIOD_S` seconds of wall time a ``SIGALRM``
handler runs one reference unit, a fixed integer loop that depends on
nothing in the repository, allocates no garbage-collected objects and fits
in the first-level caches (so the program's heap neither triggers a
collection in it nor evicts it much).  An evaluation's *scaled* seconds are
its wall seconds minus the time spent in the gauge, times the mean host
speed sampled meanwhile, where speed 1 means a unit takes
:data:`NOMINAL_UNIT_S` seconds.  Scaled seconds are therefore wall seconds
on a host where the unit takes that long; the gauge costs about 2% of the
wall time.  The raw wall seconds are reported next to them.
"""

from __future__ import annotations

import signal
import time
from typing import Tuple

#: Seconds of wall time between samples.
PERIOD_S = 0.025

#: Seconds one reference unit takes on the nominal host: a 2-core Xeon VM
#: at 2.0 GHz with Python 3.11, in its fast state.
NOMINAL_UNIT_S = 0.0005

_ITERATIONS = 2000
_MODULUS = 2147483647


def _unit() -> int:
    x = 1
    acc = 0
    for i in range(_ITERATIONS):
        x = (x * 48271 + i) % _MODULUS
        acc ^= x >> 3
    return acc


class HostGauge:
    """Samples the host's speed from a ``SIGALRM`` handler while running."""

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        self.samples = 0
        self.busy_s = 0.0
        self.speed_sum = 0.0

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        _unit()
        spent = time.perf_counter() - started
        self.samples += 1
        self.busy_s += spent
        self.speed_sum += NOMINAL_UNIT_S / spent

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> Tuple[int, float, float]:
        return self.samples, self.busy_s, self.speed_sum

    def scaled(self, wall_s: float, since: Tuple[int, float, float]) -> float:
        """Scaled seconds of ``wall_s`` of wall time that began at ``since``.

        An interval too short to hold a sample takes the mean speed of
        every sample so far.
        """
        samples = self.samples - since[0]
        busy = self.busy_s - since[1]
        speed_sum = self.speed_sum - since[2]
        if samples == 0:
            samples, speed_sum = self.samples, self.speed_sum
        return scaled_seconds(wall_s, (samples, busy, speed_sum))


def scaled_seconds(wall_s: float, reading: Tuple[int, float, float]) -> float:
    """Scaled seconds of an interval of ``wall_s`` wall seconds.

    ``reading`` is (samples, seconds in the gauge, sum of sampled speeds)
    over that interval.
    """
    samples, busy_s, speed_sum = reading
    if samples == 0:
        raise RuntimeError("the host gauge has taken no sample yet")
    return (wall_s - busy_s) * speed_sum / samples
