"""Host speed, measured by a fixed probe, to express timings host-free.

The benchmark shares a few vCPUs with other tenants' work.  On the
two-vCPU KVM guest it was written on, the probe below took 1.65 ms in
quiet spells and up to 2.4 times that under load, spells that switch
every few seconds on each vCPU independently; a whole repetition's time
moved with them.  Timing the probe just before and just after a piece
of work, on the same CPU, gives the host's speed while the work ran, and

    scaled = measured x REFERENCE_S / probe

is the time the work would take on a host on which the probe takes
``REFERENCE_S``.  The probe is the benchmark's own code, so a change to
the program moves the scaled time exactly as it moves the measured one.
"""

from __future__ import annotations

import time
from typing import List

#: The probe's time on the reference host, in seconds.
REFERENCE_S = 0.002
#: Iterations of the probe loop (about 1.65 ms on a quiet vCPU).
ITERATIONS = 20_000
#: Probe repeats per reading; the fastest is kept, as a preemption in the
#: middle of one says nothing about the host's speed.
REPEATS = 3


def probe() -> float:
    """Seconds the fixed pure-Python loop takes now (best of ``REPEATS``)."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        table = {}
        for i in range(ITERATIONS):
            table[i % 997] = i * i
        best = min(best, time.perf_counter() - start)
    return best


class Bracket:
    """Probe readings around one piece of work::

        bracket = Bracket()      # probes
        ...the work...
        bracket.close()          # probes again
        bracket.scale(seconds)
    """

    def __init__(self) -> None:
        self.readings: List[float] = [probe()]

    def close(self) -> "Bracket":
        self.readings.append(probe())
        return self

    @property
    def factor(self) -> float:
        """``REFERENCE_S`` over the mean probe time around the work."""
        return REFERENCE_S * len(self.readings) / sum(self.readings)

    def scale(self, measured: float) -> float:
        return measured * self.factor
