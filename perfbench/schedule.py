"""Seeded inputs of the live workloads: who sends what, when.

Every endpoint of a live workload owns its own ``italy-japan`` delay and
loss model (the :mod:`repro.net.wan` profile the paper calibrates), drawn
from streams named after the endpoint, so the same seed always yields the
same traffic.  A heartbeat ``k`` of an endpoint is *sent* at
``sigma_k = phase + k * eta`` (that is the timestamp it carries, as the
real emitter stamps it) and is *due* at the monitor at
``sigma_k + delay_k``; the load generator puts it on the loopback wire at
that due time, so the daemon sees the paper's delays, reordering and
WAN-induced suspicions.  Lost heartbeats are never put on the wire and
their sequence numbers are skipped.

With crashes on, each endpoint follows SimCrash timing: later crashes
come ``U[MTTC/2, 3 MTTC/2]`` after each restore and every crash lasts
TTR.  The first crashes are spread over the fleet as in a fleet long in
service: a seeded permutation gives endpoint ``i`` the ``i``-th of
``endpoints`` equal strata of one MTTC after the measured window's start
and the crash falls uniformly within it, so every run sees close to
``endpoints * window / MTTC`` crashes rather than a Poisson count.
Heartbeats inside a crash are suppressed (sequence numbers advance), and
the crash and restore instants are announced with ``crash``/``restore``
control datagrams that travel the same emulated path.

All times here are seconds relative to the start of traffic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.net.wan import get_profile
from repro.sim.random import RandomStreams

PROFILE = "italy-japan"


@dataclass(frozen=True)
class LiveSpec:
    """The shape of one live workload."""

    endpoints: int
    eta: float
    warmup: float
    tracing: bool = False
    drift_window: int = 0
    scrape_every: Optional[float] = None
    crashes: bool = False
    mttc: float = 300.0
    ttr: float = 30.0
    #: Trace every n-th heartbeat's dispatch (1: trace everything).
    trace_every: int = 1


@dataclass
class LiveSchedule:
    """Everything the load generator sends, and what the checks expect.

    ``events`` rows are ``(due, kind, endpoint index, seq or ctl, sigma)``
    sorted by due time; ``due[name][seq]`` is a heartbeat's due time.
    """

    names: List[str]
    events: List[Tuple[float, str, int, int, float]]
    due: Dict[str, Dict[int, float]]
    heartbeats: List[int]
    crashes: List[int]
    scrapes: List[float]
    window: Tuple[float, float]
    horizon: float
    lost: int = 0
    suppressed: int = 0


def _crash_windows(
    rng, spec: LiveSpec, stratum: int, start: float, horizon: float
) -> List[Tuple[float, float]]:
    windows: List[Tuple[float, float]] = []
    crash = start + spec.mttc * (stratum + float(rng.uniform())) / spec.endpoints
    while crash < horizon:
        windows.append((crash, crash + spec.ttr))
        crash += spec.ttr + float(rng.uniform(0.5 * spec.mttc, 1.5 * spec.mttc))
    return windows


def build_live_schedule(spec: LiveSpec, seed: int, seconds: float) -> LiveSchedule:
    """Draw the traffic of one run: ``spec.warmup`` then ``seconds`` measured."""
    streams = RandomStreams(seed)
    profile = get_profile(PROFILE)
    window = (spec.warmup, spec.warmup + seconds)
    horizon = window[1]
    names = [f"ep{index:03d}" for index in range(spec.endpoints)]
    events: List[Tuple[float, str, int, int, float]] = []
    due: Dict[str, Dict[int, float]] = {}
    heartbeats: List[int] = []
    crash_counts: List[int] = []
    lost = suppressed = 0
    strata = streams.get("fleet.simcrash").permutation(spec.endpoints)
    for index, name in enumerate(names):
        delay_model = profile.build_delay_model(streams, f"{name}.fwd")
        loss_model = profile.build_loss_model(streams, f"{name}.fwd")
        phase = float(streams.get(f"{name}.phase").uniform(0.0, spec.eta))
        windows = (
            _crash_windows(
                streams.get(f"{name}.simcrash"), spec, int(strata[index]),
                window[0], horizon,
            )
            if spec.crashes
            else []
        )
        # Control instants in time order: (t, kind) pairs.
        controls = [(t, kind) for c, r in windows for t, kind in ((c, "crash"), (r, "restore"))]
        ctl = 0
        sent = crashes = 0
        table: Dict[int, float] = {}
        seq = 0
        while True:
            sigma = phase + seq * spec.eta
            while controls and controls[0][0] <= sigma:
                t, kind = controls.pop(0)
                arrival = t + delay_model.sample(t)
                if arrival <= horizon:
                    ctl += 1
                    crashes += kind == "crash"
                    events.append((arrival, kind, index, ctl, t))
            if sigma >= horizon:
                break
            if any(c <= sigma < r for c, r in windows):
                suppressed += 1
            elif loss_model.drops(sigma):
                lost += 1
            else:
                delay = delay_model.sample(sigma)
                if sigma + delay <= horizon:
                    events.append((sigma + delay, "heartbeat", index, seq, sigma))
                    table[seq] = sigma + delay
                    sent += 1
            seq += 1
        due[name] = table
        heartbeats.append(sent)
        crash_counts.append(crashes)
    events.sort()
    scrapes: List[float] = []
    if spec.scrape_every:
        # One cold scrape as traffic starts (warm-up), then the measured
        # scrapes, evenly spaced inside the window.
        scrapes.append(0.0)
        count = max(1, int(math.floor(seconds / spec.scrape_every)))
        scrapes.extend(
            window[0] + (i + 0.5) * spec.scrape_every for i in range(count)
        )
    return LiveSchedule(
        names=names,
        events=events,
        due=due,
        heartbeats=heartbeats,
        crashes=crash_counts,
        scrapes=scrapes,
        window=window,
        horizon=horizon,
        lost=lost,
        suppressed=suppressed,
    )
