"""The live workloads: a ``MonitorDaemon`` in this process, load from another.

The daemon runs on this process's event loop with the ``serve-monitor``
defaults (in-memory QoS history, HTTP on an ephemeral port); the load
generator (:mod:`perfbench.loadgen`) is a second process with one UDP
socket and, where the workload scrapes, one HTTP connection at a time.
Both read the same monotonic clock, so a heartbeat's latency runs from
its due arrival (``sigma + emulated WAN delay``) to the return of
``MonitorDaemon.dispatch`` for it, looked up by (endpoint, seq).

Every gated timing is scaled to the reference host of :mod:`perfbench.hostspeed`
by probes on the daemon's loop: around each set-up, and every
``PROBE_EVERY_S`` through the measured window.  A heartbeat's latency and
the CPU spent between two probes take the speed read by the probes on
either side; heartbeats whose way from due time to dispatch crossed a
probe, which held the loop, are left out of ``latency_ms``.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import shutil
import sys
import time
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.obs import TraceRecorder, WindowedQosStore
from repro.service import MonitorDaemon

from perfbench import hostspeed, report, spans
from perfbench.schedule import LiveSchedule, LiveSpec, build_live_schedule

SPECS: Dict[str, LiveSpec] = {
    # 50 endpoints x 30 detectors at eta = 0.125 s: 400 heartbeats/s.
    # Fully traced, the daemon needs about twice the CPU per heartbeat,
    # which overruns one core in suspicion bursts and loses heartbeats;
    # the traced half traces every fourth heartbeat's dispatch instead.
    "live-intake": LiveSpec(endpoints=50, eta=0.125, warmup=3.0, trace_every=4),
    # 50 endpoints at the paper's eta = 1 s, traced, drift-monitored,
    # scraped every 2 s, with SimCrash crashes announced by controls.  At
    # 100 endpoints each scrape's render (one t.ppf per summary of every
    # series a transition dirtied) stalls the loop long enough to delay
    # heartbeats into fresh suspicions, which dirty more series: the cost
    # feeds on itself and spread 46% over ten runs of the same code.
    "live-observed": LiveSpec(
        endpoints=50, eta=1.0, warmup=3.0, tracing=True, drift_window=16,
        scrape_every=2.0, crashes=True,
    ),
}

#: Daemon set-ups per run; ``setup_s`` is their median.
SETUPS = 15
#: A run whose generator sent its 99th-percentile datagram later than
#: this after its due time is invalid: the daemon was not offered the
#: workload's load.
LATE_BOUND_MS = 10.0
#: Delay between handing the generator its job and its first send.
START_MARGIN_S = 0.3
#: Interval of the host-speed probes through the measured window.
PROBE_EVERY_S = 0.5


def _make_daemon(spec: LiveSpec, scratch: str, index: int) -> MonitorDaemon:
    tracer = (
        TraceRecorder(os.path.join(scratch, f"trace-{index}.jsonl"))
        if spec.tracing
        else None
    )
    return MonitorDaemon(
        port=0,
        http_port=0,
        eta=spec.eta,
        tracer=tracer,
        history=WindowedQosStore(":memory:"),
        drift_window=spec.drift_window,
    )


def _loadgen_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [report.ROOT, os.path.join(report.ROOT, "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


class _Marks:
    """Process CPU, dispatch count and daemon counters at chosen instants."""

    def __init__(self, daemon: MonitorDaemon, dispatched: List[Any]) -> None:
        self._daemon = daemon
        self._dispatched = dispatched
        self.at: Dict[str, Dict[str, float]] = {}

    def take(self, label: str) -> None:
        self.at[label] = self.snapshot()

    def snapshot(self) -> Dict[str, float]:
        exporter = self._daemon.exporter
        tracer = self._daemon.obs.tracer
        return {
            "cpu": time.process_time(),
            "mono": time.monotonic(),
            "dispatched": len(self._dispatched),
            "scrapes": exporter.scrapes_total,
            "renders": exporter.series_renders_total,
            "hits": exporter.body_cache_hits_total,
            "trace_bytes": tracer.bytes_total if tracer is not None else 0,
            "transitions": sum(
                accumulator.transitions
                for monitor in self._daemon.registry
                for accumulator in monitor.accumulators.values()
            ),
            "suspicions": sum(
                detector.suspicions_raised
                for monitor in self._daemon.registry
                for detector in monitor.detectors.values()
            ),
        }

    def delta(self, a: str, b: str, key: str) -> float:
        return self.at[b][key] - self.at[a][key]


class _HostTrack:
    """Host-speed probes on the loop: (monotonic before, after, process
    CPU before, after, probe seconds, heartbeats dispatched before)."""

    def __init__(self, dispatched: List[Any]) -> None:
        self._dispatched = dispatched
        self.rows: List[Tuple[float, float, float, float, float, int]] = []

    def read(self) -> None:
        mono, cpu, count = time.monotonic(), time.process_time(), len(self._dispatched)
        reading = hostspeed.probe()
        self.rows.append((mono, time.monotonic(), cpu, time.process_time(), reading, count))

    def factors(self) -> List[float]:
        """Per interval between consecutive probes, the host-speed factor."""
        rows = self.rows
        return [
            2.0 * hostspeed.REFERENCE_S / (a[4] + b[4]) for a, b in zip(rows, rows[1:])
        ]

    def cpu_us_per_hb(self) -> Tuple[float, float]:
        """Process CPU per dispatched heartbeat between the first and last
        probe, probes excluded: (measured, scaled)."""
        rows, factors = self.rows, self.factors()
        cpu = [b[2] - a[3] for a, b in zip(rows, rows[1:])]
        heartbeats = rows[-1][5] - rows[0][5]
        if not heartbeats:
            return 0.0, 0.0
        return (
            1e6 * sum(cpu) / heartbeats,
            1e6 * sum(c * f for c, f in zip(cpu, factors)) / heartbeats,
        )

    def crossed(self, since: float, until: float) -> bool:
        """Whether a probe held the loop at some time in [since, until]."""
        afters = [r[1] for r in self.rows]
        i = bisect.bisect_left(afters, since)
        return i < len(self.rows) and self.rows[i][0] <= until

    def scale_latencies(self, spans: List[Tuple[float, float]]) -> List[float]:
        """Scaled ``end - due`` of every (due, end) that crossed no probe;
        each takes the speed of the probe interval it ended in."""
        afters = [r[1] for r in self.rows]
        factors = self.factors()
        return [
            (end - due) * factors[min(max(bisect.bisect_right(afters, end) - 1, 0), len(factors) - 1)]
            for due, end in spans
            if not self.crossed(due, end)
        ]


async def _run(
    spec: LiveSpec, seed: int, seconds: float, trace: bool, scratch: str,
    spans_path: str, generator_cpus: Set[int],
) -> Dict[str, Any]:
    loop = asyncio.get_running_loop()
    schedule: LiveSchedule = build_live_schedule(spec, seed, seconds)
    generator = await asyncio.create_subprocess_exec(
        sys.executable, "-m", "perfbench.loadgen",
        cwd=report.ROOT, env=_loadgen_env(),
        stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
    )
    if generator_cpus:
        os.sched_setaffinity(generator.pid, generator_cpus)
    try:
        return await _drive(
            loop, generator, spec, schedule, trace, scratch, spans_path
        )
    finally:
        if generator.returncode is None:
            generator.kill()
            await generator.wait()


async def _drive(loop, generator, spec, schedule, trace, scratch, spans_path):
    if await generator.stdout.readline() != b"ready\n":
        raise RuntimeError("load generator did not start")
    # (measured, scaled to the reference host) per set-up.
    setups: List[Tuple[float, float]] = []
    for index in range(SETUPS):
        bracket = hostspeed.Bracket()
        start = time.perf_counter()
        daemon = _make_daemon(spec, scratch, index)
        await daemon.start()
        for name in schedule.names:
            daemon.add_endpoint(name)
        elapsed = time.perf_counter() - start
        setups.append((elapsed, bracket.close().scale(elapsed)))
        if index < SETUPS - 1:
            await daemon.stop()
    try:
        return await _measure(
            loop, generator, daemon, spec, schedule, setups, trace, spans_path
        )
    finally:
        await daemon.stop()


async def _measure(loop, generator, daemon, spec, schedule, setups, trace, spans_path):

    # (source, seq, start, end) of every dispatched heartbeat.
    dispatched: List[Tuple[str, int, float, float]] = []
    recorder = spans.SpanRecorder()
    cls = type(daemon)
    clock = time.monotonic

    # Heartbeats dispatched and traced while sampling (trace_every > 1).
    sampled = [0, 0]

    def timed_dispatch(message: Any) -> None:
        # Looked up per call: the traced half swaps the class attribute.
        if message.kind != "heartbeat":
            cls.dispatch(daemon, message)
            return
        start = clock()
        if saved and spec.trace_every > 1:
            # The recorder is switched on after every (n-1)-th heartbeat,
            # so the n-th one is traced from its decode on.
            sampled[0] += 1
            if recorder.enabled:
                sampled[1] += 1
                recorder.root = f"{message.source}:{message.seq}"
            cls.dispatch(daemon, message)
            recorder.root = None
            recorder.enabled = sampled[0] % spec.trace_every == spec.trace_every - 1
        else:
            if recorder.enabled:
                recorder.root = f"{message.source}:{message.seq}"
            cls.dispatch(daemon, message)
        dispatched.append((message.source, message.seq, start, clock()))

    daemon.dispatch = timed_dispatch  # type: ignore[method-assign]

    marks = _Marks(daemon, dispatched)
    epoch = daemon.scheduler.now - loop.time()
    t0 = loop.time() + START_MARGIN_S
    w0, w1 = (t0 + schedule.window[0], t0 + schedule.window[1])
    mid = (w0 + w1) / 2.0 if trace else w1
    loop.call_at(w0, marks.take, "start")
    loop.call_at(mid, marks.take, "mid")
    loop.call_at(w1, marks.take, "end")
    host = _HostTrack(dispatched)
    probes = max(1, round((mid - w0) / PROBE_EVERY_S))
    for k in range(probes + 1):
        loop.call_at(w0 + (mid - w0) * k / probes, host.read)
    lag: List[Tuple[float, float]] = []
    saved: List[Any] = []
    if trace:
        def probe(expected: float) -> None:
            now = loop.time()
            lag.append((expected, now - expected))
            if expected < w1:
                loop.call_at(expected + 0.01, probe, expected + 0.01)

        def trace_on() -> None:
            saved.extend(spans.install(recorder))
            recorder.enabled = spec.trace_every == 1

        def trace_off() -> None:
            recorder.enabled = False
            spans.uninstall(saved)
            saved.clear()

        loop.call_at(w0, probe, w0)
        loop.call_at(mid, trace_on)
        loop.call_at(w1, trace_off)

    job = {
        "udp": list(daemon.udp_endpoint),
        "http": list(daemon.http_endpoint) if spec.scrape_every else None,
        "names": schedule.names,
        "events": schedule.events,
        "scrapes": schedule.scrapes,
        "t0": t0,
        "epoch": epoch,
    }
    generator.stdin.write(json.dumps(job).encode("utf-8") + b"\n")
    await generator.stdin.drain()
    generator.stdin.close()
    line = await generator.stdout.readline()
    await generator.wait()
    if generator.returncode != 0 or not line:
        raise RuntimeError(f"load generator failed (exit {generator.returncode})")
    load = json.loads(line)
    # Everything is on the wire; let the last datagrams reach dispatch.
    await asyncio.sleep(0.2)
    now = daemon.scheduler.now

    # ---- output checks (outside the measured window) --------------------
    problems: List[str] = []
    lost = 0
    bad_crash_endpoints = 0
    for index, name in enumerate(schedule.names):
        expected = schedule.heartbeats[index]
        if load["sent"][index] != expected:
            problems.append(f"{name}: generator sent {load['sent'][index]} of {expected}")
        monitor = daemon.registry.get(name)
        got = monitor.heartbeats if monitor is not None else 0
        lost += abs(expected - got)
        crashes = schedule.crashes[index]
        if monitor is None or monitor.crashes != crashes or any(
            len(qos.td_samples) + qos.undetected_crashes != crashes
            for qos in monitor.snapshot(now).values()
        ):
            bad_crash_endpoints += 1
    if lost:
        problems.append(f"{lost} heartbeats sent but not dispatched")
    dropped = daemon.dropped_datagrams + daemon.shed_datagrams
    if dropped:
        problems.append(f"daemon dropped {dropped} datagrams")
    if bad_crash_endpoints:
        problems.append(f"{bad_crash_endpoints} endpoints with crashes missing from accumulators")
    bad_scrapes = sum(1 for s in load["scrapes"] if s["error"])
    bad_scrapes += max(0, len(schedule.scrapes) - len(load["scrapes"]))
    if bad_scrapes:
        errors = [s["error"] for s in load["scrapes"] if s["error"]]
        problems.append(f"{bad_scrapes} bad scrapes {errors[:2]}")
    if load["late_p99_ms"] > LATE_BOUND_MS:
        problems.append(
            f"generator ran late: p99 {load['late_p99_ms']:.2f} ms > {LATE_BOUND_MS} ms"
        )

    # ---- measurements ------------------------------------------------------
    measured_end = marks.at["mid"]["mono"]
    intake: List[float] = []
    queue: List[float] = []
    timed: List[Tuple[float, float]] = []
    for source, seq, start, end in dispatched:
        due = t0 + schedule.due[source][seq]
        if w0 <= due <= measured_end:
            intake.append(end - due)
            queue.append(start - due)
            timed.append((due, end))
    intake_scaled = host.scale_latencies(timed)
    cpu_us_measured, cpu_us_per_hb = host.cpu_us_per_hb()
    measured_scrapes = [
        s for s in load["scrapes"] if s["start"] >= schedule.window[0]
    ]
    scrape_s = [s["seconds"] for s in measured_scrapes]
    metrics = {
        "setup_s": report.median([scaled for _, scaled in setups]),
        "latency_ms": 1e3 * report.median(intake_scaled),
        "cpu_us_per_hb": cpu_us_per_hb,
        "peak_rss_mb": report.peak_rss_mb(),
    }
    sent = sum(schedule.heartbeats)
    detail: Dict[str, Any] = {
        "workload": {
            "endpoints": spec.endpoints, "eta_s": spec.eta,
            "offered_hb_per_s": spec.endpoints / spec.eta,
            "window_s": schedule.window[1] - schedule.window[0],
            "measured_s": measured_end - w0,
            "heartbeats_sent": sent,
            "wan_lost": schedule.lost, "crash_suppressed": schedule.suppressed,
            "crashes": sum(schedule.crashes),
            "transitions_per_hb": sum(
                accumulator.transitions
                for monitor in daemon.registry
                for accumulator in monitor.accumulators.values()
            ) / max(1, len(dispatched)),
        },
        "e2e": {
            "setup_s": metrics["setup_s"],
            "setup_measured_s": report.median([measured for measured, _ in setups]),
            "intake_ms": report.timing(intake_scaled, 1e3),
            "intake_measured_ms": report.timing(intake, 1e3),
            "intake_left_out_at_probes": len(intake) - len(intake_scaled),
            "cpu_us_per_hb": cpu_us_per_hb,
            "cpu_us_per_hb_measured": cpu_us_measured,
            "host_factors": host.factors(),
            "hb_lost_ratio": lost / sent if sent else 0.0,
            "scrape_ms": report.timing(scrape_s, 1e3),
            "scrape_bytes": report.median([s["bytes"] for s in measured_scrapes]),
            "peak_rss_mb": metrics["peak_rss_mb"],
        },
        "loadgen": {
            "sent": sent + load["controls"],
            "late_p50_ms": load["late_p50_ms"],
            "late_p99_ms": load["late_p99_ms"],
            "late_max_ms": load["late_max_ms"],
            "control_acks": load["acks"],
        },
        "problems": {str(i): p for i, p in enumerate(problems)},
    }
    layers: Dict[str, float] = {}
    if trace:
        traced_hb = marks.delta("mid", "end", "dispatched")
        traced_cpu = marks.delta("mid", "end", "cpu")
        traced_us = 1e6 * traced_cpu / traced_hb if traced_hb else 0.0
        scrapes = marks.delta("mid", "end", "scrapes")
        renders = recorder.samples["service.exporter.render"]
        untraced_lag = [
            value for when, value in lag
            if when < mid and not host.crossed(when, when + value)
        ]
        traced_units = sampled[1] if spec.trace_every > 1 else traced_hb
        layers = report.per_layer(
            recorder, units=traced_units,
            extra={
                "service.daemon.dropped": dropped,
                "fd.detector.suspicions_per_khb": 1e3 * marks.delta("mid", "end", "suspicions") / traced_hb if traced_hb else 0.0,
                "nekostat.accumulator.transitions_per_hb": marks.delta("mid", "end", "transitions") / traced_hb if traced_hb else 0.0,
                "obs.trace.bytes_per_hb": marks.delta("mid", "end", "trace_bytes") / traced_hb if traced_hb else 0.0,
                "service.exporter.series_rerendered_per_scrape": marks.delta("mid", "end", "renders") / scrapes if scrapes else 0.0,
                "service.exporter.body_cache_hit_ratio": marks.delta("mid", "end", "hits") / scrapes if scrapes else 0.0,
                "loadgen.sent": sent + load["controls"],
                "trace.overhead_ratio": traced_us / cpu_us_measured - 1.0 if cpu_us_measured else 0.0,
            },
        )
        table = report.layer_table(recorder, traced_units)
        table.update({
            "service.daemon.queue_wait_ms": report.timing(queue, 1e3),
            "service.daemon.intake_p99_ms": report.percentile(intake, 99) * 1e3,
            "service.loop.lag_p99_ms": 1e3 * report.percentile(untraced_lag, 99),
            "service.http.overhead_ms": (
                1e3 * (report.median(scrape_s) - report.median(renders))
                if scrape_s and renders else 0.0
            ),
            "trace.cpu_us_per_hb_untraced": cpu_us_measured,
            "trace.cpu_us_per_hb_traced": traced_us,
            "trace.overhead_us_per_hb": traced_us - cpu_us_measured,
        })
        detail["layers"] = table
        recorder.write(spans_path)
    return {
        "correct": not problems,
        "attempted": sent + load["controls"] + len(schedule.scrapes),
        "failed": lost + bad_crash_endpoints + bad_scrapes
        + (0 if load["late_p99_ms"] <= LATE_BOUND_MS else 1),
        "metrics": metrics,
        "layers": layers,
        "detail": detail,
    }


def run_live(workload: str, seed: int, seconds: float, trace: bool,
             spec: Optional[LiveSpec] = None,
             generator_cpus: Set[int] = frozenset()) -> Dict[str, Any]:
    """Run one live workload; returns the result fields and the record.

    ``generator_cpus`` pins the load generator away from this process.
    """
    spec = spec if spec is not None else SPECS[workload]
    scratch = os.path.join(report.work_dir(), f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    spans_path = os.path.join(report.work_dir(), f"spans-{workload}-{seed}.jsonl")
    try:
        return asyncio.run(
            _run(spec, seed, seconds, trace, scratch, spans_path, generator_cpus)
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
