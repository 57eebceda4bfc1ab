"""The traced run's span recorder and the layer boundaries it wraps.

Spans are recorded from the benchmark's side only: :func:`install` swaps
the public functions and methods named in :data:`BOUNDARIES` for thin
wrappers (and :func:`uninstall` puts the originals back), so the program
itself is not edited.  Each wrapped call becomes a span with a name, a
start, an end, its parent span (the innermost wrapped call still open)
and the id of the heartbeat or repetition it serves.  A span's self time
is its duration minus the time its child spans cover; self time, call
counts and a few per-call samples are aggregated for every span, while
the span rows themselves are kept in memory up to :data:`MAX_SPANS` and
written out as JSON lines when the workload ends.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span rows kept in memory per run (aggregates always cover every call).
MAX_SPANS = 100_000

#: (module, attribute path, span name).  A leading ``*`` on the attribute
#: path wraps the method on every subclass of the named class that
#: defines it, for layers with one class per model.
BOUNDARIES: List[Tuple[str, str, str]] = [
    ("repro.service.daemon", "decode_datagram", "net.udp.decode"),
    ("repro.service.daemon", "MonitorDaemon.dispatch", "service.daemon.dispatch"),
    ("repro.service.registry", "EndpointMonitor.deliver", "service.registry.deliver"),
    ("repro.service.registry", "EndpointMonitor.record_crash", "service.registry.control"),
    ("repro.service.registry", "EndpointMonitor.record_restore", "service.registry.control"),
    ("repro.fd.multiplexer", "MultiPlexer.deliver", "fd.multiplexer.fanout"),
    ("repro.fd.detector", "PushFailureDetector.deliver", "fd.detector.deliver"),
    ("repro.fd.predictors", "Predictor.observe", "fd.predictors.observe"),
    ("repro.fd.predictors", "Predictor.predict", "fd.predictors.predict"),
    ("repro.fd.safety", "*SafetyMargin.update", "fd.safety.update"),
    ("repro.fd.safety", "*SafetyMargin.current", "fd.safety.current"),
    ("repro.timeseries.arima", "ArimaForecaster.observe", "timeseries.arima.observe"),
    ("repro.timeseries.arima", "ArimaForecaster.predict", "timeseries.arima.predict"),
    ("repro.service.runtime", "AsyncioScheduler.schedule_at", "service.runtime.schedule_at"),
    ("repro.sim.engine", "Simulator.schedule_at", "sim.engine.schedule_at"),
    ("repro.sim.engine", "EventHandle.cancel", "sim.engine.cancel"),
    ("repro.nekostat.metrics", "OnlineQosAccumulator.observe_suspect", "nekostat.accumulator.suspect"),
    ("repro.nekostat.metrics", "OnlineQosAccumulator.observe_trust", "nekostat.accumulator.trust"),
    ("repro.nekostat.metrics", "OnlineQosAccumulator.observe_crash", "nekostat.accumulator.crash"),
    ("repro.nekostat.metrics", "OnlineQosAccumulator.observe_restore", "nekostat.accumulator.restore"),
    ("repro.nekostat.metrics", "summarize", "nekostat.stats.summarize"),
    ("repro.experiments.runner", "extract_qos", "nekostat.metrics.extract_qos"),
    ("repro.obs.history", "WindowedQosStore.record_transition", "obs.history.record"),
    ("repro.obs.history", "WindowedQosStore.record_crash", "obs.history.record"),
    ("repro.obs.history", "WindowedQosStore.record_restore", "obs.history.record"),
    ("repro.obs.history", "WindowedQosStore.flush", "obs.history.flush"),
    ("repro.obs.trace", "TraceRecorder.emit", "obs.trace.emit"),
    ("repro.obs.drift", "DriftMonitor.observe", "obs.drift.observe"),
    ("repro.obs.drift", "DriftMonitor.evaluate", "obs.drift.evaluate"),
    ("repro.service.exporter", "IncrementalExporter.render", "service.exporter.render"),
    ("repro.net.delay", "*DelayModel.sample", "net.delay.sample"),
    ("repro.net.loss", "*LossModel.drops", "net.loss.drops"),
    ("repro.experiments.runner", "run_qos_experiment", "experiments.runner.run"),
    ("repro.experiments.replay_engine", "run_qos_replay", "experiments.runner.run"),
    ("repro.experiments.replay_engine", "synthesize_heartbeat_trace", "experiments.replay_engine.synthesize"),
    ("repro.experiments.replay_engine", "replay_detector_matrix", "fd.replay.matrix"),
    ("repro.fd.replay", "replay_predictions", "fd.replay.predictions"),
    ("repro.fd.replay", "replay_margins", "fd.replay.margins"),
    ("repro.fd.replay", "batch_arima_predictions", "timeseries.arima.batch"),
]

#: Span names whose individual durations are kept (for medians/tails).
SAMPLED = {
    "net.udp.decode",
    "obs.history.flush",
    "obs.drift.evaluate",
    "service.exporter.render",
    "nekostat.metrics.extract_qos",
    "experiments.runner.run",
}

#: Span names that only count their outermost call (models nest models).
OUTERMOST = {"net.delay.sample", "net.loss.drops"}


class SpanRecorder:
    """In-memory spans plus per-name aggregates (count, self, inclusive)."""

    def __init__(self) -> None:
        self.enabled = False
        self.root: Optional[str] = None
        self.spans: List[Tuple[int, int, str, float, float, Optional[str]]] = []
        self.count: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.counters: Dict[str, int] = defaultdict(int)
        self._stack: List[List[Any]] = []
        self._next_id = 1

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A span-recording wrapper around ``fn`` (pass-through when off)."""
        recorder = self
        outermost = name in OUTERMOST
        sampled = name in SAMPLED
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = recorder._stack
            if not recorder.enabled or (outermost and stack and stack[-1][1] == name):
                return fn(*args, **kwargs)
            span_id = recorder._next_id
            recorder._next_id += 1
            frame = [0.0, name, span_id]
            parent = stack[-1][2] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                recorder.count[name] += 1
                recorder.self_s[name] += duration - frame[0]
                recorder.total_s[name] += duration
                if sampled:
                    recorder.samples[name].append(duration)
                if len(recorder.spans) < MAX_SPANS:
                    recorder.spans.append(
                        (span_id, parent, name, start, end, recorder.root)
                    )

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def write(self, path: str) -> None:
        """Write the kept span rows as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, root in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "root": root,
                }) + "\n")


def _special(recorder: SpanRecorder, name: str, fn: Callable) -> Callable:
    """Wrappers that also count outcomes, not only calls."""
    wrapped = recorder.wrap(name, fn)
    if name in ("service.runtime.schedule_at", "sim.engine.schedule_at"):
        fired = name.replace("schedule_at", "fired")

        def schedule_at(self: Any, when: float, callback: Callable, **kwargs: Any) -> Any:
            if not recorder.enabled:
                return fn(self, when, callback, **kwargs)

            def counted() -> None:
                recorder.counters[fired] += 1
                callback()

            return wrapped(self, when, counted, **kwargs)

        return schedule_at
    if name == "fd.detector.deliver":

        def deliver(self: Any, message: Any) -> None:
            if not recorder.enabled:
                return fn(self, message)
            before = self.stale_heartbeats
            wrapped(self, message)
            if self.stale_heartbeats != before:
                recorder.counters["fd.detector.stale"] += 1
            return None

        return deliver
    if name == "timeseries.arima.observe":

        def observe(self: Any, value: float) -> None:
            if not recorder.enabled:
                return fn(self, value)
            before = self.refits
            start = time.perf_counter()
            wrapped(self, value)
            if self.refits != before:
                recorder.samples["timeseries.arima.refit"].append(
                    time.perf_counter() - start
                )
            return None

        return observe
    return wrapped


def _targets() -> List[Tuple[Any, str, str]]:
    targets: List[Tuple[Any, str, str]] = []
    for module_name, path, name in BOUNDARIES:
        owner: Any = importlib.import_module(module_name)
        every_subclass = path.startswith("*")
        parts = path.lstrip("*").split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        attr = parts[-1]
        if not every_subclass:
            targets.append((owner, attr, name))
            continue
        pending = [owner]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if attr in vars(cls) and not getattr(vars(cls)[attr], "__isabstractmethod__", False):
                targets.append((cls, attr, name))
    return targets


def install(recorder: SpanRecorder) -> List[Tuple[Any, str, Any]]:
    """Wrap every boundary; returns what :func:`uninstall` restores."""
    saved: List[Tuple[Any, str, Any]] = []
    for owner, attr, name in _targets():
        original = vars(owner)[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _special(recorder, name, original))
    return saved


def uninstall(saved: List[Tuple[Any, str, Any]]) -> None:
    """Put the original functions back (reverse order)."""
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
