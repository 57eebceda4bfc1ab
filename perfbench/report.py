"""Statistics, per-layer metrics, provenance and the printed record."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, Optional, Sequence

from perfbench.spans import SpanRecorder

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The end-to-end metrics every workload prints, with their units.
END_TO_END = {
    "setup_s": "s",
    "latency_ms": "ms",
    "cpu_us_per_hb": "us",
    "peak_rss_mb": "MB",
}

#: Layers whose share of the traced time is reported.
SHARE_LAYERS = [
    "net.udp", "service.daemon", "service.registry", "fd.multiplexer",
    "fd.detector", "fd.predictors", "fd.safety", "timeseries.arima",
    "service.runtime", "sim.engine", "nekostat.accumulator",
    "nekostat.metrics", "nekostat.stats", "obs.history", "obs.trace",
    "obs.drift", "service.exporter", "net.delay", "net.loss",
    "experiments.replay_engine", "fd.replay", "experiments.runner",
]

#: Count and ratio metrics of the traced run (zero where a layer is idle).
COUNT_METRICS = {
    "net.udp.decode_errors": "count",
    "service.daemon.dropped": "count",
    "fd.detector.calls_per_hb": "count/hb",
    "fd.detector.stale_ratio": "ratio",
    "fd.detector.suspicions_per_khb": "count/khb",
    "fd.predictors.observe_calls_per_hb": "count/hb",
    "timeseries.arima.refits_per_khb": "count/khb",
    "service.runtime.timers_armed_per_hb": "count/hb",
    "service.runtime.timer_fire_ratio": "ratio",
    "sim.engine.events_per_cycle": "count/hb",
    "sim.engine.cancel_ratio": "ratio",
    "nekostat.accumulator.transitions_per_hb": "count/hb",
    "obs.trace.events_per_hb": "count/hb",
    "obs.trace.bytes_per_hb": "B/hb",
    "service.exporter.series_rerendered_per_scrape": "count",
    "service.exporter.body_cache_hit_ratio": "ratio",
    "nekostat.stats.summarize_calls_per_scrape": "count",
    "loadgen.sent": "count",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {f"{layer}.self_share": "ratio" for layer in SHARE_LAYERS}
    units.update(COUNT_METRICS)
    return units


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else math.nan


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(q / 100.0 * len(ordered)) - 1))
    return float(ordered[rank])


def timing(values: Sequence[float], scale: float = 1.0) -> Dict[str, float]:
    """Median, the highest percentile with ten samples beyond it, count."""
    n = len(values)
    record: Dict[str, float] = {"n": n, "p50": median(values) * scale}
    for q in (99.9, 99.0, 90.0):
        if n * (1.0 - q / 100.0) >= 10:
            record[f"p{q:g}"] = percentile(values, q) * scale
            break
    return record


def peak_rss_mb() -> float:
    """Peak resident memory of this process (``ru_maxrss`` is KiB here)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(
    recorder: SpanRecorder,
    *,
    units: int,
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Self-time shares and counts of the traced interval.

    A layer's share is its self time over the self time of every span
    recorded; ``units`` are the heartbeats (or simulated cycles) traced.
    """
    busy_s = sum(recorder.self_s.values())
    shares: Dict[str, float] = {layer: 0.0 for layer in SHARE_LAYERS}
    for name, self_s in recorder.self_s.items():
        layer = name.rsplit(".", 1)[0]
        if layer in shares:
            shares[layer] += self_s
    metrics = {
        f"{layer}.self_share": (value / busy_s if busy_s > 0 else 0.0)
        for layer, value in shares.items()
    }
    count = recorder.count
    per_unit = 1.0 / units if units else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    metrics.update({
        "net.udp.decode_errors": max(0, count["net.udp.decode"] - count["service.daemon.dispatch"]),
        "fd.detector.calls_per_hb": count["fd.detector.deliver"] * per_unit,
        "fd.detector.stale_ratio": ratio(recorder.counters["fd.detector.stale"], count["fd.detector.deliver"]),
        "fd.predictors.observe_calls_per_hb": count["fd.predictors.observe"] * per_unit,
        "timeseries.arima.refits_per_khb": 1e3 * len(recorder.samples["timeseries.arima.refit"]) * per_unit,
        "service.runtime.timers_armed_per_hb": count["service.runtime.schedule_at"] * per_unit,
        "service.runtime.timer_fire_ratio": ratio(recorder.counters["service.runtime.fired"], count["service.runtime.schedule_at"]),
        "sim.engine.events_per_cycle": count["sim.engine.schedule_at"] * per_unit,
        "sim.engine.cancel_ratio": ratio(count["sim.engine.cancel"], count["sim.engine.schedule_at"]),
        "nekostat.accumulator.transitions_per_hb": (count["nekostat.accumulator.suspect"] + count["nekostat.accumulator.trust"]) * per_unit,
        "obs.trace.events_per_hb": count["obs.trace.emit"] * per_unit,
        "nekostat.stats.summarize_calls_per_scrape": ratio(count["nekostat.stats.summarize"], count["service.exporter.render"]),
    })
    for name in COUNT_METRICS:
        metrics.setdefault(name, 0.0)
    metrics.update(extra)
    return metrics


def layer_table(recorder: SpanRecorder, units: int) -> Dict[str, float]:
    """The per-call and per-heartbeat timings of the traced interval."""
    per_unit = 1e6 / units if units else 0.0
    s, n, t, samples = recorder.self_s, recorder.count, recorder.total_s, recorder.samples

    def mean_us(name: str, source: Dict[str, float]) -> float:
        return 1e6 * source[name] / n[name] if n[name] else 0.0

    def med_ms(name: str) -> float:
        return 1e3 * median(samples[name]) if samples[name] else 0.0

    table = {
        "net.udp.decode_us": 1e6 * median(samples["net.udp.decode"]) if samples["net.udp.decode"] else 0.0,
        "service.daemon.dispatch_self_us": mean_us("service.daemon.dispatch", s),
        "service.registry.deliver_self_us": mean_us("service.registry.deliver", s),
        "fd.multiplexer.fanout_self_us": mean_us("fd.multiplexer.fanout", s),
        "fd.detector.deliver_self_us_per_hb": s["fd.detector.deliver"] * per_unit,
        "fd.predictors.us_per_hb": (s["fd.predictors.observe"] + s["fd.predictors.predict"]) * per_unit,
        "fd.safety.us_per_hb": (s["fd.safety.update"] + s["fd.safety.current"]) * per_unit,
        "timeseries.arima.us_per_hb": (s["timeseries.arima.observe"] + s["timeseries.arima.predict"]) * per_unit,
        "timeseries.arima.refit_ms": med_ms("timeseries.arima.refit"),
        "nekostat.accumulator.us_per_hb": sum(v for k, v in s.items() if k.startswith("nekostat.accumulator.")) * per_unit,
        "nekostat.metrics.extract_qos_s": median(samples["nekostat.metrics.extract_qos"]) if samples["nekostat.metrics.extract_qos"] else 0.0,
        "obs.history.record_us_per_hb": s["obs.history.record"] * per_unit,
        "obs.history.flush_ms": med_ms("obs.history.flush"),
        "obs.trace.emit_us_per_hb": s["obs.trace.emit"] * per_unit,
        "obs.drift.observe_us": mean_us("obs.drift.observe", s),
        "obs.drift.evaluate_ms": med_ms("obs.drift.evaluate"),
        "service.exporter.render_ms": med_ms("service.exporter.render"),
        "nekostat.stats.summarize_ms_per_scrape": 1e3 * t["nekostat.stats.summarize"] / n["service.exporter.render"] if n["service.exporter.render"] else 0.0,
        "net.delay.sample_us": mean_us("net.delay.sample", t),
        "net.loss.drops_us": mean_us("net.loss.drops", t),
        "experiments.runner.run_s": median(samples["experiments.runner.run"]) if samples["experiments.runner.run"] else 0.0,
    }
    reps = n["experiments.runner.run"]
    for name, key in (
        ("experiments.replay_engine.synthesize", "experiments.replay_engine.synthesize_s"),
        ("fd.replay.matrix", "fd.replay.matrix_s"),
        ("fd.replay.predictions", "fd.replay.predictions_s"),
        ("fd.replay.margins", "fd.replay.margins_s"),
        ("timeseries.arima.batch", "timeseries.arima.batch_s"),
    ):
        table[key] = t[name] / reps if reps else 0.0
    return table


def _version(module: str) -> Optional[str]:
    try:
        return __import__(module).__version__
    except ImportError:
        return None


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def provenance() -> Dict[str, object]:
    """Where and on what the record was measured."""
    return {
        "git_sha": _git_sha(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "loadavg_1m": os.getloadavg()[0],
        "timestamp": time.time(),
    }


def work_dir() -> str:
    """Scratch space for run outputs inside the checkout."""
    path = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"
    )
    os.makedirs(path, exist_ok=True)
    return path


def emit(
    workload: str,
    seed: int,
    trace: bool,
    *,
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, float],
    units: Dict[str, str],
    detail: Dict[str, object],
    env: Dict[str, object],
) -> None:
    """Append the full record, print a readable summary, then the result."""
    record = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics, "detail": detail, "env": env,
    }
    with open(os.path.join(work_dir(), "records.jsonl"), "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, default=float) + "\n")
    print(f"# {workload} seed={seed} trace={int(trace)} correct={correct} "
          f"attempted={attempted} failed={failed}", file=sys.stderr)
    for section, values in detail.items():
        if isinstance(values, dict):
            for key, value in values.items():
                print(f"#   {section}.{key} = {value}", file=sys.stderr)
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result), flush=True)
