"""The campaign workloads: ``run_repetitions`` with all thirty detectors.

Repetitions run one at a time (``workers=1``), each with its own seed
drawn from ``--seed``, until the measured window is spent; ``latency_ms``
is the median of their wall times, each scaled to the reference host by
the :mod:`perfbench.hostspeed` probes around it.  A short repetition
before the window pays the process's first-call costs (the first ARIMA
fit, numpy and scipy lazy set-up); a garbage collection before each
repetition, outside its timing, starts every one from the same heap.
"""

from __future__ import annotations

import gc
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perfbench import hostspeed, report, spans

# The import is what ``setup_s`` measures in a fresh process.
from repro.experiments import aggregate_runs, run_repetitions
from repro.neko.config import ExperimentConfig
from repro.fd.combinations import combination_ids
from repro.nekostat.events import EventKind
from repro.nekostat.metrics import DetectorQos, OnlineQosAccumulator


@dataclass(frozen=True)
class CampaignSpec:
    """One campaign workload: repetition length and the engine to ask for."""

    cycles: int
    crashes: bool
    engine: Optional[str]
    warmup_cycles: int
    check_cycles: int = 0


SPECS: Dict[str, CampaignSpec] = {
    # The paper's crash config, shortened from 100 000 cycles to fit a run;
    # the engine is the program's default.
    "campaign-crash": CampaignSpec(cycles=3_000, crashes=True, engine=None, warmup_cycles=300),
    # Crash-free repetitions through the replay engine, half the paper's
    # 100 000 cycles: twice as many repetitions per run, each short enough
    # that the host-speed probes around it see the speed it ran at.
    "campaign-replay": CampaignSpec(
        cycles=50_000, crashes=False, engine="replay", warmup_cycles=5_000,
        check_cycles=2_000,
    ),
}

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Tolerance of the replay-vs-simulator agreement on T_M / T_MR samples.
REPLAY_TOLERANCE = 1e-6


def make_config(spec: CampaignSpec, seed: int, cycles: Optional[int] = None) -> ExperimentConfig:
    """The paper's config (italy-japan, eta = 1 s, MTTC 300 s, TTR 30 s);
    crash-free configs push MTTC to 2.5 x the duration."""
    cycles = spec.cycles if cycles is None else cycles
    return ExperimentConfig(
        num_cycles=cycles,
        mttc=300.0 if spec.crashes else 2.5 * cycles,
        ttr=30.0,
        eta=1.0,
        profile_name="italy-japan",
        seed=seed,
    )


def _repetitions(spec: CampaignSpec, config: ExperimentConfig, ids: Sequence[str]) -> List[Any]:
    if spec.engine is None:
        return run_repetitions(config, 1, ids, workers=1)
    return run_repetitions(config, 1, ids, workers=1, engine=spec.engine)


def _setup_main(workload: str) -> int:
    """Child body of a ``setup_s`` sample: build the first repetition's inputs."""
    make_config(SPECS[workload], 0)
    combination_ids()
    print("ready", flush=True)
    return 0


def measure_setup(workload: str) -> Tuple[float, float]:
    """Spawn-to-ready wall time of a fresh process importing the package
    and building the config up to the first repetition: (measured, scaled
    to the reference host)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [report.ROOT, os.path.join(report.ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    bracket = hostspeed.Bracket()
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-m", "perfbench.campaign", workload],
        cwd=report.ROOT, env=env, stdout=subprocess.PIPE,
    ) as child:
        assert child.stdout is not None
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.wait(timeout=60)
    if line.strip() != b"ready" or child.returncode != 0:
        raise RuntimeError(f"set-up process failed (exit {child.returncode})")
    return elapsed, bracket.close().scale(elapsed)


# ---- output checks -----------------------------------------------------
_RANK = {EventKind.RESTORE: 0, EventKind.CRASH: 1}


def online_qos(result: Any) -> Dict[str, DetectorQos]:
    """Replay a run's event log through one ``OnlineQosAccumulator`` per
    detector (restore before crash before detector transitions at equal
    times, as the accumulator requires)."""
    accumulators = {d: OnlineQosAccumulator(d) for d in result.qos}
    events = sorted(
        (e for e in result.event_log if e.kind in _RANK or e.kind in
         (EventKind.START_SUSPECT, EventKind.END_SUSPECT)),
        key=lambda e: (e.time, _RANK.get(e.kind, 2)),
    )
    for event in events:
        if event.kind is EventKind.CRASH:
            for accumulator in accumulators.values():
                accumulator.observe_crash(event.time)
        elif event.kind is EventKind.RESTORE:
            for accumulator in accumulators.values():
                accumulator.observe_restore(event.time)
        elif event.detector in accumulators:
            accumulators[event.detector].observe_transition(
                event.kind is EventKind.START_SUSPECT, event.time
            )
    end = result.config.duration
    return {d: a.snapshot(end) for d, a in accumulators.items()}


def _close(a: Sequence[float], b: Sequence[float], tol: float) -> bool:
    return len(a) == len(b) and all(abs(x - y) <= tol for x, y in zip(a, b))


def qos_mismatches(batch: Dict[str, DetectorQos], online: Dict[str, DetectorQos]) -> List[str]:
    """Detectors whose batch and streaming QoS disagree."""
    bad = []
    for detector, mine in batch.items():
        theirs = online.get(detector)
        if theirs is None or not (
            mine.undetected_crashes == theirs.undetected_crashes
            and _close(mine.td_samples, theirs.td_samples, 1e-9)
            and _close([m.start for m in mine.mistakes], [m.start for m in theirs.mistakes], 1e-9)
            and _close([m.end for m in mine.mistakes], [m.end for m in theirs.mistakes], 1e-9)
            and _close(mine.tmr_samples, theirs.tmr_samples, 1e-9)
            and math.isclose(mine.suspected_up_time, theirs.suspected_up_time, rel_tol=1e-9, abs_tol=1e-6)
            and math.isclose(mine.up_time, theirs.up_time, rel_tol=1e-9, abs_tol=1e-6)
        ):
            bad.append(detector)
    return bad


def _check_repetition(spec: CampaignSpec, result: Any, ids: Sequence[str]) -> str:
    missing = set(ids) - set(result.qos)
    if missing:
        return f"no QoS for {sorted(missing)[:3]}"
    if spec.engine is None:
        bad = qos_mismatches(result.qos, online_qos(result))
        if bad:
            return f"extract_qos != online accumulator for {bad[:3]}"
    return ""


def replay_mismatches(spec: CampaignSpec, seed: int, ids: Sequence[str]) -> List[str]:
    """Re-run one shortened repetition on both engines; detectors whose
    pooled T_M / T_MR samples differ by more than the tolerance."""
    config = make_config(spec, seed, spec.check_cycles)
    simulated = aggregate_runs(run_repetitions(config, 1, ids, workers=1, engine="simulator"))
    replayed = aggregate_runs(run_repetitions(config, 1, ids, workers=1, engine="replay"))
    return [
        d for d, pooled in simulated.items()
        if d not in replayed
        or not _close(pooled.tm_samples, replayed[d].tm_samples, REPLAY_TOLERANCE)
        or not _close(pooled.tmr_samples, replayed[d].tmr_samples, REPLAY_TOLERANCE)
    ]


# ---- the workload -------------------------------------------------------
def run_campaign(workload: str, seed: int, seconds: float, trace: bool,
                 spec: Optional[CampaignSpec] = None) -> Dict[str, Any]:
    spec = spec if spec is not None else SPECS[workload]
    setups = [measure_setup(workload) for _ in range(SETUPS)]
    ids = combination_ids()
    _repetitions(spec, make_config(spec, seed * 1_000 + 999, spec.warmup_cycles), ids)

    recorder = spans.SpanRecorder()
    saved: List[Any] = []
    # Per repetition: wall s, CPU s, cycles and the host-speed factor.
    reps: Dict[str, List[Tuple[float, float, int, float]]] = {"plain": [], "traced": []}
    problems: List[str] = []
    failed = crashes = suspicions = 0
    start = time.perf_counter()
    index = 0
    try:
        while time.perf_counter() - start < seconds or index == 0:
            tracing = trace and time.perf_counter() - start >= seconds / 2
            if tracing and not saved:
                saved = spans.install(recorder)
            config = make_config(spec, seed * 1_000 + index)
            gc.collect()
            bracket = hostspeed.Bracket()
            recorder.enabled = tracing
            recorder.root = f"repetition-{index}"
            cpu0, wall0 = time.process_time(), time.perf_counter()
            result = _repetitions(spec, config, ids)[0]
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            recorder.enabled = False
            bracket.close()
            reps["traced" if tracing else "plain"].append(
                (wall, cpu, config.num_cycles, bracket.factor)
            )
            crashes += result.crashes
            if tracing:
                suspicions += sum(
                    1 for event in getattr(result, "event_log", ())
                    if event.kind is EventKind.START_SUSPECT
                )
            # Checked as it completes (outside its timing) so the event
            # log need not be kept.
            problem = _check_repetition(spec, result, ids)
            if problem:
                problems.append(f"repetition {index}: {problem}")
                failed += 1
            index += 1
    finally:
        recorder.enabled = False
        spans.uninstall(saved)
    elapsed = time.perf_counter() - start

    checks = 0
    if spec.check_cycles:
        checks = 1
        bad = replay_mismatches(spec, seed * 1_000 + 998, ids)
        if bad:
            problems.append(f"replay != simulator T_M/T_MR for {bad[:3]}")
            failed += 1

    def cpu_us(rows: List[Tuple[float, float, int, float]]) -> float:
        return report.median([1e6 * cpu * factor / cycles for _, cpu, cycles, factor in rows])

    plain = reps["plain"]
    cpu_us_per_hb = cpu_us(plain)
    metrics = {
        "setup_s": report.median([scaled for _, scaled in setups]),
        "latency_ms": report.median([1e3 * wall * factor for wall, _, _, factor in plain]),
        "cpu_us_per_hb": cpu_us_per_hb,
        "peak_rss_mb": report.peak_rss_mb(),
    }
    detail: Dict[str, Any] = {
        "workload": {
            "cycles_per_repetition": spec.cycles,
            "engine": spec.engine or "default",
            "repetitions": index,
            "elapsed_s": elapsed,
            "crashes": crashes,
        },
        "e2e": {
            "setup_s": metrics["setup_s"],
            "setup_measured_s": report.median([measured for measured, _ in setups]),
            "repetition_ms": report.timing([wall * factor for wall, _, _, factor in plain], 1e3),
            "repetitions_measured_ms": [1e3 * wall for wall, _, _, _ in plain],
            "host_factors": [factor for _, _, _, factor in plain],
            "cycles_per_s_measured": sum(r[2] for r in plain) / sum(r[0] for r in plain),
            "cpu_us_per_hb": cpu_us_per_hb,
            "peak_rss_mb": metrics["peak_rss_mb"],
        },
        "problems": {str(i): p for i, p in enumerate(problems)},
    }
    layers: Dict[str, float] = {}
    if trace:
        traced = reps["traced"]
        cycles = sum(r[2] for r in traced)
        traced_us = cpu_us(traced) if traced else 0.0
        layers = report.per_layer(
            recorder, units=cycles,
            extra={
                "fd.detector.suspicions_per_khb": 1e3 * suspicions / cycles if cycles else 0.0,
                "trace.overhead_ratio": traced_us / cpu_us_per_hb - 1.0,
            },
        )
        table = report.layer_table(recorder, cycles)
        table.update({
            "trace.cpu_us_per_hb_untraced": cpu_us_per_hb,
            "trace.cpu_us_per_hb_traced": traced_us,
            "trace.overhead_us_per_hb": traced_us - cpu_us_per_hb,
            "trace.cycles_per_s_measured_traced": cycles / sum(r[0] for r in traced) if cycles else 0.0,
        })
        detail["layers"] = table
        recorder.write(os.path.join(report.work_dir(), f"spans-{workload}-{seed}.jsonl"))
    return {
        "correct": not problems,
        "attempted": index + checks,
        "failed": failed,
        "metrics": metrics,
        "layers": layers,
        "detail": detail,
    }


if __name__ == "__main__":
    sys.exit(_setup_main(sys.argv[1]))
