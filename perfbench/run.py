"""The repository's benchmark: four workloads, one command.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see ``BENCHMARK.json`` for why each is there):

* ``live-intake``   -- ``MonitorDaemon`` fed 400 heartbeats/s over UDP;
* ``live-observed`` -- the daemon traced, drift-monitored, crashing
  endpoints and scraped over HTTP every 2 s;
* ``campaign-crash`` -- ``run_repetitions`` on the paper's crash config
  with the program's default engine;
* ``campaign-replay`` -- ``run_repetitions(engine="replay")`` on
  crash-free 50 000-cycle repetitions.

Every gated timing is scaled to the reference host of
:mod:`perfbench.hostspeed`.  With ``--trace 0`` the last stdout line is the
JSON result holding the end-to-end metrics; with ``--trace 1`` the measured window is split: the
first half runs untraced, the second half with the layer boundaries of
:mod:`perfbench.spans` wrapped, and the result holds the per-layer
metrics plus the tracing overhead.  Every run appends its full record
(per-layer timing table, provenance, problems found by the output
checks) to ``.bench_build/perfbench/records.jsonl`` and prints it, in
readable form, on stderr; a ``CARGO_TARGET_DIR`` environment variable
moves ``.bench_build``.
"""

from __future__ import annotations

import os
import sys
import time

# BLAS and OpenMP pools would turn one-core work into several; pin them
# before numpy loads (the load generator inherits the environment).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("live-intake", "live-observed", "campaign-crash", "campaign-replay")


def _quietest(cpus) -> int:
    """The CPU on which a fixed pure-Python loop runs fastest (best of 3)."""
    best = {}
    for _ in range(3):
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            start = time.process_time()
            table = {}
            for i in range(30_000):
                table[i % 997] = i
            best[cpu] = min(best.get(cpu, float("inf")), time.process_time() - start)
    return min(cpus, key=best.__getitem__)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not os.path.isdir(os.path.join(_ROOT, "src", "repro")):
        print("error: the program's sources (src/repro) are not in this checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [_ROOT, os.path.join(_ROOT, "src")]
    cpus = sorted(os.sched_getaffinity(0))
    others = set()
    if len(cpus) >= 2:
        # The working process gets the CPU the host's other tenants load
        # least right now; the live workloads' load generator the rest.
        work = _quietest(cpus)
        os.sched_setaffinity(0, {work})
        others = set(cpus) - {work}

    from perfbench import report

    env = report.provenance()
    trace = bool(args.trace)
    if args.workload.startswith("live-"):
        from perfbench.live import run_live

        outcome = run_live(
            args.workload, args.seed, args.seconds, trace, generator_cpus=others
        )
    else:
        from perfbench.campaign import run_campaign

        outcome = run_campaign(args.workload, args.seed, args.seconds, trace)
    if trace:
        metrics, units = outcome["layers"], report.per_layer_units()
    else:
        metrics, units = outcome["metrics"], report.END_TO_END
    report.emit(
        args.workload, args.seed, trace,
        correct=outcome["correct"], attempted=outcome["attempted"],
        failed=outcome["failed"], metrics=metrics, units=units,
        detail=outcome["detail"], env=env,
    )
    return 0

if __name__ == "__main__":
    sys.exit(main())
