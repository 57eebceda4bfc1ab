"""Self-tests of the benchmark: tiny sizes of every workload, the output
checks, and the agreement between ``BENCHMARK.json`` and the code.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import campaign, hostspeed, live, report  # noqa: E402
from perfbench.loadgen import check_body  # noqa: E402
from perfbench.schedule import LiveSpec, build_live_schedule  # noqa: E402

TINY_INTAKE = LiveSpec(endpoints=3, eta=0.1, warmup=0.5)
TINY_OBSERVED = LiveSpec(
    endpoints=3, eta=0.2, warmup=0.5, tracing=True, drift_window=4,
    scrape_every=0.5, crashes=True, mttc=1.0, ttr=0.4,
)
TINY_CRASH = campaign.CampaignSpec(cycles=150, crashes=True, engine=None, warmup_cycles=60)
TINY_REPLAY = campaign.CampaignSpec(
    cycles=400, crashes=False, engine="replay", warmup_cycles=200, check_cycles=300,
)


def _assert_clean(outcome, trace=False):
    assert outcome["correct"], outcome["detail"]["problems"]
    assert outcome["failed"] == 0
    assert outcome["attempted"] >= 1
    assert set(outcome["metrics"]) == set(report.END_TO_END)
    assert all(v > 0 and math.isfinite(v) for v in outcome["metrics"].values())
    if trace:
        assert set(outcome["layers"]) == set(report.per_layer_units())


def test_live_intake_tiny():
    _assert_clean(live.run_live("live-intake", 3, 1.0, False, spec=TINY_INTAKE))


def test_live_observed_tiny_traced():
    outcome = live.run_live("live-observed", 4, 1.5, True, spec=TINY_OBSERVED)
    _assert_clean(outcome, trace=True)
    assert outcome["detail"]["workload"]["crashes"] >= 1
    assert outcome["layers"]["service.daemon.self_share"] > 0
    assert outcome["layers"]["fd.detector.calls_per_hb"] == pytest.approx(30.0)


def test_campaign_crash_tiny_traced():
    outcome = campaign.run_campaign("campaign-crash", 5, 0.5, True, spec=TINY_CRASH)
    _assert_clean(outcome, trace=True)
    assert outcome["layers"]["sim.engine.self_share"] > 0
    assert outcome["layers"]["fd.replay.self_share"] == 0


def test_campaign_replay_tiny():
    _assert_clean(campaign.run_campaign("campaign-replay", 6, 0.3, False, spec=TINY_REPLAY))


def test_corrupted_qos_sample_fails_the_check():
    config = campaign.make_config(TINY_CRASH, 17, cycles=400)
    [result] = campaign.run_repetitions(config, 1, campaign.combination_ids(), workers=1)
    online = campaign.online_qos(result)
    assert campaign.qos_mismatches(result.qos, online) == []
    detector, qos = next((d, q) for d, q in result.qos.items() if q.tmr_samples)
    qos.tmr_samples[0] += 1e-3
    assert campaign.qos_mismatches(result.qos, online) == [detector]


def test_scrape_check_rejects_bad_bodies():
    body = b'fd_up{endpoint="a"} 1\nfd_up{endpoint="b"} NaN\n'
    head = b"HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body)
    assert check_body(head + body, ["a", "b"]) == (len(body), "")
    assert "missing" in check_body(head + body, ["a", "b", "c"])[1]
    assert "unparsable" in check_body(
        b"HTTP/1.0 200 OK\r\nContent-Length: 6\r\n\r\nx{} ok", []
    )[1]
    assert "status" in check_body(b"HTTP/1.0 500 Oops\r\n\r\n", [])[1]


def test_schedule_is_a_function_of_the_seed():
    one = build_live_schedule(TINY_OBSERVED, 9, 2.0)
    assert one.events == build_live_schedule(TINY_OBSERVED, 9, 2.0).events
    assert one.events != build_live_schedule(TINY_OBSERVED, 10, 2.0).events
    dues = [row[0] for row in one.events]
    assert dues == sorted(dues) and max(dues) <= one.horizon


def test_host_speed_scaling(monkeypatch):
    ref = hostspeed.REFERENCE_S
    readings = iter([ref, 3 * ref])
    monkeypatch.setattr(hostspeed, "probe", lambda: next(readings))
    assert hostspeed.Bracket().close().scale(4.0) == pytest.approx(2.0)

    # Probes at t = 0, 1 and 2 s, each holding the loop 10 ms: the host
    # runs at the reference speed until t = 1 and at half of it after.
    track = live._HostTrack([])
    track.rows = [
        (0.0, 0.01, 0.0, 0.01, ref, 0),
        (1.0, 1.01, 0.5, 0.51, ref, 10),
        (2.0, 2.01, 1.5, 1.51, 3 * ref, 30),
    ]
    assert track.factors() == pytest.approx([1.0, 0.5])
    measured, scaled = track.cpu_us_per_hb()
    assert measured == pytest.approx(1e6 * (0.49 + 0.99) / 30)
    assert scaled == pytest.approx(1e6 * (0.49 + 0.99 * 0.5) / 30)
    # The two heartbeats whose way to dispatch crossed a probe are left out.
    spans = [(0.2, 0.3), (1.5, 1.6), (0.95, 1.05), (0.005, 0.2)]
    assert track.scale_latencies(spans) == pytest.approx([0.1, 0.05])


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == [
        "live-intake", "live-observed", "campaign-crash", "campaign-replay",
    ]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == report.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == report.per_layer_units()


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(ROOT, "perfbench", name), "rb").read())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "live-intake",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
