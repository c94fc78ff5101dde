"""Exact rank summaries, windowed rates, the sweep heartbeat."""

from __future__ import annotations

import io
import statistics

import numpy
import pytest

from repro.experiments.runner import run_app
from repro.machine.sunwulf import ge_configuration, mm_configuration
from repro.obs.streaming import (
    ProgressReporter,
    RateMeter,
    summarize_rank_stats,
    warn,
)


# -- RateMeter ----------------------------------------------------------------

def test_rate_meter_windowed_rate_and_eta():
    meter = RateMeter(window=10.0)
    for t in range(5):  # one event per second at t=0..4
        meter.observe(1, now=float(t))
    assert meter.rate(now=4.0) == pytest.approx(5 / 4)
    assert meter.eta_seconds(10, now=4.0) == pytest.approx(8.0)
    # Events older than the window fall out of the rate.
    assert meter.rate(now=20.0) == 0.0
    assert meter.eta_seconds(10, now=20.0) is None
    assert meter.total == 5


def test_rate_meter_single_instant_falls_back_to_window():
    meter = RateMeter(window=30.0)
    meter.observe(6, now=100.0)
    assert meter.rate(now=100.0) == pytest.approx(6 / 30.0)


# -- summarize_rank_stats -----------------------------------------------------

def test_summarize_rank_stats_on_real_run(ge2_record_n200):
    run = ge2_record_n200.run
    summary = summarize_rank_stats(run.stats, run.makespan)
    assert summary["ranks"] == len(run.stats)
    assert summary["makespan"] == run.makespan
    util = summary["utilization"]
    assert util["count"] == len(run.stats)
    assert 0.0 <= util["p50"] <= 1.0
    assert util["min"] <= util["p50"] <= util["max"]
    exact = sorted(st.utilization(run.makespan) for st in run.stats)
    assert util["max"] == exact[-1]

    busiest = summary["top_busiest"]
    idlest = summary["top_idlest"]
    assert len(busiest) == min(3, len(run.stats))
    assert busiest == sorted(
        busiest, key=lambda e: -e["utilization"]
    )
    assert idlest == sorted(idlest, key=lambda e: e["utilization"])
    assert busiest[0]["utilization"] == pytest.approx(exact[-1])
    for entry in busiest + idlest:
        assert set(entry) == {"rank", "utilization", "idle_seconds", "flops"}


@pytest.mark.parametrize(
    "app, cluster, n",
    [("mm", mm_configuration(8), 120), ("ge", ge_configuration(8), 300)],
    ids=["mm-8-nodes", "ge-8-nodes"],
)
def test_summarize_rank_stats_quantiles_are_exact(app, cluster, n):
    run = run_app(app, cluster, n).run
    summary = summarize_rank_stats(run.stats, run.makespan)
    columns = {
        "utilization": [st.utilization(run.makespan) for st in run.stats],
        "idle_seconds": [st.idle_time(run.makespan) for st in run.stats],
        "flops": [st.flops for st in run.stats],
    }
    assert len(run.stats) > 5  # past the first five observations
    for name, values in columns.items():
        block = summary[name]
        expected = numpy.percentile(values, [50, 90, 99])
        for key, want in zip(("p50", "p90", "p99"), expected):
            assert block[key] == pytest.approx(want, rel=1e-12, abs=1e-12), (
                name, key,
            )
        assert block["count"] == len(values)
        assert block["min"] == min(values)
        assert block["max"] == max(values)
        assert block["mean"] == pytest.approx(statistics.fmean(values), rel=1e-12)
        assert block["std"] == pytest.approx(statistics.stdev(values), rel=1e-9)


def test_summarize_rank_stats_empty():
    summary = summarize_rank_stats([], 0.0)
    assert summary["ranks"] == 0
    assert summary["top_busiest"] == []
    for name in ("utilization", "idle_seconds", "flops"):
        assert summary[name] == {
            "count": 0, "mean": 0.0, "std": 0.0, "min": 0.0, "max": 0.0,
            "p50": 0.0, "p90": 0.0, "p99": 0.0,
        }


def test_summarize_rank_stats_single_rank():
    from repro.sim.trace import RankStats

    stats = [RankStats(rank=0, compute_time=1.0, finish_time=2.0)]
    summary = summarize_rank_stats(stats, 2.0)
    # One rank: exactly one busiest entry, no idlest echo of the same rank.
    assert [e["rank"] for e in summary["top_busiest"]] == [0]
    assert summary["top_idlest"] == []
    assert summary["top_busiest"][0]["utilization"] == pytest.approx(0.5)
    # One value: zero spread, every statistic is that value.
    util = summary["utilization"]
    assert util["count"] == 1 and util["std"] == 0.0
    assert {util[k] for k in ("mean", "min", "max", "p50", "p90", "p99")} == {
        util["min"]
    }


def test_summarize_rank_stats_two_ranks_disjoint():
    from repro.sim.trace import RankStats

    stats = [
        RankStats(rank=0, compute_time=3.0),
        RankStats(rank=1, compute_time=1.0),
    ]
    summary = summarize_rank_stats(stats, 4.0)
    busiest = {e["rank"] for e in summary["top_busiest"]}
    idlest = {e["rank"] for e in summary["top_idlest"]}
    assert not busiest & idlest
    assert busiest | idlest == {0, 1}


def test_summarize_rank_stats_zero_makespan_all_idle():
    from repro.sim.trace import RankStats

    stats = [RankStats(rank=r) for r in range(4)]
    summary = summarize_rank_stats(stats, 0.0)
    assert summary["utilization"]["max"] == 0.0
    assert summary["idle_seconds"]["max"] == 0.0
    for entry in summary["top_busiest"] + summary["top_idlest"]:
        assert entry["utilization"] == 0.0
        assert entry["idle_seconds"] == 0.0


# -- ProgressReporter ---------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_progress_reporter_heartbeat_lines():
    clock = FakeClock()
    stream = io.StringIO()
    reporter = ProgressReporter(stream=stream, interval=1.0, clock=clock)
    reporter.begin(total=4, workers=2)
    clock.now = 0.5
    reporter.point_done(hit=True)  # within interval: no new line
    clock.now = 2.0
    reporter.note_busy_seconds(1.0)
    reporter.point_done()
    clock.now = 3.0
    reporter.point_done()
    reporter.point_done()  # same instant: rate-limited
    reporter.finish()

    out = stream.getvalue().splitlines()
    assert out[0].startswith("[sweep] 0/4 points (0%)")
    assert out[-1].startswith("[sweep] 4/4 points (100%)")
    assert "elapsed" in out[-1]
    assert "cache 25% hit" in out[-1]
    assert "workers" in out[-1]
    assert reporter.lines == len(out)
    assert reporter.cache_hit_rate == pytest.approx(0.25)
    # busy 1.0s over 2 workers x 3s elapsed.
    assert reporter.worker_utilization(now=3.0) == pytest.approx(1.0 / 6.0)


def test_progress_reporter_rate_limit():
    clock = FakeClock()
    stream = io.StringIO()
    reporter = ProgressReporter(stream=stream, interval=10.0, clock=clock)
    reporter.begin(total=100)
    for i in range(50):
        clock.now = 0.1 * (i + 1)
        reporter.point_done()
    # 5 seconds of ticks under a 10 s interval: only the begin line.
    assert reporter.lines == 1
    reporter.finish()
    assert reporter.lines == 2


def test_warn_prints_one_line_to_current_stderr(capsys):
    warn("sweep.cache_write_failed", cache="/x", n=3)
    assert capsys.readouterr().err == (
        "warning: sweep.cache_write_failed cache=/x n=3\n"
    )
