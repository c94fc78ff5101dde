"""Streaming estimators: P² vs exact quantiles, rates, the heartbeat."""

from __future__ import annotations

import io
import math
import random
import statistics

import pytest

from repro.obs.streaming import (
    OnlineStats,
    P2Quantile,
    ProgressReporter,
    QuantileSketch,
    RateMeter,
    StreamingGroupStats,
    summarize_rank_stats,
)


def exact_quantile(values, p):
    """Linear-interpolation quantile over the sorted sample."""
    ordered = sorted(values)
    pos = p * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# -- OnlineStats --------------------------------------------------------------

def test_online_stats_matches_statistics_module():
    rng = random.Random(7)
    values = [rng.gauss(5.0, 2.0) for _ in range(500)]
    stats = OnlineStats()
    stats.extend(values)
    assert stats.count == 500
    assert stats.mean == pytest.approx(statistics.fmean(values))
    assert stats.std == pytest.approx(statistics.stdev(values))
    assert stats.min == min(values)
    assert stats.max == max(values)


def test_online_stats_empty_and_single():
    stats = OnlineStats()
    assert stats.to_dict() == {
        "count": 0, "mean": 0.0, "std": 0.0, "min": 0.0, "max": 0.0,
    }
    stats.push(3.5)
    assert stats.variance == 0.0
    assert stats.to_dict()["mean"] == 3.5
    assert stats.to_dict()["min"] == stats.to_dict()["max"] == 3.5


# -- P² quantiles vs exact ----------------------------------------------------

def _uniform(n, seed):
    rng = random.Random(seed)
    return [rng.random() for _ in range(n)]


def _lognormal(n, seed):
    rng = random.Random(seed)
    return [rng.lognormvariate(0.0, 1.0) for _ in range(n)]


@pytest.mark.parametrize("p", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_p2_uniform_stream(p, seed):
    values = _uniform(5000, seed)
    marker = P2Quantile(p)
    for v in values:
        marker.push(v)
    # Uniform on [0, 1]: absolute error bound is meaningful directly.
    assert marker.value() == pytest.approx(exact_quantile(values, p), abs=0.02)


@pytest.mark.parametrize("p", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("seed", [11, 12])
def test_p2_lognormal_stream(p, seed):
    values = _lognormal(5000, seed)
    marker = P2Quantile(p)
    for v in values:
        marker.push(v)
    exact = exact_quantile(values, p)
    # Heavy right tail: relative error, looser at p99.
    rel = 0.15 if p == 0.99 else 0.05
    assert marker.value() == pytest.approx(exact, rel=rel)


@pytest.mark.parametrize("order", ["sorted", "reversed"])
@pytest.mark.parametrize("p", [0.5, 0.9])
def test_p2_adversarial_order(order, p):
    # Monotone input is the P² worst case: markers trail the drift, and
    # a descending stream keeps pulling the upper markers down late
    # (measured error ~0.07 at p90).  The estimate must still stay in
    # the right neighbourhood rather than collapsing to an extreme.
    values = sorted(_uniform(4000, 21), reverse=(order == "reversed"))
    marker = P2Quantile(p)
    for v in values:
        marker.push(v)
    assert marker.value() == pytest.approx(exact_quantile(values, p), abs=0.1)


def test_p2_exact_below_five_observations():
    marker = P2Quantile(0.5)
    assert math.isnan(marker.value())
    for values in ([4.0], [4.0, 1.0], [4.0, 1.0, 3.0], [4.0, 1.0, 3.0, 2.0]):
        marker = P2Quantile(0.5)
        for v in values:
            marker.push(v)
        assert marker.value() == pytest.approx(exact_quantile(values, 0.5))


def test_p2_rejects_degenerate_quantile():
    with pytest.raises(ValueError):
        P2Quantile(0.0)
    with pytest.raises(ValueError):
        P2Quantile(1.0)


def test_quantile_sketch_to_dict_keys():
    sketch = QuantileSketch()
    sketch.extend(_uniform(1000, 5))
    doc = sketch.to_dict()
    assert set(doc) == {"count", "mean", "std", "min", "max",
                        "p50", "p90", "p99"}
    assert doc["count"] == 1000
    assert doc["p50"] <= doc["p90"] <= doc["p99"]


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


# -- StreamingGroupStats ------------------------------------------------------

def test_group_stats_engine_sink_duck_type():
    sink = StreamingGroupStats()
    sink.append((0, "compute", 1.0, 3.0, 100.0))
    sink.append((0, "compute", 3.0, 4.0, None))
    sink.append((1, "send", 0.0, 0.5, 1, 0, 8.0))
    assert sink.get((0, "compute")).count == 2
    assert sink.get((0, "compute")).mean == pytest.approx(1.5)
    doc = sink.to_dict()
    assert set(doc) == {"0/compute", "1/send"}


def test_group_stats_with_quantiles():
    sink = StreamingGroupStats(quantiles=(0.5,))
    for v in _uniform(200, 9):
        sink.observe("durations", v)
    assert "p50" in sink.get("durations").to_dict()


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
    # Few ranks -> P² is exact or near-exact against the sorted sample.
    assert util["max"] == pytest.approx(exact[-1])

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


def test_summarize_rank_stats_empty():
    summary = summarize_rank_stats([], 0.0)
    assert summary["ranks"] == 0
    assert summary["top_busiest"] == []
    assert summary["utilization"]["count"] == 0


def test_summarize_rank_stats_single_rank():
    from repro.sim.trace import RankStats

    stats = [RankStats(rank=0, compute_time=1.0, finish_time=2.0)]
    summary = summarize_rank_stats(stats, 2.0)
    # One rank: exactly one busiest entry, no idlest echo of the same rank.
    assert [e["rank"] for e in summary["top_busiest"]] == [0]
    assert summary["top_idlest"] == []
    assert summary["top_busiest"][0]["utilization"] == pytest.approx(0.5)


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


class FakeLog:
    def __init__(self):
        self.events = []

    def event(self, name, **fields):
        self.events.append((name, fields))


def test_progress_reporter_heartbeat_lines():
    clock = FakeClock()
    stream = io.StringIO()
    log = FakeLog()
    reporter = ProgressReporter(
        stream=stream, interval=1.0, log=log, clock=clock
    )
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

    names = {name for name, _ in log.events}
    assert names == {"sweep.progress"}
    final = log.events[-1][1]
    assert final["final"] is True
    assert final["done"] == 4 and final["total"] == 4


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
