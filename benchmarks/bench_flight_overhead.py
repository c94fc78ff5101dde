"""Flight-recorder overhead: paired blocks with a distribution-free CI.

Not a paper table -- this gates the cost of the always-on black box
(:class:`~repro.sim.flight.FlightRecorder` at its default capacity) on
the paper's hot path: GE, 8 nodes, N=300.

Method: one warm-up of each leg, then ``BLOCKS`` blocks.  Each block
runs bare and flight-recorded ``RUNS_PER_LEG`` times each, interleaved,
alternating from block to block which leg goes first; the block's
overhead is ``min(flight) / min(bare) - 1``.  Blocks are short, so slow
host phases hit both legs of a block alike.  The report is the median
block overhead with its distribution-free 95% confidence interval from
order statistics.

Gate: the budget is 5%.  The bench fails when the interval's lower end
exceeds it (the data show the budget is broken) and prints a GitHub
``::warning::`` when the interval contains it.  A single best-of-N
point estimate cannot tell an overhead sitting at its budget from one
past it; this rule reliably fails a true overhead of about 6.5%.
"""

import statistics
import time
from math import comb

from conftest import write_result

from repro.experiments.report import format_table
from repro.experiments.runner import marked_speed_of, run_ge
from repro.machine.sunwulf import ge_configuration
from repro.sim.flight import FlightRecorder

N = 300
NODES = 8
BLOCKS = 60
RUNS_PER_LEG = 3
BUDGET = 0.05
LEVEL = 0.95


def median_ci(values):
    """``(median, lo, hi)``: ``[lo, hi]`` are the order statistics
    ``x_(k)`` and ``x_(n+1-k)``, which cover the population median with
    probability ``1 - 2 P(Binomial(n, 1/2) <= k - 1)``; ``k`` is the
    largest rank that keeps that at or above ``LEVEL``."""
    xs = sorted(values)
    n = len(xs)
    k, cdf = 0, 0.0
    while 2 * (cdf + comb(n, k) / 2**n) <= 1 - LEVEL:
        cdf += comb(n, k) / 2**n
        k += 1
    if k == 0:
        raise ValueError(f"{n} samples cannot give a {LEVEL:.0%} interval")
    return statistics.median(xs), xs[k - 1], xs[n - k]


def test_flight_overhead_within_budget(results_dir):
    cluster = ge_configuration(NODES)
    marked = marked_speed_of(cluster)
    flight = FlightRecorder()
    legs = {"bare": {}, "flight": {"flight": flight}}

    def timed(leg):
        t0 = time.perf_counter()
        run_ge(cluster, N, marked=marked, **legs[leg])
        return time.perf_counter() - t0

    for leg in legs:  # warm-up: imports and caches
        timed(leg)
    overheads = []
    for block in range(BLOCKS):
        order = ("bare", "flight") if block % 2 == 0 else ("flight", "bare")
        walls = {"bare": [], "flight": []}
        for _ in range(RUNS_PER_LEG):
            for leg in order:
                walls[leg].append(timed(leg))
        overheads.append(min(walls["flight"]) / min(walls["bare"]) - 1.0)

    median, lo, hi = median_ci(overheads)
    text = format_table(
        ["metric", "value"],
        [("blocks x runs per leg", f"{BLOCKS} x {RUNS_PER_LEG}"),
         ("flight capacity K", flight.capacity),
         ("median overhead", f"{median:.2%}"),
         (f"{LEVEL:.0%} CI of the median", f"[{lo:.2%}, {hi:.2%}]"),
         ("budget", f"{BUDGET:.0%}")],
        title=f"Flight-recorder overhead (GE, {NODES} nodes, N={N})",
    )
    write_result(results_dir, "flight_overhead", text)
    print(text)
    if lo <= BUDGET <= hi:
        print(f"::warning::flight-recorder overhead {median:.2%} "
              f"[{lo:.2%}, {hi:.2%}] is not resolved against the "
              f"{BUDGET:.0%} budget")
    assert lo <= BUDGET, (
        f"flight-recorder overhead {median:.2%} [{lo:.2%}, {hi:.2%}] "
        f"exceeds the {BUDGET:.0%} budget"
    )
