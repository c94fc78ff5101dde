"""Large-rank scale: memory footprint and throughput at 10^4 / 10^5 ranks.

Not a paper table -- the paper's testbed tops out at 64 processors.  This
bench tracks what the million-rank refactor bought: flat array-backed
rank state (:class:`~repro.sim.trace.RankStatsArray`), O(1)-memory
hierarchical network models, and fixed-size rank summaries keep a
10^5-rank tiered-cluster run inside a committed memory budget instead of
drowning in per-rank Python objects.

Each point simulates a nearest-neighbour ring exchange (the stencil halo
pattern) on a :class:`~repro.network.hierarchy.TieredNetwork` (4 ranks
per node, 8 nodes per rack, 4 racks per zone) and reports

* ``events_per_second`` -- untraced wall-clock throughput, and
* ``traced_peak_mb`` -- the ``tracemalloc`` peak of an identical run
  (traced separately: tracing itself slows the run 2-3x, so the two
  numbers must not come from the same execution),

plus the process-level ``ru_maxrss`` high-water mark.  The result lands
in ``benchmarks/results/``, the committed top-level ``BENCH_scale.json``
(the cross-PR trajectory), and the run ledger.
"""

import json
import resource
import time
import tracemalloc
from pathlib import Path

from conftest import write_result

from repro.experiments.report import format_table
from repro.network.hierarchy import TieredNetwork
from repro.network.topology import Topology
from repro.obs.ledger import RunLedger
from repro.sim.engine import Engine
from repro.sim.events import Compute, Recv, Send
from repro.sim.trace import RankStatsArray

RANK_POINTS = (10_000, 100_000)
ITERS = 1
HALO_BYTES = 1024.0
FLOPS_PER_STEP = 1e4

#: Committed tracemalloc-peak budget for the 10^5-rank point (MB).  The
#: measured peak is ~155 MB; the budget leaves ~1.6x headroom so routine
#: noise passes while a per-rank object regression (which would add
#: hundreds of MB at this scale) fails loudly.  tests/sim/test_large_scale.py
#: enforces the same number as a CI smoke gate.
TRACED_PEAK_BUDGET_MB = 256.0

REPO_ROOT = Path(__file__).resolve().parent.parent


def ring_program(nranks: int):
    """Ring halo exchange: compute, send right, receive from the left."""

    def program(rank):
        right = (rank + 1) % nranks
        left = (rank - 1) % nranks
        for it in range(ITERS):
            yield Compute(flops=FLOPS_PER_STEP)
            yield Send(right, HALO_BYTES, tag=it)
            yield Recv(src=left, tag=it)

    return program


def build_engine(nranks: int) -> Engine:
    topo = Topology.rack_blocks(
        nranks, ranks_per_node=4, nodes_per_rack=8, racks_per_zone=4
    )
    return Engine(nranks, TieredNetwork(topo), [1e9] * nranks)


def measure_point(nranks: int) -> dict:
    # Untraced timing first: tracemalloc inflates wall time 2-3x.
    engine = build_engine(nranks)
    t0 = time.perf_counter()
    run = engine.run(ring_program(nranks))
    wall = time.perf_counter() - t0
    assert isinstance(run.stats, RankStatsArray)

    tracemalloc.start()
    build_engine(nranks).run(ring_program(nranks))
    _, traced_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "nranks": nranks,
        "events": run.events,
        "wall_seconds": wall,
        "events_per_second": run.events / wall,
        "traced_peak_mb": traced_peak / 1e6,
    }


def test_large_rank_scale(results_dir):
    points = [measure_point(nranks) for nranks in RANK_POINTS]
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rows = []
    for p in points:
        rows.append((f"{p['nranks']:,} ranks: events", p["events"]))
        rows.append(
            (f"{p['nranks']:,} ranks: events/s",
             f"{p['events_per_second']:,.0f}")
        )
        rows.append(
            (f"{p['nranks']:,} ranks: traced peak (MB)",
             f"{p['traced_peak_mb']:.1f}")
        )
    rows.append(("process peak RSS (MB)", f"{maxrss_mb:.1f}"))
    text = format_table(
        ["metric", "value"], rows,
        title="Large-rank scale (tiered network, ring halo exchange)",
    )
    write_result(results_dir, "scale", text)

    payload = {
        "bench": "scale",
        "network": "tiered (4 ranks/node, 8 nodes/rack, 4 racks/zone)",
        "pattern": f"ring halo exchange, {ITERS} iteration(s)",
        "points": points,
        "peak_rss_mb": maxrss_mb,
        "traced_peak_budget_mb": TRACED_PEAK_BUDGET_MB,
    }
    doc = json.dumps(payload, indent=2) + "\n"
    (results_dir / "BENCH_scale.json").write_text(doc)
    # Top-level copy: the memory/throughput trajectory PRs diff against.
    (REPO_ROOT / "BENCH_scale.json").write_text(doc)
    RunLedger(REPO_ROOT / ".repro" / "ledger").record_bench(payload)

    largest = points[-1]
    assert largest["nranks"] == RANK_POINTS[-1]
    assert largest["traced_peak_mb"] < TRACED_PEAK_BUDGET_MB, largest
    # Gross-throughput backstop (typically ~100k ev/s at 10^5 ranks).
    assert largest["events_per_second"] > 10_000, largest
