"""CI memory gate: a 10^5-rank stencil run must stay inside the
committed tracemalloc budget.

The million-rank refactor keeps per-rank engine state in flat
preallocated arrays (:class:`~repro.sim.trace.RankStatsArray`) and the
hierarchical network models O(1) in rank count.  A regression that
reintroduces a per-rank Python object (~400 bytes each, so hundreds of
MB at this scale) blows the budget immediately; routine allocator noise
does not (the measured peak is ~138 MB against a 256 MB budget; the
engine's per-run list columns, packed into arrays when the run ends,
account for ~9 MB of it).
The per-event cost of the same ring at 10^4 ranks is pinned by
``tests/sim/test_hot_path_budget.py``.
"""

import tracemalloc

from repro.network.hierarchy import TieredNetwork
from repro.network.topology import Topology
from repro.sim.engine import Engine
from repro.sim.events import Compute, Recv, Send
from repro.sim.trace import RankStatsArray

NRANKS = 100_000
TRACED_PEAK_BUDGET_MB = 256.0


def stencil_program(rank):
    """One ring halo-exchange sweep: compute, send right, recv left."""
    yield Compute(flops=1e4)
    yield Send((rank + 1) % NRANKS, 1024.0, tag=0)
    yield Recv(src=(rank - 1) % NRANKS, tag=0)


def test_hundred_thousand_rank_stencil_within_memory_budget():
    topo = Topology.rack_blocks(
        NRANKS, ranks_per_node=4, nodes_per_rack=8, racks_per_zone=4
    )
    tracemalloc.start()
    try:
        engine = Engine(NRANKS, TieredNetwork(topo), [1e9] * NRANKS)
        run = engine.run(stencil_program)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert run.events == 3 * NRANKS
    assert run.undelivered_messages == 0
    assert isinstance(run.stats, RankStatsArray)
    assert len(run.stats) == NRANKS
    assert run.makespan > 0.0
    peak_mb = peak / 1e6
    assert peak_mb < TRACED_PEAK_BUDGET_MB, (
        f"10^5-rank stencil traced peak {peak_mb:.1f} MB exceeds the "
        f"{TRACED_PEAK_BUDGET_MB:.0f} MB budget"
    )
