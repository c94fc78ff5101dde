"""Sweep executor performance: warm worker pool, fan-out and cache replay.

Not a paper table -- this tracks the cost of *running* the paper's
studies.  The workload is a multi-batch sweep study (the shape of a
bracket-doubling/bisection search) of fine-grained points.  Three legs
execute the same batches:

1. **serial** -- the in-process loop (the bit-identity reference and
   the simplest alternative every speedup is stated against);
2. **parallel** -- ``jobs=2`` on the persistent warm pool (spawned
   once, outside the timed window, as in any long-lived process after
   its first batch), adaptive chunking, shared-once specs, cache-cold;
3. **cache-warm replay** of the parallel leg's cache.

Gates: serial == parallel == cached bit for bit (hard), the parallel
leg's telemetry must show pool reuse with zero spawn cost (hard), and
the warm replay must beat serial >= 2x (hard).  The headline
``serial_vs_parallel`` -- serial wall / parallel wall -- is reported,
not gated: ``cpu_count`` is recorded alongside, and with two workers
timesharing one core a parallel sweep cannot beat serial wall-clock.

The machine-readable result lands in the bench results directory, a
top-level ``BENCH_sweep.json`` (committed perf trajectory) and the run
ledger.
"""

import json
import os
import tempfile
import time
from pathlib import Path

from conftest import bench_scale, write_result

from repro.experiments.executor import RunCache, SweepExecutor
from repro.experiments.pool import shared_pool, shutdown_worker_pools
from repro.experiments.report import format_table
from repro.experiments.sweep import efficiency_curve, geometric_sizes
from repro.machine.sunwulf import ge_configuration
from repro.obs.ledger import RunLedger

REPO_ROOT = Path(__file__).resolve().parent.parent

JOBS = 2


def study_params():
    """Batches of a small multi-batch study (a bisection-ladder shape).

    Points are deliberately fine-grained (~1 ms simulations): per-task
    overhead is exactly the regime the warm pool + chunked dispatch
    target, and the regime the paper's required-size searches live in.
    """
    nodes = 2
    nbatches = 4 if bench_scale() == "quick" else 8
    batches = [list(geometric_sizes(24 + 2 * i, 40 + 2 * i, 4))
               for i in range(nbatches)]
    return nodes, batches


def record_signature(record):
    run = record.run
    return (record.measurement, tuple(run.finish_times), tuple(run.stats))


def run_study(batches, cluster, make_executor):
    """Run every batch through a per-batch executor; returns
    ``(wall_seconds, signatures, executors)``."""
    signatures = []
    executors = []
    t0 = time.perf_counter()
    for index, sizes in enumerate(batches):
        exe = make_executor(index)
        curve = efficiency_curve("ge", cluster, sizes, executor=exe)
        signatures.append([record_signature(r) for r in curve.records])
        executors.append(exe)
    return time.perf_counter() - t0, signatures, executors


def test_sweep_parallelism_and_cache_replay(results_dir):
    nodes, batches = study_params()
    cluster = ge_configuration(nodes)
    npoints = sum(len(b) for b in batches)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)

        serial_s, serial_sigs, _ = run_study(
            batches, cluster, lambda i: SweepExecutor()
        )

        # Leg 2 -- one persistent pool, warmed outside the timed window
        # (any long-lived process after its first batch), chunked
        # dispatch, shared-once specs.  Cache-cold.
        shared_pool(JOBS).warm_up()
        parallel_s, parallel_sigs, parallel_exes = run_study(
            batches, cluster,
            lambda i: SweepExecutor(
                jobs=JOBS, cache=RunCache(tmp / "parallel" / str(i)),
                telemetry=True,
            ),
        )

        # Leg 3 -- replay the parallel leg's caches.
        warm_s, warm_sigs, warm_exes = run_study(
            batches, cluster,
            lambda i: SweepExecutor(
                jobs=JOBS, cache=RunCache(tmp / "parallel" / str(i)),
            ),
        )
        shutdown_worker_pools()

    # Hard gate: the timings are only meaningful if all three legs
    # agree bit for bit.
    assert serial_sigs == parallel_sigs == warm_sigs

    # Hard gate: the parallel leg really ran warm -- every batch reused
    # the one pre-spawned pool, no spawn cost inside the timed window.
    pool = parallel_exes[0].pool
    assert pool.spawns == 1
    for exe in parallel_exes:
        assert exe.pool is pool
        assert exe.timeline.pool_reuse is True
        assert exe.timeline.pool_spawns == 0
        assert exe.timeline.phase_totals()["spawn"] == 0.0
    for exe in warm_exes:
        assert exe.cache_stats()["misses"] == 0

    serial_vs_parallel = (serial_s / parallel_s if parallel_s > 0
                          else float("inf"))
    warm_speedup = serial_s / warm_s if warm_s > 0 else float("inf")

    timeline = parallel_exes[-1].timeline
    # phase_totals() carries exactly the canonical phase vocabulary;
    # driver setup spans (e.g. marked_speed) live under setup_spans so
    # the committed BENCH_sweep.json schema never grows surprise keys.
    phases = timeline.phase_totals()
    attributed = sum(phases.values())
    overhead = {
        "wall_seconds": timeline.wall_seconds,
        "coverage": timeline.coverage(),
        "worker_utilization_mean": timeline.mean_utilization(),
        "phases_seconds": phases,
        "phases_fraction": {
            name: (seconds / attributed if attributed > 0 else 0.0)
            for name, seconds in phases.items()
        },
        "setup_spans": timeline.setup_totals(),
        "pool": {
            "reuse": timeline.pool_reuse,
            "spawns": timeline.pool_spawns,
            "stale_spawn_spans": timeline.stale_spawn_spans,
        },
    }
    assert set(phases) == set(timeline.PHASES), phases

    text = format_table(
        ["metric", "value"],
        [
            ("batches x points", f"{len(batches)} x {len(batches[0])}"),
            ("worker processes", JOBS),
            ("cpu count", os.cpu_count()),
            ("serial (s)", f"{serial_s:.3f}"),
            ("parallel, warm pool (s)", f"{parallel_s:.3f}"),
            ("cache warm (s)", f"{warm_s:.3f}"),
            ("speedup vs serial (serial/parallel)",
             f"{serial_vs_parallel:.2f}x"),
            ("warm-cache speedup", f"{warm_speedup:.2f}x"),
            ("parallel spawn (worker-s, last batch)",
             f"{phases['spawn']:.3f}"),
            ("parallel telemetry coverage",
             f"{100.0 * overhead['coverage']:.1f}%"),
        ],
        title=(f"Sweep executor (GE, {nodes} nodes, {len(batches)} "
               f"batches, {npoints} points)"),
    )
    write_result(results_dir, "sweep_executor", text)

    payload = {
        "bench": "sweep_executor",
        "app": "ge",
        "nodes": nodes,
        "batches": [list(b) for b in batches],
        "sizes": [n for b in batches for n in b],
        "jobs": JOBS,
        "cpu_count": os.cpu_count(),
        "serial_seconds": serial_s,
        "parallel_cold_seconds": parallel_s,
        "cache_warm_seconds": warm_s,
        "serial_vs_parallel": serial_vs_parallel,
        "serial_vs_parallel_definition": (
            "serial wall / warm-pool parallel wall, cache-cold at jobs=2"
        ),
        "warm_cache_speedup": warm_speedup,
        "overhead": overhead,
    }
    blob = json.dumps(payload, indent=2) + "\n"
    (results_dir / "BENCH_sweep.json").write_text(blob)
    (REPO_ROOT / "BENCH_sweep.json").write_text(blob)
    RunLedger(REPO_ROOT / ".repro" / "ledger").record_bench(payload)

    # The acceptance gate: replaying a finished sweep must beat
    # resimulating it by at least 2x.
    assert warm_speedup >= 2.0
