"""Scalability under faults: the psi-vs-fault-intensity study.

Not a paper table -- the paper assumes constant marked speeds; this bench
measures how the isospeed-efficiency scalability psi degrades when every
node of the Sunwulf configuration is slowed down mid-run, and tracks the
wall cost of the fault-injection wrappers themselves (a faulted run should
stay within a small factor of a plain run).

Regenerates the same table as ``repro faults sweep`` and asserts its
acceptance shape: psi is monotonically non-increasing as slowdown severity
grows.
"""

import json
from pathlib import Path

from conftest import write_result

from repro.faults import render_sweep, slowdown_sweep
from repro.fuzz import check_sweep_invariants
from repro.machine.sunwulf import ge_configuration

N = 300
NODES = 4
SEVERITIES = (0.0, 0.2, 0.4, 0.6)

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_faults_scalability_sweep(benchmark, results_dir):
    cluster = ge_configuration(NODES)

    def one_sweep():
        return slowdown_sweep(
            "ge", cluster, N, severities=SEVERITIES
        )

    rows = benchmark(one_sweep)

    text = render_sweep(
        rows,
        title=f"Scalability under faults (GE, {NODES} nodes, N={N})",
    )
    write_result(results_dir, "faults_scalability", text)

    payload = {
        "bench": "faults_scalability",
        "app": "ge",
        "nodes": NODES,
        "n": N,
        "severities": list(SEVERITIES),
        "baseline_makespan": rows[0].baseline_makespan,
        "psi": [row.psi for row in rows],
        "fault_speed_efficiency": [row.fault_speed_efficiency for row in rows],
        "mean_wall_seconds": benchmark.stats.stats.mean,
    }
    text = json.dumps(payload, indent=2) + "\n"
    (results_dir / "BENCH_faults.json").write_text(text)
    (REPO_ROOT / "BENCH_faults.json").write_text(text)

    assert rows[0].psi == 1.0  # severity 0 is the fault-free anchor
    assert check_sweep_invariants(rows) == []
    assert rows[-1].psi < 1.0  # severity 0.6 must actually degrade psi
