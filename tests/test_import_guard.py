"""scipy stays off the import path of the paper-table, sweep and fault paths.

Only the numeric NPB LU kernel imports scipy (``scipy.linalg``, lazily);
importing ``repro`` and regenerating tables, solving Theorem 1 or running
a faulted sweep point must not load any ``scipy`` module.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = textwrap.dedent("""
    import sys

    import repro
    from repro.core.theory import solve_scaled_work
    from repro.experiments import tables
    from repro.experiments.executor import SweepExecutor, SweepPoint
    from repro.faults import uniform_slowdown
    from repro.machine.sunwulf import ge_configuration

    tables.table3_required_rank((2,))
    tables.table6_predicted_rank((2, 4))
    solve_scaled_work(1e9, 1e8, 2e8, 0.0, 2.0, lambda _: 0.0, lambda _: 3.0)
    cluster = ge_configuration(2)
    point = SweepPoint.make(
        "ge", cluster, 40, schedule=uniform_slowdown(cluster.nranks, 0.5)
    )
    ((record, injector),) = SweepExecutor().run_faulted([point])
    assert injector is not None
    print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
""")


def test_paper_paths_never_import_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env["REPRO_LEDGER_DIR"] = str(tmp_path / "ledger")
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, cwd=tmp_path,
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"
