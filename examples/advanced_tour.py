"""Advanced tour: the extension layers around the core metric.

Five stops:

1. a third algorithm-machine combination -- the Jacobi stencil -- and
   where it sits under the isospeed-efficiency metric;
2. post-run analysis with ``repro.obs``: the per-rank time table, the
   utilization timeline, and the Theorem-1 overhead read straight off a
   run's record;
3. memory feasibility: the paper's "you cannot even run the sequential
   reference" argument, evaluated for concrete configurations;
4. link-heterogeneous networks: what a NIC upgrade on half the nodes
   does to a halo-exchange code;
5. the classic speedup models (Amdahl / Gustafson / Sun-Ni) that the
   isospeed lineage grew out of.

Run:  python examples/advanced_tour.py
"""

from repro.core.speedup_models import speedup_ordering
from repro.experiments import format_table
from repro.experiments.sweep import required_size_by_simulation
from repro.machine import ge_configuration
from repro.machine.memory import (
    distributed_feasibility,
    sequential_reference_feasible,
)
from repro.apps.stencil import StencilOptions, make_stencil_program
from repro.mpi.communicator import mpi_run
from repro.network import (
    HeterogeneousSwitchedNetwork,
    LinkParams,
    SwitchedNetwork,
    Topology,
)
from repro.obs import profile_app, utilization_timeline


def stop_1_stencil_combination() -> None:
    print("== 1. the stencil combination " + "=" * 32)
    cluster = ge_configuration(4).with_network("switch")
    n_star, record = required_size_by_simulation(
        "stencil", cluster, 0.3, lower=3
    )
    print(
        f"  Jacobi stencil on {cluster.name}: E_S = 0.3 at N = {n_star} "
        f"(GE needs N ~ 770 on the same ensemble)\n"
    )


def stop_2_analysis() -> None:
    print("== 2. post-run analysis " + "=" * 38)
    # One traced run, every analyzer applied (what `repro profile` prints).
    report = profile_app("stencil", ge_configuration(4), 128)
    print(
        format_table(
            ["rank", "compute (s)", "comm (s)", "idle (s)", "utilization"],
            [
                (u.rank, u.compute, u.comm, u.idle, f"{u.utilization:.1%}")
                for u in report.utilization
            ],
            title="  stencil N=128, 4-node run",
        )
    )
    levels = utilization_timeline(
        report.tracer, len(report.utilization), report.record.run.makespan,
        bins=50,
    )
    digits = "".join(str(min(9, int(level * 10))) for level in levels)
    print(f"  utilization [{digits}] (0=idle .. 9=all ranks computing)")
    # W, C and f all come from the run's own record.
    d = report.decomposition
    print(
        f"  Theorem-1 overhead To = T - W/(fC) = {d.overhead * 1e3:.1f} ms "
        f"of {d.makespan * 1e3:.1f} ms total (f = {d.compute_efficiency})\n"
    )


def stop_3_memory() -> None:
    print("== 3. memory feasibility " + "=" * 37)
    cluster = ge_configuration(32)
    n = 24000  # the paper-scale 32-node GE operating point
    report = distributed_feasibility(cluster, "ge", n)
    seq = sequential_reference_feasible(cluster, "ge", n)
    tight = report.tightest()
    print(
        f"  GE at N={n} on 32 nodes: distributed run fits = {report.fits} "
        f"(tightest node at {tight.utilization:.0%} of its memory)"
    )
    print(
        f"  sequential reference on any single node: {seq} -- the paper's "
        "case against speedup-based metrics, in one boolean\n"
    )


def stop_4_heterogeneous_links() -> None:
    print("== 4. link-heterogeneous networks " + "=" * 28)
    nranks = 8
    topo = Topology.one_per_node(nranks)
    gigabit = LinkParams(
        latency=30e-6, bandwidth=1e9 / 8 * 0.9, software_overhead=25e-6
    )
    options = StencilOptions(n=96, sweeps=24, speeds=(1e8,) * nranks)
    base = mpi_run(
        nranks, SwitchedNetwork(topo), [1e8] * nranks,
        make_stencil_program(options),
    ).makespan
    upgraded = mpi_run(
        nranks,
        HeterogeneousSwitchedNetwork(
            topo, {node: gigabit for node in range(nranks)}
        ),
        [1e8] * nranks,
        make_stencil_program(options),
    ).makespan
    print(
        f"  stencil makespan: 100Mb NICs {base * 1e3:.1f} ms -> gigabit "
        f"NICs {upgraded * 1e3:.1f} ms ({base / upgraded:.2f}x)\n"
    )


def stop_5_speedup_models() -> None:
    print("== 5. the classic speedup models " + "=" * 29)
    rows = []
    for p in (4, 16, 64):
        a, g, s = speedup_ordering(0.05, p)
        rows.append((p, round(a, 2), round(g, 2), round(s, 2)))
    print(
        format_table(
            ["p", "Amdahl (fixed size)", "Gustafson (fixed time)",
             "Sun-Ni (memory-bounded)"],
            rows,
            title="  speedups at alpha = 5%",
        )
    )
    print(
        "  Sun-Ni's 'grow the problem with the memory' is the question the "
        "isospeed-efficiency metric answers operationally.\n"
    )


def main() -> None:
    stop_1_stencil_combination()
    stop_2_analysis()
    stop_3_memory()
    stop_4_heterogeneous_links()
    stop_5_speedup_models()


if __name__ == "__main__":
    main()
