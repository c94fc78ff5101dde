"""Deterministic fault injection and resilience analysis.

The paper's scalability metric assumes constant marked speeds; this
subsystem asks what happens to ψ when they are not: nodes slow down or
crash mid-run, links degrade, messages get lost.  Fault scenarios are
plain data (:class:`FaultSchedule` -- serializable, hashable, seedable),
injection is layered on the unmodified discrete-event engine (program
wrappers + a network-model wrapper), and the analysis layer generalizes
the metric to degraded conditions: availability-weighted effective marked
speed ``C_eff = Σ C_i·a_i``, fault-adjusted speed-efficiency
``E_S = W/(T·C_eff)``, and Theorem 1's degraded
``ψ = (t_0 + T_o)/(t_0' + T_o')``.

Quickstart::

    from repro.faults import NodeCrash, FaultSchedule, run_app_under_faults
    from repro.machine import ge_configuration

    cluster = ge_configuration(4)
    schedule = FaultSchedule((
        NodeCrash(rank=2, at=0.05, restart_delay=0.02),
    ))
    faulty = run_app_under_faults("ge", cluster, 300, schedule)
    print(faulty.psi, faulty.c_eff, faulty.availabilities)

Everything is deterministic: the same (program, network, schedule) replays
the same makespan, fault trace and degraded ψ, bit for bit.
"""

from .analysis import (
    FaultSweepRow,
    availability_weighted_speed,
    degraded_psi,
    fault_speed_efficiency,
)
from .errors import (
    FaultError,
    FaultScheduleError,
    RankFailedError,
)
from .injection import FaultInjector, FaultTraceEvent, faulty_program_factory
from .network import FaultyNetworkModel
from .run import (
    APP_COMPUTE_EFFICIENCY,
    FaultyRun,
    faulty_mpi_run,
    make_fault_launcher,
    render_sweep,
    run_app_under_faults,
    slowdown_sweep,
)
from .schedule import (
    FAULT_SCHEDULE_KIND,
    FaultSchedule,
    LinkDegradation,
    MessageLoss,
    NodeCrash,
    NodeSlowdown,
    random_schedule,
    resolve_rng,
    uniform_slowdown,
)

__all__ = [
    "APP_COMPUTE_EFFICIENCY",
    "FAULT_SCHEDULE_KIND",
    "FaultError",
    "FaultInjector",
    "FaultSchedule",
    "FaultScheduleError",
    "FaultSweepRow",
    "FaultTraceEvent",
    "FaultyNetworkModel",
    "FaultyRun",
    "LinkDegradation",
    "MessageLoss",
    "NodeCrash",
    "NodeSlowdown",
    "RankFailedError",
    "availability_weighted_speed",
    "degraded_psi",
    "fault_speed_efficiency",
    "faulty_mpi_run",
    "faulty_program_factory",
    "make_fault_launcher",
    "random_schedule",
    "render_sweep",
    "resolve_rng",
    "run_app_under_faults",
    "slowdown_sweep",
    "uniform_slowdown",
]
