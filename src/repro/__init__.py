"""repro -- reproduction of "Scalability of Heterogeneous Computing"
(Xian-He Sun, Yong Chen, Ming Wu; ICPP 2005).

The package implements the paper's isospeed-efficiency scalability metric
together with every substrate its evaluation depends on:

* :mod:`repro.core` -- the metric itself (marked speed, speed-efficiency,
  the scalability function ψ, Theorem 1 and its corollaries, prediction),
  plus the baseline metrics the paper discusses (homogeneous isospeed,
  isoefficiency, productivity-based, heterogeneous efficiency) and the
  future-work multi-parameter "marked performance" extension.
* :mod:`repro.sim` -- a deterministic discrete-event engine.
* :mod:`repro.network` -- shared-bus Ethernet / switched network models.
* :mod:`repro.machine` -- processors, nodes and the Sunwulf cluster.
* :mod:`repro.mpi` -- a simulated MPI-like message-passing runtime.
* :mod:`repro.npb` -- NPB-like kernels measuring marked speeds.
* :mod:`repro.apps` -- the paper's parallel Gaussian elimination and
  matrix multiplication with heterogeneous data distributions.
* :mod:`repro.obs` -- run observability: metrics registry, Chrome-trace
  export, per-rank utilization / imbalance / overhead / critical-path
  analyzers, the ``repro profile`` engine, the sweep heartbeat and
  the persistent run ledger (``repro history``).
* :mod:`repro.overhead` -- machine-parameter fitting and overhead models.
* :mod:`repro.faults` -- deterministic fault injection (slowdowns, crashes,
  link degradation, message loss) and scalability-under-faults analysis:
  availability-weighted ``C_eff``, fault-adjusted speed-efficiency, and
  degraded ψ (``repro faults run|sweep``).
* :mod:`repro.experiments` -- drivers regenerating every evaluation table
  and figure.

Quickstart::

    from repro.machine import ge_configuration
    from repro.experiments import run_ge, marked_speed_of
    from repro.core import scalability

    cluster = ge_configuration(2)
    record = run_ge(cluster, 310)
    print(record.measurement.speed_efficiency)
"""

from . import (
    apps,
    core,
    experiments,
    faults,
    machine,
    mpi,
    network,
    npb,
    obs,
    overhead,
    sim,
)
from .core import (
    Measurement,
    MetricError,
    NodeMarkedSpeed,
    PerformanceModel,
    ScalabilityCurve,
    ScalabilityPoint,
    ScalabilityStudy,
    SystemMarkedSpeed,
    scalability,
    speed_efficiency,
)
from .experiments import marked_speed_of, run_ge, run_mm

__version__ = "1.0.0"

__all__ = [
    "Measurement",
    "MetricError",
    "NodeMarkedSpeed",
    "PerformanceModel",
    "ScalabilityCurve",
    "ScalabilityPoint",
    "ScalabilityStudy",
    "SystemMarkedSpeed",
    "__version__",
    "apps",
    "core",
    "experiments",
    "faults",
    "machine",
    "marked_speed_of",
    "mpi",
    "network",
    "npb",
    "obs",
    "overhead",
    "run_ge",
    "run_mm",
    "scalability",
    "sim",
    "speed_efficiency",
]
