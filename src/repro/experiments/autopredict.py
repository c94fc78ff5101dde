"""Automatic scalability prediction (the paper's second future-work item).

The conclusion of the paper proposes "extending the prediction of
scalability into system support so that the scalability can be predicted
automatically or semi-automatically".  :class:`AutoPredictor` is that
support layer: pointed at a cluster and an application name, it

1. measures the cluster's marked speed (cached, Definitions 1-2),
2. runs the section-4.5 micro-benchmarks once to fit machine parameters,
3. builds the application's analytic performance model, and
4. answers prediction queries -- efficiency at a size, required size for
   a target efficiency, and ψ to any other configuration -- without any
   scaled application executions.

``verify=True`` on a query additionally runs the real (simulated)
application once at the predicted operating point and reports the
relative error, turning the fully automatic prediction into the paper's
semi-automatic mode.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.prediction import (
    PerformanceModel,
    predict_required_size,
    predict_scalability,
)
from ..core.types import MetricError, ScalabilityPoint
from ..machine.cluster import ClusterSpec
from ..overhead.fit import fit_machine_parameters
from ..overhead.model import MachineParameters
from .runner import APPLICATIONS, marked_speed_of, run_app
from .tables import _fft_model, _ge_model, _mm_model, _stencil_model

_MODEL_BUILDERS = {
    "ge": _ge_model,
    "mm": _mm_model,
    "stencil": _stencil_model,
    "fft": _fft_model,
}


@dataclass(frozen=True)
class VerifiedPrediction:
    """A prediction plus its one-shot simulated verification."""

    predicted: float
    measured: float

    @property
    def relative_error(self) -> float:
        return abs(self.predicted - self.measured) / abs(self.measured)


class AutoPredictor:
    """Automatic scalability-prediction service for one application.

    Parameters are measured lazily on first use and cached per cluster;
    all queries afterwards are closed-form model evaluations.
    """

    def __init__(self, app: str, base_cluster: ClusterSpec):
        if app not in _MODEL_BUILDERS:
            raise MetricError(
                f"unknown application {app!r}; choose from "
                f"{sorted(_MODEL_BUILDERS)}"
            )
        self.app = app
        self.base_cluster = base_cluster
        self._builder = _MODEL_BUILDERS[app]
        self.compute_efficiency = APPLICATIONS[app].compute_efficiency
        self._params: MachineParameters | None = None
        self._models: dict[str, PerformanceModel] = {}

    # -- calibration ----------------------------------------------------
    @property
    def machine_parameters(self) -> MachineParameters:
        """Machine parameters, measured once on the base configuration."""
        if self._params is None:
            marked = marked_speed_of(self.base_cluster)
            self._params = fit_machine_parameters(
                self.base_cluster, marked, self.compute_efficiency
            )
        return self._params

    def model_for(self, cluster: ClusterSpec) -> PerformanceModel:
        """The application's analytic model on a configuration (cached)."""
        if cluster.name not in self._models:
            self._models[cluster.name] = self._builder(
                cluster, self.machine_parameters, self.compute_efficiency
            )
        return self._models[cluster.name]

    # -- queries ----------------------------------------------------------
    def efficiency_at(self, cluster: ClusterSpec, n: int) -> float:
        """Predicted speed-efficiency at problem size ``n``."""
        return self.model_for(cluster).efficiency(float(n))

    def required_size(self, cluster: ClusterSpec, target: float) -> float:
        """Predicted problem size attaining the target speed-efficiency."""
        return predict_required_size(self.model_for(cluster), target)

    def scalability(
        self,
        cluster_from: ClusterSpec,
        cluster_to: ClusterSpec,
        target: float,
    ) -> ScalabilityPoint:
        """Predicted ψ between two configurations at a target efficiency."""
        return predict_scalability(
            self.model_for(cluster_from), self.model_for(cluster_to), target
        )

    # -- semi-automatic mode ----------------------------------------------
    def verify_efficiency(
        self, cluster: ClusterSpec, n: int
    ) -> VerifiedPrediction:
        """Predict E_S(n), then run the simulated application once."""
        predicted = self.efficiency_at(cluster, n)
        record = run_app(
            self.app, cluster, int(n),
            compute_efficiency=self.compute_efficiency,
        )
        return VerifiedPrediction(predicted, record.speed_efficiency)

    def verify_required_size(
        self, cluster: ClusterSpec, target: float
    ) -> VerifiedPrediction:
        """Predict the required size, then measure the efficiency there.

        ``measured`` is the simulated efficiency at the predicted size; a
        small relative error against ``target`` means the prediction put
        the combination on its iso-efficiency contour.
        """
        import math

        n_pred = self.required_size(cluster, target)
        n_run = max(3, int(round(n_pred)))
        if self.app == "fft":
            # Real FFT runs need a power-of-two size; verify at the
            # nearest one (the analytic model is continuous).
            n_run = 1 << max(1, round(math.log2(max(2.0, n_pred))))
        record = run_app(
            self.app, cluster, n_run,
            compute_efficiency=self.compute_efficiency,
        )
        return VerifiedPrediction(target, record.speed_efficiency)
