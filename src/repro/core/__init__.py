"""The paper's contribution: isospeed-efficiency scalability and baselines."""

from .condition import required_problem_size, required_size_continuous
from .hetero_efficiency import (
    heterogeneous_efficiency,
    heterogeneous_scalability,
    heterogeneous_speedup,
    maximum_speedup,
    sequential_time_feasible,
)
from .isoefficiency import (
    isoefficiency_constant,
    isoefficiency_function,
    isoefficiency_work,
    parallel_efficiency,
    speedup,
)
from .isospeed import (
    average_unit_speed,
    isospeed_condition_violation,
    isospeed_scalability,
    matches_isospeed_efficiency,
)
from .isospeed_efficiency import (
    ScalabilityStudy,
    ideal_scaled_work,
    scalability,
    scalability_from_measurements,
)
from .marked_performance import (
    DemandProfile,
    MarkedPerformance,
    bottleneck_dimension,
    effective_marked_speed,
    effective_system_marked_speed,
)
from .marked_speed import NodeMarkedSpeed, SystemMarkedSpeed, system_marked_speed
from .prediction import (
    PerformanceModel,
    predict_required_size,
    predict_scalability,
    predict_scalability_corollary2,
)
from .speedup_models import (
    amdahl_limit,
    amdahl_speedup,
    gustafson_speedup,
    matrix_memory_scaling,
    scaled_speedup,
    speedup_ordering,
    sun_ni_speedup,
)
from .speed import (
    achieved_speed,
    relative_efficiency_error,
    speed_efficiency,
    time_for_efficiency,
)
from .theory import (
    corollary2_scalability,
    execution_time,
    sequential_time,
    solve_scaled_work,
    theorem1_scalability,
    theorem1_scaled_work,
)
from .trendline import TrendFit, fit_trend, fit_trend_from_measurements
from .types import (
    MFLOP,
    Measurement,
    MetricError,
    ScalabilityCurve,
    ScalabilityPoint,
)

__all__ = [
    "DemandProfile",
    "MFLOP",
    "MarkedPerformance",
    "Measurement",
    "MetricError",
    "NodeMarkedSpeed",
    "PerformanceModel",
    "ScalabilityCurve",
    "ScalabilityPoint",
    "ScalabilityStudy",
    "SystemMarkedSpeed",
    "TrendFit",
    "achieved_speed",
    "amdahl_limit",
    "amdahl_speedup",
    "gustafson_speedup",
    "matrix_memory_scaling",
    "scaled_speedup",
    "speedup_ordering",
    "sun_ni_speedup",
    "average_unit_speed",
    "bottleneck_dimension",
    "corollary2_scalability",
    "effective_marked_speed",
    "effective_system_marked_speed",
    "execution_time",
    "fit_trend",
    "fit_trend_from_measurements",
    "heterogeneous_efficiency",
    "heterogeneous_scalability",
    "heterogeneous_speedup",
    "ideal_scaled_work",
    "isoefficiency_constant",
    "isoefficiency_function",
    "isoefficiency_work",
    "isospeed_condition_violation",
    "isospeed_scalability",
    "matches_isospeed_efficiency",
    "maximum_speedup",
    "parallel_efficiency",
    "predict_required_size",
    "predict_scalability",
    "predict_scalability_corollary2",
    "relative_efficiency_error",
    "required_problem_size",
    "required_size_continuous",
    "scalability",
    "scalability_from_measurements",
    "sequential_time",
    "sequential_time_feasible",
    "solve_scaled_work",
    "speed_efficiency",
    "speedup",
    "system_marked_speed",
    "theorem1_scalability",
    "theorem1_scaled_work",
    "time_for_efficiency",
]
