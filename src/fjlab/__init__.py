"""Numerical laboratory for stubborn-agent deliberation dynamics.

Simulates multi-agent belief updates where each agent mixes an innate
belief, its own current belief, and a weighted average of its peers;
recovers those parameters from observed trajectories; and checks
routing/aggregation theory on synthetic scenarios with closed-form
answers.  See the README for the update rule and the file formats.
"""

from .constants import (
    CONSENSUS_THRESHOLD,
    CONTRACTION_MARGIN,
    ENTROPY_EPS,
    INGEST_TOL,
    LOG_FLOOR,
    STOCHASTIC_TOL,
    TAU_SIMPLEX,
)
from .dynamics import (
    aggregate_pi,
    build_h,
    equilibrium,
    fj_step,
    influence_weights,
    settle,
    simulate,
    simulate_pool,
    spectral_radius,
)
from .errors import (
    FJLabError,
    NumericalError,
    ValidationError,
)
from .estimation import (
    FitConfig,
    FitReport,
    VariabilityReport,
    fit_global,
    fit_objective,
    fit_sample,
    one_step_predictions,
    parameter_variability,
)
from .io import (
    load_trajectories,
    params_from_dict,
    params_to_dict,
    save_trajectories,
)
from .metrics import (
    MetricColumns,
    alignment_metrics,
    brier_loss,
    competence,
    confidence,
    confidence_metrics,
    disagreement,
    diversity,
    influence_metrics,
    log_loss,
    softmax_weights,
    spearman,
    stacked_metrics,
)
from .model import (
    DeliberationTrajectory,
    FJParameters,
    argmax_label,
    normalize_belief,
    validate_belief,
    validate_snapshot,
)
from .routing import (
    EnsembleComparisonReport,
    LabeledSnapshotSet,
    RoutingReport,
    ambiguity_decomposition,
    confidence_softmax_weights,
    hard_confidence_weights,
    local_risk,
    min_risk_weights,
    moe_vs_best_single,
    moe_vs_fixed_ensemble,
)
from .scenarios import (
    ExclusiveLosses,
    ExclusiveScenario,
    ImperfectScenario,
    empirical_route_crossover,
    exclusive_losses,
    gen_exclusive,
    gen_imperfect,
    imperfect_gap,
    moe_advantage_check,
    optimal_fixed_ensemble,
    project_simplex,
    routing_error_threshold,
    uniform_mixture_profile,
    wrong_majority_holds,
)
from .verify import (
    CheckResult,
    DEFAULT_CHECKS,
    run_all_checks,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # constants
    "CONSENSUS_THRESHOLD",
    "CONTRACTION_MARGIN",
    "ENTROPY_EPS",
    "INGEST_TOL",
    "LOG_FLOOR",
    "STOCHASTIC_TOL",
    "TAU_SIMPLEX",
    # model
    "DeliberationTrajectory",
    "FJParameters",
    "argmax_label",
    "normalize_belief",
    "validate_belief",
    "validate_snapshot",
    # dynamics
    "aggregate_pi",
    "build_h",
    "equilibrium",
    "fj_step",
    "influence_weights",
    "settle",
    "simulate",
    "simulate_pool",
    "spectral_radius",
    # metrics
    "MetricColumns",
    "alignment_metrics",
    "brier_loss",
    "competence",
    "confidence",
    "confidence_metrics",
    "disagreement",
    "diversity",
    "influence_metrics",
    "log_loss",
    "softmax_weights",
    "spearman",
    "stacked_metrics",
    # routing
    "EnsembleComparisonReport",
    "LabeledSnapshotSet",
    "RoutingReport",
    "ambiguity_decomposition",
    "confidence_softmax_weights",
    "hard_confidence_weights",
    "local_risk",
    "min_risk_weights",
    "moe_vs_best_single",
    "moe_vs_fixed_ensemble",
    # scenarios
    "ExclusiveLosses",
    "ExclusiveScenario",
    "ImperfectScenario",
    "empirical_route_crossover",
    "exclusive_losses",
    "gen_exclusive",
    "gen_imperfect",
    "imperfect_gap",
    "moe_advantage_check",
    "optimal_fixed_ensemble",
    "project_simplex",
    "routing_error_threshold",
    "uniform_mixture_profile",
    "wrong_majority_holds",
    # estimation
    "FitConfig",
    "FitReport",
    "VariabilityReport",
    "fit_global",
    "fit_objective",
    "fit_sample",
    "one_step_predictions",
    "parameter_variability",
    # io
    "load_trajectories",
    "params_from_dict",
    "params_to_dict",
    "save_trajectories",
    # verify
    "CheckResult",
    "DEFAULT_CHECKS",
    "run_all_checks",
    # errors
    "FJLabError",
    "NumericalError",
    "ValidationError",
]
