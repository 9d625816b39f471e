"""Self-verification checks: closed-form oracles vs simulation.

Each check draws synthetic systems, compares an analytic prediction
against an independently computed numerical result, and returns a
CheckResult.  The CLI ``verify`` command runs them and writes a plain
text report plus a JSON twin; the acceptance test suite runs the same
functions with pinned budgets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import _checked_influence, _fixed_point, _run_rounds, build_h
from .errors import ConfigError
from .metrics import _diversity_rows, _log_loss_rows, _mixture, _pairwise_diversity_rows
from .model import FJParameters, _check_rows
from .routing import (
    LabeledSnapshotSet,
    _ambiguity_rows,
    confidence_softmax_weights,
    hard_confidence_weights,
    moe_vs_best_single,
    moe_vs_fixed_ensemble,
)
from .scenarios import (
    ExclusiveScenario,
    ImperfectScenario,
    empirical_route_crossover,
    exclusive_losses,
    gen_exclusive,
    gen_imperfect,
    imperfect_gap,
    moe_advantage_check,
    optimal_fixed_ensemble,
    routing_error_threshold,
    wrong_majority_holds,
)

__all__ = [
    "CheckResult",
    "check_influence_consistency",
    "check_ambiguity_identity",
    "check_diversity_forms",
    "check_exclusive_scenario",
    "check_routing_threshold",
    "check_imperfect_scenario",
    "check_condition_outcome",
    "run_all_checks",
    "DEFAULT_CHECKS",
    "BUDGET_DEFAULTS",
]

# Each run_all_checks budget's default, which the [verify] config section and
# each check's own default read from here.
BUDGET_DEFAULTS = dict(
    prop_draws=200, identity_draws=1000, scenario_samples=100_000, consistency_samples=500
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: dict[str, float] = field(default_factory=dict)
    detail: str = ""


def _random_contractive(rng: np.random.Generator, n_max: int = 6, d_max: int = 8):
    """A random all-to-all system with spectral radius bounded away from 1."""
    n = int(rng.integers(2, n_max + 1))
    d = int(rng.integers(2, d_max + 1))
    gamma = rng.uniform(0.05, 0.95, n)
    alpha = rng.uniform(0.05, 0.95, n)
    mask = FJParameters.complete_mask(n)
    w = rng.uniform(0.0, 1.0, (n, n))
    w[~mask] = 0.0
    w /= w.sum(axis=1, keepdims=True)
    innate = rng.dirichlet(np.ones(d), size=n)
    params = FJParameters(gamma=gamma, alpha=alpha, w=w, mask=mask)
    return params, innate


def check_influence_consistency(
    draws: int = BUDGET_DEFAULTS["prop_draws"], seed: int = 2024, rounds: int = 500
) -> CheckResult:
    """Fixed-point algebra vs iteration on random contractive systems.

    Checks the long-run influence matrix (nonnegative, row-stochastic),
    the contraction bound rho(H) <= 1 - min(gamma), and that iterating
    ``rounds`` steps lands on the solved equilibrium in sup norm.
    """
    rng = np.random.default_rng(seed)
    worst_neg = 0.0
    worst_row = 0.0
    worst_gap = 0.0
    worst_rho = -np.inf
    groups: dict[int, list] = {}
    for _ in range(draws):
        params, innate = _random_contractive(rng)
        # One H, one eigenvalue call and the two solves of influence_weights
        # and equilibrium.
        h = build_h(params)
        gs = params.gamma[:, None] * innate
        rho, m, fixed = _fixed_point(h[None], np.diag(params.gamma)[None], gs[None])
        m = _checked_influence(m, params.gamma[None])[0]
        worst_neg = min(worst_neg, float(m.min()))
        worst_row = max(worst_row, float(np.abs(m.sum(axis=1) - 1.0).max()))
        worst_rho = max(worst_rho, float(rho[0]) - (1.0 - float(params.gamma.min())))
        groups.setdefault(innate.shape[1], []).append((gs, h, innate, fixed[0]))
    # One stack per label count, padded to its largest agent count by agents
    # with zero H rows and columns whose G S, start and solved rows are e_0,
    # which a round keeps; real rows gain only zero products, so each draw
    # gets its own bits.  Labels are not padded: numpy sums 8+ entries pairwise.
    for members in groups.values():
        size = max(len(gs) for gs, *_ in members)
        h = np.zeros((len(members), size, size))
        rows = np.zeros((3, len(members), size, members[0][0].shape[1]))
        rows[..., 0] = 1.0
        for k, (g, hk, s, f) in enumerate(members):
            h[k, : len(g), : len(g)] = hk
            rows[:, k, : len(g)] = g, s, f
        gs, start, fixed = rows
        iterated, _ = _run_rounds(gs, h, start, rounds)
        worst_gap = max(worst_gap, float(np.abs(iterated - fixed).max()))
    passed = (
        worst_neg >= -1e-12
        and worst_row <= 1e-8
        and worst_gap < 1e-6
        and worst_rho <= 1e-10
    )
    return CheckResult(
        name="influence_consistency",
        passed=bool(passed),
        measured={
            "min_influence_entry": worst_neg,
            "max_row_sum_error": worst_row,
            "max_sim_vs_equilibrium": worst_gap,
            "max_rho_above_bound": worst_rho,
            "draws": float(draws),
        },
        detail=f"{draws} random contractive systems, {rounds} rounds each",
    )


def _grouped_draws(draws: int, seed: int, labels: bool) -> list[tuple[np.ndarray, ...]]:
    """Random snapshots s (n, d) and simplex weights a (n,), plus a label y
    when ``labels``, drawn one at a time in that order and stacked by
    (n, d); each stack's rows and weights are checked once.  The identity
    checks run the stacked kernels behind ``ambiguity_decomposition`` and
    ``diversity``, so each draw gets the bits those give it alone."""
    rng = np.random.default_rng(seed)
    groups: dict[tuple[int, int], list] = {}
    for _ in range(draws):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(2, 7))
        draw = [rng.dirichlet(np.ones(d), size=n), rng.dirichlet(np.ones(n))]
        if labels:
            draw.append(int(rng.integers(0, d)))
        groups.setdefault((n, d), []).append(draw)
    stacks = [tuple(np.array(column) for column in zip(*g)) for g in groups.values()]
    for s, a, *_ in stacks:
        _check_rows(s, "snapshot")
        _check_rows(a, "weights")
    return stacks


def check_ambiguity_identity(
    draws: int = BUDGET_DEFAULTS["identity_draws"], seed: int = 2025
) -> CheckResult:
    """Mixture loss == weighted risk - diversity, elementwise in floats."""
    worst = 0.0
    for s, a, y in _grouped_draws(draws, seed, labels=True):
        worst = max(worst, float(np.abs(_ambiguity_rows(s, a, y)[2]).max()))
    return CheckResult(
        name="ambiguity_identity",
        passed=bool(worst < 1e-10),
        measured={"max_abs_gap": worst, "draws": float(draws)},
    )


def check_diversity_forms(
    draws: int = BUDGET_DEFAULTS["identity_draws"], seed: int = 2026
) -> CheckResult:
    """Moment form and pairwise form of diversity agree."""
    worst = 0.0
    for s, a in _grouped_draws(draws, seed, labels=False):
        gap = _diversity_rows(s, a) - _pairwise_diversity_rows(s, a)
        worst = max(worst, float(np.abs(gap).max()))
    return CheckResult(
        name="diversity_forms",
        passed=bool(worst < 1e-10),
        measured={"max_abs_gap": worst, "draws": float(draws)},
    )


def _log_losses(sset: LabeledSnapshotSet, weights: np.ndarray) -> np.ndarray:
    return _log_loss_rows(_mixture(weights, sset.beliefs), sset.labels)


def check_exclusive_scenario(
    samples: int = BUDGET_DEFAULTS["scenario_samples"], seed: int = 11, mc_tol: float = 0.01
) -> CheckResult:
    """Closed-form exclusive-knowledge losses vs Monte Carlo, plus the
    fixed-mixture optimality and grid-wide routing-advantage claims."""
    sc = ExclusiveScenario(n=5, d=10, epsilon=0.1)
    losses = exclusive_losses(sc, np.full(sc.n, 1.0 / sc.n))
    closed_gap = losses.gap_balanced
    sset = gen_exclusive(sc, samples, seed)
    uniform = np.full((sset.m, sset.n), 1.0 / sset.n)
    emp_ens = float(_log_losses(sset, uniform).mean())
    hard = hard_confidence_weights(sset.beliefs)
    emp_moe = float(_log_losses(sset, hard).mean())
    emp_gap = emp_ens - emp_moe
    a_star = optimal_fixed_ensemble(sc)
    opt_dev = float(np.abs(a_star - 1.0 / sc.n).max())
    grid_ok = True
    for n in range(2, 9):
        for d in (2, 4, 10):
            for eps in (0.05, 0.1, 0.3):
                if not moe_advantage_check(ExclusiveScenario(n=n, d=d, epsilon=eps)):
                    grid_ok = False
    passed = (
        abs(emp_gap - closed_gap) <= mc_tol
        and opt_dev <= 1e-6
        and grid_ok
        and abs(emp_moe - losses.l_moe) <= mc_tol
    )
    return CheckResult(
        name="exclusive_scenario",
        passed=bool(passed),
        measured={
            "closed_form_gap": float(closed_gap),
            "monte_carlo_gap": emp_gap,
            "optimal_mixture_max_dev_from_uniform": opt_dev,
            "grid_advantage_all_hold": float(grid_ok),
            "samples": float(samples),
        },
        detail="n=5, d=10, epsilon=0.1; grid n=2..8, d in {2,4,10}, eps in {.05,.1,.3}",
    )


def check_routing_threshold(
    samples: int = BUDGET_DEFAULTS["scenario_samples"], seed: int = 12, tol: float = 0.01
) -> CheckResult:
    """Closed-form break-even routing error vs its Monte Carlo estimate."""
    sc = ExclusiveScenario(n=5, d=10, epsilon=0.1)
    delta_star = routing_error_threshold(sc)
    crossover = empirical_route_crossover(sc, samples=samples, seed=seed)
    return CheckResult(
        name="routing_threshold",
        passed=bool(abs(crossover - delta_star) <= tol),
        measured={
            "delta_star": delta_star,
            "empirical_crossover": crossover,
            "samples": float(samples),
        },
    )


def check_imperfect_scenario(
    samples: int = BUDGET_DEFAULTS["scenario_samples"], seed: int = 13, mc_tol: float = 0.01
) -> CheckResult:
    """Imperfect-agents gap vs Monte Carlo; exactness of confidence
    routing; the uniform ensemble being confidently wrong everywhere."""
    sc = ImperfectScenario(n=5, d=4, p=0.9, u=0.05, c=0.7)
    closed = imperfect_gap(sc)
    sset = gen_imperfect(sc, samples, seed)
    uniform = np.full((sset.m, sset.n), 1.0 / sset.n)
    hard = hard_confidence_weights(sset.beliefs)
    emp_gap = float(_log_losses(sset, uniform).mean() - _log_losses(sset, hard).mean())
    chosen = np.argmax(hard, axis=1)
    routed_rows = sset.beliefs[np.arange(sset.m), chosen, :]
    routed_acc = float((np.argmax(routed_rows, axis=1) == sset.labels).mean())
    mix = _mixture(uniform, sset.beliefs)
    wrong = (sset.labels + 1) % sset.d
    ens_wrong_rate = float((np.argmax(mix, axis=1) == wrong).mean())
    majority_wrong = wrong_majority_holds(sc)
    passed = (
        abs(emp_gap - closed) <= mc_tol
        and routed_acc == 1.0
        and majority_wrong
        and ens_wrong_rate == 1.0
    )
    return CheckResult(
        name="imperfect_scenario",
        passed=bool(passed),
        measured={
            "closed_form_gap": closed,
            "monte_carlo_gap": emp_gap,
            "confidence_routing_accuracy": routed_acc,
            "ensemble_shared_wrong_rate": ens_wrong_rate,
            "samples": float(samples),
        },
        detail="n=5, d=4, p=0.9, u=0.05, c=0.7",
    )


def check_condition_outcome(
    samples: int = BUDGET_DEFAULTS["consistency_samples"], seed: int = 14
) -> CheckResult:
    """Condition algebra vs realized outcomes on labeled snapshots.

    The fixed-vs-routed loss gap must equal its two-term decomposition
    to 1e-10, and the per-sample routed-vs-best-single condition must
    classify identically to the realized comparison (zero off-diagonal
    confusion) because the risks are exact.
    """
    sc = ExclusiveScenario(n=5, d=10, epsilon=0.1)
    sset = gen_exclusive(sc, samples, seed)
    a = np.full(sc.n, 1.0 / sc.n)
    soft = moe_vs_fixed_ensemble(sset, a, confidence_softmax_weights(sset.beliefs, 5.0))
    report = moe_vs_best_single(sset, hard_confidence_weights(sset.beliefs))
    off_diag = int(report.confusion[0, 1] + report.confusion[1, 0])
    passed = soft.identity_gap < 1e-10 and off_diag == 0
    return CheckResult(
        name="condition_outcome_consistency",
        passed=bool(passed),
        measured={
            "ensemble_identity_gap": soft.identity_gap,
            "confusion_off_diagonal": float(off_diag),
            "condition_true": float(report.confusion[0].sum()),
            "condition_false": float(report.confusion[1].sum()),
            "samples": float(samples),
        },
    )


# Each check's function, by its name in this module, and the run_all_checks
# budget that sizes it; position k runs with seed + 1 + k.  The name is looked
# up at call time, so a wrapper set on the module attribute is the one called.
_CHECKS = {
    "influence_consistency": ("check_influence_consistency", "prop_draws"),
    "ambiguity_identity": ("check_ambiguity_identity", "identity_draws"),
    "diversity_forms": ("check_diversity_forms", "identity_draws"),
    "exclusive_scenario": ("check_exclusive_scenario", "scenario_samples"),
    "routing_threshold": ("check_routing_threshold", "scenario_samples"),
    "imperfect_scenario": ("check_imperfect_scenario", "scenario_samples"),
    "condition_outcome_consistency": ("check_condition_outcome", "consistency_samples"),
}
DEFAULT_CHECKS = tuple(_CHECKS)


def run_all_checks(
    *,
    checks: tuple[str, ...] = DEFAULT_CHECKS,
    prop_draws: int = BUDGET_DEFAULTS["prop_draws"],
    identity_draws: int = BUDGET_DEFAULTS["identity_draws"],
    scenario_samples: int = BUDGET_DEFAULTS["scenario_samples"],
    consistency_samples: int = BUDGET_DEFAULTS["consistency_samples"],
    seed: int = 0,
) -> list[CheckResult]:
    """Run the named checks with one base seed; unknown, repeated or no
    names raise before any check runs."""
    budgets = {
        "prop_draws": prop_draws,
        "identity_draws": identity_draws,
        "scenario_samples": scenario_samples,
        "consistency_samples": consistency_samples,
    }
    for key, value in budgets.items():
        if value < 1:
            raise ConfigError(f"{key} must be at least 1, got {value}")
    if not checks or len(set(checks)) != len(checks):
        raise ConfigError(f"checks must name one or more checks, none twice: {checks!r}")
    for name in checks:
        if name not in _CHECKS:
            raise ConfigError(f"unknown check {name!r}")
    results = []
    for name in checks:
        check, budget = _CHECKS[name]
        results.append(
            globals()[check](budgets[budget], seed=seed + 1 + DEFAULT_CHECKS.index(name))
        )
    return results
