"""Self-verification checks: closed-form oracles vs simulation.

Each check draws synthetic systems, compares an analytic prediction
against an independently computed numerical result, and returns a
CheckResult.  The CLI ``verify`` command runs them and writes a plain
text report plus a JSON twin; the acceptance test suite runs the same
functions with pinned budgets.

Where a forked child helps (``_fork._fork_helps``), ``run_all_checks`` runs
the selected checks whose ``_CHECKS`` entry names the child side in one
child made by ``_fork._forked`` while this process runs the others.  The
checks share no state and each has its own seed, so the results are the
serial loop's.  Any failure of the split (``ChildProcessError`` for the
child, or a check here that raises) falls back to the serial loop, which
raises the serial error.

The scenario checks are exact by symmetry: each (region, label) snapshot
relabels one canonical snapshot, so each check scores its n·d snapshots once,
asserts every row's closed forms, and reports the rows' mean (regions are
balanced) as the Monte Carlo gap.  Their ``samples`` and ``seed`` are kept
for the frozen acceptance gate and not used.

The per-draw checks draw every draw's agent count, then every label count,
then, for each shape group in order of first appearance ((n, d) for the
identity checks, n for the influence check), one stack per quantity, each
flat Dirichlet row as the exponentials ``rng.dirichlet`` draws for it.  They
scale (``_dirichlet_rows``) and check each stack once: the bits of one
``rng.dirichlet`` call and one ``FJParameters`` per draw.
"""

from __future__ import annotations

import itertools
import pickle
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ._fork import _fork_helps, _forked, _unpickled
from .dynamics import _checked_influence, _fixed_point, _run_rounds, _stack_h
from .errors import ConfigError
from .metrics import _diversity_rows, _log_loss_rows, _mixture, _pairwise_diversity_rows
from .model import FJParameters, _check_params, _check_rows, _dirichlet_rows
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
    _check_seed,
    _exclusive_table,
    _imperfect_table,
    empirical_route_crossover,
    exclusive_losses,
    gen_exclusive,
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

# numpy sums a row of fewer than 8 entries one entry at a time, and a longer
# one pairwise, so trailing zeros change a row sum's bits only from 8 on.
_SEQUENTIAL_ROW = 7
# the influence check's largest label count
_LABELS = 8


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: dict[str, float] = field(default_factory=dict)
    detail: str = ""


def check_influence_consistency(
    draws: int = BUDGET_DEFAULTS["prop_draws"], seed: int = 2024, rounds: int = 500
) -> CheckResult:
    """Fixed-point algebra vs iteration on random contractive systems.

    Checks the long-run influence matrix (nonnegative, row-stochastic),
    the contraction bound rho(H) <= 1 - min(gamma), and that iterating
    ``rounds`` steps lands on the solved equilibrium in sup norm.
    """
    _check_draws(draws)
    if rounds < 0:
        raise ConfigError(f"rounds must be at least 0, got {rounds}")
    rng = np.random.default_rng(seed)
    # random all-to-all systems and innate snapshots, n in 2..6, d in 2..8
    ns, ds = rng.integers(2, 7, draws), rng.integers(2, _LABELS + 1, draws)
    min_entry, worst_row, worst_rho = np.inf, 0.0, -np.inf
    by_width: dict[int, list] = {}
    for n in dict.fromkeys(ns.tolist()):
        d = ds[ns == n]
        gamma, alpha = (rng.uniform(0.05, 0.95, (len(d), n)) for _ in range(2))
        w = rng.uniform(0.0, 1.0, (len(d), n, n))
        exps = rng.standard_exponential((len(d), n, _LABELS))
        # each draw's FJParameters, checked once for the stack
        mask = FJParameters.complete_mask(n)
        w[:, ~mask] = 0.0
        w /= w.sum(axis=-1, keepdims=True)
        _check_params(gamma, alpha, w, mask)
        innate = _dirichlet_rows(np.where(np.arange(_LABELS) < d[:, None, None], exps, 0.0))
        h = _stack_h(gamma, alpha, w)
        gs = gamma[:, :, None] * innate
        # One eigenvalue call and the two solves of influence_weights and
        # equilibrium per agent count, on snapshots zero-padded to _LABELS
        # labels: _dirichlet_rows adds the zeros exactly, G S keeps them, and
        # LAPACK solves a stack one system and one right-hand side column at
        # a time, so each draw gets its own bits.
        rho, m, fixed = _fixed_point(h, gamma[:, :, None] * np.eye(n), gs)
        # the entries as solved: the check clips them at 0
        min_entry = min(min_entry, float(m.min()))
        m = _checked_influence(m, gamma)
        worst_row = max(worst_row, float(np.abs(m.sum(axis=-1) - 1.0).max()))
        worst_rho = max(worst_rho, float((rho - (1.0 - gamma.min(axis=1))).max()))
        for width, part in ((_SEQUENTIAL_ROW, d < _LABELS), (_LABELS, d == _LABELS)):
            if part.any():
                rows = (a[part][..., :width] for a in (gs, innate, fixed))
                by_width.setdefault(width, []).append((h[part], *rows))
    # One round stack per label width, padded to its largest agent count by
    # agents with zero H rows and columns whose G S, start and solved rows
    # are e_0, which a round keeps; the draws' zero label columns pad them
    # to the width.  Real entries gain only zero products and zero terms, so
    # each draw gets its own bits.
    worst_gap = 0.0
    for width, parts in by_width.items():
        count = sum(len(part[0]) for part in parts)
        size = max(part[0].shape[1] for part in parts)
        h = np.zeros((count, size, size))
        rows = np.zeros((3, count, size, width))
        rows[..., 0] = 1.0
        k = 0
        for hg, gs, innate, fixed in parts:
            group, n, _ = gs.shape
            h[k : k + group, :n, :n] = hg
            rows[:, k : k + group, :n] = gs, innate, fixed
            k += group
        gs, start, fixed = rows
        iterated = _run_rounds(gs, h, start, rounds)
        worst_gap = max(worst_gap, float(np.abs(iterated - fixed).max()))
    passed = min_entry >= -1e-12 and worst_row <= 1e-8 and worst_gap < 1e-6 and worst_rho <= 1e-10
    return CheckResult(
        name="influence_consistency",
        passed=bool(passed),
        measured={
            "min_influence_entry": min_entry,
            "max_row_sum_error": worst_row,
            "max_sim_vs_equilibrium": worst_gap,
            "max_rho_above_bound": worst_rho,
            "draws": float(draws),
        },
        detail=f"{draws} random contractive systems, {rounds} rounds each",
    )


def _check_draws(draws: int) -> None:
    if draws < 1:
        raise ConfigError(f"draws must be at least 1, got {draws}")


def _grouped_draws(draws: int, seed: int, labels: bool) -> list[tuple[np.ndarray, ...]]:
    """Random Dirichlet(1) snapshots s (n, d) and weights a (n,), plus a label
    y when ``labels``: every draw's n, then every d, then per (n, d) group in
    order of first appearance one stack each of s and a (as exponentials) and
    y, scaled and checked once per stack.  The identity checks run the stacked
    kernels behind ``ambiguity_decomposition`` and ``diversity``, so each draw
    gets the bits those give it alone."""
    _check_draws(draws)
    rng = np.random.default_rng(seed)
    shapes = zip(rng.integers(2, 7, draws).tolist(), rng.integers(2, 7, draws).tolist())
    stacks = []
    for (n, d), count in Counter(shapes).items():
        s, a = rng.standard_exponential((count, n, d)), rng.standard_exponential((count, n))
        _check_rows(_dirichlet_rows(s), "snapshot")
        _check_rows(_dirichlet_rows(a), "weights")
        stacks.append((s, a, rng.integers(0, d, count)) if labels else (s, a))
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
    """Closed-form exclusive-knowledge losses vs every snapshot's, plus the
    fixed-mixture optimality and grid-wide routing-advantage claims."""
    sc = ExclusiveScenario(n=5, d=10, epsilon=0.1)
    losses = exclusive_losses(sc, np.full(sc.n, 1.0 / sc.n))
    closed_gap = losses.gap_balanced
    table = _exclusive_table(sc)
    ens = _log_losses(table, np.full((table.m, table.n), 1.0 / table.n))
    moe = _log_losses(table, hard_confidence_weights(table.beliefs))
    emp_moe = float(moe.mean())
    emp_gap = float(ens.mean()) - emp_moe
    exact = np.abs([ens - losses.l_ens, moe - losses.l_moe, ens - moe - closed_gap]).max()
    a_star = optimal_fixed_ensemble(sc)
    opt_dev = float(np.abs(a_star - 1.0 / sc.n).max())
    grid_ok = all(
        moe_advantage_check(ExclusiveScenario(n=n, d=d, epsilon=eps))
        for n, d, eps in itertools.product(range(2, 9), (2, 4, 10), (0.05, 0.1, 0.3))
    )
    passed = (
        exact <= 1e-12
        and abs(emp_gap - closed_gap) <= mc_tol
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
    """Imperfect-agents gap vs every snapshot's; exactness of confidence
    routing; the uniform ensemble being confidently wrong everywhere.  The
    two rates count the n·d snapshots, and ``detail`` names the first miss."""
    sc = ImperfectScenario(n=5, d=4, p=0.9, u=0.05, c=0.7)
    closed = imperfect_gap(sc)
    table = _imperfect_table(sc)
    mix = _mixture(np.full((table.m, table.n), 1.0 / table.n), table.beliefs)
    hard = hard_confidence_weights(table.beliefs)
    routed_rows = table.beliefs[np.arange(table.m), np.argmax(hard, axis=1)]
    ens, moe = _log_loss_rows(mix, table.labels), _log_losses(table, hard)
    emp_gap = float(ens.mean() - moe.mean())
    routed_hits = np.argmax(routed_rows, axis=1) == table.labels
    wrong = np.argmax(mix, axis=1) == (table.labels + 1) % table.d
    detail = "n=5, d=4, p=0.9, u=0.05, c=0.7"
    for what, hits in (("routing misses", routed_hits), ("ensemble not shared-wrong", wrong)):
        if not hits.all():
            region, label = divmod(int(np.argmin(hits)), table.d)
            detail += f"; {what} at (region {region}, label {label})"
    passed = (
        np.abs(ens - moe - closed).max() <= 1e-12
        and abs(emp_gap - closed) <= mc_tol
        and routed_hits.all() and wrong_majority_holds(sc) and wrong.all()
    )
    return CheckResult(
        name="imperfect_scenario",
        passed=bool(passed),
        measured={
            "closed_form_gap": closed,
            "monte_carlo_gap": emp_gap,
            "confidence_routing_accuracy": float(routed_hits.mean()),
            "ensemble_shared_wrong_rate": float(wrong.mean()),
        },
        detail=detail,
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


# Each check's function, by its name in this module, the run_all_checks budget
# that sizes it, and the side of the split it runs on: "parent" or "child";
# position k runs with seed + 1 + k.  The name is looked up at call time, so a
# wrapper set on the module attribute is the one called.
_CHECKS = {
    "influence_consistency": ("check_influence_consistency", "prop_draws", "parent"),
    "ambiguity_identity": ("check_ambiguity_identity", "identity_draws", "child"),
    "diversity_forms": ("check_diversity_forms", "identity_draws", "parent"),
    "exclusive_scenario": ("check_exclusive_scenario", "scenario_samples", "child"),
    "routing_threshold": ("check_routing_threshold", "scenario_samples", "child"),
    "imperfect_scenario": ("check_imperfect_scenario", "scenario_samples", "child"),
    "condition_outcome_consistency": (
        "check_condition_outcome", "consistency_samples", "parent"
    ),
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
    _check_seed(seed)  # then every check's seed + 1 + position suits numpy and Philox
    if not checks or len(set(checks)) != len(checks):
        raise ConfigError(f"checks must name one or more checks, none twice: {checks!r}")
    for name in checks:
        if name not in _CHECKS:
            raise ConfigError(f"unknown check {name!r}")

    def run(name: str) -> CheckResult:
        check, budget, _ = _CHECKS[name]
        return globals()[check](budgets[budget], seed=seed + 1 + DEFAULT_CHECKS.index(name))

    there = [name for name in checks if _CHECKS[name][2] == "child"]
    here = [name for name in checks if name not in there]
    if here and there and _fork_helps():

        def child(part) -> None:
            for name in there:
                pickle.dump(run(name), part, protocol=5)

        try:
            with _forked(child) as wait:
                results = {name: run(name) for name in here}
                results.update(zip(there, _unpickled(wait())))
            return [results[name] for name in checks]
        except Exception:  # a failed split; the serial loop raises its error in check order
            pass
    return [run(name) for name in checks]
