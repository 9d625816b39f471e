import numpy as np
import pytest

from fjlab.dynamics import build_h, equilibrium, influence_weights, simulate, spectral_radius
from fjlab.verify import (
    DEFAULT_CHECKS,
    _random_contractive,
    check_ambiguity_identity,
    check_condition_outcome,
    check_diversity_forms,
    check_exclusive_scenario,
    check_imperfect_scenario,
    check_influence_consistency,
    check_routing_threshold,
    run_all_checks,
)


def influence_consistency_per_draw(draws, seed, rounds):
    """The check as one simulate per draw, as it ran before the draws that
    share a shape were stacked; kept as the reference."""
    rng = np.random.default_rng(seed)
    worst_neg = 0.0
    worst_row = 0.0
    worst_gap = 0.0
    worst_rho = -np.inf
    for _ in range(draws):
        params, innate = _random_contractive(rng)
        m = influence_weights(params)
        worst_neg = min(worst_neg, float(m.min()))
        worst_row = max(worst_row, float(np.abs(m.sum(axis=1) - 1.0).max()))
        rho = spectral_radius(build_h(params))
        worst_rho = max(worst_rho, rho - (1.0 - float(params.gamma.min())))
        fixed = equilibrium(params, innate)
        iterated = simulate(params, innate, rounds).final
        worst_gap = max(worst_gap, float(np.abs(iterated - fixed).max()))
    return {
        "min_influence_entry": worst_neg,
        "max_row_sum_error": worst_row,
        "max_sim_vs_equilibrium": worst_gap,
        "max_rho_above_bound": worst_rho,
        "draws": float(draws),
    }


class TestInfluenceConsistency:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_stacked_rounds_match_per_draw_loop(self, seed):
        res = check_influence_consistency(draws=50, seed=seed, rounds=500)
        assert res.passed
        assert res.measured == influence_consistency_per_draw(50, seed, 500)

    def test_fails_without_the_iteration(self):
        # one round is far from the fixed point, so a check that stopped
        # iterating (or read the solve twice) would show up here
        res = check_influence_consistency(draws=20, rounds=1)
        assert not res.passed
        assert res.measured["max_sim_vs_equilibrium"] > 1e-6


# Small budgets, each a different number so a check fed the wrong one shows.
BUDGETS = {
    "prop_draws": 7,
    "identity_draws": 9,
    "scenario_samples": 2000,
    "consistency_samples": 40,
}
# Each check with the budget that run_all_checks gives it.
CHECK_TABLE = {
    "influence_consistency": (check_influence_consistency, "prop_draws"),
    "ambiguity_identity": (check_ambiguity_identity, "identity_draws"),
    "diversity_forms": (check_diversity_forms, "identity_draws"),
    "exclusive_scenario": (check_exclusive_scenario, "scenario_samples"),
    "routing_threshold": (check_routing_threshold, "scenario_samples"),
    "imperfect_scenario": (check_imperfect_scenario, "scenario_samples"),
    "condition_outcome_consistency": (check_condition_outcome, "consistency_samples"),
}


class TestRunAllChecks:
    def test_default_order(self):
        assert DEFAULT_CHECKS == tuple(CHECK_TABLE)

    @pytest.mark.parametrize("position, name", list(enumerate(DEFAULT_CHECKS)))
    def test_each_check_gets_its_budget_and_seed_offset(self, position, name):
        check, budget = CHECK_TABLE[name]
        # Several base seeds: an identity check's worst gap is a rounding
        # error that often repeats from one seed to the next.
        for seed in (30, 40, 50, 60):
            (got,) = run_all_checks(checks=(name,), seed=seed, **BUDGETS)
            assert got == check(BUDGETS[budget], seed=seed + position + 1)
