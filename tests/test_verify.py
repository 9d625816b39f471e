import configparser
import inspect
import pathlib
import re

import numpy as np
import pytest

from fjlab.config import VerifySection
from fjlab.dynamics import build_h, equilibrium, influence_weights, simulate, spectral_radius
from fjlab.metrics import diversity
from fjlab.routing import ambiguity_decomposition
from fjlab.verify import (
    BUDGET_DEFAULTS,
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


def ambiguity_identity_per_draw(draws, seed):
    """The check as one ambiguity_decomposition per draw, as it ran before
    the draws were stacked by shape; kept as the reference."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(draws):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(2, 7))
        s = rng.dirichlet(np.ones(d), size=n)
        a = rng.dirichlet(np.ones(n))
        y = int(rng.integers(0, d))
        _, _, gap = ambiguity_decomposition(s, a, y)
        worst = max(worst, abs(gap))
    return {"max_abs_gap": worst, "draws": float(draws)}


def diversity_forms_per_draw(draws, seed):
    """The check as the two diversity forms per draw, as it ran before the
    draws were stacked by shape; kept as the reference."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(draws):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(2, 7))
        s = rng.dirichlet(np.ones(d), size=n)
        a = rng.dirichlet(np.ones(n))
        worst = max(worst, abs(diversity(s, a, "moment") - diversity(s, a, "pairwise")))
    return {"max_abs_gap": worst, "draws": float(draws)}


class TestInfluenceConsistency:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_stacked_rounds_match_per_draw_loop(self, seed):
        res = check_influence_consistency(draws=50, seed=seed, rounds=500)
        assert res.passed
        assert res.measured == influence_consistency_per_draw(50, seed, 500)

    @pytest.mark.parametrize("draws", [1, 2])
    def test_small_budgets_match_per_draw_loop(self, draws):
        for seed in range(10):
            res = check_influence_consistency(draws=draws, seed=seed, rounds=500)
            assert res.measured == influence_consistency_per_draw(draws, seed, 500), seed

    @pytest.mark.parametrize("seed", [1, 12, 23, 31, 36, 45])
    def test_padded_agents_stay_out_of_the_gap(self, seed):
        # at these seeds both draws share a label count but not an agent
        # count, so the smaller one iterates with padded agents
        rng = np.random.default_rng(seed)
        (n0, d0), (n1, d1) = (_random_contractive(rng)[1].shape for _ in range(2))
        assert d0 == d1 and n0 != n1
        res = check_influence_consistency(draws=2, seed=seed, rounds=500)
        assert res.measured == influence_consistency_per_draw(2, seed, 500)

    def test_padded_labels_stay_out_of_the_gap(self):
        # at this seed the draws take every label count from 2 to 8 with
        # mixed agent counts, so both round stacks (up to 7 labels, padded
        # to 7, and 8 labels) hold several draws of different shapes; padding
        # the narrow draws to 8 labels would move the gap's last bits
        rng = np.random.default_rng(113)
        shapes = [_random_contractive(rng)[1].shape for _ in range(12)]
        assert {d for _, d in shapes} == set(range(2, 9))
        assert len({n for n, d in shapes if d == 8}) >= 2
        assert len({n for n, d in shapes if d < 8}) >= 2
        res = check_influence_consistency(draws=12, seed=113, rounds=500)
        assert res.measured == influence_consistency_per_draw(12, 113, 500)

    def test_fails_without_the_iteration(self):
        # one round is far from the fixed point, so a check that stopped
        # iterating (or read the solve twice) would show up here
        res = check_influence_consistency(draws=20, rounds=1)
        assert not res.passed
        assert res.measured["max_sim_vs_equilibrium"] > 1e-6


IDENTITY_CHECKS = [
    (check_ambiguity_identity, ambiguity_identity_per_draw, 2025),
    (check_diversity_forms, diversity_forms_per_draw, 2026),
]


class TestIdentityChecks:
    @pytest.mark.parametrize("check, reference, default_seed", IDENTITY_CHECKS)
    def test_stacks_match_per_draw_loop(self, check, reference, default_seed):
        for seed in (1, 2, 3, default_seed):
            res = check(1000, seed=seed)
            assert res.passed
            assert res.measured == reference(1000, seed)

    @pytest.mark.parametrize("draws", [1, 2])
    @pytest.mark.parametrize("check, reference, default_seed", IDENTITY_CHECKS)
    def test_one_member_groups_match_per_draw_loop(self, check, reference, default_seed, draws):
        for seed in range(10):
            assert check(draws, seed=seed).measured == reference(draws, seed), seed


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

    def test_budget_defaults_have_one_source(self):
        # every copy of a default budget equals verify.BUDGET_DEFAULTS
        run_all = inspect.signature(run_all_checks).parameters
        for name, value in BUDGET_DEFAULTS.items():
            assert run_all[name].default == value, name
            assert getattr(VerifySection(), name) == value, name
        for check, budget in CHECK_TABLE.values():
            first = next(iter(inspect.signature(check).parameters.values()))
            assert first.default == BUDGET_DEFAULTS[budget], check.__name__

    def test_readme_config_shows_the_budget_defaults(self):
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        block = re.search(r"^\[verify\]\n(?:.+\n)+", readme.read_text(encoding="utf-8"), re.M)
        parser = configparser.ConfigParser()
        parser.read_string(block.group(0))
        for name, value in BUDGET_DEFAULTS.items():
            assert parser.getint("verify", name) == value, name
