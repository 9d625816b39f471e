import configparser
import hashlib
import inspect
import os
import pathlib
import re
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fjlab import dynamics, scenarios
from fjlab import verify as verify_mod
from fjlab.cli import run
from fjlab.config import VerifySection, load_config
from fjlab.dynamics import build_h, equilibrium, influence_weights, simulate, spectral_radius
from fjlab.errors import ConfigError
from fjlab.metrics import _log_loss_rows, _mixture, diversity
from fjlab.model import FJParameters
from fjlab.routing import ambiguity_decomposition, hard_confidence_weights
from fjlab.scenarios import (
    ExclusiveScenario,
    ImperfectScenario,
    exclusive_losses,
    gen_exclusive,
    gen_imperfect,
    imperfect_gap,
    moe_advantage_check,
    optimal_fixed_ensemble,
    wrong_majority_holds,
)
from fjlab.verify import (
    _CHECKS,
    BUDGET_DEFAULTS,
    DEFAULT_CHECKS,
    CheckResult,
    check_ambiguity_identity,
    check_condition_outcome,
    check_diversity_forms,
    check_exclusive_scenario,
    check_imperfect_scenario,
    check_influence_consistency,
    check_routing_threshold,
    run_all_checks,
)
from test_io_cli import _count_forks


def stacked_draws(seed, draws, d_max, key, stacks):
    """The per-draw checks' stream, one draw at a time in draw order: every
    draw's agent count n in 2..6, then every label count d in 2..d_max, then
    for each group of draws with one ``key(n, d)``, in order of first
    appearance, the arrays ``stacks(rng, count, n, d)`` draws for its
    ``count`` draws.  Yields each draw's n, d and its row of each array."""
    rng = np.random.default_rng(seed)
    ns, ds = rng.integers(2, 7, draws).tolist(), rng.integers(2, d_max + 1, draws).tolist()
    shapes = list(zip(ns, ds))
    groups = {}
    for shape in shapes:
        groups.setdefault(key(*shape), []).append(shape)
    drawn = {k: iter(zip(*stacks(rng, len(g), *g[0]))) for k, g in groups.items()}
    for shape in shapes:
        yield (*shape, next(drawn[key(*shape)]))


def _simplex(exps):
    """Exponential rows scaled onto the simplex as ``rng.dirichlet(np.ones(d))``
    scales its draws: by the reciprocal of their sum added in order."""
    return exps * (1.0 / np.cumsum(exps, axis=-1)[..., -1:])


def _random_contractives(draws, seed):
    """The influence check's draws as their own validated FJParameters, in
    draw order: random all-to-all systems, stacked per agent count, and
    innate snapshots drawn at 8 labels and cut to each draw's d."""

    def stacks(rng, count, n, d):
        gamma, alpha = (rng.uniform(0.05, 0.95, (count, n)) for _ in range(2))
        w = rng.uniform(0.0, 1.0, (count, n, n))
        return gamma, alpha, w, rng.standard_exponential((count, n, 8))

    for n, d, (gamma, alpha, w, exps) in stacked_draws(seed, draws, 8, lambda n, d: n, stacks):
        mask = FJParameters.complete_mask(n)
        w[~mask] = 0.0
        w /= w.sum(axis=1, keepdims=True)
        yield FJParameters(gamma=gamma, alpha=alpha, w=w, mask=mask), _simplex(exps[:, :d])


def influence_consistency_per_draw(draws, seed, rounds):
    """The check as one simulate per draw, as it ran before the draws that
    share a shape were stacked; kept as the reference."""
    min_entry = np.inf
    worst_row = 0.0
    worst_gap = 0.0
    worst_rho = -np.inf
    for params, innate in _random_contractives(draws, seed):
        # clipped at 0, which leaves a positive minimum as solved
        m = influence_weights(params)
        min_entry = min(min_entry, float(m.min()))
        worst_row = max(worst_row, float(np.abs(m.sum(axis=1) - 1.0).max()))
        rho = spectral_radius(build_h(params))
        worst_rho = max(worst_rho, rho - (1.0 - float(params.gamma.min())))
        fixed = equilibrium(params, innate)
        iterated = simulate(params, innate, rounds).final
        worst_gap = max(worst_gap, float(np.abs(iterated - fixed).max()))
    return {
        "min_influence_entry": min_entry,
        "max_row_sum_error": worst_row,
        "max_sim_vs_equilibrium": worst_gap,
        "max_rho_above_bound": worst_rho,
        "draws": float(draws),
    }


def _identity_draws(draws, seed, labels):
    """The identity checks' draws in draw order: a Dirichlet(1) snapshot s
    (n, d) and weights a (n,), plus a label y when ``labels``, stacked per
    (n, d)."""

    def stacks(rng, count, n, d):
        drawn = [rng.standard_exponential((count, n, d)), rng.standard_exponential((count, n))]
        return [*drawn, rng.integers(0, d, count)] if labels else drawn

    for _, _, (s, a, *y) in stacked_draws(seed, draws, 6, lambda n, d: (n, d), stacks):
        yield _simplex(s), _simplex(a), *(int(label) for label in y)


def ambiguity_identity_per_draw(draws, seed):
    """The check as one ambiguity_decomposition per draw, as it ran before
    the draws were stacked by shape; kept as the reference."""
    worst = 0.0
    for s, a, y in _identity_draws(draws, seed, labels=True):
        _, _, gap = ambiguity_decomposition(s, a, y)
        worst = max(worst, abs(gap))
    return {"max_abs_gap": worst, "draws": float(draws)}


def diversity_forms_per_draw(draws, seed):
    """The check as the two diversity forms per draw, as it ran before the
    draws were stacked by shape; kept as the reference."""
    worst = 0.0
    for s, a in _identity_draws(draws, seed, labels=False):
        worst = max(worst, abs(diversity(s, a, "moment") - diversity(s, a, "pairwise")))
    return {"max_abs_gap": worst, "draws": float(draws)}


def test_simplex_scales_as_rng_dirichlet():
    # the references' scaling is rng.dirichlet's on the same exponentials,
    # also at 8 labels, where numpy's row sum would add pairwise
    for d in range(2, 9):
        ours, numpys = np.random.default_rng(d), np.random.default_rng(d)
        got = _simplex(ours.standard_exponential((5, d)))
        want = numpys.dirichlet(np.ones(d), size=5)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def _log_losses(sset, weights):
    return _log_loss_rows(_mixture(weights, sset.beliefs), sset.labels)


def exclusive_scenario_one_stack(samples, seed, mc_tol=0.01):
    """The check as a Monte Carlo draw: one stack of all samples, each scored
    on its own, as it ran before it scored its n·d snapshots with no draw;
    kept as the reference."""
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


def imperfect_scenario_one_stack(samples, seed, mc_tol=0.01):
    """The check as a Monte Carlo draw: one stack of all samples, each scored
    on its own, as it ran before it scored its n·d snapshots with no draw;
    kept as the reference."""
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


# Each Monte Carlo check, its per-sample reference, and its scenario's n·d,
# the number of distinct (region, label) snapshots.
SCENARIO_CHECKS = [
    (check_exclusive_scenario, exclusive_scenario_one_stack, 5 * 10),
    (check_imperfect_scenario, imperfect_scenario_one_stack, 5 * 4),
]


class TestScenarioTable:
    """The scenario checks score the n·d distinct snapshots once, with no
    draw: each snapshot relabels one canonical snapshot, so each row's losses
    are the closed forms and the table mean is any draw's mean to rounding.
    Each result must equal the per-sample reference's but for that rounding."""

    @staticmethod
    def _same(got, want):
        assert (got.name, got.passed, got.detail) == (want.name, want.passed, want.detail)
        gap = "monte_carlo_gap"
        assert abs(got.measured[gap] - want.measured[gap]) <= 1e-12
        shared = (set(got.measured) & set(want.measured)) - {gap}
        # repr tells -0.0 from 0.0 and shows every bit of a float
        assert {k: repr(got.measured[k]) for k in shared} == {
            k: repr(want.measured[k]) for k in shared
        }
        assert set(want.measured) - set(got.measured) == {"samples"}

    # below n·d some (region, label) keys are never drawn, and the table
    # still holds their snapshots
    @pytest.mark.parametrize(
        "check, reference, samples",
        [(c, r, samples) for c, r, nd in SCENARIO_CHECKS for samples in (1, 3, nd - 1, nd)],
        ids=lambda value: value if isinstance(value, int) else value.__name__,
    )
    def test_small_budgets_match_the_per_sample_reference(self, check, reference, samples):
        for seed in (0, 3):
            self._same(check(samples, seed=seed), reference(samples, seed))

    @pytest.mark.parametrize("check, reference, nd", SCENARIO_CHECKS)
    def test_default_budget_matches_the_per_sample_reference(self, check, reference, nd):
        samples = BUDGET_DEFAULTS["scenario_samples"]
        for seed in (0, 3):
            got = check(samples, seed=seed)
            assert got.passed
            self._same(got, reference(samples, seed))

    @pytest.mark.parametrize("check", [check for check, _, _ in SCENARIO_CHECKS])
    def test_checks_run_without_a_draw(self, check, monkeypatch):
        def no_rng(seed):
            raise AssertionError("the scenario checks draw nothing")

        monkeypatch.setattr(scenarios, "_rng", no_rng)
        assert check().passed
        assert check(1, seed=5).passed

    @pytest.mark.parametrize("field", ["l_ens", "l_moe", "gap_balanced"])
    def test_exclusive_rows_are_held_to_each_closed_form(self, monkeypatch, field):
        exact = verify_mod.exclusive_losses

        def off(sc, a):
            losses = exact(sc, a)
            return replace(losses, **{field: getattr(losses, field) + 1e-9})

        monkeypatch.setattr(verify_mod, "exclusive_losses", off)
        res = check_exclusive_scenario()
        assert not res.passed
        # the Monte Carlo comparison alone cannot see the error
        assert abs(res.measured["monte_carlo_gap"] - res.measured["closed_form_gap"]) <= 0.01

    def test_imperfect_rows_are_held_to_the_closed_form(self, monkeypatch):
        exact = verify_mod.imperfect_gap
        monkeypatch.setattr(verify_mod, "imperfect_gap", lambda sc: exact(sc) + 1e-9)
        res = check_imperfect_scenario()
        assert not res.passed
        # the Monte Carlo comparison alone cannot see the error
        assert abs(res.measured["monte_carlo_gap"] - res.measured["closed_form_gap"]) <= 0.01
        assert res.measured["confidence_routing_accuracy"] == 1.0
        assert res.measured["ensemble_shared_wrong_rate"] == 1.0

    @pytest.mark.parametrize("check", [check for check, _, _ in SCENARIO_CHECKS])
    def test_working_set_stays_small_at_the_default_budget(self, check):
        # one stack of 100,000 samples peaked at 96.1 MiB (exclusive) and
        # 50.4 MiB (imperfect), blocks of 8,192 samples at 11.5 and 8.1 MiB;
        # scoring the n·d table alone peaks at 50 and 12 KiB
        check(1)
        tracemalloc.start()
        try:
            check(BUDGET_DEFAULTS["scenario_samples"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_imperfect_rates_name_the_first_broken_snapshot(self, monkeypatch):
        # roll the columns of the (region 3, label 2) snapshot: its competent
        # agent then backs the shared wrong label and the mixture the next one
        table_of = verify_mod._imperfect_table

        def broken(sc):
            table = table_of(sc)
            beliefs = table.beliefs.copy()
            beliefs[3 * sc.d + 2] = np.roll(beliefs[3 * sc.d + 2], 1, axis=-1)
            return replace(table, beliefs=beliefs)

        monkeypatch.setattr(verify_mod, "_imperfect_table", broken)
        res = check_imperfect_scenario(1000, seed=0)
        assert not res.passed
        # one of the n·d = 20 snapshots
        assert res.measured["confidence_routing_accuracy"] == 19 / 20
        assert res.measured["ensemble_shared_wrong_rate"] == 19 / 20
        assert res.detail == (
            "n=5, d=4, p=0.9, u=0.05, c=0.7; routing misses at (region 3, label 2); "
            "ensemble not shared-wrong at (region 3, label 2)"
        )


class TestInfluenceConsistency:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_stacked_rounds_match_per_draw_loop(self, seed):
        res = check_influence_consistency(draws=50, seed=seed, rounds=500)
        assert res.passed
        assert res.measured == influence_consistency_per_draw(50, seed, 500)

    def test_min_entry_is_the_solved_minimum(self, monkeypatch):
        # at the default seed every entry is positive, so a start at 0.0
        # would read 0.0
        res = check_influence_consistency()
        assert res.passed and res.measured["min_influence_entry"] > 0.0
        fixed_point = verify_mod._fixed_point

        def one_entry_below_zero(h, *rhs):
            rho, m, *rest = fixed_point(h, *rhs)
            m[0, 0, 0] += m[0, 0, 1] + 1e-13  # the row keeps its mass
            m[0, 0, 1] = -1e-13
            return (rho, m, *rest)

        monkeypatch.setattr(verify_mod, "_fixed_point", one_entry_below_zero)
        res = check_influence_consistency(draws=1, seed=0, rounds=500)
        # above the raise's -1e-12, so the check clips it and passes, but it
        # reports the entry as solved, not as clipped
        assert res.passed and res.measured["min_influence_entry"] == -1e-13

    @pytest.mark.parametrize("draws", [1, 2])
    def test_small_budgets_match_per_draw_loop(self, draws):
        for seed in range(10):
            res = check_influence_consistency(draws=draws, seed=seed, rounds=500)
            assert res.measured == influence_consistency_per_draw(draws, seed, 500), seed

    @pytest.mark.parametrize("seed", [3, 10, 12, 36, 37, 41])
    def test_padded_agents_stay_out_of_the_gap(self, seed):
        # at these seeds both draws share a label count but not an agent
        # count, so the smaller one iterates with padded agents
        (n0, d0), (n1, d1) = (innate.shape for _, innate in _random_contractives(2, seed))
        assert d0 == d1 and n0 != n1
        res = check_influence_consistency(draws=2, seed=seed, rounds=500)
        assert res.measured == influence_consistency_per_draw(2, seed, 500)

    def test_padded_labels_stay_out_of_the_gap(self):
        # at this seed the draws take every label count from 2 to 8 with
        # mixed agent counts, so both round stacks (up to 7 labels, padded
        # to 7, and 8 labels) hold several draws of different shapes; padding
        # the narrow draws to 8 labels would move the gap's last bits
        shapes = [innate.shape for _, innate in _random_contractives(12, 4)]
        assert {d for _, d in shapes} == set(range(2, 9))
        assert len({n for n, d in shapes if d == 8}) >= 2
        assert len({n for n, d in shapes if d < 8}) >= 2
        res = check_influence_consistency(draws=12, seed=4, rounds=500)
        assert res.measured == influence_consistency_per_draw(12, 4, 500)

    def test_each_stack_is_checked_once(self, monkeypatch):
        # every draw's parameters pass the check FJParameters runs, one call
        # per agent count
        checked = []

        def record(gamma, alpha, w, mask):
            checked.append(gamma.shape)
            return check_params(gamma, alpha, w, mask)

        check_params = verify_mod._check_params
        monkeypatch.setattr(verify_mod, "_check_params", record)
        check_influence_consistency(draws=60, seed=5, rounds=1)
        shapes = [innate.shape for _, innate in _random_contractives(60, 5)]
        assert sum(m for m, _ in checked) == 60
        assert sorted(n for _, n in checked) == sorted({n for n, _ in shapes})

    def test_round_stacks_end_as_their_plain_loop(self, monkeypatch):
        # at this seed a round stack holds draws that settle on a period of
        # 2 rounds; each draw still ends on the plain loop's last snapshot
        stacks = []

        def record(gs, h, start, rounds):
            stacks.append((gs, h, start, rounds))
            return run_rounds(gs, h, start, rounds)

        run_rounds = verify_mod._run_rounds
        monkeypatch.setattr(verify_mod, "_run_rounds", record)
        check_influence_consistency(draws=40, seed=2024)
        period_two = 0
        for gs, h, start, rounds in stacks:
            snaps = np.empty((len(start), rounds + 1, *start.shape[1:]))
            snaps[:, 0] = start
            plain = run_rounds(gs, h, start, rounds, snaps=snaps).view(np.uint64)
            final = run_rounds(gs, h, start, rounds).view(np.uint64)
            np.testing.assert_array_equal(final, plain)
            last, before, two_before = (snaps[:, t].view(np.uint64) for t in (-1, -2, -3))
            period_two += int(
                ((last == two_before).all(axis=(1, 2)) & (last != before).any(axis=(1, 2))).sum()
            )
        assert period_two > 0

    def test_draws_leave_the_round_loop(self, monkeypatch):
        # the default check runs two round stacks of 500 rounds; settled
        # draws leave them, so fewer rounds run, on shrinking stacks
        sizes = []
        one_round = dynamics._round

        def record(gs, h, current, worst=None):
            sizes.append(len(current))
            return one_round(gs, h, current, worst)

        monkeypatch.setattr(dynamics, "_round", record)
        assert check_influence_consistency().passed
        assert len(sizes) < 2 * 500
        assert sizes[-1] < sizes[0] and sum(sizes) < 200 * 500 / 4

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


class CountingRng:
    """A Generator that records the name of each method called on it."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self._calls.append(name)
            return method(*args, **kwargs)

        return counted


class TestDrawStacks:
    # at most 25 (n, d) groups for the identity checks and 5 agent counts for
    # the influence check, each drawn in at most 4 calls after the 2 calls
    # that draw every n and every d
    @pytest.mark.parametrize(
        "check, draws, groups",
        [
            (check_ambiguity_identity, 1000, 25),
            (check_diversity_forms, 1000, 25),
            (check_influence_consistency, 200, 5),
        ],
    )
    def test_a_few_generator_calls_per_shape_group(self, monkeypatch, check, draws, groups):
        calls = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(
            np.random, "default_rng", lambda seed: CountingRng(default_rng(seed), calls)
        )
        assert check(draws).passed
        assert 0 < len(calls) <= 2 + 4 * groups

    @pytest.mark.parametrize("draws", [0, -1])
    @pytest.mark.parametrize(
        "check", [check_influence_consistency, check_ambiguity_identity, check_diversity_forms]
    )
    def test_no_draws_is_an_error(self, check, draws):
        with pytest.raises(ConfigError, match=f"draws must be at least 1, got {draws}"):
            check(draws)

    def test_negative_rounds_is_an_error(self):
        with pytest.raises(ConfigError, match="rounds must be at least 0, got -3"):
            check_influence_consistency(5, rounds=-3)


# sha256 of verify_report.json and verify_report.txt at default budgets.
# First recorded while the check draws still called rng.dirichlet, every
# round still measured its drift and each draw built its own FJParameters;
# recorded again when min_influence_entry became the solved minimum and the
# mixtures one stacked matmul, which moved exclusive_scenario's
# monte_carlo_gap by 3 ulps and nothing else; recorded again when the two
# scenario checks took the mean of their n·d snapshots in place of a draw,
# which moved both monte_carlo_gap values by 2 ulps, dropped both scenario
# checks' "samples" entries, and moved nothing else; recorded again when the
# per-draw checks drew one stack per quantity and shape group instead of one
# draw at a time, a new stream of the same distributions, which moved
# influence_consistency's four floats at seed 0, its min_influence_entry and
# max_rho_above_bound at seed 1, and ambiguity_identity's max_abs_gap at
# seed 1, and nothing else.
REPORT_DIGESTS = {
    0: (
        "8f33668da1c77cd105ee51a0672f8aa699057a2ade30d88f9fcf1901e701b789",
        "2eb04e6fd2d18d84bb7bff7f627283de1bf974e3d4d763360922cd909cd80923",
    ),
    1: (
        "3d2f706a8d9997a21ba7538f88f8bfaafe4bb0f3cc7de32111ac4e4b1f49ef92",
        "e352fcb101363324495c58f46dab275f24077ae69a7389439072f9b65d1c95df",
    ),
}


@pytest.mark.parametrize("seed", sorted(REPORT_DIGESTS))
def test_default_reports_keep_their_recorded_bytes(tmp_path, seed):
    assert run(["--output-dir", str(tmp_path), "--quiet", "--seed", str(seed), "verify"]) == 0
    for name, digest in zip(("verify_report.json", "verify_report.txt"), REPORT_DIGESTS[seed]):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


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

    def test_each_check_names_its_side_of_the_split(self):
        assert {side for _, _, side in _CHECKS.values()} <= {"parent", "child"}
        child = {name for name, (_, _, side) in _CHECKS.items() if side == "child"}
        assert child == {
            "ambiguity_identity",
            "exclusive_scenario",
            "routing_threshold",
            "imperfect_scenario",
        }

    def test_budget_defaults_have_one_source(self):
        # every copy of a default budget equals verify.BUDGET_DEFAULTS
        run_all = inspect.signature(run_all_checks).parameters
        for name, value in BUDGET_DEFAULTS.items():
            assert run_all[name].default == value, name
            assert getattr(VerifySection(), name) == value, name
        for check, budget in CHECK_TABLE.values():
            first = next(iter(inspect.signature(check).parameters.values()))
            assert first.default == BUDGET_DEFAULTS[budget], check.__name__

    def test_readme_config_shows_the_budget_defaults(self, tmp_path):
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        block = re.search(r"^\[verify\]\n(?:.+\n)+", text, re.M)
        parser = configparser.ConfigParser()
        parser.read_string(block.group(0))
        for name, value in BUDGET_DEFAULTS.items():
            assert parser.getint("verify", name) == value, name
        # the whole block loads as written and holds every default
        (ini,) = re.findall(r"^```ini\n(.*?)^```", text, re.M | re.S)
        path = tmp_path / "readme.ini"
        path.write_text(ini, encoding="utf-8")
        assert load_config(str(path)) == load_config(None)


def failed_checks(seeds):
    """The (base seed, check name) of each check that fails in run_all_checks
    at default budgets, over the base seeds."""
    return [(seed, r.name) for seed in seeds for r in run_all_checks(seed=seed) if not r.passed]


class TestSeedSweep:
    """A check whose margin holds on one seed only would still pass on its
    fixed seed; every check must pass on each of twenty base seeds."""

    def test_every_check_passes_on_twenty_seeds(self):
        assert failed_checks(range(20)) == []

    def test_a_check_failing_on_one_seed_fails_the_sweep(self, monkeypatch):
        # the check runs with the base seed plus 1 plus its position
        failing = 7 + 1 + DEFAULT_CHECKS.index("routing_threshold")
        check = verify_mod.check_routing_threshold

        def fails_once(samples, seed):
            result = check(samples, seed=seed)
            return replace(result, passed=False) if seed == failing else result

        monkeypatch.setattr(verify_mod, "check_routing_threshold", fails_once)
        assert failed_checks(range(20)) == [(7, "routing_threshold")]


@pytest.mark.skipif(
    sys.version_info >= (3, 12) or not hasattr(os, "fork"),
    reason="run_all_checks forks only where os.fork exists, before Python 3.12",
)
class TestSplitChecks:
    """Where two CPUs are usable, run_all_checks hands the checks on the
    child side of _CHECKS to one forked child and runs the others itself: the
    same results and reports, the same errors, and no child left behind."""

    @pytest.fixture
    def forks(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        yield _count_forks(monkeypatch)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def _serial(call):
        """``call()``'s result with os.fork raising, or its error's type and text."""
        with pytest.MonkeyPatch.context() as mp:
            failed = _count_forks(mp, fail=True)
            try:
                result = call()
            except Exception as exc:
                result = (type(exc), str(exc))
        return result, failed

    @staticmethod
    def _calls_here(monkeypatch):
        """The names of the child side's checks that run in this process, as
        they run; the child's calls are not seen."""
        calls = []
        parent = os.getpid()
        for name in [check for check, _, side in _CHECKS.values() if side == "child"]:
            inner = getattr(verify_mod, name)

            def recorded(*args, inner=inner, name=name, **kwargs):
                if os.getpid() == parent:
                    calls.append(name)
                return inner(*args, **kwargs)

            monkeypatch.setattr(verify_mod, name, recorded)
        return calls

    def test_reports_equal_the_serial_run_at_default_budgets(self, tmp_path, forks):
        def verify(out):
            return run(["--output-dir", str(out), "--quiet", "--seed", "1", "verify"])

        assert verify(tmp_path / "split") == 0
        assert len(forks) == 1
        code, failed = self._serial(lambda: verify(tmp_path / "serial"))
        assert code == 0 and len(failed) == 1
        for name in ("verify_report.json", "verify_report.txt"):
            split = (tmp_path / "split" / name).read_bytes()
            assert split == (tmp_path / "serial" / name).read_bytes(), name

    @pytest.mark.parametrize(
        "checks, count",
        [
            (DEFAULT_CHECKS, 1),
            (("condition_outcome_consistency", "routing_threshold"), 1),
            (("condition_outcome_consistency", "influence_consistency"), 0),
            (("imperfect_scenario", "ambiguity_identity", "exclusive_scenario"), 0),
        ],
        ids=["default", "one-each", "here-only", "child-only"],
    )
    def test_forks_once_when_both_sides_have_a_check(self, forks, monkeypatch, checks, count):
        here = self._calls_here(monkeypatch)
        got = run_all_checks(checks=checks, seed=3, **BUDGETS)
        assert len(forks) == count
        if count:
            assert here == []  # the child ran its checks
        serial, _ = self._serial(lambda: run_all_checks(checks=checks, seed=3, **BUDGETS))
        assert [r.name for r in got] == list(checks)
        assert got == serial

    @pytest.mark.parametrize(
        "broken",
        [
            ("check_routing_threshold",),
            ("check_condition_outcome",),
            # the child's check comes first in check order, so its error is the serial one
            ("check_exclusive_scenario", "check_condition_outcome"),
        ],
        ids=["in-the-child", "here", "both-sides"],
    )
    def test_a_raising_check_gives_the_serial_error(self, forks, monkeypatch, broken):
        for name in broken:

            def raises(budget, seed, name=name):
                raise ValueError(f"{name} broken at budget {budget}, seed {seed}")

            monkeypatch.setattr(verify_mod, name, raises)
        serial, failed = self._serial(lambda: run_all_checks(**BUDGETS))
        assert serial[0] is ValueError and len(failed) == 1
        with pytest.raises(ValueError) as err:
            run_all_checks(**BUDGETS)
        assert len(forks) == 1
        assert (type(err.value), str(err.value)) == serial

    def test_a_cpu_the_machine_lacks_leaves_the_split_working(self, forks, monkeypatch):
        # the child's mask then names no CPU that exists, so setting it
        # raises OSError, which the child ignores
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {4094, 4095}, raising=False)
        here = self._calls_here(monkeypatch)
        got = run_all_checks(seed=5, **BUDGETS)
        assert len(forks) == 1 and here == []  # the child ran its checks
        serial, _ = self._serial(lambda: run_all_checks(seed=5, **BUDGETS))
        assert got == serial

    @pytest.mark.parametrize("case", ["one-cpu", "no-affinity", "python-3.12"])
    def test_no_fork_without_a_second_cpu_or_before_3_12(self, monkeypatch, case):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        if case == "one-cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        if case == "no-affinity":
            monkeypatch.delattr(os, "sched_getaffinity")
        if case == "python-3.12":
            monkeypatch.setattr(sys, "version_info", (3, 12, 0, "final", 0))
        forks = _count_forks(monkeypatch)
        assert len(run_all_checks(**BUDGETS)) == len(DEFAULT_CHECKS)
        assert forks == []
