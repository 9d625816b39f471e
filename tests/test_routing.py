import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fjlab.dynamics import aggregate_pi, influence_weights
from fjlab.errors import (
    LabelOutOfRange,
    ShapeMismatch,
    WeightNotSimplex,
)
from fjlab.metrics import brier_loss, confidence, diversity
from fjlab.model import FJParameters
from fjlab.routing import (
    LabeledSnapshotSet,
    _ambiguity_rows,
    ambiguity_decomposition,
    confidence_softmax_weights,
    hard_confidence_weights,
    local_risk,
    min_risk_weights,
    moe_vs_best_single,
    moe_vs_fixed_ensemble,
)
from fjlab.scenarios import ExclusiveScenario, gen_exclusive


def random_set(seed=0, m=40, n=4, d=3):
    rng = np.random.default_rng(seed)
    beliefs = rng.dirichlet(np.ones(d), size=(m, n))
    labels = rng.integers(0, d, size=m)
    return LabeledSnapshotSet(beliefs=beliefs, labels=labels)


class TestLabeledSnapshotSet:
    def test_shapes_and_plugin_risks(self):
        sset = random_set()
        assert (sset.m, sset.n, sset.d) == (40, 4, 3)
        risks = sset.agent_risks()
        expected = np.array(
            [
                [brier_loss(sset.beliefs[k, j], int(sset.labels[k])) for j in range(4)]
                for k in range(40)
            ]
        )
        np.testing.assert_allclose(risks, expected, atol=1e-12)

    def test_rejects_label_out_of_range(self):
        beliefs = np.full((1, 2, 2), 0.5)
        with pytest.raises(LabelOutOfRange):
            LabeledSnapshotSet(beliefs=beliefs, labels=np.array([2]))

    @pytest.mark.parametrize("labels", [[0.5, 1.7], [True, False]])
    def test_rejects_labels_that_are_not_integers(self, labels):
        beliefs = np.full((2, 2, 2), 0.5)
        with pytest.raises(LabelOutOfRange, match="integers"):
            LabeledSnapshotSet(beliefs=beliefs, labels=np.array(labels))

    def test_rejects_non_simplex_rows(self):
        beliefs = np.full((1, 2, 2), 0.4)
        with pytest.raises(WeightNotSimplex):
            LabeledSnapshotSet(beliefs=beliefs, labels=np.array([0]))

    def test_rejects_non_finite_entries(self):
        beliefs = np.full((1, 2, 2), 0.5)
        beliefs[0, 1, 0] = np.nan
        with pytest.raises(WeightNotSimplex, match="non-finite"):
            LabeledSnapshotSet(beliefs=beliefs, labels=np.array([0]))


class TestAmbiguityDecomposition:
    def test_one_item_is_its_kernel_row(self):
        rng = np.random.default_rng(4)
        for n in range(2, 11):
            for d in range(2, 11):
                s = rng.dirichlet(np.ones(d), size=(5, n))
                a = rng.dirichlet(np.ones(n), size=5)
                y = rng.integers(0, d, size=5)
                rows = _ambiguity_rows(s, a, y)
                for k in range(5):
                    alone = ambiguity_decomposition(s[k], a[k], int(y[k]))
                    assert alone == tuple(float(r[k]) for r in rows)

    def test_exact_identity_random(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n, d = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            s = rng.dirichlet(np.ones(d), size=n)
            a = rng.dirichlet(np.ones(n))
            y = int(rng.integers(d))
            lhs, rhs, gap = ambiguity_decomposition(s, a, y)
            assert abs(gap) < 1e-10
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_mixture_loss_equals_weighted_risk_minus_diversity(self):
        s = np.array([[1.0, 0.0], [0.0, 1.0]])
        a = np.array([0.5, 0.5])
        lhs, rhs, _ = ambiguity_decomposition(s, a, 0)
        # mixture (.5, .5) vs one-hot 0: Brier .5; risks (0, 2), diversity .5
        assert lhs == pytest.approx(0.5, abs=1e-12)
        assert rhs == pytest.approx(0.5 * 0.0 + 0.5 * 2.0 - 0.5, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_identity_property(self, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        s = rng.dirichlet(np.ones(d), size=n)
        a = rng.dirichlet(np.ones(n))
        _, _, gap = ambiguity_decomposition(s, a, int(rng.integers(d)))
        assert abs(gap) < 1e-10

    def test_weights_of_the_wrong_length_are_a_shape_mismatch(self):
        s = np.array([[0.6, 0.4], [0.2, 0.8]])
        with pytest.raises(ShapeMismatch, match="weights"):
            ambiguity_decomposition(s, [0.5, 0.3, 0.2], 0)

    def test_off_simplex_weights_are_named_as_weights(self):
        s = np.array([[0.6, 0.4], [0.2, 0.8]])
        with pytest.raises(WeightNotSimplex, match="aggregation weights"):
            ambiguity_decomposition(s, [0.7, 0.7], 0)


class TestRouters:
    def test_uniform_router(self):
        # routing by the uniform row is the uniform fixed ensemble
        sset = random_set(2)
        a = np.full(sset.n, 0.25)
        report = moe_vs_fixed_ensemble(sset, a, a)
        assert report.mean_ensemble_waste == 0.0
        assert report.mean_diversity_difference == 0.0
        assert report.realized_gap == 0.0

    def test_constant_router_broadcasts(self):
        sset = random_set(3)
        a = np.array([0.7, 0.1, 0.1, 0.1])
        row = moe_vs_best_single(sset, a)
        full = moe_vs_best_single(sset, np.tile(a, (sset.m, 1)))
        assert row.mean_moe_loss == pytest.approx(full.mean_moe_loss, abs=1e-15)
        assert row.mean_routing_regret == pytest.approx(
            full.mean_routing_regret, abs=1e-15
        )
        np.testing.assert_array_equal(row.confusion, full.confusion)
        np.testing.assert_array_equal(
            row.per_sample_condition, full.per_sample_condition
        )

    def test_hard_confidence_picks_most_confident(self):
        beliefs = np.array(
            [[[0.9, 0.1], [0.6, 0.4]], [[0.5, 0.5], [0.1, 0.9]]]
        )
        weights = hard_confidence_weights(beliefs)
        np.testing.assert_allclose(weights, [[1.0, 0.0], [0.0, 1.0]], atol=1e-12)

    def test_softmax_confidence_orders_weights(self):
        beliefs = np.array([[[0.9, 0.1], [0.6, 0.4]]])
        weights = confidence_softmax_weights(beliefs, beta=3.0)
        assert weights[0, 0] > weights[0, 1]
        assert weights.sum() == pytest.approx(1.0)

    def test_oracle_router_beats_best_single(self):
        sset = random_set(4)
        report = moe_vs_best_single(sset, min_risk_weights(sset.agent_risks()))
        assert report.mean_routing_regret == 0.0
        assert report.mean_moe_loss <= report.mean_best_single_risk + 1e-12
        # routing all weight to the locally best agent has no regret
        one = LabeledSnapshotSet(beliefs=np.array([[[0.9, 0.1], [0.2, 0.8]]]), labels=[0])
        assert moe_vs_best_single(one, [1.0, 0.0]).mean_routing_regret == 0.0

    def test_oracle_router_minimizes(self):
        rng = np.random.default_rng(5)
        risks = rng.uniform(0.0, 1.0, size=(6, 3))
        weights = min_risk_weights(risks)
        np.testing.assert_array_equal(np.argmax(weights, axis=1), np.argmin(risks, axis=1))
        np.testing.assert_array_equal(weights.sum(axis=1), 1.0)

    def test_fj_influence_router_uses_pi(self):
        params = FJParameters(
            gamma=np.array([0.5, 0.5]),
            alpha=np.zeros(2),
            w=np.array([[0.0, 1.0], [1.0, 0.0]]),
            mask=FJParameters.complete_mask(2),
        )
        sset = random_set(6, m=3, n=2, d=3)
        pi = aggregate_pi(influence_weights(params))
        np.testing.assert_allclose(pi, [0.5, 0.5], atol=1e-12)
        report = moe_vs_fixed_ensemble(sset, np.array([0.5, 0.5]), pi)
        assert report.realized_gap == pytest.approx(0.0, abs=1e-12)


class TestScalars:
    def test_local_risk_is_brier(self):
        s = np.array([[0.9, 0.1], [0.2, 0.8]])
        np.testing.assert_allclose(local_risk(s, 0), [0.02, 1.28], atol=1e-12)
        for y in (-1, 2):
            with pytest.raises(LabelOutOfRange):
                local_risk(s, y)

    def test_routing_regret_zero_for_best(self):
        s = np.array([[0.9, 0.1], [0.2, 0.8]])
        pi = np.array([1.0, 0.0])
        sset = LabeledSnapshotSet(beliefs=s[None], labels=np.array([0]))
        report = moe_vs_best_single(sset, pi)
        assert report.mean_routing_regret == pytest.approx(0.0, abs=1e-12)

    def test_ensemble_waste_matches_definition(self):
        rng = np.random.default_rng(8)
        sset = random_set(8, m=12)
        a = rng.dirichlet(np.ones(4))
        pi = rng.dirichlet(np.ones(4), size=12)
        expected = float(np.mean(((a - pi) * sset.agent_risks()).sum(axis=1)))
        report = moe_vs_fixed_ensemble(sset, a, pi)
        assert report.mean_ensemble_waste == pytest.approx(expected, abs=1e-12)


class TestReports:
    def test_best_single_report_consistency(self):
        sset = random_set(9, m=120)
        report = moe_vs_best_single(sset, hard_confidence_weights(sset.beliefs))
        risks = sset.agent_risks()
        assert report.best_single == int(np.argmin(risks.mean(axis=0)))
        assert report.mean_best_single_risk == pytest.approx(
            float(risks.mean(axis=0).min()), abs=1e-12
        )
        assert report.mean_min_local_risk <= report.mean_best_single_risk + 1e-12
        total = sum(sum(row) for row in report.confusion)
        assert total == sset.m

    def test_fixed_ensemble_identity_gap_tiny(self):
        sset = random_set(10, m=80)
        a = np.full(4, 0.25)
        weights = confidence_softmax_weights(sset.beliefs, 4.0)
        report = moe_vs_fixed_ensemble(sset, a, weights)
        assert abs(report.identity_gap) < 1e-10
        assert report.realized_gap == pytest.approx(
            report.mean_ensemble_waste - report.mean_diversity_difference, abs=1e-10
        )

    def test_confidence_routing_report_runs(self):
        # hard routing is one-hot, so D_pi = 0 and the fixed-ensemble report
        # asks whether E[G_a] > E[delta_C] + E[D_a]: G_a is the fixed
        # ensemble's risk gap to the locally best agent, delta_C the regret
        # of routing to the most confident one
        # on the exclusive scenario confidence routing is exact, so it holds
        sets = [random_set(seed, m=60) for seed in (11, 12)]
        sets.append(gen_exclusive(ExclusiveScenario(n=4, d=3, epsilon=0.1), 60, 13))
        outcomes = set()
        for seed, sset in enumerate(sets):
            a = np.random.default_rng(seed).dirichlet(np.ones(4))
            report = moe_vs_fixed_ensemble(sset, a, hard_confidence_weights(sset.beliefs))
            risks = sset.agent_risks()
            best = risks.min(axis=1)
            chosen = [np.argmax([confidence(b) for b in s]) for s in sset.beliefs]
            gap = (risks @ a - best).mean()
            delta_c = (risks[np.arange(sset.m), chosen] - best).mean()
            div_a = np.mean([diversity(s, a) for s in sset.beliefs])
            assert report.mean_diversity_difference == pytest.approx(div_a, abs=1e-12)
            assert report.holds == bool(gap > delta_c + div_a)
            outcomes.add(report.holds)
        assert outcomes == {False, True}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_routing_weights(self, bad):
        sset = random_set(13, m=10)
        w = np.full((sset.m, sset.n), 0.25)
        w[3, 1] = bad
        with pytest.raises(WeightNotSimplex):
            moe_vs_best_single(sset, w)
        with pytest.raises(WeightNotSimplex):
            moe_vs_fixed_ensemble(sset, np.full(sset.n, 0.25), w[3])

    @pytest.mark.parametrize(
        "a",
        [
            [0.5, 0.5, 0.0, np.nan],
            [np.inf, 0.0, 0.0, 0.0],
            [1.0, -np.inf, 0.0, 0.0],
            [2.0, -1.0, 0.0, 0.0],
            [0.3, 0.3, 0.3, 0.3],
        ],
    )
    def test_rejects_bad_fixed_weights(self, a):
        sset = random_set(17, m=10)
        with pytest.raises(WeightNotSimplex, match="fixed weights"):
            moe_vs_fixed_ensemble(sset, a, np.full(4, 0.25))

    @pytest.mark.parametrize(
        "row", [[0.5, 0.5, 0.5, -0.5], [0.3, 0.3, 0.3, 0.3], [1.0, 0.0, 0.0, 1e-8]]
    )
    def test_rejects_off_simplex_routing_weights(self, row):
        sset = random_set(14, m=10)
        w = np.full((sset.m, sset.n), 0.25)
        w[7] = row
        with pytest.raises(WeightNotSimplex):
            moe_vs_best_single(sset, w)
        with pytest.raises(WeightNotSimplex):
            moe_vs_best_single(sset, np.array(row))

    def test_accepts_weights_within_tolerance(self):
        sset = random_set(15, m=10)
        w = np.full((sset.m, sset.n), 0.25)
        w[2] = [0.5 + 1e-10, 0.5, -1e-13, 0.0]
        assert np.isfinite(moe_vs_best_single(sset, w).mean_moe_loss)

    @pytest.mark.parametrize("shape", [(3,), (5,), (10, 3), (9, 4), (1, 4), (10, 4, 1)])
    def test_rejects_wrong_routing_weight_shapes(self, shape):
        sset = random_set(16, m=10, n=4)
        w = np.full(shape, 1.0 / shape[-1])  # simplex rows, so only the shape is wrong
        with pytest.raises(ShapeMismatch):
            moe_vs_best_single(sset, w)
        with pytest.raises(ShapeMismatch):
            moe_vs_fixed_ensemble(sset, np.full(4, 0.25), w)

    def test_rejects_wrong_risk_shape(self):
        beliefs = np.full((3, 2, 2), 0.5)
        with pytest.raises(ShapeMismatch, match="risks"):
            LabeledSnapshotSet(
                beliefs=beliefs, labels=np.zeros(3), risks=np.zeros((3, 3))
            )
