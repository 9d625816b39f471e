import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq
from scipy.stats import rankdata

from fjlab.constants import CONSENSUS_THRESHOLD
from fjlab.errors import (
    FJLabError,
    NotContractive,
    NumericalError,
    TooFewAgents,
    TooFewPoints,
    WeightNotSimplex,
)
from fjlab.metrics import (
    MetricColumns,
    _diversity_rows,
    _log_loss_rows,
    _pairwise_diversity_rows,
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
    _average_ranks,
    spearman,
    stacked_metrics,
)
from fjlab.model import FJParameters
from fjlab.routing import LabeledSnapshotSet, min_risk_weights, moe_vs_fixed_ensemble
from fjlab.dynamics import aggregate_pi, influence_weights, simulate


def belief_with_confidence(target: float) -> np.ndarray:
    """Two-label belief (p, 1-p), p >= 1/2, hitting a given confidence."""
    p = brentq(lambda q: confidence([q, 1.0 - q]) - target, 0.5 + 1e-12, 1.0 - 1e-12)
    return np.array([p, 1.0 - p])


class TestConfidence:
    def test_frozen_example(self):
        assert confidence([0.9, 0.1]) == pytest.approx(0.5310, abs=1e-4)

    def test_uniform_is_zero(self):
        for d in (2, 3, 10):
            assert confidence(np.full(d, 1.0 / d)) == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_is_one(self):
        assert confidence([1.0, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_range(self, seed, d):
        b = np.random.default_rng(seed).dirichlet(np.ones(d))
        assert 0.0 <= confidence(b) <= 1.0

    def test_relative_confidence_frozen_ratios(self):
        snapshot = np.stack(
            [belief_with_confidence(c) for c in (0.8, 0.4, 0.2)]
        )
        _, rel = confidence_metrics(snapshot)
        np.testing.assert_allclose(rel, [2.0, 1.0, 0.5], atol=1e-4)

    def test_relative_confidence_degenerate_denominator(self):
        uniform = np.full((3, 4), 0.25)
        _, rel = confidence_metrics(uniform)
        np.testing.assert_array_equal(rel, np.ones(3))

    def test_needs_two_agents(self):
        with pytest.raises(TooFewAgents):
            confidence_metrics(np.array([[0.5, 0.5]]))


class TestSoftmaxWeights:
    def test_frozen_example(self):
        out = softmax_weights([0.531, 0.0], beta=1.0)
        np.testing.assert_allclose(out, [0.6297, 0.3703], atol=1e-4)

    def test_zero_beta_is_uniform(self):
        out = softmax_weights([5.0, 1.0, 3.0], beta=0.0)
        np.testing.assert_allclose(out, np.full(3, 1.0 / 3.0), atol=1e-12)

    def test_large_scores_stable(self):
        out = softmax_weights([1000.0, 0.0], beta=1.0)
        assert np.isfinite(out).all()
        assert out.sum() == pytest.approx(1.0)


class TestLossesAndScores:
    def test_brier_frozen_examples(self):
        assert brier_loss([0.5, 0.5], 0) == pytest.approx(0.5, abs=1e-12)
        assert brier_loss([0.9, 0.1], 0) == pytest.approx(0.02, abs=1e-12)

    def test_log_loss_floor(self):
        assert log_loss([0.0, 1.0], 0) == pytest.approx(-math.log(1e-12), abs=1e-9)
        assert log_loss([1.0, 0.0], 0) == pytest.approx(0.0, abs=1e-12)

    def test_competence_reads_label_mass(self):
        assert competence([0.2, 0.7, 0.1], 1) == pytest.approx(0.7)

    def test_log_loss_is_its_kernel_row(self):
        rng = np.random.default_rng(5)
        for d in range(2, 11):
            b = rng.dirichlet(np.ones(d), size=6)
            b[0] = np.eye(d)[1]  # mass 0 on label 0: the floor
            y = rng.integers(0, d, size=6)
            y[0] = 0
            rows = _log_loss_rows(b, y)
            assert [log_loss(b[k], int(y[k])) for k in range(6)] == rows.tolist()


class TestDisagreementAndAlignment:
    def test_two_one_hots(self):
        s = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert disagreement(s) == pytest.approx(0.70711, abs=1e-4)

    def test_identical_rows_zero(self):
        s = np.full((4, 3), 1.0 / 3.0)
        assert disagreement(s) == pytest.approx(0.0, abs=1e-12)

    def test_alignment_on_agreeing_pair(self):
        s = np.array([[0.8, 0.2], [0.6, 0.4]])
        cos, score, count = alignment_metrics(s)
        assert np.all(cos > 0.9)
        np.testing.assert_array_equal(score, [1.0, 1.0])
        np.testing.assert_array_equal(count, [1, 1])

    def test_alignment_on_disagreeing_pair(self):
        s = np.array([[1.0, 0.0], [0.0, 1.0]])
        _, score, count = alignment_metrics(s)
        assert score.sum() == 1.0
        np.testing.assert_array_equal(count, [0, 0])


class TestDiversity:
    def test_one_item_is_its_kernel_row(self):
        rng = np.random.default_rng(6)
        for n in range(2, 11):
            for d in range(2, 11):
                s = rng.dirichlet(np.ones(d), size=(5, n))
                a = rng.dirichlet(np.ones(n), size=5)
                moment = _diversity_rows(s, a).tolist()
                pairwise = _pairwise_diversity_rows(s, a).tolist()
                assert [diversity(s[k], a[k]) for k in range(5)] == moment
                assert [diversity(s[k], a[k], "pairwise") for k in range(5)] == pairwise

    def test_frozen_one_hot_example(self):
        s = np.array([[1.0, 0.0], [0.0, 1.0]])
        a = np.array([0.5, 0.5])
        assert diversity(s, a) == pytest.approx(0.5, abs=1e-12)
        assert diversity(s, a, form="pairwise") == pytest.approx(0.5, abs=1e-12)

    def test_zero_when_identical(self):
        s = np.tile(np.array([0.3, 0.7]), (3, 1))
        assert diversity(s, np.full(3, 1.0 / 3.0)) == pytest.approx(0.0, abs=1e-15)

    def test_rejects_bad_weights(self):
        s = np.full((2, 2), 0.5)
        with pytest.raises(WeightNotSimplex):
            diversity(s, np.array([0.7, 0.7]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("form", ["moment", "pairwise"])
    def test_rejects_non_finite_weights(self, bad, form):
        s = np.array([[0.5, 0.5], [0.2, 0.8]])
        with pytest.raises(WeightNotSimplex):
            diversity(s, np.array([bad, 0.5]), form)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_forms_agree(self, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        s = rng.dirichlet(np.ones(d), size=n)
        a = rng.dirichlet(np.ones(n))
        assert diversity(s, a, "moment") == pytest.approx(
            diversity(s, a, "pairwise"), abs=1e-10
        )

    @given(st.integers(2, 8), st.integers(2, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_moment_form_is_the_routing_kernel(self, n, d, seed):
        # one-hot routing has diversity exactly 0, so the report's diversity
        # term is the fixed mixture's D_a, from the same kernel bit for bit
        rng = np.random.default_rng(seed)
        s = rng.dirichlet(np.ones(d), size=n)
        a = rng.dirichlet(np.ones(n))
        sset = LabeledSnapshotSet(beliefs=s[None], labels=np.array([0]))
        report = moe_vs_fixed_ensemble(sset, a, min_risk_weights(sset.agent_risks()))
        assert report.mean_diversity_difference == diversity(s, a)


class TestSpearman:
    def test_frozen_example(self):
        assert spearman([1.0, 2.0, 3.0], [2.0, 1.0, 3.0]) == pytest.approx(0.5, abs=1e-12)

    def test_perfect_monotone(self):
        assert spearman([1.0, 5.0, 9.0], [2.0, 40.0, 41.0]) == pytest.approx(1.0)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            spearman([1.0, 2.0], [2.0, 1.0])

    def test_constant_input_is_nan(self):
        assert math.isnan(spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))

    def test_nan_input_is_nan(self):
        assert math.isnan(spearman([float("nan"), 1.0, 2.0], [1.0, 2.0, 3.0]))
        assert math.isnan(spearman([1.0, 2.0, 3.0], [1.0, float("nan"), 3.0]))

    @given(
        st.lists(
            st.one_of(
                st.sampled_from([-math.inf, math.inf, 0.0, -0.0, 1.0, 2.5]),
                st.floats(allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_average_ranks_bit_equal_to_rankdata(self, values):
        a = np.array(values, dtype=np.float64)
        ours, ref = _average_ranks(a), rankdata(a)
        assert ours.dtype == ref.dtype
        assert ours.tobytes() == ref.tobytes()


class TestInfluenceMetrics:
    def test_peer_influence_frozen_example(self):
        # (1 - alpha_i) w_ij = [[0, 1], [0.5, 0]] -> column sums (0.5, 1)
        params = FJParameters(
            gamma=np.array([0.5, 0.5]),
            alpha=np.array([0.0, 0.5]),
            w=np.array([[0.0, 1.0], [1.0, 0.0]]),
            mask=FJParameters.complete_mask(2),
        )
        _, peer = influence_metrics(params)
        np.testing.assert_allclose(peer, [0.5, 1.0], atol=1e-12)

    def test_influence_normalizations(self):
        params = FJParameters(
            gamma=np.array([0.8, 0.2]),
            alpha=np.array([0.1, 0.3]),
            w=np.array([[0.0, 1.0], [1.0, 0.0]]),
            mask=FJParameters.complete_mask(2),
        )
        infl_max, _ = influence_metrics(params, normalization="max")
        assert infl_max.max() == pytest.approx(1.0, abs=1e-12)
        infl_second, _ = influence_metrics(params, normalization="second_largest")
        ranked = np.sort(infl_second)
        assert ranked[-2] == pytest.approx(1.0, abs=1e-12)


def one_sample(traj, params):
    """``stacked_metrics`` of one trajectory's final snapshot."""
    return stacked_metrics(traj.final[None], [params], [traj.correct_label])


class TestTrajectoryMetrics:
    """``stacked_metrics`` of one sample, the metrics of one trajectory."""

    def test_rows_and_system(self):
        params = FJParameters(
            gamma=np.array([0.4, 0.6, 0.5]),
            alpha=np.array([0.2, 0.3, 0.1]),
            w=np.array(
                [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]
            ),
            mask=FJParameters.complete_mask(3),
        )
        innate = np.array(
            [[0.7, 0.2, 0.1], [0.6, 0.3, 0.1], [0.5, 0.4, 0.1]]
        )
        traj = simulate(params, innate, 30, sample_id="t0", correct_label=0)
        cols = one_sample(traj, params)
        for field in MetricColumns.AGENT_FIELDS:
            assert getattr(cols, field).shape == (1, 3), field
        np.testing.assert_array_equal(cols.competence[0], traj.final[:, 0])
        np.testing.assert_array_equal(cols.gamma[0], params.gamma)
        assert cols.disagreement.shape == cols.mean_confidence.shape == (1,)
        # all agents end on label 0 and close together
        assert cols.consensus_reached.tolist() == [True]
        assert 0.0 <= cols.mean_confidence[0] <= 1.0
        # the default readout is uniform
        np.testing.assert_array_equal(cols.pi[0], aggregate_pi(influence_weights(params)))
        np.testing.assert_allclose(cols.pi[0].sum(), 1.0, atol=1e-12)

    def test_influence_matrix_computed_once(self, monkeypatch):
        import fjlab.metrics as metrics_mod

        calls = []
        stacked = metrics_mod._influence_stack

        def counting(gamma, alpha, w):
            calls.append(gamma)
            return stacked(gamma, alpha, w)

        monkeypatch.setattr(metrics_mod, "_influence_stack", counting)
        params = FJParameters(
            gamma=np.array([0.5, 0.3]),
            alpha=np.array([0.2, 0.4]),
            w=np.array([[0.0, 1.0], [1.0, 0.0]]),
            mask=FJParameters.complete_mask(2),
        )
        traj = simulate(params, np.array([[0.9, 0.1], [0.2, 0.8]]), 2)
        one_sample(traj, params)
        assert len(calls) == 1

    def test_competence_missing_without_label(self):
        params = FJParameters(
            gamma=np.array([0.5, 0.5]),
            alpha=np.array([0.0, 0.0]),
            w=np.array([[0.0, 1.0], [1.0, 0.0]]),
            mask=FJParameters.complete_mask(2),
        )
        innate = np.array([[0.9, 0.1], [0.2, 0.8]])
        traj = simulate(params, innate, 2)
        assert np.isnan(one_sample(traj, params).competence).all()


def random_params(rng: np.random.Generator, n: int) -> FJParameters:
    w = rng.uniform(0.0, 1.0, (n, n))
    np.fill_diagonal(w, 0.0)
    w /= w.sum(axis=1, keepdims=True)
    return FJParameters(
        gamma=rng.uniform(0.05, 0.95, n),
        alpha=rng.uniform(0.0, 1.0, n),
        w=w,
        mask=FJParameters.complete_mask(n),
    )


def final_rows(rng: np.random.Generator, kind: str, n: int, d: int) -> np.ndarray:
    if kind == "uniform":  # every confidence, and so the second-largest, is 0
        return np.full((n, d), 1.0 / d)
    if kind == "ties":  # small integer weights: argmax ties and repeated rows
        raw = rng.integers(1, 3, size=(n, d)).astype(np.float64)
        return raw / raw.sum(axis=1, keepdims=True)
    if kind == "one_hot":
        return np.eye(d)[rng.integers(d, size=n)]
    return rng.dirichlet(np.ones(d), size=n)


def reference_metrics(final, params, label, eta, normalization):
    """The per-sample formulas that the stacked code replaced, one 1-D or 2-D
    array operation at a time: the reference for bit identity."""
    n, d = final.shape
    conf = np.array([confidence(row) for row in final])
    second = float(np.partition(conf, -2)[-2])
    rel = np.ones(n) if second == 0.0 else conf / second
    h = (1.0 - params.alpha)[:, None] * params.w
    h[np.diag_indices(n)] += params.alpha
    h *= (1.0 - params.gamma)[:, None]
    m = np.clip(np.linalg.solve(np.eye(n) - h, np.diag(params.gamma)), 0.0, None)
    pi = (np.full(n, 1.0 / n) if eta is None else eta) @ m
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()

    def scaled(v):
        ref = float(v.max() if normalization == "max" else np.partition(v, -2)[-2])
        return np.zeros_like(v) if ref == 0.0 else v / ref

    center = final.mean(axis=0)
    tops = np.argmax(final, axis=1)
    dis = float(np.linalg.norm(final - center, axis=1).mean())
    agent = {
        "confidence": conf,
        "relative_confidence": rel,
        "influence": scaled(pi),
        "peer_influence": scaled(((1.0 - params.alpha)[:, None] * params.w).sum(axis=0)),
        "alignment": (final @ center) / (np.linalg.norm(final, axis=1) * np.linalg.norm(center)),
        "alignment_score": (tops == np.argmax(center)).astype(np.float64),
        "alignment_count": [(tops == tops[j]).sum() - 1 for j in range(n)],
        "competence": np.full(n, np.nan) if label is None else final[:, label],
        "gamma": params.gamma,
    }
    consensus = bool(np.all(tops == tops[0]) and dis < CONSENSUS_THRESHOLD)
    return agent, (dis, float(conf.mean()), consensus, pi)


def same_bits(a, b) -> bool:
    return np.asarray(a, np.float64).tobytes() == np.asarray(b, np.float64).tobytes()


@st.composite
def metric_stacks(draw):
    m, n, d = draw(st.integers(1, 6)), draw(st.integers(2, 8)), draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["dirichlet", "uniform", "ties", "one_hot"]), min_size=m, max_size=m))
    finals = np.stack([final_rows(rng, kind, n, d) for kind in kinds])
    params = [random_params(rng, n) for _ in range(m)]
    labels = draw(st.lists(st.one_of(st.none(), st.integers(0, d - 1)), min_size=m, max_size=m))
    eta = rng.dirichlet(np.ones(n)) if draw(st.booleans()) else None
    return finals, params, labels, eta, draw(st.sampled_from(["max", "second_largest"]))


class TestStackedMetrics:
    @given(metric_stacks())
    @settings(max_examples=150, deadline=None)
    def test_bitwise_equal_to_one_sample_slices(self, case):
        finals, params, labels, eta, normalization = case
        cols = stacked_metrics(finals, params, labels, eta, normalization)
        for k, (final, p, label) in enumerate(zip(finals, params, labels)):
            alone = stacked_metrics(final[None], [p], [label], eta, normalization)
            for field in MetricColumns.AGENT_FIELDS:
                assert same_bits(getattr(cols, field)[k], getattr(alone, field)[0]), field
            if label is None:
                assert np.isnan(cols.competence[k]).all()
            for field in ("disagreement", "mean_confidence", "pi"):
                assert same_bits(getattr(cols, field)[k], getattr(alone, field)[0]), field
            assert cols.consensus_reached[k] == alone.consensus_reached[0]
            agent, (dis, mean_conf, consensus, pi) = reference_metrics(
                final, p, label, eta, normalization
            )
            for field, want in agent.items():
                assert same_bits(getattr(cols, field)[k], want), field
            assert same_bits(cols.disagreement[k], dis)
            assert same_bits(cols.mean_confidence[k], mean_conf)
            assert bool(cols.consensus_reached[k]) is consensus
            assert same_bits(cols.pi[k], pi)

    def test_checks_the_readout(self):
        rng = np.random.default_rng(8)
        finals = rng.dirichlet(np.ones(3), size=(2, 3))
        params = [random_params(rng, 3) for _ in range(2)]
        with pytest.raises(WeightNotSimplex, match="eta"):
            stacked_metrics(finals, params, eta=np.array([0.5, 0.6, 0.0]))

    @pytest.mark.parametrize("d", [2, 4])
    def test_uniform_rows_have_relative_confidence_one(self, d):
        rng = np.random.default_rng(3)
        # with d a power of 2 the uniform row's confidence is exactly 0
        finals = np.full((2, 4, d), 1.0 / d)
        cols = stacked_metrics(finals, [random_params(rng, 4) for _ in range(2)])
        assert (cols.confidence == 0.0).all() and (cols.relative_confidence == 1.0).all()
        assert cols.consensus_reached.all()

    def test_first_failing_sample_in_stack_order_raises(self):
        rng = np.random.default_rng(4)
        ok = random_params(rng, 3)
        # agent 0 has no peers: contractive, but its influence row sums below 1
        mask = FJParameters.complete_mask(3)
        mask[0] = False
        lonely = FJParameters(
            gamma=np.array([0.3, 0.4, 0.5]),
            alpha=np.full(3, 0.5),
            w=np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]),
            mask=mask,
        )
        stalled = replace(ok, gamma=np.zeros(3))
        finals = rng.dirichlet(np.ones(2), size=(4, 3))
        # the stacked eigenvalue check meets sample 2 first; sample 1 fails later
        with pytest.raises(FJLabError) as stacked:
            stacked_metrics(finals, [ok, lonely, stalled, ok])
        with pytest.raises(FJLabError) as alone:
            stacked_metrics(finals[1][None], [lonely])
        assert type(stacked.value) is type(alone.value) is NumericalError
        assert str(stacked.value) == str(alone.value)
        with pytest.raises(NotContractive):
            stacked_metrics(finals[2:], [stalled, lonely])
