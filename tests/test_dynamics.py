from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fjlab.dynamics import (
    _round,
    _run_rounds,
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
from fjlab.errors import NegativeEntry, NotContractive, ShapeMismatch, WeightNotSimplex
from fjlab.model import FJParameters


def make_params(gamma, alpha, w):
    gamma = np.asarray(gamma, dtype=np.float64)
    return FJParameters(
        gamma=gamma,
        alpha=np.asarray(alpha, dtype=np.float64),
        w=np.asarray(w, dtype=np.float64),
        mask=FJParameters.complete_mask(gamma.shape[0]),
    )


def swap_params(gamma=0.5, alpha=0.0):
    return make_params([gamma, gamma], [alpha, alpha], [[0.0, 1.0], [1.0, 0.0]])


def random_contractive(rng, n=4, d=3):
    w = rng.uniform(0.1, 1.0, (n, n))
    np.fill_diagonal(w, 0.0)
    w /= w.sum(axis=1, keepdims=True)
    params = make_params(
        rng.uniform(0.1, 0.9, n), rng.uniform(0.1, 0.9, n), w
    )
    innate = rng.dirichlet(np.ones(d), size=n)
    return params, innate


class TestBuildH:
    def test_hand_computed_entries(self):
        # (1 - gamma) * (alpha on the diagonal + (1 - alpha) * w)
        params = make_params([0.2, 0.6], [0.5, 0.25], [[0.0, 1.0], [1.0, 0.0]])
        expected = np.array([[0.8 * 0.5, 0.8 * 0.5], [0.4 * 0.75, 0.4 * 0.25]])
        np.testing.assert_allclose(build_h(params), expected, atol=1e-15)

    def test_row_sums_are_one_minus_gamma(self):
        rng = np.random.default_rng(0)
        params, _ = random_contractive(rng)
        np.testing.assert_allclose(
            build_h(params).sum(axis=1), 1.0 - params.gamma, atol=1e-12
        )


class TestSpectralRadius:
    def test_two_by_two_closed_form(self):
        # a nonnegative 2x2 matrix has real eigenvalues (tr +- sqrt(tr^2 - 4 det)) / 2
        rng = np.random.default_rng(1)
        for _ in range(50):
            h = rng.uniform(0.0, 1.0, (2, 2))
            tr, det = np.trace(h), np.linalg.det(h)
            expected = (tr + np.sqrt(tr * tr - 4.0 * det)) / 2.0
            assert spectral_radius(h) == pytest.approx(expected, rel=1e-12)

    def test_collatz_wielandt_bracket(self):
        # min_i (Hx)_i / x_i <= rho <= max_i (Hx)_i / x_i for nonnegative H
        # and positive x; power steps on a positive H close the bracket
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(2, 11))
            h = rng.uniform(0.0, 1.0, (n, n)) * rng.uniform(0.2, 0.9)
            rho = spectral_radius(h)
            x = rng.uniform(0.1, 1.0, n)
            ratio = (h @ x) / x
            assert ratio.min() - 1e-12 <= rho <= ratio.max() + 1e-12
            for _ in range(200):
                x = h @ x
                x /= x.max()
            ratio = (h @ x) / x
            assert ratio.min() - 1e-12 <= rho <= ratio.max() + 1e-12
            assert ratio.max() - ratio.min() <= 1e-9

    def test_permutation_matrix(self):
        # eigenvalues +1 and -1 both sit on the unit circle
        perm = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert spectral_radius(perm) == pytest.approx(1.0, abs=1e-10)

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((3, 3))) == pytest.approx(0.0, abs=1e-12)

    def test_fj_update_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            params, _ = random_contractive(rng)
            rho = spectral_radius(build_h(params))
            assert rho <= 1.0 - params.gamma.min() + 1e-10


class TestStepAndSimulate:
    def test_step_matches_update_rule(self):
        params = swap_params(gamma=0.3, alpha=0.2)
        innate = np.array([[0.9, 0.1], [0.2, 0.8]])
        current = np.array([[0.6, 0.4], [0.5, 0.5]])
        out = fj_step(params, innate, current)
        expected = (
            params.gamma[:, None] * innate
            + ((1 - params.gamma) * params.alpha)[:, None] * current
            + ((1 - params.gamma) * (1 - params.alpha))[:, None] * (params.w @ current)
        )
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_step_preserves_rows(self):
        rng = np.random.default_rng(3)
        params, innate = random_contractive(rng)
        current = rng.dirichlet(np.ones(3), size=4)
        out = fj_step(params, innate, current)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert out.min() >= 0.0

    def test_simulate_records_sequence(self):
        params = swap_params()
        innate = np.array([[1.0, 0.0], [0.0, 1.0]])
        traj = simulate(params, innate, 3, sample_id="s", correct_label=0)
        assert traj.rounds == 3
        np.testing.assert_array_equal(traj.innate, innate)
        step1 = fj_step(params, innate, innate)
        np.testing.assert_allclose(traj.snapshots[1], step1, atol=1e-12)
        assert "max_drift" in traj.metadata

    def test_simulate_rejects_wrong_n(self):
        params = swap_params()
        with pytest.raises(ShapeMismatch):
            simulate(params, np.full((3, 2), 0.5), 1)


def round_with_drift(gs, h, current):
    """One round as the kernel ran it when it also returned each sample's
    row drift, measured before renormalizing; kept as the reference."""
    out = h @ current
    out += gs
    drift = np.abs(out.sum(axis=-1) - 1.0).max(axis=-1)
    np.maximum(out, 0.0, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out, drift


class TestStackedRounds:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
        st.integers(2, 8),
        st.integers(2, 12),
        st.integers(0, 6),
    )
    def test_stack_equals_slice_by_slice(self, seed, m, n, d, rounds):
        rng = np.random.default_rng(seed)
        systems = [random_contractive(rng, n=n, d=d) for _ in range(m)]
        gs = np.stack([p.gamma[:, None] * innate for p, innate in systems])
        hs = np.stack([build_h(p) for p, _ in systems])
        current = rng.dirichlet(np.ones(d), size=(m, n))
        for h in (hs[0], hs):  # shared (n, n), then one per sample (m, n, n)
            out = _round(gs, h, current)
            np.testing.assert_array_equal(out, round_with_drift(gs, h, current)[0])
            for k in range(m):
                out_k = _round(gs[k], h if h.ndim == 2 else h[k], current[k])
                np.testing.assert_array_equal(out[k], out_k)
        # the pool's drift, taken in its round loop, has each round's bits
        innates = np.stack([innate for _, innate in systems])
        pool = simulate_pool(
            [p for p, _ in systems], innates, rounds, sample_ids=list("abcdef")[:m],
            correct_labels=[None] * m,
        )
        current, worst = innates, np.zeros(m)
        for t in range(rounds):
            current, drift = round_with_drift(gs, hs, current)
            for k, traj in enumerate(pool):
                np.testing.assert_array_equal(traj.snapshots[t + 1], current[k])
            np.maximum(worst, drift, out=worst)
        assert [traj.metadata["max_drift"] for traj in pool] == [repr(float(x)) for x in worst]

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 8),
        st.integers(2, 6),
        st.integers(2, 8),
        st.booleans(),
        st.sampled_from([0, 1, 15, 16, 17]) | st.integers(0, 600),
    )
    def test_final_only_rounds_equal_the_plain_loop(self, seed, m, n, d, shared, rounds):
        # stubbornness from near 0, so that some samples settle late or not
        # at all, and retire at different looks or stay to the end
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.0, 1.0, (m, n, n))
        w[:, np.arange(n), np.arange(n)] = 0.0
        w /= w.sum(axis=-1, keepdims=True)
        systems = [
            make_params(rng.uniform(0.001, 0.95, n), rng.uniform(0.0, 0.95, n), w[k])
            for k in range(m)
        ]
        gs = np.stack([p.gamma[:, None] for p in systems]) * rng.dirichlet(np.ones(d), (m, n))
        h = build_h(systems[0]) if shared else np.stack([build_h(p) for p in systems])
        start = rng.dirichlet(np.ones(d), size=(m, n))
        plain = start
        for _ in range(rounds):
            plain = _round(gs, h, plain)
        final = _run_rounds(gs, h, start, rounds)
        np.testing.assert_array_equal(final.view(np.uint64), plain.view(np.uint64))

    @pytest.mark.parametrize("rounds", [0, 1, 7])
    @pytest.mark.parametrize("m", [1, 5])
    def test_pool_equals_per_sample_simulate(self, rounds, m):
        rng = np.random.default_rng(11)
        params, _ = random_contractive(rng, n=4, d=3)
        innates = rng.dirichlet(np.ones(3), size=(m, 4))
        ids = [f"p{k}" for k in range(m)]
        labels = [None if k % 2 else k % 3 for k in range(m)]
        meta = {"pool": "7"}
        # one shared parameter set, then one per sample with its own gamma
        per_sample = [replace(params, gamma=rng.uniform(0.1, 0.9, size=4)) for _ in range(m)]
        for param_list in ([params] * m, per_sample):
            pool = simulate_pool(
                param_list,
                innates,
                rounds,
                sample_ids=ids,
                correct_labels=labels,
                metadata=meta,
            )
            assert len(pool) == m
            for k, traj in enumerate(pool):
                alone = simulate(
                    param_list[k],
                    innates[k],
                    rounds,
                    sample_id=ids[k],
                    correct_label=labels[k],
                    metadata=meta,
                )
                np.testing.assert_array_equal(traj.snapshots, alone.snapshots)
                assert traj.sample_id == alone.sample_id
                assert traj.correct_label == alone.correct_label
                assert traj.metadata == alone.metadata
        assert meta == {"pool": "7"}

    def test_max_drift_is_the_worst_round(self):
        rng = np.random.default_rng(0)
        params, _ = random_contractive(rng, n=4, d=3)
        innates = rng.dirichlet(np.ones(3), size=(5, 4))
        pool = simulate_pool(
            [params] * 5, innates, 20, sample_ids=list("abcde"), correct_labels=[None] * 5
        )
        gs, h = params.gamma[:, None] * innates, build_h(params)
        last_is_worst = []
        for k, traj in enumerate(pool):
            current, drifts = innates[k], []
            for _ in range(20):
                current, drift = round_with_drift(gs[k], h, current)
                drifts.append(float(drift))
            assert traj.metadata["max_drift"] == repr(max(drifts))
            last_is_worst.append(drifts[-1] == max(drifts))
        # some sample drifts most before its last round
        assert not all(last_is_worst)

    def test_pool_rejects_mismatched_ids(self):
        params = [swap_params()] * 2
        innates = np.full((2, 2, 2), 0.5)
        with pytest.raises(ShapeMismatch):
            simulate_pool(params, innates, 1, sample_ids=["a"], correct_labels=[0, 1])
        with pytest.raises(ShapeMismatch):
            simulate_pool(params, innates, 1, sample_ids=["a", "b"], correct_labels=[0])
        with pytest.raises(ShapeMismatch):
            simulate_pool(params[:1], innates, 1, sample_ids=["a", "b"], correct_labels=[0, 1])
        with pytest.raises(ShapeMismatch):
            simulate_pool(
                params, np.full((2, 3, 2), 0.5), 1, sample_ids=["a", "b"], correct_labels=[0, 1]
            )
        # one parameter set of the wrong size, among sets that fit
        rng = np.random.default_rng(3)
        mixed = [random_contractive(rng, n=2, d=2)[0], random_contractive(rng, n=3, d=2)[0]]
        with pytest.raises(ShapeMismatch):
            simulate_pool(mixed, innates, 1, sample_ids=["a", "b"], correct_labels=[0, 1])


class TestEquilibrium:
    def test_swap_influence_matrix(self):
        m = influence_weights(swap_params())
        np.testing.assert_allclose(
            m, [[2.0 / 3.0, 1.0 / 3.0], [1.0 / 3.0, 2.0 / 3.0]], atol=1e-12
        )

    def test_neumann_series_oracle(self):
        rng = np.random.default_rng(4)
        params, _ = random_contractive(rng)
        h = build_h(params)
        series = np.zeros_like(h)
        power = np.eye(params.n)
        for _ in range(400):
            series += power
            power = power @ h
        expected = series @ np.diag(params.gamma)
        np.testing.assert_allclose(influence_weights(params), expected, atol=1e-10)

    def test_equilibrium_is_fixed_point(self):
        rng = np.random.default_rng(5)
        params, innate = random_contractive(rng)
        fixed = equilibrium(params, innate)
        np.testing.assert_allclose(fj_step(params, innate, fixed), fixed, atol=1e-10)

    def test_equilibrium_matches_settle(self):
        rng = np.random.default_rng(6)
        params, innate = random_contractive(rng)
        np.testing.assert_allclose(
            equilibrium(params, innate), settle(params, innate), atol=1e-9
        )

    def test_equilibrium_from_influence_matrix(self):
        rng = np.random.default_rng(7)
        params, innate = random_contractive(rng)
        np.testing.assert_allclose(
            influence_weights(params) @ innate,
            equilibrium(params, innate),
            atol=1e-10,
        )

    def test_non_contractive_rejected(self):
        params = swap_params(gamma=0.0)
        innate = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(NotContractive):
            equilibrium(params, innate)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    def test_zero_stubbornness_agent_with_peers(self, seed, n):
        # one agent with gamma = 0 puts a unit row sum in H, so the
        # infinity-norm bound on rho is 1, yet peers keep rho below 1
        rng = np.random.default_rng(seed)
        params, innate = random_contractive(rng, n=n)
        gamma = params.gamma.copy()
        gamma[rng.integers(n)] = 0.0
        params = make_params(gamma, params.alpha, params.w)
        m = influence_weights(params)
        assert m.min() >= 0.0
        np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-10)
        np.testing.assert_allclose(equilibrium(params, innate), m @ innate, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    def test_linearity_in_innate(self, seed, mix):
        # B*(mix S1 + (1-mix) S2) = mix B*(S1) + (1-mix) B*(S2)
        rng = np.random.default_rng(seed)
        params, innate1 = random_contractive(rng)
        innate2 = rng.dirichlet(np.ones(3), size=4)
        blended = mix * innate1 + (1.0 - mix) * innate2
        lhs = equilibrium(params, blended)
        rhs = mix * equilibrium(params, innate1) + (1.0 - mix) * equilibrium(
            params, innate2
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestAggregatePi:
    def test_uniform_readout_averages_columns(self):
        m = influence_weights(swap_params())
        pi = aggregate_pi(m)
        np.testing.assert_allclose(pi, m.mean(axis=0), atol=1e-12)

    def test_custom_readout(self):
        m = influence_weights(swap_params())
        eta = np.array([1.0, 0.0])
        pi = aggregate_pi(m, eta)
        np.testing.assert_allclose(pi, m[0], atol=1e-12)

    def test_rejects_bad_eta_shape(self):
        m = influence_weights(swap_params())
        with pytest.raises(ShapeMismatch):
            aggregate_pi(m, np.array([1.0, 0.0, 0.0]))

    def test_accepts_simplex_pair(self):
        pi = aggregate_pi(np.array([[0.2, 0.8], [0.2, 0.8]]), np.array([0.5, 0.5]))
        assert pi.shape == (2,)
        assert pi[1] == pytest.approx(0.8)

    def test_rejects_non_simplex(self):
        with pytest.raises((WeightNotSimplex, NegativeEntry, ShapeMismatch)):
            aggregate_pi(np.eye(2), np.array([0.5, 0.6]))

    def test_rejects_non_finite(self):
        with pytest.raises(WeightNotSimplex, match="eta has a non-finite"):
            aggregate_pi(np.eye(2), np.array([np.nan, 0.5]))
        with pytest.raises(WeightNotSimplex, match="pi has a non-finite"):
            aggregate_pi(np.array([[np.nan, 0.5], [0.5, 0.5]]))
