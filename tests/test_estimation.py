import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fjlab.dynamics import simulate
from fjlab.errors import (
    ConfigError,
    DegenerateTrajectory,
    EmptyInput,
    InsufficientSamples,
)
from fjlab import estimation
from fjlab.estimation import (
    _TERMINATIONS,
    FitConfig,
    _lstsq,
    _quartile,
    _simplex_lsq,
    _solve,
    fit_global,
    fit_objective,
    fit_pools,
    fit_sample,
    fit_samples,
    one_step_predictions,
    parameter_variability,
)
from fjlab.model import DeliberationTrajectory, FJParameters


def make_params(rng, n):
    w = rng.uniform(0.1, 1.0, (n, n))
    np.fill_diagonal(w, 0.0)
    w /= w.sum(axis=1, keepdims=True)
    return FJParameters(
        gamma=rng.uniform(0.2, 0.8, n),
        alpha=rng.uniform(0.2, 0.8, n),
        w=w,
        mask=FJParameters.complete_mask(n),
    )


def make_traj(seed=0, n=4, d=3, rounds=6, params=None):
    rng = np.random.default_rng(seed)
    if params is None:
        params = make_params(rng, n)
    innate = rng.dirichlet(np.ones(d), size=n)
    return params, simulate(params, innate, rounds, sample_id=f"s{seed}")


class TestPredictions:
    def test_one_step_matches_direct_update(self):
        params, traj = make_traj(seed=3)
        pred = one_step_predictions(params, traj)
        assert pred.shape == (traj.rounds, traj.n, traj.d)
        gamma, alpha = params.gamma, params.alpha
        for t in range(traj.rounds):
            current = traj.snapshots[t]
            expected = (
                gamma[:, None] * traj.innate
                + ((1 - gamma) * alpha)[:, None] * current
                + ((1 - gamma) * (1 - alpha))[:, None] * (params.w @ current)
            )
            np.testing.assert_allclose(pred[t], expected, atol=1e-12)

    def test_true_params_have_zero_objective(self):
        params, traj = make_traj(seed=4)
        assert fit_objective(params, traj, "mse") == pytest.approx(0.0, abs=1e-24)
        assert fit_objective(params, traj, "kl") == pytest.approx(0.0, abs=1e-12)

    def test_kl_of_known_pair(self):
        # observed (1, 0) against predicted (1/2, 1/2) gives ln 2
        params = FJParameters(
            gamma=np.array([0.0]),
            alpha=np.array([1.0]),
            w=np.zeros((1, 1)),
            mask=FJParameters.complete_mask(1),
        )
        snaps = np.array([[[0.5, 0.5]], [[1.0, 0.0]]])
        traj = DeliberationTrajectory(snapshots=snaps)
        assert fit_objective(params, traj, "kl") == pytest.approx(
            np.log(2.0), abs=1e-12
        )


def coefficients(params, i):
    """Agent i's simplex coefficients; a lone sink entry stands in for an
    empty neighbourhood."""
    g, a = params.gamma[i], params.alpha[i]
    peers = np.flatnonzero(params.mask[i])
    shares = params.w[i, peers] if peers.size else np.ones(1)
    return np.concatenate([[g, (1.0 - g) * a], (1.0 - g) * (1.0 - a) * shares])


def agent_rows(traj, i, peers):
    """Columns s_i, b_i(t) and b_j(t) for each peer j; targets b_i(t+1)."""
    snaps = traj.snapshots
    cols = [np.broadcast_to(snaps[0, i], snaps[1:, i].shape), snaps[:-1, i]]
    cols += [snaps[:-1, j] for j in peers]
    return np.stack([col.ravel() for col in cols], axis=1), snaps[1:, i].ravel()


def centre_of(peers):
    return np.array([0.5, 0.25] + [0.25 / len(peers)] * len(peers))


def noisy_traj(seed, n=4, d=3, rounds=8):
    """A trajectory that no parameters reproduce exactly."""
    _, traj = make_traj(seed=seed, n=n, d=d, rounds=rounds)
    rng = np.random.default_rng(seed)
    snaps = traj.snapshots + rng.uniform(0.0, 0.1, traj.snapshots.shape)
    snaps /= snaps.sum(axis=2, keepdims=True)
    return DeliberationTrajectory(snapshots=snaps, sample_id=f"noisy{seed}")


def parameter_error(fitted, true):
    return max(
        np.abs(fitted.gamma - true.gamma).max(),
        np.abs(fitted.alpha - true.alpha).max(),
        np.abs(fitted.w - true.w).max(),
    )


def reference_simplex_lsq(a, r, x):
    """The per-problem active set the batched solver replaced: each face by lstsq."""
    free = x > 0.0
    slack = 1e-13 * np.abs(a).max() * np.abs(r).max()
    for _ in range(4 * x.size):
        *others, last = np.flatnonzero(free)
        z = np.linalg.lstsq(a[:, others] - a[:, [last]], r - a[:, last])[0]
        target = np.zeros_like(x)
        target[others] = z
        target[last] = 1.0 - z.sum()
        leaving = target < 0.0
        if leaving.any():
            ratios = np.where(leaving, x / np.where(leaving, x - target, 1.0), np.inf)
            t = float(ratios.min())
            x = (1.0 - t) * x + t * target
            bound = free & ((x <= 0.0) | (ratios == t))
            x[bound] = 0.0
            free &= ~bound
            continue
        x = target
        grad = a.T @ (a @ x - r)
        mult = np.where(free, np.inf, grad - grad[free].mean())
        j = int(np.argmin(mult))
        if mult[j] >= -slack:
            break
        free[j] = True
    return x


def reference_fit(x, y, weight, centre, config):
    """One problem's kl fit by the per-problem Newton loop the batched solver
    replaced, on data with every y > 0; returns (c, iterations, termination)."""
    lam = config.reg_lambda
    ridge = np.sqrt(lam) * np.eye(centre.size)
    a_mse = np.vstack([np.sqrt(weight)[:, None] * x, ridge])
    r_mse = np.concatenate([np.sqrt(weight) * y, ridge @ centre])
    mass = weight * y
    r_kl = np.concatenate([2.0 * np.sqrt(mass), np.sqrt(2.0) * ridge @ centre])

    def kl(c):
        p = x @ c
        inv_p = 1.0 / p
        value = mass @ (np.log(y) - np.log(np.maximum(p, 1e-12)))
        grad = -x.T @ (mass * inv_p) + 2.0 * lam * (c - centre)
        a = np.vstack([(np.sqrt(mass) * inv_p)[:, None] * x, np.sqrt(2.0) * ridge])
        return float(value + lam * ((c - centre) ** 2).sum()), grad, a, r_kl

    c = reference_simplex_lsq(a_mse, r_mse, centre)
    f, grad, a, r = kl(c)
    for it in range(config.max_iters):
        target = reference_simplex_lsq(a, r, c)
        decrement = -float(grad @ (target - c))
        if decrement <= config.tol:
            return c, it, "converged"
        t = 1.0
        while t >= 1e-10 and kl((1.0 - t) * c + t * target)[0] >= f - 1e-4 * t * decrement:
            t *= 0.5
        if t < 1e-10:
            return c, it, "step_underflow"
        c = (1.0 - t) * c + t * target
        f, grad, a, r = kl(c)
    return c, config.max_iters, "max_iters"


class TestSolver:
    @pytest.mark.parametrize("seed", range(8))
    def test_batch_matches_the_per_problem_reference(self, seed):
        # every agent of three noisy samples, one stack, bit for bit
        rng = np.random.default_rng(seed)
        n, d, rounds = int(rng.integers(2, 6)), int(rng.integers(2, 5)), int(rng.integers(2, 9))
        trajs = [noisy_traj(100 + 10 * seed + k, n=n, d=d, rounds=rounds) for k in range(3)]
        centre = centre_of(range(n - 1))
        peers = [[j for j in range(n) if j != i] for i in range(n)]
        problems = [agent_rows(t, i, peers[i]) for t in trajs for i in range(n)]
        x, y = (np.stack(arrays) for arrays in zip(*problems))
        weight = np.full(y.shape, 1.0 / (rounds * n))
        config = FitConfig(max_iters=int(rng.integers(1, 6)))
        c, _, steps, status, _ = _solve(x, y, weight, centre, config)
        for j in range(len(problems)):
            ref, iterations, termination = reference_fit(x[j], y[j], weight[j], centre, config)
            assert (steps[j], _TERMINATIONS[status[j]]) == (iterations, termination)
            np.testing.assert_array_equal(c[j], ref)

    @pytest.mark.parametrize("objective, tol", [("mse", 1e-12), ("kl", 1e-8)])
    def test_kkt_conditions_hold_at_returned_coefficients(self, objective, tol):
        traj = noisy_traj(21)
        lam = 1e-4
        config = FitConfig(objective=objective, reg_lambda=lam, tol=1e-16)
        report = fit_sample(traj, config)
        assert report.termination == "converged"
        assert report.kkt_residual <= tol
        n, d, t = traj.n, traj.d, traj.rounds
        scale = t * n * (d if objective == "mse" else 1)
        bound = 0
        for i in range(n):
            peers = [j for j in range(n) if j != i]
            x, y = agent_rows(traj, i, peers)
            c = coefficients(report.params, i)
            if objective == "mse":
                grad = 2.0 * x.T @ (x @ c - y) / scale
            else:
                grad = -x.T @ (y / (x @ c)) / scale
            grad += 2.0 * lam * (c - centre_of(peers))
            free = c > 0.0
            level = grad[free].mean()
            # equal slopes along the free coordinates, none steeper outside
            assert np.abs(grad[free] - level).max() <= tol
            assert np.all(grad[~free] >= level - tol)
            bound += int((~free).sum())
        assert bound > 0

    @pytest.mark.parametrize("objective", ["kl", "mse"])
    def test_pooled_fit_matches_one_fit_of_the_stacked_rows(self, objective):
        trajs = [noisy_traj(30, rounds=5), noisy_traj(31, rounds=7)]
        config = FitConfig(objective=objective)
        report = fit_global(trajs, config)
        n, d = 4, 3
        per_row = [2 * t.rounds * n * (d if objective == "mse" else 1) for t in trajs]
        for i in range(n):
            peers = [j for j in range(n) if j != i]
            rows = [agent_rows(t, i, peers) for t in trajs]
            x = np.vstack([x for x, _ in rows])
            y = np.concatenate([y for _, y in rows])
            weight = np.concatenate(
                [np.full(y.size, 1.0 / k) for (_, y), k in zip(rows, per_row)]
            )
            c = _solve(x[None], y[None], weight[None], centre_of(peers), config)[0][0]
            np.testing.assert_allclose(coefficients(report.params, i), c, atol=1e-12)

    def test_mixed_batch_matches_each_problem_alone(self):
        # one stack of k = 3 problems of 24 rows: a complete mask (two
        # agents), an empty neighbourhood's sink column, a flat and
        # rank-deficient design, and a noisy one that needs more than the
        # one iteration allowed
        _, pair = make_traj(seed=60, n=2, d=3, rounds=8)
        mask = FJParameters.complete_mask(3)
        mask[2] = False
        lone = FJParameters(
            gamma=np.array([0.3, 0.5, 0.4]),
            alpha=np.array([0.6, 0.2, 0.5]),
            w=np.array([[0.0, 0.4, 0.6], [0.7, 0.0, 0.3], [0.0, 0.0, 0.0]]),
            mask=mask,
        )
        sink_traj = simulate(lone, np.random.default_rng(40).dirichlet(np.ones(3), size=3), 8)
        x_sink, y_sink = agent_rows(sink_traj, 2, [])
        flat = np.tile([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3]], (9, 1, 1))
        flat = DeliberationTrajectory(snapshots=flat)
        problems = [
            agent_rows(pair, 0, [1]),
            (np.hstack([x_sink, np.zeros((24, 1))]), y_sink),
            agent_rows(flat, 0, [1]),
            agent_rows(noisy_traj(61, n=2), 0, [1]),
        ]
        x, y = (np.stack(arrays) for arrays in zip(*problems))
        weight = np.repeat([[1.0 / 16], [1.0 / 24], [1.0 / 16], [1.0 / 16]], 24, axis=1)
        config = FitConfig(objective="kl", reg_lambda=0.0, max_iters=1)
        c, curve, steps, status, residual = _solve(x, y, weight, centre_of([1]), config)
        assert [_TERMINATIONS[k] for k in status] == ["converged"] * 3 + ["max_iters"]
        assert list(steps) == [0, 0, 0, 1]
        for j in range(4):
            alone = _solve(x[j : j + 1], y[j : j + 1], weight[j : j + 1], centre_of([1]), config)
            np.testing.assert_array_equal(c[j], alone[0][0])
            np.testing.assert_array_equal(curve[: steps[j] + 1, j], alone[1][:, 0])
            assert (steps[j], status[j], residual[j]) == (alone[2][0], alone[3][0], alone[4][0])

    def test_empty_neighbourhood_uses_the_sink(self):
        mask = FJParameters.complete_mask(3)
        mask[2] = False
        params = FJParameters(
            gamma=np.array([0.3, 0.5, 0.4]),
            alpha=np.array([0.6, 0.2, 0.5]),
            w=np.array([[0.0, 0.4, 0.6], [0.7, 0.0, 0.3], [0.0, 0.0, 0.0]]),
            mask=mask,
        )
        innate = np.random.default_rng(40).dirichlet(np.ones(3), size=3)
        traj = simulate(params, innate, 8)
        fitted = fit_sample(traj, FitConfig(objective="mse", reg_lambda=0.0), mask=mask).params
        assert np.all(fitted.w[~mask] == 0.0)
        assert np.abs(fitted.gamma[:2] - params.gamma[:2]).max() <= 1e-8
        assert np.abs(fitted.alpha[:2] - params.alpha[:2]).max() <= 1e-8
        assert np.abs(fitted.w - params.w).max() <= 1e-8
        # simulate renormalizes agent 2's short rows, so it keeps its innate
        # belief, which an exact fit reproduces only with an empty sink
        assert (1.0 - fitted.gamma[2]) * (1.0 - fitted.alpha[2]) == pytest.approx(0.0, abs=1e-8)
        # On flat data agent 2 predicts (1 - s) b with sink coefficient s,
        # which costs s^2 / 27 of squared error against 1.5 lam (s - 1/4)^2
        # of regularizer once gamma and alpha share the remaining shift.
        lam = 1e-3
        flat = DeliberationTrajectory(snapshots=np.full((4, 3, 3), 1.0 / 3.0))
        centred = fit_sample(flat, FitConfig(objective="mse", reg_lambda=lam), mask=mask)
        sink = 0.75 * lam / (2.0 / 27.0 + 3.0 * lam)
        own = 0.25 + (0.25 - sink) / 2.0
        assert np.all(centred.params.w[2] == 0.0)
        assert centred.params.alpha[2] == pytest.approx(own / (own + sink), abs=1e-12)

    @pytest.mark.parametrize("objective", ["kl", "mse"])
    def test_flat_trajectory_returns_the_centre(self, objective):
        snaps = np.tile(np.array([0.2, 0.3, 0.5]), (5, 3, 1))
        traj = DeliberationTrajectory(snapshots=snaps)
        report = fit_sample(traj, FitConfig(objective=objective, reg_lambda=1e-3))
        assert report.flat
        np.testing.assert_allclose(report.params.gamma, 0.5, atol=1e-12)
        np.testing.assert_allclose(report.params.alpha, 0.5, atol=1e-12)
        np.testing.assert_allclose(report.params.w, (1.0 - np.eye(3)) / 2.0, atol=1e-12)
        with pytest.raises(DegenerateTrajectory):
            fit_sample(traj, FitConfig(objective=objective, reg_lambda=0.0))

    def test_kl_skips_a_start_that_predicts_observed_mass_as_zero(self):
        # The exact mse fit gives an agent no mass on a label it observes,
        # where the floored log has no gradient to leave from.
        snaps = np.array(
            [
                [[0.8, 0.2], [0.1, 0.9]],
                [[1.0, 0.0], [0.9999996, 4e-7]],
                [[1.0, 0.0], [0.97, 0.03]],
            ]
        )
        traj = DeliberationTrajectory(snapshots=snaps)
        mse_fit = fit_sample(traj, FitConfig(objective="mse", reg_lambda=0.0))
        report = fit_sample(traj, FitConfig(objective="kl", reg_lambda=0.0))
        assert report.kl < 0.5 * fit_objective(mse_fit.params, traj, "kl")
        assert report.kkt_residual <= 1e-8
        assert not np.signbit(report.params.gamma).any()

    @pytest.mark.parametrize("objective", ["kl", "mse"])
    def test_rank_deficient_design_still_fits(self, objective):
        # one round gives each agent d = 3 rows for 5 coefficients
        _, traj = make_traj(seed=50, n=4, d=3, rounds=1)
        report = fit_sample(traj, FitConfig(objective=objective, reg_lambda=0.0))
        assert isinstance(report.params, FJParameters)
        assert report.termination == "converged"
        assert report.mse < 1e-20


def simplex_stack(seed, b, rows, k):
    """A stack of b problems (a, r, feasible x) whose first active-set pass
    mixes face sizes: problem 0 starts at a vertex (one free coordinate),
    problem 1 inside the simplex, the rest on random faces; every other
    problem has a zero column and the others a duplicate column."""
    rng = np.random.default_rng(seed)
    a, r = rng.normal(size=(b, rows, k)), rng.normal(size=(b, rows))
    a[::2, :, rng.integers(k)] = 0.0
    i, j = rng.integers(k, size=2)
    a[1::2, :, i] = a[1::2, :, j]
    x = rng.dirichlet(np.ones(k), size=b) * (rng.random((b, k)) < 0.6)
    x[np.arange(b), rng.integers(k, size=b)] += 0.5
    x[0], x[1] = np.eye(k)[rng.integers(k)], 1.0
    return a, r, x / x.sum(axis=1, keepdims=True)


def same_bits(got, want):
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestStackedFaces:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 10),
        st.integers(1, 12),
        st.integers(2, 9),
    )
    def test_stack_matches_the_per_problem_reference_bitwise(self, seed, b, rows, k):
        # rows from 1, so faces with fewer rows than free columns come up
        a, r, x = simplex_stack(seed, b, rows, k)
        got = _simplex_lsq(a, r, x)
        for p in range(b):
            same_bits(got[p], reference_simplex_lsq(a[p], r[p], x[p]))

    def test_passes_stack_faces_by_size(self, monkeypatch):
        a, r, x = simplex_stack(3, 12, 4, 7)
        shapes = []

        def record(face, rhs):
            shapes.append(face.shape)
            return _lstsq(face, rhs)

        monkeypatch.setattr(estimation, "_lstsq", record)
        got = _simplex_lsq(a, r, x)
        for p in range(12):
            same_bits(got[p], reference_simplex_lsq(a[p], r[p], x[p]))
        assert any(g > 1 for g, _, _ in shapes)
        assert len({cols for _, _, cols in shapes}) > 2
        assert any(rows < cols for _, rows, cols in shapes)

    @pytest.mark.parametrize("seed", range(4))
    def test_each_face_of_a_stack_gets_its_lstsq_bits(self, seed):
        rng = np.random.default_rng(seed)
        face, rhs = rng.normal(size=(5, 3 + seed, 4)), rng.normal(size=(5, 3 + seed))
        face[1, :, 2] = face[1, :, 0]
        got = _lstsq(face, rhs)
        for g in range(5):
            same_bits(got[g], np.linalg.lstsq(face[g], rhs[g])[0])

    def test_rank_cutoff_is_lstsqs(self):
        # singular values 1 and 1e-15 on 8 rows: lstsq's cutoff, 8 eps, drops
        # the second, so the solution stays of order 1
        rng = np.random.default_rng(0)
        u = np.linalg.qr(rng.normal(size=(3, 8, 2)))[0]
        v = np.linalg.qr(rng.normal(size=(3, 2, 2)))[0]
        face, rhs = u * np.array([1.0, 1e-15]) @ v.transpose(0, 2, 1), rng.normal(size=(3, 8))
        got = _lstsq(face, rhs)
        for g in range(3):
            same_bits(got[g], np.linalg.lstsq(face[g], rhs[g])[0])
        assert np.abs(got).max() < 10.0

    def test_a_nan_face_raises_lstsqs_error(self):
        a, r, x = simplex_stack(5, 4, 6, 4)
        a[1, 3, 1] = np.nan  # problem 1's first face holds every coordinate
        with pytest.raises(np.linalg.LinAlgError) as alone:
            np.linalg.lstsq(a[1, :, :3] - a[1, :, 3:], r[1] - a[1, :, 3])
        with pytest.raises(np.linalg.LinAlgError) as stacked:
            _simplex_lsq(a, r, x)
        assert str(stacked.value) == str(alone.value)
        assert str(alone.value) == "SVD did not converge in Linear Least Squares"


class TestFitConfig:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"objective": "foo"}, "objective must be 'kl' or 'mse', got 'foo'"),
            ({"max_iters": 0}, "max_iters and restarts must be positive"),
            ({"restarts": 0}, "max_iters and restarts must be positive"),
            ({"reg_lambda": -1e-3}, "reg_lambda must be finite and nonnegative, got -0.001"),
            ({"reg_lambda": np.nan}, "reg_lambda must be finite and nonnegative, got nan"),
            ({"reg_lambda": np.inf}, "reg_lambda must be finite and nonnegative, got inf"),
            ({"tol": -1e-12}, "tol must be finite and nonnegative, got -1e-12"),
            ({"tol": np.nan}, "tol must be finite and nonnegative, got nan"),
            ({"tol": np.inf}, "tol must be finite and nonnegative, got inf"),
        ],
    )
    def test_bad_setting_is_a_config_error(self, kwargs, message):
        with pytest.raises(ConfigError) as info:
            FitConfig(**kwargs)
        assert str(info.value) == message

    def test_fit_objective_rejects_an_unknown_objective_alike(self):
        params, traj = make_traj()
        with pytest.raises(ConfigError) as info:
            fit_objective(params, traj, "foo")
        assert str(info.value) == "objective must be 'kl' or 'mse', got 'foo'"


class TestFitSample:
    def test_recovers_predictions(self):
        params, traj = make_traj(seed=7, n=4, d=3, rounds=8)
        config = FitConfig(
            objective="kl", max_iters=1500, tol=1e-16, reg_lambda=0.0, restarts=2
        )
        report = fit_sample(traj, config)
        assert report.mse < 1e-6
        assert report.sample_id == traj.sample_id

    def test_objective_curve_non_increasing(self):
        _, traj = make_traj(seed=8)
        report = fit_sample(traj, FitConfig(max_iters=200, restarts=1))
        curve = np.array(report.objective_curve)
        assert curve.size >= 2
        assert np.all(np.diff(curve) <= 0.0)

    def test_bitwise_deterministic(self):
        _, traj = make_traj(seed=9)
        config = FitConfig(max_iters=150, restarts=2)
        a = fit_sample(traj, config)
        b = fit_sample(traj, config)
        assert a.params.gamma.tobytes() == b.params.gamma.tobytes()
        assert a.params.alpha.tobytes() == b.params.alpha.tobytes()
        assert a.params.w.tobytes() == b.params.w.tobytes()
        assert a.objective_curve == b.objective_curve

    def test_flat_trajectory_needs_regularizer(self):
        snaps = np.tile(np.full((2, 2), 0.5), (4, 1, 1))
        traj = DeliberationTrajectory(snapshots=snaps)
        with pytest.raises(DegenerateTrajectory):
            fit_sample(traj, FitConfig(reg_lambda=0.0, max_iters=10))
        report = fit_sample(traj, FitConfig(reg_lambda=1e-3, max_iters=10))
        assert report.flat

    def test_mask_restricts_weights(self):
        params, traj = make_traj(seed=11, n=3)
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 1] = mask[1, 0] = True
        report = fit_sample(traj, FitConfig(max_iters=60, restarts=1), mask=mask)
        assert np.all(report.params.w[~mask] == 0.0)
        assert report.params.w[2].sum() == 0.0

    @pytest.mark.parametrize("seed", [1, 4])
    def test_mixed_degree_mask_curve_spans_the_longest_run(self, seed, monkeypatch):
        # degrees 2, 2 and 0 solve in two stacks, which stop at different steps
        mask = FJParameters.complete_mask(3)
        mask[2] = False
        steps, solve = [], estimation._solve

        def recorded(*args):
            out = solve(*args)
            steps.extend(out[2].tolist())
            return out

        monkeypatch.setattr(estimation, "_solve", recorded)
        report = fit_sample(noisy_traj(seed, n=3), FitConfig(objective="kl"), mask=mask)
        assert len(set(steps)) > 1
        assert len(report.objective_curve) == 1 + max(steps)


class TestBatchedFits:
    def test_batch_equals_one_fit_at_a_time(self):
        # samples of different lengths and shapes fit as they do alone, bit for bit
        trajs = [noisy_traj(70, rounds=5), noisy_traj(71, n=3, d=4), noisy_traj(72, d=2, rounds=3)]
        trajs.append(noisy_traj(73))
        pools = [trajs[:1], [noisy_traj(74), noisy_traj(75, rounds=4)], trajs[1:2]]
        batched = fit_samples(trajs) + fit_pools(pools)
        alone = [fit_sample(t) for t in trajs] + [fit_global(pool) for pool in pools]
        for report, single in zip(batched, alone):
            assert report.sample_id == single.sample_id
            for name in ("termination", "kkt_residual", "kl", "mse", "objective_curve"):
                assert getattr(report, name) == getattr(single, name)
            for name in ("gamma", "alpha", "w"):
                got, want = getattr(report.params, name), getattr(single.params, name)
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("objective", ["kl", "mse"])
    def test_reported_objectives_are_fit_objective(self, objective):
        trajs = [noisy_traj(80, rounds=5), noisy_traj(81), noisy_traj(82, d=4)]
        config = FitConfig(objective=objective)
        reports = fit_samples(trajs, config) + fit_pools([trajs[:2], trajs], config)
        groups = [[t] for t in trajs] + [trajs[:2], trajs]
        for report, group in zip(reports, groups):
            for name, reported in (("kl", report.kl), ("mse", report.mse)):
                again = np.mean([fit_objective(report.params, t, name) for t in group])
                assert reported == pytest.approx(again, rel=1e-15, abs=0.0)
            pred = [one_step_predictions(report.params, t) for t in group]
            direct = np.mean([((p - t.snapshots[1:]) ** 2).mean() for p, t in zip(pred, group)])
            assert report.mse == pytest.approx(direct, rel=1e-15, abs=0.0)


class TestFitGlobal:
    def test_shares_parameters_across_samples(self):
        rng = np.random.default_rng(12)
        params = make_params(rng, 4)
        trajs = []
        for k in range(3):
            innate = rng.dirichlet(np.ones(3), size=4)
            trajs.append(simulate(params, innate, 6, sample_id=f"g{k}"))
        config = FitConfig(
            objective="kl", max_iters=1500, tol=1e-16, reg_lambda=0.0, restarts=2
        )
        report = fit_global(trajs, config)
        assert report.mse < 1e-6
        assert report.sample_id == "global"

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            fit_global([], FitConfig(max_iters=10))


def criterion_07_systems():
    """The 20 exact systems of acceptance criterion 07, drawn the same way."""
    rng = np.random.default_rng(20250818)
    systems = []
    for k in range(20):
        n, d = 5, 4
        w = rng.uniform(0.1, 1.0, (n, n))
        np.fill_diagonal(w, 0.0)
        w /= w.sum(axis=1, keepdims=True)
        params = FJParameters(
            gamma=rng.uniform(0.15, 0.85, n),
            alpha=rng.uniform(0.15, 0.85, n),
            w=w,
            mask=FJParameters.complete_mask(n),
        )
        innate = rng.dirichlet(np.ones(d), size=n)
        systems.append((params, simulate(params, innate, 8, sample_id=f"rec-{k:02d}")))
    return systems


class TestRecovery:
    @pytest.mark.parametrize("objective", ["kl", "mse"])
    def test_criterion_07_systems_recover_parameters(self, objective):
        config = FitConfig(objective=objective, reg_lambda=0.0)
        worst = max(
            parameter_error(fit_sample(traj, config).params, params)
            for params, traj in criterion_07_systems()
        )
        assert worst <= 1e-8

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 6),
        st.integers(2, 5),
        st.integers(0, 4),
        st.sampled_from(["kl", "mse"]),
    )
    def test_exact_trajectories_recover_parameters(self, seed, n, d, extra, objective):
        rng = np.random.default_rng(seed)
        params = make_params(rng, n)
        traj = simulate(params, rng.dirichlet(np.ones(d), size=n), n + 2 + extra)
        report = fit_sample(traj, FitConfig(objective=objective, reg_lambda=0.0))
        assert parameter_error(report.params, params) <= 1e-7


class TestVariability:
    def _report_with(self, gamma, alpha):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        params = FJParameters(
            gamma=np.asarray(gamma),
            alpha=np.asarray(alpha),
            w=w,
            mask=FJParameters.complete_mask(2),
        )
        from fjlab.estimation import FitReport

        return FitReport(
            params=params, kl=0.0, mse=0.0, objective_curve=[0.0], restart_index=0
        )

    def test_known_spread(self):
        reports = [
            self._report_with([0.2, 0.5], [0.3, 0.3]),
            self._report_with([0.4, 0.5], [0.7, 0.3]),
        ]
        spread = parameter_variability(reports)
        mean, std, iqr = spread.per_parameter["gamma_0"]
        assert mean == pytest.approx(0.3)
        assert std == pytest.approx(0.1)  # population std of (0.2, 0.4)
        assert iqr == pytest.approx(0.1)
        mean1, std1, _ = spread.per_parameter["gamma_1"]
        assert mean1 == pytest.approx(0.5)
        assert std1 == pytest.approx(0.0)
        # swap matrix: each agent's single incoming weight is 1
        mean_w, std_w, _ = spread.per_parameter["w_in_0"]
        assert mean_w == pytest.approx(1.0)
        assert std_w == pytest.approx(0.0)
        assert spread.n_reports == 2

    def test_quartiles_are_np_percentile_bit_for_bit(self):
        rng = np.random.default_rng(90)
        for _ in range(2000):
            m = int(rng.integers(2, 40))
            # rounded draws give ties
            col = np.round(rng.uniform(0.0, 1.0, m), int(rng.integers(1, 17)))
            ordered = np.sort(col)[:, None]
            for q in (0.25, 0.75):
                assert _quartile(ordered, q)[0] == np.percentile(col, 100.0 * q)

    def test_iqr_is_the_percentile_spread(self):
        rng = np.random.default_rng(91)
        reports = [self._report_with(rng.uniform(0, 1, 2), rng.uniform(0, 1, 2)) for _ in range(7)]
        spread = parameter_variability(reports)
        for i in range(2):
            col = np.array([r.params.alpha[i] for r in reports])
            q25, q75 = np.percentile(col, [25.0, 75.0])
            assert spread.per_parameter[f"alpha_{i}"][2] == float(q75 - q25)

    def test_needs_two_reports(self):
        with pytest.raises(InsufficientSamples):
            parameter_variability([self._report_with([0.2, 0.5], [0.3, 0.3])])
