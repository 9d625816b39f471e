import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

from fjlab.config import SimulateConfig
from fjlab.errors import (
    ConfidenceOrderViolated,
    ConfigError,
    InvalidScenario,
    NoConvergence,
    UnbalancedScenario,
)
from fjlab import io as fio
from fjlab import scenarios
from fjlab.metrics import confidence_metrics
from fjlab.model import FJParameters
from fjlab.scenarios import (
    ExclusiveScenario,
    ImperfectScenario,
    draw_pools,
    empirical_route_crossover,
    exclusive_losses,
    gen_exclusive,
    gen_imperfect,
    imperfect_gap,
    moe_advantage_check,
    optimal_fixed_ensemble,
    per_sample_params,
    project_simplex,
    routing_error_threshold,
    uniform_mixture_profile,
    wrong_majority_holds,
)


def std_exclusive():
    return ExclusiveScenario(n=5, d=10, epsilon=0.1)


def std_imperfect():
    return ImperfectScenario(n=5, d=10, p=0.9, u=0.05, c=0.5)


def slsqp_fixed_ensemble(sc):
    """Reference optimum of l_ens over the simplex by a generic solver."""
    rho, p, u = sc.rho, sc.p, sc.u

    def objective(a):
        return -(rho * np.log(u + (p - u) * np.clip(a, 1e-300, None))).sum()

    ref = minimize(
        objective,
        np.full(sc.n, 1.0 / sc.n),
        method="SLSQP",
        bounds=[(0.0, 1.0)] * sc.n,
        constraints=[{"type": "eq", "fun": lambda a: a.sum() - 1.0}],
        options={"ftol": 1e-14, "maxiter": 500},
    )
    assert ref.success
    return ref.x, objective


def assert_kkt(sc, a, tol=1e-9):
    """a is on the simplex and stationary: the gradient of l_ens is one
    value nu on the support and at least nu off it."""
    assert a.min() >= 0.0
    assert a.sum() == pytest.approx(1.0, abs=1e-12)
    grad = -sc.rho * (sc.p - sc.u) / (sc.u + (sc.p - sc.u) * a)
    support = a > 0.0
    nu = grad[support].mean()
    np.testing.assert_allclose(grad[support], nu, atol=tol)
    assert np.all(grad[~support] >= nu - tol)


def bisect_crossover(sc, samples, seed, tol=1e-6):
    """The bisection the order statistic replaced: the same draws, the
    empirical routed loss stepped in delta, halved to tol."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    regions = rng.choice(sc.n, size=samples, p=sc.rho)
    rng.integers(0, sc.d, size=samples)
    noise = rng.uniform(size=samples)
    p, u = sc.p, sc.u
    a_star = np.full(sc.n, 1.0 / sc.n)
    target = float(-np.log(u + (p - u) * a_star[regions]).mean())
    loss_right, loss_wrong = -np.log(p), -np.log(u)

    def routed(delta):
        return float(np.where(noise < delta, loss_wrong, loss_right).mean())

    lo, hi = 0.0, 1.0
    assert routed(lo) < target < routed(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if routed(mid) > target:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestExclusiveScenario:
    def test_derived_masses(self):
        sc = std_exclusive()
        assert sc.p == pytest.approx(0.9)
        assert sc.u == pytest.approx(0.1)
        assert sc.balanced

    def test_epsilon_bounds(self):
        with pytest.raises(InvalidScenario):
            ExclusiveScenario(n=3, d=4, epsilon=0.0)
        with pytest.raises(InvalidScenario):
            ExclusiveScenario(n=3, d=4, epsilon=0.75)  # p would hit 1/d

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("site", ["rho", "weights"])
    def test_rejects_non_finite_entries(self, bad, site):
        with pytest.raises(InvalidScenario):
            if site == "rho":
                ExclusiveScenario(n=3, d=4, epsilon=0.1, rho=np.array([bad, 0.5, 0.5]))
            else:
                exclusive_losses(std_exclusive(), np.array([bad, 0.5, 0.5, 0.0, 0.0]))

    def test_frozen_balanced_gap(self):
        losses = exclusive_losses(std_exclusive(), np.full(5, 0.2))
        assert losses.gap_balanced == pytest.approx(1.2417, abs=1e-4)
        assert losses.gap_balanced == pytest.approx(math.log(0.9 / 0.26), abs=1e-12)

    def test_loss_components(self):
        sc = std_exclusive()
        losses = exclusive_losses(sc, np.full(5, 0.2))
        assert losses.l_moe == pytest.approx(-math.log(0.9), abs=1e-12)
        assert losses.l_ens == pytest.approx(-math.log(0.1 + 0.8 / 5.0), abs=1e-12)
        assert losses.gap_single == pytest.approx(
            (1.0 - 0.2) * math.log(0.9 / 0.1), abs=1e-12
        )

    def test_one_hot_weights_recover_single_agent(self):
        sc = std_exclusive()
        a = np.zeros(5)
        a[2] = 1.0
        losses = exclusive_losses(sc, a)
        # picking one agent: right region with mass rho_2, uniform elsewhere
        expected = -(0.2 * math.log(0.9) + 0.8 * math.log(0.1))
        assert losses.l_ens == pytest.approx(expected, abs=1e-12)

    def test_unbalanced_gap_is_none(self):
        sc = ExclusiveScenario(n=3, d=4, epsilon=0.1, rho=np.array([0.5, 0.25, 0.25]))
        losses = exclusive_losses(sc, np.full(3, 1.0 / 3.0))
        assert losses.gap_balanced is None
        assert not sc.balanced


class TestGenExclusive:
    def test_structure(self):
        sc = std_exclusive()
        sset = gen_exclusive(sc, 500, seed=1)
        beliefs, labels = sset.beliefs, sset.labels
        np.testing.assert_allclose(beliefs.sum(axis=2), 1.0, atol=1e-12)
        peak = beliefs.max(axis=2)
        competent = peak > 0.5
        assert np.all(competent.sum(axis=1) == 1)
        rows = np.argmax(peak, axis=1)
        idx = np.arange(500)
        np.testing.assert_allclose(beliefs[idx, rows, labels], sc.p, atol=1e-12)
        # everyone else is exactly uniform
        others = beliefs.copy()
        others[idx, rows, :] = 1.0 / sc.d
        np.testing.assert_allclose(others, 1.0 / sc.d, atol=1e-12)

    def test_bitwise_reproducible(self):
        sc = std_exclusive()
        a = gen_exclusive(sc, 200, seed=9)
        b = gen_exclusive(sc, 200, seed=9)
        assert a.beliefs.tobytes() == b.beliefs.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()
        c = gen_exclusive(sc, 200, seed=10)
        assert a.beliefs.tobytes() != c.beliefs.tobytes()

    def test_exact_risks_stored(self):
        sc = std_exclusive()
        sset = gen_exclusive(sc, 50, seed=2)
        assert sset.exact_risk
        plug_in = np.array(
            [
                [
                    float(((sset.beliefs[k, j] - np.eye(sc.d)[sset.labels[k]]) ** 2).sum())
                    for j in range(sc.n)
                ]
                for k in range(50)
            ]
        )
        np.testing.assert_allclose(sset.agent_risks(), plug_in, atol=1e-12)


class TestOptimalEnsemble:
    def test_balanced_returns_exact_uniform(self):
        a = optimal_fixed_ensemble(std_exclusive())
        np.testing.assert_array_equal(a, np.full(5, 0.2))

    def test_matches_slsqp_oracle_unbalanced(self):
        sc = ExclusiveScenario(n=3, d=6, epsilon=0.15, rho=np.array([0.5, 0.3, 0.2]))
        ours = optimal_fixed_ensemble(sc)
        ref, objective = slsqp_fixed_ensemble(sc)
        np.testing.assert_allclose(ours, ref, atol=1e-5)
        assert objective(ours) <= objective(ref) + 1e-10
        assert exclusive_losses(sc, ours).l_ens == pytest.approx(
            objective(ours), abs=1e-12
        )
        assert_kkt(sc, ours)

    def test_zero_weight_agent(self):
        # with rho = (.7, .25, .05) the third agent falls out of the support
        sc = ExclusiveScenario(n=3, d=10, epsilon=0.1, rho=np.array([0.7, 0.25, 0.05]))
        ours = optimal_fixed_ensemble(sc)
        assert ours[2] == 0.0
        # a_j = t rho_j - u / (p - u) on the support {0, 1}
        c = 0.1 / 0.8
        t = (1.0 + 2 * c) / 0.95
        np.testing.assert_allclose(ours, [0.7 * t - c, 0.25 * t - c, 0.0], atol=1e-15)
        ref, objective = slsqp_fixed_ensemble(sc)
        np.testing.assert_allclose(ours, ref, atol=1e-5)
        assert objective(ours) <= objective(ref) + 1e-10
        assert_kkt(sc, ours)

    @given(
        st.integers(2, 8),
        st.sampled_from([2, 4, 10]),
        st.floats(0.01, 0.45),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_kkt_on_random_rho(self, n, d, epsilon, seed):
        rng = np.random.default_rng(seed)
        # a sparse Dirichlet puts some regions near 0, so supports vary
        rho = rng.dirichlet(np.full(n, 0.5))
        sc = ExclusiveScenario(n=n, d=d, epsilon=epsilon, rho=rho)
        a = optimal_fixed_ensemble(sc)
        assert_kkt(sc, a)
        # the support is the regions with the largest rho
        if (a == 0.0).any():
            assert sc.rho[a > 0.0].min() >= sc.rho[a == 0.0].max()

    def test_balanced_grid_exactly_uniform(self):
        for n in range(2, 9):
            for d in (2, 4, 10):
                for eps in (0.05, 0.1, 0.3):
                    a = optimal_fixed_ensemble(ExclusiveScenario(n=n, d=d, epsilon=eps))
                    np.testing.assert_array_equal(a, np.full(n, 1.0 / n))

    def test_project_simplex(self):
        v = np.array([0.4, 0.3, 0.3])
        np.testing.assert_allclose(project_simplex(v), v, atol=1e-12)
        out = project_simplex(np.array([2.0, -1.0, 0.5]))
        assert out.min() >= 0.0
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0], atol=1e-12)

    def test_project_simplex_rows_of_a_stack(self):
        rng = np.random.default_rng(5)
        stack = rng.normal(0.0, 1.0, (4, 30, 6))
        stack[0, 0] = [0.5, 0.5, 0.0, 0.0, 0.0, 0.0]  # already on the simplex
        out = project_simplex(stack)
        for i, j in np.ndindex(stack.shape[:2]):
            assert out[i, j].tobytes() == project_simplex(stack[i, j]).tobytes()
            assert out[i, j].sum() == pytest.approx(1.0, abs=1e-12)


class TestRoutingThreshold:
    def test_frozen_value(self):
        assert routing_error_threshold(std_exclusive()) == pytest.approx(
            0.56513, abs=1e-4
        )

    def test_route_loss_endpoints(self):
        # delta = 0 is exact routing, which pays -ln p on every sample
        sc = std_exclusive()
        assert exclusive_losses(sc, np.full(5, 0.2)).l_moe == pytest.approx(
            -math.log(0.9), abs=1e-12
        )
        # delta = 1 always routes to an agent outside the sample's region: all
        # weight on agent 1 when every sample lies in agent 0's region pays -ln u
        wrong = ExclusiveScenario(n=5, d=10, epsilon=0.1, rho=np.eye(5)[0])
        assert exclusive_losses(wrong, np.eye(5)[1]).l_ens == pytest.approx(
            -math.log(0.1), abs=1e-12
        )

    def test_threshold_is_loss_crossover(self):
        sc = std_exclusive()
        delta = routing_error_threshold(sc)
        l_ens = exclusive_losses(sc, np.full(5, 0.2)).l_ens
        # routing that errs with probability delta pays -(1-delta) ln p - delta ln u
        l_route = -(1.0 - delta) * math.log(sc.p) - delta * math.log(sc.u)
        assert l_route == pytest.approx(l_ens, abs=1e-12)

    def test_requires_balanced(self):
        sc = ExclusiveScenario(n=3, d=4, epsilon=0.1, rho=np.array([0.5, 0.25, 0.25]))
        with pytest.raises(UnbalancedScenario):
            routing_error_threshold(sc)

    def test_empirical_crossover_near_theory(self):
        sc = std_exclusive()
        delta = empirical_route_crossover(sc, samples=100_000, seed=0)
        assert delta == pytest.approx(routing_error_threshold(sc), abs=0.01)

    @pytest.mark.parametrize(
        "n,d,epsilon", [(5, 10, 0.1), (3, 4, 0.2), (8, 2, 0.05), (2, 6, 0.3)]
    )
    def test_order_statistic_matches_bisection(self, n, d, epsilon):
        sc = ExclusiveScenario(n=n, d=d, epsilon=epsilon)
        for seed in range(4):
            delta = empirical_route_crossover(sc, samples=20_000, seed=seed)
            assert delta == pytest.approx(bisect_crossover(sc, 20_000, seed), abs=1e-6)

    @pytest.mark.parametrize("mass", [-0.1, 1.5], ids=["above", "below"])
    def test_crossover_needs_a_bracket(self, monkeypatch, mass):
        # a "mixture" that puts less than u (or more than p) on the true
        # label pays a target loss above -ln u (or below -ln p), outside
        # the routed-loss range, so no delta in (0, 1) crosses it
        monkeypatch.setattr(
            scenarios, "optimal_fixed_ensemble", lambda sc: np.full(sc.n, mass)
        )
        with pytest.raises(NoConvergence):
            empirical_route_crossover(std_exclusive(), samples=1_000, seed=0)

    def test_crossover_needs_samples(self):
        with pytest.raises(InvalidScenario):
            empirical_route_crossover(std_exclusive(), samples=0, seed=0)


class TestMoEAdvantage:
    def test_holds_on_grid(self):
        for n in (2, 4, 8):
            for d in (2, 4, 10):
                for eps in (0.05, 0.1, 0.3):
                    if eps >= 1.0 - 1.0 / d:
                        continue
                    assert moe_advantage_check(ExclusiveScenario(n=n, d=d, epsilon=eps))


class TestImperfectScenario:
    def test_frozen_gap(self):
        assert imperfect_gap(std_imperfect()) == pytest.approx(1.4088, abs=1e-4)
        assert imperfect_gap(std_imperfect()) == pytest.approx(
            math.log(0.9 / ((0.9 + 4 * 0.05) / 5.0)), abs=1e-12
        )

    def test_parameter_validation(self):
        with pytest.raises(InvalidScenario):
            ImperfectScenario(n=2, d=4, p=0.9, u=0.05, c=0.5)
        with pytest.raises(InvalidScenario):
            ImperfectScenario(n=5, d=4, p=0.2, u=0.05, c=0.5)  # p below 1/d
        with pytest.raises(InvalidScenario):
            ImperfectScenario(n=5, d=4, p=0.9, u=0.05, c=0.02)  # c below u
        with pytest.raises(InvalidScenario):
            ImperfectScenario(n=5, d=4, p=0.9, u=0.05)  # c required

    def test_binary_labels_force_c(self):
        sc = ImperfectScenario(n=4, d=2, p=0.8, u=0.3)
        assert sc.c == pytest.approx(0.7)
        with pytest.raises(InvalidScenario):
            ImperfectScenario(n=4, d=2, p=0.8, u=0.3, c=0.5)

    def test_wrong_majority_frozen_case(self):
        assert wrong_majority_holds(ImperfectScenario(n=5, d=4, p=0.9, u=0.05, c=0.7))

    def test_wrong_majority_can_fail(self):
        # shared wrong mass too small: the leftover labels win the mixture
        assert not wrong_majority_holds(
            ImperfectScenario(n=5, d=4, p=0.9, u=0.05, c=0.25)
        )

    def test_uniform_mixture_profile(self):
        sc = ImperfectScenario(n=5, d=4, p=0.9, u=0.05, c=0.7)
        mix = uniform_mixture_profile(sc)
        assert mix.sum() == pytest.approx(1.0, abs=1e-12)
        assert mix[0] == pytest.approx((0.9 + 4 * 0.05) / 5.0, abs=1e-12)
        assert int(np.argmax(mix)) == 1


class TestGenImperfect:
    def test_structure(self):
        sc = ImperfectScenario(n=5, d=4, p=0.9, u=0.05, c=0.7)
        sset = gen_imperfect(sc, 300, seed=3)
        beliefs, labels = sset.beliefs, sset.labels
        np.testing.assert_allclose(beliefs.sum(axis=2), 1.0, atol=1e-12)
        idx = np.arange(300)
        competent = np.argmax(beliefs.max(axis=2), axis=1)
        np.testing.assert_allclose(beliefs[idx, competent, labels], sc.p, atol=1e-12)
        wrong = (labels + 1) % sc.d
        others = np.ones((300, 5), dtype=bool)
        others[idx, competent] = False
        rows_k, rows_j = np.nonzero(others)
        np.testing.assert_allclose(
            beliefs[rows_k, rows_j, labels[rows_k]], sc.u, atol=1e-12
        )
        np.testing.assert_allclose(
            beliefs[rows_k, rows_j, wrong[rows_k]], sc.c, atol=1e-12
        )

    def test_binary_structure(self):
        sc = ImperfectScenario(n=4, d=2, p=0.8, u=0.3)
        sset = gen_imperfect(sc, 100, seed=4)
        np.testing.assert_allclose(sset.beliefs.sum(axis=2), 1.0, atol=1e-12)

    def test_confidence_order_enforced(self):
        # competent row nearly uniform, others sharply peaked on the shared
        # wrong label: confidence routing would pick a wrong agent
        sc = ImperfectScenario(n=3, d=4, p=0.26, u=0.05, c=0.85)
        with pytest.raises(ConfidenceOrderViolated):
            gen_imperfect(sc, 10, seed=5)

    def test_bitwise_reproducible(self):
        sc = std_imperfect()
        a = gen_imperfect(sc, 150, seed=6)
        b = gen_imperfect(sc, 150, seed=6)
        assert a.beliefs.tobytes() == b.beliefs.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()


def _digest(sset):
    """sha256 of a batch's beliefs, labels and risks, with dtypes and shapes."""
    h = hashlib.sha256()
    for name in ("beliefs", "labels", "risks"):
        a = getattr(sset, name)
        h.update(f"{name} {a.dtype.str} {a.shape};".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# Each scenario's sha256 (``_digest``) of its 1,000-sample batch at seeds 0
# and 3, recorded when every sample's snapshot was built on its own.
GENERATOR_DIGESTS = [
    (
        ExclusiveScenario(n=5, d=10, epsilon=0.1),
        "734a6f76d5a2ac10a49bb3ea8dfdf216883da50046636278949214b97d92381d",
        "47cfeeee7e7d7fa4834b7e1bcd2808783f18d3d6c399f2684f461f13782403f4",
    ),
    (
        ImperfectScenario(n=5, d=4, p=0.9, u=0.05, c=0.7),
        "bc4fe773a7fbf4398ce76abb905087f280110cec4374f571186b19e7fe2a079f",
        "f9c6187c5ca1293168e359b2e2dc8f7a9c9f6f81379dad1966613b18a50a2370",
    ),
    (
        ExclusiveScenario(n=2, d=2, epsilon=0.3),
        "169649a446400cc4e6878f49921f734e4c38752da75a1b5a5da9be24786868f4",
        "2696cf3fd198b8022b767534b03e51624f9792ad5d986735cca37b37f07ff504",
    ),
    (
        ExclusiveScenario(n=4, d=3, epsilon=0.1, rho=[0.4, 0.3, 0.2, 0.1]),
        "d3e017df5682786903e69327172cd8979501d1653977891a70c04641d85add6b",
        "80df360ad6247c2609ee8f34f3b6626968b87f1b82576a1b5f4dfe432ade8bad",
    ),
    (
        ImperfectScenario(n=4, d=2, p=0.8, u=0.3),
        "0d6af2db9dda7b355709c36cb560c91a1e9cfc59eee23f0a7ea74e36372dbe7a",
        "432ecbfec384fe11f6276b572550571a44a19a23447ddbcfc506cb7486717b51",
    ),
    (
        ImperfectScenario(n=3, d=3, p=0.9, u=0.05, c=0.6),
        "96089b6f2d3bb3785dd074b8b508d13284b26d3c15033abec0a846e58d29212a",
        "f9ee194f2247da522aa7df9c32f8d3139e0e9d514b583f86cc9b9d5bec0f7d28",
    ),
]


class TestGeneratorTable:
    """gen_exclusive and gen_imperfect gather one table of the n·d distinct
    (region, label) snapshots by each sample's key."""

    @pytest.mark.parametrize(
        "sc, at_0, at_3", GENERATOR_DIGESTS, ids=[repr(sc) for sc, _, _ in GENERATOR_DIGESTS]
    )
    def test_batches_keep_their_recorded_bits(self, sc, at_0, at_3):
        gen = gen_exclusive if isinstance(sc, ExclusiveScenario) else gen_imperfect
        for seed, want in ((0, at_0), (3, at_3)):
            sset = gen(sc, 1000, seed)
            assert sset.exact_risk
            assert _digest(sset) == want, seed

    def test_imperfect_order_is_checked_before_any_draw(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(scenarios, "_rng", lambda seed: drawn.append(seed))
        sc = ImperfectScenario(n=3, d=4, p=0.26, u=0.05, c=0.85)
        with pytest.raises(ConfidenceOrderViolated):
            gen_imperfect(sc, 10, seed=5)
        with pytest.raises(ConfidenceOrderViolated):
            scenarios._imperfect_table(sc)
        assert drawn == []

    @pytest.mark.parametrize("sc", [sc for sc, _, _ in GENERATOR_DIGESTS[:2]], ids=repr)
    def test_no_samples_is_an_invalid_scenario(self, sc):
        gen = gen_exclusive if isinstance(sc, ExclusiveScenario) else gen_imperfect
        with pytest.raises(InvalidScenario, match="samples must be >= 1, got 0"):
            gen(sc, 0, 1)


class TestPerSampleParams:
    @staticmethod
    def base(n=5):
        w = np.full((n, n), 1.0 / (n - 1))
        np.fill_diagonal(w, 0.0)
        return FJParameters(
            gamma=np.full(n, 0.5), alpha=np.full(n, 0.3), w=w, mask=FJParameters.complete_mask(n)
        )

    def test_random_mode_shares_the_base(self):
        base = self.base()
        innates = gen_imperfect(ImperfectScenario(n=5, d=4, p=0.9, u=0.05, c=0.7), 3, 0).beliefs
        assert per_sample_params(base, innates, "random", 0.1, 0.9) == [base] * 3

    def test_confidence_mode_sets_gamma_per_sample(self):
        base = self.base()
        innates = gen_imperfect(ImperfectScenario(n=5, d=4, p=0.9, u=0.05, c=0.7), 6, 0).beliefs
        params = per_sample_params(base, innates, "confidence", 0.2, 0.6)
        assert len(params) == 6
        for p, innate in zip(params, innates):
            want = np.clip(confidence_metrics(innate)[0], 0.2, 0.6)
            np.testing.assert_array_equal(p.gamma, want)
            np.testing.assert_array_equal(p.alpha, base.alpha)
            np.testing.assert_array_equal(p.w, base.w)
        assert len({p.gamma.tobytes() for p in params}) > 1

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(InvalidScenario, match="gamma_mode"):
            per_sample_params(self.base(), np.full((1, 5, 4), 0.25), "fixed", 0.1, 0.9)


class TestDrawPools:
    """draw_pools checks the SimulateConfig it is given, with the messages
    ``fjlab simulate`` prints; pytest turns any numpy warning into an error."""

    @pytest.mark.parametrize(
        "changes, message",
        [
            (dict(mode="params"), "simulate mode 'params' requires params_file"),
            (dict(mode="foo"), "unknown simulate mode 'foo'"),
            (
                dict(gamma_mode="confidence"),
                "gamma_mode 'confidence' needs scenario mode, not 'random'",
            ),
            (dict(samples=0), "samples and pools must be positive"),
            (dict(agents=1), "agents and labels must be at least 2"),
            (
                dict(gamma_min=0.9, gamma_max=0.1),
                "gamma_min and gamma_max must satisfy 0 <= min <= max <= 1, got 0.9 and 0.1",
            ),
            (
                dict(alpha_min=float("nan")),
                "alpha_min and alpha_max must satisfy 0 <= min <= max <= 1, got nan and 0.9",
            ),
        ],
        ids=["params-no-file", "mode", "confidence-random", "samples", "agents", "inverted", "nan"],
    )
    def test_a_bad_config_raises_the_cli_message(self, changes, message):
        with pytest.raises(ConfigError) as info:
            draw_pools(SimulateConfig(**changes))
        assert str(info.value) == message

    def test_params_mode_returns_the_file_as_truth(self, tmp_path):
        w = np.array([[0.0, 0.5, 0.5], [0.3, 0.0, 0.7], [0.6, 0.4, 0.0]])
        params = FJParameters(
            gamma=np.array([0.3, 0.5, 0.4]), alpha=np.array([0.2, 0.4, 0.6]), w=w,
            mask=FJParameters.complete_mask(3),
        )
        innate = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]])
        path = str(tmp_path / "params.json")
        fio.atomic_write_json(
            path, {**fio.params_to_dict(params), "innate": innate.tolist(), "correct_label": 2}
        )
        # pools and samples do not apply: the file is one system
        sim = SimulateConfig(mode="params", params_file=path, pools=3, samples=4, rounds=6)
        trajs, truth = draw_pools(sim)
        assert len(trajs) == len(truth) == 1
        (traj,) = trajs
        assert (traj.sample_id, traj.correct_label, traj.rounds) == ("sample-0000", 2, 6)
        assert traj.metadata["pool"] == "0"
        np.testing.assert_array_equal(traj.innate, innate)
        for name in ("gamma", "alpha", "w", "mask"):
            np.testing.assert_array_equal(getattr(truth[0], name), getattr(params, name))
