"""Agent and label symmetry of the fits and the metrics.

Relabelling the agents of every trajectory permutes the fitted parameters
the same way: γ and α as vectors, w and its mask by rows and columns.
Relabelling the labels leaves the fits as they were.  The agent columns of
``stacked_metrics`` permute with the agents, and its per-system columns do
not change.  Each holds to rounding, at the pipeline's shapes."""

from dataclasses import replace

import numpy as np
import pytest

from fjlab.estimation import FitConfig, fit_pools, fit_samples
from fjlab.metrics import MetricColumns, stacked_metrics
from fjlab.scenarios import SimulateConfig, draw_pools

TOL = 1e-10
SHAPES = [(5, 4, 8), (3, 2, 3), (8, 6, 20)]  # (agents, labels, rounds)
# pi is (m, n) too, each sample's source weights
AGENT_COLUMNS = MetricColumns.AGENT_FIELDS + ("pi",)
SYSTEM_COLUMNS = ("disagreement", "mean_confidence", "consensus_reached")


def _pools(n, d, rounds, seed):
    """Two pools of three trajectories drawn as ``fjlab simulate`` draws them."""
    sim = SimulateConfig(agents=n, labels=d, rounds=rounds, samples=3, pools=2, seed=seed)
    trajs, _ = draw_pools(sim)
    return [trajs[:3], trajs[3:]]


def _shuffled(k, seed):
    """A random permutation of range(k), k >= 2, that is not the identity."""
    rng = np.random.default_rng(seed)
    while (perm := rng.permutation(k)).tolist() == list(range(k)):
        pass
    return perm


def _agents_permuted(traj, perm):
    return replace(traj, snapshots=traj.snapshots[:, perm])


def _labels_permuted(traj, perm):
    """The trajectory with label ``perm[c]`` of ``traj`` as its label c."""
    label = None if traj.correct_label is None else int(np.argsort(perm)[traj.correct_label])
    names = None if traj.label_names is None else tuple(traj.label_names[c] for c in perm)
    return replace(
        traj, snapshots=traj.snapshots[:, :, perm], correct_label=label, label_names=names
    )


def _fits(pools, objective):
    config = FitConfig(objective=objective)
    return fit_samples([t for pool in pools for t in pool], config) + fit_pools(pools, config)


def _assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=0.0, atol=TOL)


@pytest.mark.parametrize("objective", ["kl", "mse"])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_permuted_agents_permute_the_fits(shape, objective):
    n = shape[0]
    pools = _pools(*shape, seed=n)
    perm = _shuffled(n, 1)
    moved = [[_agents_permuted(t, perm) for t in pool] for pool in pools]
    for report, want in zip(_fits(moved, objective), _fits(pools, objective)):
        got, fit = report.params, want.params
        _assert_close(got.gamma, fit.gamma[perm])
        _assert_close(got.alpha, fit.alpha[perm])
        _assert_close(got.w, fit.w[np.ix_(perm, perm)])
        assert (got.mask == fit.mask[np.ix_(perm, perm)]).all()
        _assert_close([report.kl, report.mse], [want.kl, want.mse])
        assert report.flat == want.flat


@pytest.mark.parametrize("objective", ["kl", "mse"])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_permuted_labels_give_the_same_fits(shape, objective):
    d = shape[1]
    pools = _pools(*shape, seed=d)
    perm = _shuffled(d, 2)
    moved = [[_labels_permuted(t, perm) for t in pool] for pool in pools]
    for report, want in zip(_fits(moved, objective), _fits(pools, objective)):
        for name in ("gamma", "alpha", "w"):
            _assert_close(getattr(report.params, name), getattr(want.params, name))
        _assert_close([report.kl, report.mse], [want.kl, want.mse])
        assert report.flat == want.flat


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_metric_agent_columns_permute_and_system_columns_stay(shape):
    n = shape[0]
    trajs = [t for pool in _pools(*shape, seed=3) for t in pool]
    params = [r.params for r in fit_samples(trajs)]
    perm = _shuffled(n, 3)
    finals = np.stack([t.final for t in trajs])
    labels = [t.correct_label for t in trajs]
    cols = stacked_metrics(finals, params, labels)
    moved_params = [
        replace(
            p,
            gamma=p.gamma[perm],
            alpha=p.alpha[perm],
            w=p.w[np.ix_(perm, perm)],
            mask=p.mask[np.ix_(perm, perm)],
        )
        for p in params
    ]
    moved = stacked_metrics(finals[:, perm], moved_params, labels)
    assert {*AGENT_COLUMNS, *SYSTEM_COLUMNS} == set(MetricColumns.__dataclass_fields__)
    for name in AGENT_COLUMNS:
        _assert_close(getattr(moved, name), getattr(cols, name)[:, perm])
    for name in SYSTEM_COLUMNS:
        _assert_close(getattr(moved, name), getattr(cols, name))
