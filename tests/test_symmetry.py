"""Agent and label symmetry of the fits and the metrics.

Relabelling the agents of every trajectory permutes the fitted parameters
the same way: γ and α as vectors, w and its mask by rows and columns.
Relabelling the labels leaves the fits as they were.  The agent columns of
``stacked_metrics`` permute with the agents, and its per-system columns do
not change.  Each holds to rounding, at the pipeline's shapes, and again for
the files that ``fit --global``, ``analyze`` and ``compare`` write."""

import csv
import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from fjlab import io as fio
from fjlab.cli import run
from fjlab.dynamics import aggregate_pi, influence_weights
from fjlab.estimation import FitConfig, fit_pools, fit_samples, parameter_variability
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


# -- the same symmetries through the CLI's files -----------------------------

CLI_SHAPE = ["--pools", "2", "--samples", "4", "--agents", "4", "--labels", "3", "--rounds", "5"]
# agent permutations, one per pool, and a label permutation
POOL_PERMS = {"0": np.array([2, 0, 3, 1]), "1": np.array([1, 3, 0, 2])}
LABEL_PERM = np.array([2, 0, 1])
# the smallest gap between a mixture's two largest entries that a rounding
# difference cannot close
ARGMAX_GAP = 1e-9


def _stages(out):
    """fit --global, analyze and compare over out/trajectories.json."""
    for argv in (["fit", "--global"], ["analyze"], ["compare"]):
        assert run(["--output-dir", str(out), "--quiet", "--seed", "3", *argv]) == 0


def _cells(path):
    """A CSV file's rows, header first, with each numeric cell as a float."""

    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text

    with open(path, newline="", encoding="utf-8") as fh:
        return [[cell(text) for text in row] for row in csv.reader(fh)]


def _outputs(out):
    return {
        "fits": json.loads((out / "fits.json").read_text()),
        "agents": _cells(out / "agents.csv"),
        "system": _cells(out / "system.csv"),
        "summary": json.loads((out / "analyze_summary.json").read_text()),
        "compare_csv": _cells(out / "compare.csv"),
        "compare": json.loads((out / "compare.json").read_text()),
    }


def _assert_same(got, want, where="outputs"):
    """Equal structure and text; numbers equal to TOL."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            _assert_same(got[key], want[key], f"{where}[{key!r}]")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (a, b) in enumerate(zip(got, want)):
            _assert_same(a, b, f"{where}[{k}]")
    elif isinstance(want, float) and not isinstance(got, bool):
        assert isinstance(got, (int, float)) and abs(got - want) <= TOL, (where, got, want)
    else:
        assert got == want, (where, got, want)


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    """One simulate -> fit --global -> analyze -> compare run: its samples
    and its output directory."""
    out = tmp_path_factory.mktemp("unpermuted")
    assert run(["--output-dir", str(out), "--quiet", "--seed", "3", "simulate", *CLI_SHAPE]) == 0
    _stages(out)
    trajs = fio.load_trajectories(str(out / "trajectories.json"))
    want = _outputs(out)
    # compare's accuracies are argmaxes: a tie could break either way once
    # the agents or labels move, so the data must hold none
    pooled = {e["pool"]: fio.params_from_dict(e["params"]) for e in want["fits"]["global"]}
    for traj in trajs:
        assert traj.correct_label is not None
        pi = aggregate_pi(influence_weights(pooled[traj.metadata["pool"]]))
        for mix in (traj.innate.mean(axis=0), traj.final.mean(axis=0), pi @ traj.innate):
            top = np.sort(mix)
            assert top[-1] - top[-2] > ARGMAX_GAP, traj.sample_id
    return trajs, out


def _rerun(trajs, out):
    fio.save_trajectories(str(out / "trajectories.json"), trajs)
    _stages(out)
    return _outputs(out)


def _moved_params(raw, perm):
    p = fio.params_from_dict(raw)
    moved = np.ix_(perm, perm)
    return replace(p, gamma=p.gamma[perm], alpha=p.alpha[perm], w=p.w[moved], mask=p.mask[moved])


def test_cli_outputs_permute_with_the_agents_of_each_pool(cli_outputs, tmp_path):
    trajs, out = cli_outputs
    want = _outputs(out)
    got = _rerun([_agents_permuted(t, POOL_PERMS[t.metadata["pool"]]) for t in trajs], tmp_path)
    perms = [POOL_PERMS[t.metadata["pool"]] for t in trajs]

    fits = want["fits"]
    moved = [_moved_params(e["params"], perm) for e, perm in zip(fits["per_sample"], perms)]
    for entry, params in zip(fits["per_sample"], moved):
        entry["params"] = fio.params_to_dict(params)
    for entry in fits["global"]:
        entry["params"] = fio.params_to_dict(_moved_params(entry["params"], POOL_PERMS[entry["pool"]]))
    # each agent index's spread over samples is the spread of the moved fits,
    # since the two pools move their agents differently
    spread = parameter_variability([SimpleNamespace(params=p) for p in moved])
    assert fits["variability"]["n_reports"] == spread.n_reports
    fits["variability"]["per_parameter"] = {
        name: dict(zip(("mean", "std", "iqr"), triple))
        for name, triple in spread.per_parameter.items()
    }
    n = len(perms[0])
    agents = want["agents"]
    for k, perm in enumerate(perms):
        rows = agents[1 + k * n : 1 + (k + 1) * n]
        agents[1 + k * n : 1 + (k + 1) * n] = [row[:2] + rows[j][2:] for row, j in zip(rows, perm)]
    for row, perm in zip(want["system"][1:], perms):
        row[4:] = [row[4 + j] for j in perm]
    _assert_same(got, want)


def test_cli_outputs_stay_when_the_labels_move(cli_outputs, tmp_path):
    trajs, out = cli_outputs
    _assert_same(_rerun([_labels_permuted(t, LABEL_PERM) for t in trajs], tmp_path), _outputs(out))
