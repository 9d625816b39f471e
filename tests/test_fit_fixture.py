"""fits.json of a fixed run, pinned against a committed copy.

The fixture is the output of

    fjlab --seed 1 simulate --pools 3 --samples 4 --agents 5 --labels 4 --rounds 8
    fjlab --seed 1 fit --global

Integers, booleans and strings must match exactly; floats may move by
rounding only, 1e-12 relative or 1e-14 absolute, so that a change of
solver arithmetic is allowed but a change of result is not.
"""

import json
import math
import os

from fjlab import io as fio
from fjlab.cli import run
from fjlab.estimation import fit_global, fit_sample

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "fits_seed1_3x4.json")
REL, ABS = 1e-12, 1e-14


def _differences(got, want, path="$"):
    """Every place where got and want differ beyond the float tolerance."""
    if isinstance(want, float) and isinstance(got, float):
        if abs(got - want) > max(REL * abs(want), ABS) and not (math.isnan(got) and math.isnan(want)):
            yield f"{path}: {got!r} != {want!r}"
    elif isinstance(want, dict) and isinstance(got, dict):
        if list(got) != list(want):
            yield f"{path}: keys {list(got)} != {list(want)}"
        else:
            for key in want:
                yield from _differences(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            yield f"{path}: length {len(got)} != {len(want)}"
        else:
            for k, (g, w) in enumerate(zip(got, want)):
                yield from _differences(g, w, f"{path}[{k}]")
    elif type(got) is not type(want) or got != want:
        yield f"{path}: {got!r} != {want!r}"


def _fit_fixture_run(tmp_path):
    base = ["--output-dir", str(tmp_path), "--quiet", "--seed", "1"]
    simulate = ["simulate", "--pools", "3", "--samples", "4", "--agents", "5", "--labels", "4", "--rounds", "8"]
    assert run(base + simulate) == 0
    assert run(base + ["fit", "--global"]) == 0
    with open(tmp_path / "fits.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_fits_json_matches_the_committed_fixture(tmp_path):
    got = _fit_fixture_run(tmp_path)
    with open(FIXTURE, encoding="utf-8") as fh:
        want = json.load(fh)
    assert list(_differences(got, want)) == []


def test_each_entry_is_its_fit_alone_bit_for_bit(tmp_path):
    # fit solves all samples in one batch; no entry depends on the others
    got = _fit_fixture_run(tmp_path)
    trajs = fio.load_trajectories(str(tmp_path / "trajectories.json"))
    for entry, traj in zip(got["per_sample"], trajs):
        alone = fit_sample(traj)
        assert entry["sample_id"] == traj.sample_id
        assert (entry["kl"], entry["mse"]) == (alone.kl, alone.mse)
        assert entry["params"] == fio.params_to_dict(alone.params)
    for entry in got["global"]:
        pool = [t for t in trajs if t.metadata["pool"] == entry["pool"]]
        alone = fit_global(pool)
        assert (entry["kl"], entry["kkt_residual"]) == (alone.kl, alone.kkt_residual)
        assert entry["params"] == fio.params_to_dict(alone.params)
