import csv
import gc
import io
import json
import math
import os
import stat
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fjlab.cli import _draw_pool_params, _t_quantile, build_parser, mean_ci, run
from fjlab.config import FitSection, eta_vector, load_config
from fjlab.dynamics import influence_weights, simulate
from fjlab.estimation import FitConfig
from fjlab.errors import (
    ConfigError,
    DegenerateStubbornness,
    InvariantViolation,
    NegativeEntry,
    NumericalError,
    ParseError,
    SchemaVersionUnsupported,
    WeightNotSimplex,
)
from fjlab import io as fio
from fjlab import verify as verify_mod
from fjlab.io import (
    atomic_write_json,
    format_cell,
    load_trajectories,
    params_from_dict,
    params_to_dict,
    save_trajectories,
    write_csv,
)
from fjlab.metrics import MetricColumns, confidence_metrics, stacked_metrics
from fjlab.model import DeliberationTrajectory, FJParameters


def read_json(out, name):
    with open(os.path.join(out, name), encoding="utf-8") as fh:
        return json.load(fh)


def read_text(out, name):
    with open(os.path.join(out, name), encoding="utf-8") as fh:
        return fh.read()


def sample_params(n=3):
    rng = np.random.default_rng(0)
    w = rng.uniform(0.1, 1.0, (n, n))
    np.fill_diagonal(w, 0.0)
    w /= w.sum(axis=1, keepdims=True)
    return FJParameters(
        gamma=rng.uniform(0.2, 0.8, n),
        alpha=rng.uniform(0.2, 0.8, n),
        w=w,
        mask=FJParameters.complete_mask(n),
    )


def sample_trajs(count=2, rounds=3):
    params = sample_params()
    rng = np.random.default_rng(1)
    out = []
    for k in range(count):
        innate = rng.dirichlet(np.ones(4), size=3)
        out.append(
            simulate(
                params,
                innate,
                rounds,
                sample_id=f"s{k}",
                correct_label=int(rng.integers(4)),
                metadata={"pool": "0", "label_names": json.dumps(["a", "b", "c", "d"])},
            )
        )
    return out


class TestTrajectoryFiles:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "t.json")
        trajs = sample_trajs()
        save_trajectories(path, trajs)
        back = load_trajectories(path)
        assert len(back) == len(trajs)
        for orig, loaded in zip(trajs, back):
            assert loaded.sample_id == orig.sample_id
            assert loaded.correct_label == orig.correct_label
            np.testing.assert_array_equal(loaded.snapshots, orig.snapshots)
            assert loaded.metadata["pool"] == "0"
            assert json.loads(loaded.metadata["label_names"]) == ["a", "b", "c", "d"]

    def test_bad_json_and_schema(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            fh.write("{not json")
        with pytest.raises(ParseError):
            load_trajectories(path)
        atomic_write_json(path, {"schema_version": "9", "samples": []})
        with pytest.raises(SchemaVersionUnsupported):
            load_trajectories(path)
        atomic_write_json(path, {"samples": []})
        with pytest.raises(ParseError):
            load_trajectories(path)

    def _write_one(self, path, rounds, **overrides):
        sample = {
            "sample_id": "x",
            "n": 2,
            "d": 2,
            "rounds": rounds,
            "correct_label": 0,
            "metadata": {},
        }
        sample.update(overrides)
        # plain json.dump, which writes NaN and Infinity as bare tokens
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"schema_version": "1", "samples": [sample]}, fh)

    def test_ingest_locates_bad_cell(self, tmp_path):
        path = str(tmp_path / "neg.json")
        self._write_one(path, [[[0.5, 0.5], [1.2, -0.2]]])
        with pytest.raises(InvariantViolation) as err:
            load_trajectories(path)
        msg = str(err.value)
        assert "sample 'x'" in msg and "round 0" in msg and "agent 1" in msg

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_ingest_locates_non_finite_cell(self, tmp_path, bad):
        path = str(tmp_path / "nan.json")
        self._write_one(path, [[[0.5, 0.5], [0.3, 0.7]], [[0.5, 0.5], [bad, 0.7]]])
        with pytest.raises(InvariantViolation) as err:
            load_trajectories(path)
        msg = str(err.value)
        assert "sample 'x', round 1, agent 1: entry 0 is" in msg

    def test_ingest_rejects_bad_row_sum(self, tmp_path):
        path = str(tmp_path / "sum.json")
        self._write_one(path, [[[0.5, 0.5], [0.6, 0.6]]])
        with pytest.raises(InvariantViolation):
            load_trajectories(path)

    def test_ingest_renormalizes_small_drift(self, tmp_path):
        path = str(tmp_path / "drift.json")
        self._write_one(path, [[[0.5, 0.5 + 2e-7], [0.3, 0.7]]])
        traj = load_trajectories(path)[0]
        np.testing.assert_allclose(traj.snapshots.sum(axis=2), 1.0, atol=1e-15)
        assert float(traj.metadata["ingest_max_drift"]) >= 2e-7
        # a negative entry is repaired too, though its row sums to 1
        self._write_one(path, [[[-1e-10, 1.0 + 1e-10], [0.3, 0.7]]])
        traj = load_trajectories(path)[0]
        assert traj.snapshots.min() == 0.0
        np.testing.assert_allclose(traj.snapshots.sum(axis=2), 1.0, atol=1e-15)

    def test_ingest_rejects_unknown_keys(self, tmp_path):
        path = str(tmp_path / "keys.json")
        self._write_one(path, [[[0.5, 0.5], [0.3, 0.7]]], extra_field=1)
        with pytest.raises(ParseError):
            load_trajectories(path)

    def test_ingest_rejects_duplicate_ids(self, tmp_path):
        path = str(tmp_path / "dup.json")
        sample = {
            "sample_id": "x",
            "n": 2,
            "d": 2,
            "rounds": [[[0.5, 0.5], [0.3, 0.7]]],
            "correct_label": None,
            "metadata": {},
        }
        atomic_write_json(path, {"schema_version": "1", "samples": [sample, sample]})
        with pytest.raises(ParseError):
            load_trajectories(path)

    def test_ingest_rejects_bool_label(self, tmp_path):
        path = str(tmp_path / "bool.json")
        self._write_one(path, [[[0.5, 0.5], [0.3, 0.7]]], correct_label=True)
        with pytest.raises(ParseError):
            load_trajectories(path)


class TestTrajectoryRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(0, 4), st.integers(2, 5), st.integers(2, 5)),
        sample_id=st.text(min_size=1, max_size=8),
        labelled=st.booleans(),
        named=st.booleans(),
        metadata=st.dictionaries(
            st.text(max_size=6).filter(lambda k: k not in ("label_names", "ingest_max_drift")),
            st.text(max_size=6),
            max_size=3,
        ),
    )
    def test_save_then_load(
        self, tmp_path_factory, seed, shape, sample_id, labelled, named, metadata
    ):
        rounds, n, d = shape
        rng = np.random.default_rng(seed)
        if named:
            metadata = {**metadata, "label_names": json.dumps([f"c{k}" for k in range(d)])}
        orig = DeliberationTrajectory(
            snapshots=rng.dirichlet(np.ones(d), size=(rounds + 1, n)),
            sample_id=sample_id,
            correct_label=int(rng.integers(d)) if labelled else None,
            metadata=metadata,
        )
        out = tmp_path_factory.mktemp("rt")
        path = str(out / "t.json")
        save_trajectories(path, [orig])
        # the file holds every bit of every entry
        assert read_json(out, "t.json")["samples"][0]["rounds"] == orig.snapshots.tolist()
        (back,) = load_trajectories(path)
        # rows within TAU_SIMPLEX of unit mass load as written, bit for bit
        np.testing.assert_array_equal(back.snapshots, orig.snapshots)
        assert back.sample_id == orig.sample_id
        assert back.correct_label == orig.correct_label
        meta = dict(back.metadata)
        assert float(meta.pop("ingest_max_drift")) < 1e-14
        assert meta == orig.metadata
        # a second round trip changes nothing, the file included
        save_trajectories(path, [back])
        first = (out / "t.json").read_bytes()
        (again,) = load_trajectories(path)
        np.testing.assert_array_equal(again.snapshots, back.snapshots)
        assert again.metadata == back.metadata
        save_trajectories(path, [again])
        assert (out / "t.json").read_bytes() == first


class TestParamsDict:
    def test_round_trip(self):
        params = sample_params()
        back = params_from_dict(params_to_dict(params))
        np.testing.assert_array_equal(back.gamma, params.gamma)
        np.testing.assert_array_equal(back.w, params.w)
        np.testing.assert_array_equal(back.mask, params.mask)

    def test_missing_key(self):
        with pytest.raises(ParseError):
            params_from_dict({"gamma": [0.5]})

    def test_ragged_mask(self):
        doc = params_to_dict(sample_params(n=2))
        doc["mask"] = [[False, True], [True]]
        with pytest.raises(ParseError, match="bad parameter dictionary"):
            params_from_dict(doc)


class TestCSV:
    def test_format_cell(self):
        assert format_cell(None) == ""
        assert format_cell(True) == "true"
        assert format_cell(False) == "false"
        assert format_cell(3) == "3"
        assert format_cell(0.25) == "0.25"
        assert format_cell(float("nan")) == ""
        assert format_cell("x") == "x"

    def test_write_csv_crlf(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_csv(path, ["a", "b"], [[1, None], [0.5, True]])
        with open(path, "rb") as fh:
            raw = fh.read()
        assert raw == b"a,b\r\n1,\r\n0.5,true\r\n"

    @given(
        st.lists(
            st.lists(
                st.one_of(
                    st.none(),
                    st.booleans(),
                    st.booleans().map(np.bool_),
                    st.integers(-(2**70), 2**70),
                    st.integers(-(2**63), 2**63 - 1).map(np.int64),
                    st.floats(),
                    st.floats().map(np.float64),
                    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
                    st.text(),
                    st.sampled_from(['a,b', 'say "hi"', "two\nlines", " pad ", ""]),
                ),
                max_size=6,
            ),
            max_size=8,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_write_csv_matches_per_cell_formatting(self, tmp_path_factory, rows):
        path = str(tmp_path_factory.mktemp("csv") / "t.csv")
        write_csv(path, ["a", "b"], rows)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\r\n", quoting=csv.QUOTE_MINIMAL)
        writer.writerow(["a", "b"])
        for row in rows:
            writer.writerow([format_cell(v) for v in row])
        with open(path, "rb") as fh:
            assert fh.read() == expected.getvalue().encode("utf-8")


class TestMeanCI:
    def test_frozen_example(self):
        mean, half = mean_ci([0.1, 0.2, 0.4])
        assert mean == pytest.approx(0.23333333333333336, rel=1e-15)
        assert half == pytest.approx(0.379458303359676, rel=1e-14)

    def test_nan_input_gives_nan(self):
        mean, half = mean_ci([0.1, float("nan"), 0.4])
        assert math.isnan(mean) and math.isnan(half)

    def test_single_value_has_no_half_width(self):
        assert mean_ci([0.5]) == (0.5, None)

    def test_t_quantile_matches_scipy(self):
        from scipy.special import stdtrit

        for df in [*range(1, 201), 500, 1_000, 4_000, 10_000]:
            for confidence in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999):
                ref = stdtrit(df, 0.5 + confidence / 2.0)
                got = _t_quantile(confidence, df)
                assert got == pytest.approx(ref, rel=1e-12), (df, confidence)


class TestConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg.simulate.mode == "random"
        assert cfg.fit.objective == "kl"
        assert cfg.verify.checks == "all"

    def test_parses_sections(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[simulate]\nmode = scenario\nsamples = 12\nepsilon = 0.2\n"
            "[fit]\nglobal = yes\nreg_lambda = 0.0\n"
            "[verify]\nchecks = ambiguity_identity, diversity_forms\n"
        )
        cfg = load_config(str(path))
        assert cfg.simulate.mode == "scenario"
        assert cfg.simulate.samples == 12
        assert cfg.simulate.epsilon == pytest.approx(0.2)
        assert cfg.fit.global_fit is True
        assert cfg.fit.reg_lambda == 0.0
        assert cfg.verify.check_names() == ("ambiguity_identity", "diversity_forms")

    def test_rejects_unknown_section(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[nope]\nx = 1\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[simulate]\nnot_a_key = 1\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_fit_global_has_one_key(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[fit]\nglobal_fit = yes\n")
        with pytest.raises(ConfigError, match="unknown key 'global_fit'"):
            load_config(str(path))

    def test_rejects_bad_value(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[simulate]\nsamples = many\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/no/such/file.ini")

    def test_seed_override(self):
        cfg = load_config(None).with_seed(42)
        assert cfg.simulate.seed == 42
        assert cfg.fit.seed == 42
        assert cfg.verify.seed == 42

    def test_eta_errors_name_their_section(self):
        assert eta_vector("analyze", "uniform", 3) is None
        np.testing.assert_array_equal(eta_vector("compare", "0.25,0.75", 2), [0.25, 0.75])
        with pytest.raises(ConfigError, match="compare.eta"):
            eta_vector("compare", "0.5,x", 2)
        with pytest.raises(ConfigError, match="analyze.eta has 2 entries for n=3"):
            eta_vector("analyze", "0.5,0.5", 3)
        with pytest.raises(NegativeEntry, match="compare.eta"):
            eta_vector("compare", "2,-1,0", 3)
        with pytest.raises(WeightNotSimplex, match="analyze.eta"):
            eta_vector("analyze", "0.5,0.6", 2)
        with pytest.raises(WeightNotSimplex, match="analyze.eta"):
            eta_vector("analyze", "nan,1", 2)


    def test_every_flag_is_a_field_of_its_section(self):
        cfg = load_config(None)
        (commands,) = [a for a in build_parser()._actions if a.dest == "command"]
        assert set(commands.choices) == {f.name for f in fields(cfg)}
        for command, parser in commands.choices.items():
            names = {f.name for f in fields(getattr(cfg, command))}
            for action in parser._actions:
                if not action.option_strings or action.dest in ("help", "input"):
                    continue
                if (command, action.dest) == ("compare", "fits"):
                    continue  # the fits path, not a [compare] key
                assert action.dest in names, (command, action.option_strings)

    def test_fit_section_defaults_match_fit_config(self):
        section = FitSection()
        for f in fields(FitConfig):
            assert getattr(section, f.name) == f.default, f.name

    @pytest.mark.parametrize(
        "line, message",
        [
            ("max_iters = 0", "max_iters and restarts must be positive"),
            ("objective = foo", "objective must be 'kl' or 'mse', got 'foo'"),
        ],
    )
    @pytest.mark.parametrize("command", ["fit", "verify"])
    def test_out_of_range_fit_value_exits_1(self, tmp_path, capsys, line, message, command):
        # the [fit] section is checked as the file loads, before any stage runs
        path = tmp_path / "run.ini"
        path.write_text(f"[fit]\n{line}\n")
        argv = ["--config", str(path), "--output-dir", str(tmp_path), "--quiet", command]
        assert run(argv) == 1
        assert capsys.readouterr().err.splitlines() == [f"fjlab: error: {message}"]


class TestCLI:
    def _simulate(self, out, extra=()):
        return run(
            [
                "--output-dir",
                out,
                "--seed",
                "5",
                "--quiet",
                "simulate",
                "--pools",
                "2",
                "--samples",
                "2",
                "--agents",
                "3",
                "--labels",
                "3",
                "--rounds",
                "3",
                *extra,
            ]
        )

    def test_pipeline_and_artifacts(self, tmp_path):
        out = str(tmp_path)
        assert self._simulate(out) == 0
        assert (
            run(
                [
                    "--output-dir", out, "--seed", "5", "--quiet",
                    "fit", "--max-iters", "120", "--restarts", "1", "--global",
                ]
            )
            == 0
        )
        assert run(["--output-dir", out, "--quiet", "analyze"]) == 0
        assert run(["--output-dir", out, "--quiet", "compare"]) == 0
        for name in (
            "trajectories.json",
            "fits.json",
            "agents.csv",
            "system.csv",
            "analyze_summary.json",
            "compare.csv",
            "compare.json",
        ):
            assert os.path.exists(os.path.join(out, name)), name
        fits = read_json(out, "fits.json")
        assert len(fits["per_sample"]) == 4
        assert len(fits["global"]) == 2
        assert "variability" in fits and "aggregate" in fits
        summary = read_json(out, "analyze_summary.json")
        assert summary["n_samples"] == 4

    def test_every_json_artifact_is_strict_and_compact(self, tmp_path):
        out = str(tmp_path)
        assert self._simulate(out) == 0
        assert run(["--output-dir", out, "--quiet", "fit", "--global"]) == 0
        assert run(["--output-dir", out, "--quiet", "analyze"]) == 0
        assert run(["--output-dir", out, "--quiet", "compare"]) == 0
        assert (
            run(
                [
                    "--output-dir", out, "--quiet", "verify",
                    "--checks", "influence_consistency,ambiguity_identity",
                    "--prop-draws", "3", "--identity-draws", "20",
                ]
            )
            == 0
        )

        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        names = sorted(n for n in os.listdir(out) if n.endswith(".json"))
        assert names == [
            "analyze_summary.json",
            "compare.json",
            "fits.json",
            "trajectories.json",
            "verify_report.json",
        ]
        for name in names:
            text = read_text(out, name)
            json.loads(text, parse_constant=refuse)
            assert text.count("\n") == 1 and text.endswith("\n"), name

    def test_analyze_writes_null_for_constant_beliefs(self, tmp_path):
        out = str(tmp_path)
        # every agent holds the uniform belief, so no rank varies
        trajs = [
            DeliberationTrajectory(
                snapshots=np.full((3, 3, 4), 0.25),
                sample_id=f"s{k}",
                correct_label=0,
                metadata={"pool": "0"},
            )
            for k in range(2)
        ]
        save_trajectories(os.path.join(out, "trajectories.json"), trajs)
        assert self._analyze_with(out, params_to_dict(sample_params())) == 0
        summary = read_json(out, "analyze_summary.json")
        assert summary["spearman_confidence_competence"] is None
        assert summary["spearman_influence_competence"] is None

    def test_fit_rejects_non_finite_beliefs(self, tmp_path, capsys):
        out = str(tmp_path)
        assert self._simulate(out) == 0
        path = os.path.join(out, "trajectories.json")
        doc = read_json(out, "trajectories.json")
        doc["samples"][1]["rounds"][2][0][1] = float("nan")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)  # writes the bare token NaN
        capsys.readouterr()
        assert run(["--output-dir", out, "fit", "--input", path]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("fjlab:")
        assert "sample 'sample-0001', round 2, agent 0: entry 1 is nan" in err[0]

    def test_params_mode(self, tmp_path):
        out = str(tmp_path)
        params = sample_params()
        doc = params_to_dict(params)
        doc["innate"] = np.random.default_rng(3).dirichlet(np.ones(3), size=3).tolist()
        doc["correct_label"] = 1
        pfile = os.path.join(out, "params.json")
        atomic_write_json(pfile, doc)
        rc = run(
            [
                "--output-dir", out, "--quiet",
                "simulate", "--mode", "params", "--params-file", pfile, "--rounds", "4",
            ]
        )
        assert rc == 0
        trajs = load_trajectories(os.path.join(out, "trajectories.json"))
        assert len(trajs) == 1
        assert trajs[0].rounds == 4
        assert trajs[0].correct_label == 1

    def test_scenario_mode_with_confidence_gamma(self, tmp_path):
        out = str(tmp_path)
        rc = run(
            [
                "--output-dir", out, "--seed", "7", "--quiet",
                "simulate", "--mode", "scenario", "--scenario", "imperfect",
                "--agents", "5", "--labels", "4", "--samples", "3",
                "--rounds", "2", "--gamma-mode", "confidence",
            ]
        )
        assert rc == 0
        trajs = load_trajectories(os.path.join(out, "trajectories.json"))
        assert len(trajs) == 3
        assert trajs[0].metadata["scenario"] == "imperfect"
        # each sample runs alone under the pool's parameters with gamma set
        # to the clipped confidence of its own innate beliefs
        sim = replace(
            load_config(None).with_seed(7).simulate,
            mode="scenario", scenario="imperfect", agents=5, labels=4, samples=3,
        )
        pool_params = _draw_pool_params(np.random.default_rng(7), sim)
        for traj in trajs:
            gamma = np.clip(confidence_metrics(traj.innate)[0], sim.gamma_min, sim.gamma_max)
            alone = simulate(replace(pool_params, gamma=gamma), traj.innate, 2)
            np.testing.assert_array_equal(traj.snapshots, alone.snapshots)

    @pytest.mark.parametrize("mode", ["random", "params"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_confidence_gamma_needs_scenario_mode(self, tmp_path, capsys, mode, source):
        out = str(tmp_path)
        doc = params_to_dict(sample_params())
        doc["innate"] = np.full((3, 3), 1.0 / 3.0).tolist()
        pfile = os.path.join(out, "params.json")
        atomic_write_json(pfile, doc)
        ini = tmp_path / "run.ini"
        ini.write_text("[simulate]\ngamma_mode = confidence\n")
        argv = ["--output-dir", out, "--quiet"]
        argv += ["--config", str(ini)] if source == "config" else []
        argv += ["simulate", "--mode", mode, "--params-file", pfile, "--pools", "2", "--samples", "3"]
        argv += ["--gamma-mode", "confidence"] if source == "flag" else []
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("fjlab:") and "gamma_mode" in err[0], err
        assert not os.path.exists(os.path.join(out, "trajectories.json"))
        # the default gamma mode stays valid in the same mode
        argv = [a for a in argv if a not in ("--gamma-mode", "confidence", "--config", str(ini))]
        assert run(argv) == 0

    def test_exit_code_bad_args(self, capsys):
        assert run(["no-such-command"]) == 1
        assert run(["--config", "/no/such.ini", "verify"]) == 1
        capsys.readouterr()

    def test_exit_code_missing_fits(self, tmp_path, capsys):
        out = str(tmp_path)
        assert self._simulate(out) == 0
        assert run(["--output-dir", out, "--quiet", "analyze"]) == 1
        capsys.readouterr()

    def test_exit_code_unknown_check(self, tmp_path, capsys):
        assert (
            run(["--output-dir", str(tmp_path), "--quiet", "verify", "--checks", "nope"])
            == 1
        )
        capsys.readouterr()

    def test_verify_small_run_writes_reports(self, tmp_path):
        out = str(tmp_path)
        rc = run(
            [
                "--output-dir", out, "--quiet",
                "verify", "--checks", "ambiguity_identity,diversity_forms",
                "--identity-draws", "50",
            ]
        )
        assert rc == 0
        text = read_text(out, "verify_report.txt")
        assert "[PASS] ambiguity_identity" in text
        report = read_json(out, "verify_report.json")
        assert report["all_passed"] is True
        assert len(report["checks"]) == 2

    @pytest.mark.parametrize(
        "flag",
        ["--prop-draws", "--identity-draws", "--scenario-samples", "--consistency-samples"],
    )
    def test_verify_rejects_empty_budgets(self, tmp_path, capsys, flag):
        capsys.readouterr()
        assert run(["--output-dir", str(tmp_path), "--quiet", "verify", flag, "0"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("fjlab:") and "must be at least 1, got 0" in err[0]
        assert not os.listdir(str(tmp_path))

    @pytest.mark.parametrize(
        "source", [("--checks", ","), ("--checks", "diversity_forms,diversity_forms"), "checks ="]
    )
    def test_verify_rejects_empty_or_repeated_checks(self, tmp_path, capsys, source):
        out = tmp_path / "out"
        if isinstance(source, str):
            config = tmp_path / "run.ini"
            config.write_text(f"[verify]\n{source}\n")
            argv = ["--config", str(config), "--output-dir", str(out), "verify"]
        else:
            argv = ["--output-dir", str(out), "verify", *source]
        capsys.readouterr()
        assert run(["--quiet", *argv]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("fjlab:")
        assert not os.listdir(str(out))

    @pytest.mark.parametrize(
        "sizes",
        [
            ("--agents", "0"),
            ("--agents", "-1"),
            ("--agents", "1"),
            ("--labels", "0"),
            ("--labels", "-2"),
            ("--labels", "1"),
            ("--mode", "scenario", "--agents", "1"),
            ("--mode", "scenario", "--scenario", "exclusive", "--labels", "0"),
        ],
    )
    def test_simulate_rejects_too_few_agents_or_labels(self, tmp_path, sizes):
        # a fresh interpreter, so numpy warnings reach stderr as a user sees them
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = ["--output-dir", str(tmp_path), "simulate", *sizes]
        proc = subprocess.run(
            [sys.executable, "-m", "fjlab.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("fjlab:"), proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert not os.path.exists(os.path.join(str(tmp_path), "trajectories.json"))

    def test_verify_report_prints_plain_floats(self, tmp_path):
        out = str(tmp_path)
        rc = run(
            [
                "--output-dir", out, "--quiet",
                "verify", "--checks", "influence_consistency", "--prop-draws", "3",
            ]
        )
        assert rc == 0
        line = read_text(out, "verify_report.txt").splitlines()[0]
        assert line.startswith("[PASS] influence_consistency ")
        measured = dict(
            token.split("=", 1) for token in line.split(" | ")[0].split()[2:]
        )
        assert set(measured) == {
            "draws",
            "max_rho_above_bound",
            "max_row_sum_error",
            "max_sim_vs_equilibrium",
            "min_influence_entry",
        }
        for value in measured.values():
            float(value)  # a plain repr, not np.float64(...)

    def test_verify_failure_exits_two(self, tmp_path, monkeypatch):
        import fjlab.cli as cli_mod
        from fjlab.verify import CheckResult

        def fake_checks(**kwargs):
            return [CheckResult(name="stub", passed=False, detail="forced")]

        monkeypatch.setattr(cli_mod, "run_all_checks", fake_checks)
        rc = run(["--output-dir", str(tmp_path), "--quiet", "verify"])
        assert rc == 2
        report = read_json(str(tmp_path), "verify_report.json")
        assert report["all_passed"] is False

    def test_compare_needs_global_fits(self, tmp_path, capsys):
        out = str(tmp_path)
        assert self._simulate(out) == 0
        assert (
            run(
                [
                    "--output-dir", out, "--seed", "5", "--quiet",
                    "fit", "--max-iters", "40", "--restarts", "1",
                ]
            )
            == 0
        )
        assert run(["--output-dir", out, "--quiet", "compare"]) == 1
        capsys.readouterr()

    def test_compare_groups_by_pool_only(self, tmp_path, capsys):
        out = str(tmp_path)
        assert self._simulate(out) == 0
        fit = ["--output-dir", out, "--quiet", "fit", "--max-iters", "40", "--restarts", "1", "--global"]
        assert run(fit) == 0
        ini = tmp_path / "run.ini"
        ini.write_text("[compare]\ngroup_key = pool\n")
        capsys.readouterr()
        # samples group by pool; the key is settable by neither flag nor config
        assert run(["--output-dir", out, "--quiet", "compare", "--group-key", "scenario"]) == 1
        assert run(["--config", str(ini), "--output-dir", out, "--quiet", "compare"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("fjlab:") for line in err), err
        assert "group_key" in err[1]
        assert not os.path.exists(os.path.join(out, "compare.csv"))
        assert run(["--output-dir", out, "--quiet", "compare"]) == 0
        assert read_text(out, "compare.csv").startswith("pool,samples,")
        report = read_json(out, "compare.json")
        assert report["group_key"] == "pool"
        assert [g["group"] for g in report["groups"]] == ["0", "1"]

    def test_fit_reports_how_each_fit_ended(self, tmp_path, capsys):
        out = str(tmp_path)
        assert self._simulate(out) == 0
        capsys.readouterr()
        assert run(["--output-dir", out, "fit", "--global"]) == 0
        assert "fjlab: 0 of 6 fits hit the iteration cap (500)" in capsys.readouterr().err
        fits = read_json(out, "fits.json")
        for entry in fits["per_sample"] + fits["global"]:
            assert entry["termination"] == "converged"
            assert 0.0 <= entry["kkt_residual"] < 1e-6
        # one iteration reaches the mse optimum but leaves no room to confirm it
        assert run(["--output-dir", out, "fit", "--objective", "mse", "--max-iters", "1"]) == 0
        assert "fjlab: 4 of 4 fits hit the iteration cap (1)" in capsys.readouterr().err
        fits = read_json(out, "fits.json")
        assert {e["termination"] for e in fits["per_sample"]} == {"max_iters"}

    def test_compare_falls_back_for_zero_stubbornness(self, tmp_path):
        out = str(tmp_path)
        assert self._simulate(out) == 0
        # agent 0 has gamma = 0 and no peers, so its influence row is all
        # zero and influence_weights raises DegenerateStubbornness
        mask = FJParameters.complete_mask(3)
        mask[0] = False
        params = FJParameters(
            gamma=np.array([0.0, 0.5, 0.5]),
            alpha=np.full(3, 0.5),
            w=np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]),
            mask=mask,
        )
        with pytest.raises(DegenerateStubbornness):
            influence_weights(params)
        pooled = [
            {"pool": pool, "n_samples": 2, "kl": 0.0, "mse": 0.0, "params": params_to_dict(params)}
            for pool in ("0", "1")
        ]
        atomic_write_json(
            os.path.join(out, "fits.json"),
            {"schema_version": "1", "objective": "kl", "per_sample": [], "global": pooled},
        )
        assert run(["--output-dir", out, "--quiet", "compare"]) == 0
        groups = read_json(out, "compare.json")["groups"]
        assert [g["group"] for g in groups] == ["0", "1"]
        assert all(0.0 <= g["influence_mix"] <= 1.0 for g in groups)

    def test_compare_checks_eta_before_the_settle_fallback(self, tmp_path, capsys):
        out = str(tmp_path)
        assert self._simulate(out) == 0
        assert run(["--output-dir", out, "--quiet", "fit", "--global"]) == 0
        # with every gamma at 0, H is stochastic and compare falls back to
        # settle, which never reaches aggregate_pi to check eta
        fits = read_json(out, "fits.json")
        for entry in fits["global"]:
            entry["params"]["gamma"] = [0.0] * len(entry["params"]["gamma"])
        atomic_write_json(os.path.join(out, "fits.json"), fits)
        capsys.readouterr()
        assert run(["--output-dir", out, "--quiet", "compare", "--eta", "2,-1,0"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("fjlab:")
        assert "compare.eta" in err[0]
        assert not os.path.exists(os.path.join(out, "compare.csv"))

    @pytest.mark.parametrize("rounds, zero_gamma", [("0", False), ("-5", True)])
    def test_compare_checks_fallback_rounds(self, tmp_path, capsys, rounds, zero_gamma):
        out = str(tmp_path)
        assert self._simulate(out) == 0
        assert run(["--output-dir", out, "--quiet", "fit", "--global"]) == 0
        if zero_gamma:  # every pool then takes the settle fallback
            fits = read_json(out, "fits.json")
            for entry in fits["global"]:
                entry["params"]["gamma"] = [0.0] * len(entry["params"]["gamma"])
            atomic_write_json(os.path.join(out, "fits.json"), fits)
        capsys.readouterr()
        argv = ["--output-dir", out, "--quiet", "compare", "--fallback-rounds", rounds]
        assert run(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("fjlab:")
        assert "fallback_rounds" in err[0]
        assert not os.path.exists(os.path.join(out, "compare.csv"))

    @pytest.mark.parametrize(
        "command, fits",
        [
            ("analyze", {"per_sample": [{}]}),
            ("compare", {"global": [{"params": {}}]}),
            ("analyze", {"per_sample": "x"}),
            ("compare", {"global": [3]}),
            ("analyze", {"per_sample": [{"sample_id": "sample-0000", "params": "x"}]}),
            ("compare", {"global": [{"pool": "0", "params": {"gamma": [0.5]}}]}),
            (
                "analyze",
                {
                    "per_sample": [
                        {
                            "sample_id": "sample-0000",
                            "params": {
                                **params_to_dict(sample_params()),
                                "mask": [[False, True, True], [True, False], [True, True, False]],
                            },
                        }
                    ]
                },
            ),
        ],
    )
    def test_malformed_fits_entries_exit_1(self, tmp_path, capsys, command, fits):
        out = str(tmp_path)
        assert self._simulate(out) == 0
        atomic_write_json(os.path.join(out, "fits.json"), {"schema_version": "1", **fits})
        capsys.readouterr()
        assert run(["--output-dir", out, "--quiet", command]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("fjlab:")
        assert "fits.json" in lines[0]

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("innate", "abc", "bad 'innate' snapshot"),
            ("mask", [[False, True, True], [True, False], [True]], "bad parameter dictionary"),
        ],
    )
    def test_malformed_params_file_exits_1(self, tmp_path, capsys, key, value, message):
        out = str(tmp_path)
        doc = params_to_dict(sample_params())
        doc["innate"] = np.full((3, 3), 1.0 / 3).tolist()
        doc[key] = value
        pfile = os.path.join(out, "params.json")
        atomic_write_json(pfile, doc)
        argv = ["--output-dir", out, "--quiet", "simulate", "--mode", "params"]
        assert run(argv + ["--params-file", pfile]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"fjlab: error: {pfile!r}: {message}: ")

    def test_confidence_order_error_prints_plain_floats(self, tmp_path, capsys):
        argv = ["--output-dir", str(tmp_path), "--quiet", "simulate", "--mode", "scenario"]
        assert run(argv + ["--scenario", "imperfect", "--labels", "2"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("fjlab: error: competent confidence 0.")
        assert "np.float64" not in line

    def test_unknown_check_is_rejected_before_any_check_runs(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = []

        def spy(budget, seed):
            calls.append((budget, seed))
            return verify_mod.CheckResult(name="diversity_forms", passed=True)

        monkeypatch.setattr(verify_mod, "check_diversity_forms", spy)
        argv = ["--output-dir", str(tmp_path), "--quiet", "--seed", "0", "verify"]
        assert run(argv + ["--checks", "ambiguity_identity,diversity_forms,bogus"]) == 1
        assert capsys.readouterr().err.splitlines() == ["fjlab: error: unknown check 'bogus'"]
        assert calls == []
        # the spy is the check that runs when no name is unknown
        assert run(argv + ["--checks", "diversity_forms", "--identity-draws", "3"]) == 0
        assert calls == [(3, 3)]

    def test_analyze_fits_key_resolves_under_output_dir(self, tmp_path):
        out = str(tmp_path / "out")
        assert self._simulate(out) == 0
        assert run(["--output-dir", out, "--quiet", "fit"]) == 0
        os.rename(os.path.join(out, "fits.json"), os.path.join(out, "other.json"))
        config = str(tmp_path / "run.ini")
        argv = ["--config", config, "--output-dir", out, "--quiet", "analyze"]
        with open(config, "w", encoding="utf-8") as fh:
            fh.write("[analyze]\nfits = other.json\n")
        assert run(argv) == 0
        elsewhere = str(tmp_path / "elsewhere.json")
        os.rename(os.path.join(out, "other.json"), elsewhere)
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(f"[analyze]\nfits = {elsewhere}\n")
        assert run(argv) == 0

    def _analyze_with(self, out, params_doc):
        # every simulated sample gets the same fitted parameters; json.dump
        # writes NaN as the bare token NaN, which json.load accepts
        trajs = load_trajectories(os.path.join(out, "trajectories.json"))
        per_sample = [{"sample_id": t.sample_id, "params": params_doc} for t in trajs]
        with open(os.path.join(out, "fits.json"), "w", encoding="utf-8") as fh:
            json.dump({"schema_version": "1", "per_sample": per_sample}, fh)
        return run(["--output-dir", out, "--quiet", "analyze"])

    def test_analyze_rejects_nan_parameters(self, tmp_path, capsys):
        out = str(tmp_path)
        assert self._simulate(out) == 0
        doc = params_to_dict(sample_params())
        doc["gamma"][0] = float("nan")
        capsys.readouterr()
        assert self._analyze_with(out, doc) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("fjlab:")

    def test_analyze_empty_neighbourhood_exits_two(self, tmp_path, capsys):
        out = str(tmp_path)
        assert self._simulate(out) == 0
        # agent 0 has no peers, so its influence row sums to
        # gamma_0 / (1 - (1 - gamma_0) alpha_0) < 1
        mask = FJParameters.complete_mask(3)
        mask[0] = False
        params = FJParameters(
            gamma=np.array([0.3, 0.4, 0.5]),
            alpha=np.full(3, 0.5),
            w=np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]),
            mask=mask,
        )
        with pytest.raises(NumericalError):
            influence_weights(params)
        capsys.readouterr()
        assert self._analyze_with(out, params_to_dict(params)) == 2
        assert capsys.readouterr().err.startswith("fjlab: numerical error:")

    @pytest.mark.parametrize(
        "umask,mode", [(0o022, 0o644), (0o027, 0o640)], ids=["022", "027"]
    )
    def test_artifacts_follow_the_umask(self, tmp_path, umask, mode):
        out = str(tmp_path)
        old = os.umask(umask)
        try:
            assert self._simulate(out) == 0
            assert run(["--output-dir", out, "--quiet", "fit", "--global"]) == 0
            assert run(["--output-dir", out, "--quiet", "analyze"]) == 0
            assert run(["--output-dir", out, "--quiet", "compare"]) == 0
        finally:
            os.umask(old)
        modes = {
            name: stat.S_IMODE(os.stat(os.path.join(out, name)).st_mode)
            for name in os.listdir(out)
        }
        assert len(modes) == 7
        assert modes == dict.fromkeys(modes, mode)

    def test_config_file_drives_pipeline(self, tmp_path):
        out = str(tmp_path)
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[simulate]\nmode = random\npools = 1\nsamples = 2\nagents = 3\n"
            "labels = 2\nrounds = 2\nseed = 9\n"
            "[fit]\nmax_iters = 40\nrestarts = 1\n"
        )
        assert run(["--config", str(ini), "--output-dir", out, "--quiet", "simulate"]) == 0
        assert run(["--config", str(ini), "--output-dir", out, "--quiet", "fit"]) == 0
        trajs = load_trajectories(os.path.join(out, "trajectories.json"))
        assert len(trajs) == 2
        assert trajs[0].d == 2


class TestGCPause:
    """Trajectory loads and saves pause the cyclic collector, then restore it."""

    def _watch(self, monkeypatch, name):
        seen = []
        inner = getattr(fio, name)

        def watched(*args, **kwargs):
            seen.append(gc.isenabled())
            return inner(*args, **kwargs)

        monkeypatch.setattr(fio, name, watched)
        return seen

    def test_paused_during_and_enabled_after(self, tmp_path, monkeypatch):
        path = str(tmp_path / "t.json")
        parsed = self._watch(monkeypatch, "_parse_sample")
        written = self._watch(monkeypatch, "atomic_write_json")
        assert gc.isenabled()
        save_trajectories(path, sample_trajs())
        assert gc.isenabled()
        load_trajectories(path)
        assert gc.isenabled()
        assert written == [False] and parsed == [False, False]

    @pytest.mark.parametrize(
        "text, error",
        [
            ("{not json", ParseError),
            (
                json.dumps(
                    {
                        "schema_version": "1",
                        "samples": [{"sample_id": "a", "rounds": [[[0.5, 0.6], [0.5, 0.5]]]}],
                    }
                ),
                InvariantViolation,
            ),
        ],
        ids=["parse", "invariant"],
    )
    def test_enabled_after_a_failed_load(self, tmp_path, text, error):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(error):
            load_trajectories(str(path))
        assert gc.isenabled()

    def test_a_disabled_collector_stays_disabled(self, tmp_path):
        path = str(tmp_path / "t.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        gc.disable()
        try:
            save_trajectories(path, sample_trajs())
            assert not gc.isenabled()
            load_trajectories(path)
            assert not gc.isenabled()
            with pytest.raises(ParseError):
                load_trajectories(str(bad))
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestStackedAnalyze:
    """analyze stacks the samples that share d: rows and errors keep file order."""

    def _corpus(self, out, ds):
        rng = np.random.default_rng(7)
        trajs, per_sample = [], []
        for k, d in enumerate(ds):
            params = replace(sample_params(), gamma=rng.uniform(0.2, 0.8, 3))
            label = None if k == 1 else int(rng.integers(d))
            innate = rng.dirichlet(np.ones(d), size=3)
            trajs.append(simulate(params, innate, 4, sample_id=f"s{k}", correct_label=label))
            per_sample.append({"sample_id": f"s{k}", "params": params_to_dict(params)})
        save_trajectories(os.path.join(out, "trajectories.json"), trajs)
        atomic_write_json(
            os.path.join(out, "fits.json"), {"schema_version": "1", "per_sample": per_sample}
        )

    def test_mixed_label_counts_in_file_order(self, tmp_path):
        out, ref = str(tmp_path / "out"), str(tmp_path / "ref")
        os.makedirs(out)
        os.makedirs(ref)
        self._corpus(out, [3, 3, 4, 4, 3, 2, 4])
        assert run(["--output-dir", out, "--quiet", "analyze"]) == 0
        # the same tables from stacked_metrics, one sample at a time
        fits = read_json(out, "fits.json")["per_sample"]
        agent_rows, system_rows = [], []
        for traj, entry in zip(load_trajectories(os.path.join(out, "trajectories.json")), fits):
            cols = stacked_metrics(
                traj.final[None], [params_from_dict(entry["params"])], [traj.correct_label]
            )
            agent_rows += [
                [traj.sample_id, j] + [getattr(cols, f)[0, j].item() for f in MetricColumns.AGENT_FIELDS]
                for j in range(traj.n)
            ]
            system_rows.append(
                [traj.sample_id, float(cols.disagreement[0]), float(cols.mean_confidence[0]),
                 bool(cols.consensus_reached[0])]
                + [float(v) for v in cols.pi[0]]
            )
        write_csv(
            os.path.join(ref, "agents.csv"),
            ["sample_id", "agent_id", *MetricColumns.AGENT_FIELDS],
            agent_rows,
        )
        write_csv(
            os.path.join(ref, "system.csv"),
            ["sample_id", "disagreement", "mean_confidence", "consensus_reached", "pi_0", "pi_1", "pi_2"],
            system_rows,
        )
        for name in ("agents.csv", "system.csv"):
            with open(os.path.join(out, name), "rb") as got, open(os.path.join(ref, name), "rb") as want:
                assert got.read() == want.read(), name
        with open(os.path.join(out, "system.csv"), encoding="utf-8") as fh:
            ids = [line.split(",")[0] for line in fh.read().splitlines()[1:]]
        assert ids == [f"s{k}" for k in range(7)]

    @staticmethod
    def _rho_line(params):
        h = (1.0 - params["alpha"])[:, None] * params["w"]
        h[np.diag_indices(3)] += params["alpha"]
        h *= (1.0 - params["gamma"])[:, None]
        rho = float(np.abs(np.linalg.eigvals(h)).max())
        return f"fjlab: numerical error: spectral radius {rho!r} is not below 1 - 1e-06"

    @pytest.mark.parametrize("fault", ["no_fit", "not_contractive", "zero_gamma"])
    def test_third_sample_fault_is_the_one_reported(self, tmp_path, capsys, fault):
        out = str(tmp_path)
        argv = ["--output-dir", out, "--quiet", "--seed", "2"]
        assert run(argv + ["simulate", "--pools", "1", "--samples", "5", "--agents", "3"]) == 0
        assert run(argv + ["fit"]) == 0
        fits = read_json(out, "fits.json")
        entries = fits["per_sample"]
        third = {k: np.array(v) for k, v in entries[2]["params"].items()}
        third["gamma"] = np.full(3, 1e-7 if fault == "not_contractive" else 0.0)
        # the fifth sample fails too, with an error whose check comes first
        entries[4]["params"] = params_to_dict(sample_params(n=2))
        if fault == "no_fit":
            del entries[2]
            code, line = 1, "fjlab: error: no fitted parameters for sample 'sample-0002'"
        else:
            entries[2]["params"]["gamma"] = third["gamma"].tolist()
            code, line = 2, self._rho_line(third)
        atomic_write_json(os.path.join(out, "fits.json"), fits)
        capsys.readouterr()
        assert run(["--output-dir", out, "--quiet", "analyze"]) == code
        assert capsys.readouterr().err.splitlines() == [line]
        assert not os.path.exists(os.path.join(out, "agents.csv"))
