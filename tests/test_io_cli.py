import csv
import hashlib
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fjlab.cli import _params_to_arrays, _t_quantile, build_parser, mean_ci, run
from fjlab.config import AnalyzeSection, FitSection, eta_vector, load_config
from fjlab.constants import CONSENSUS_THRESHOLD
from fjlab.dynamics import aggregate_pi, influence_weights, simulate, simulate_pool
from fjlab.estimation import FitConfig
from fjlab.errors import (
    ConfigError,
    DegenerateStubbornness,
    InvariantViolation,
    LabelOutOfRange,
    NegativeEntry,
    NumericalError,
    ParseError,
    SchemaVersionUnsupported,
    ShapeMismatch,
    ValidationError,
    WeightNotSimplex,
)
from fjlab import _fork
from fjlab import cli
from fjlab import io as fio
from fjlab import verify as verify_mod
from fjlab.io import (
    atomic_write_chunks,
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
from fjlab.scenarios import (
    ExclusiveScenario,
    ImperfectScenario,
    _draw_pool_params,
    draw_pools,
    gen_exclusive,
    gen_imperfect,
)


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
        traj = simulate(
            params,
            innate,
            rounds,
            sample_id=f"s{k}",
            correct_label=int(rng.integers(4)),
            metadata={"pool": "0"},
        )
        out.append(replace(traj, label_names=("a", "b", "c", "d")))
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
            assert loaded.label_names == ("a", "b", "c", "d")

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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sample_id", 5),
            ("sample_id", ""),
            ("correct_label", True),
            ("correct_label", 1.0),
            ("correct_label", 2),
            ("metadata", None),
            ("metadata", ["pool", "0"]),
            ("metadata", {"pool": 0}),
            ("label_names", "ab"),
            ("label_names", ["a", "b", "c"]),
            ("label_names", ["a", 1]),
        ],
        ids=[
            "int-id", "empty-id", "bool-label", "float-label", "label-out-of-range",
            "null-metadata", "list-metadata", "int-metadata-value",
            "str-names", "three-names", "int-name",
        ],
    )
    def test_one_definition_of_a_valid_sample(self, tmp_path, field, value):
        # the constructor and the loader reject the same field with the same message
        rounds = [[[0.5, 0.5], [0.25, 0.75]]]
        sample = {"sample_id": "x", "correct_label": 0, "metadata": {}, field: value}
        with pytest.raises(ValidationError) as built:
            DeliberationTrajectory(np.array(rounds), **sample)
        path = str(tmp_path / "bad.json")
        self._write_one(path, rounds, **sample)
        with pytest.raises(ParseError) as loaded:
            load_trajectories(path)
        if field == "sample_id":
            assert str(loaded.value) == "sample #0: sample_id must be a nonempty string"
        else:
            assert str(loaded.value) == f"sample 'x': {built.value}"

    @pytest.mark.parametrize(
        "names", ["yes,no", json.dumps(["x", "y", "z"])], ids=["not-json", "three-names"]
    )
    def test_label_names_in_metadata_load_and_save_as_metadata(self, tmp_path, names):
        # the key is plain metadata, whatever its value, beside the sample's own label_names
        sample = {
            "sample_id": "x",
            "n": 2,
            "d": 2,
            "rounds": [[[0.5, 0.5], [0.25, 0.75]]],
            "correct_label": 0,
            "label_names": ["p", "q"],
            "metadata": {"label_names": names, "ingest_max_drift": "0.0"},
        }
        text = json.dumps({"schema_version": "1", "samples": [sample]}) + "\n"
        path = tmp_path / "meta.json"
        path.write_text(text, encoding="utf-8")
        (traj,) = load_trajectories(str(path))
        assert traj.label_names == ("p", "q")
        assert traj.metadata == sample["metadata"]
        save_trajectories(str(path), [traj])
        assert path.read_text(encoding="utf-8") == text


class TestTrajectoryRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(0, 4), st.integers(2, 5), st.integers(2, 5)),
        sample_id=st.text(min_size=1, max_size=8),
        labelled=st.booleans(),
        named=st.booleans(),
        metadata=st.dictionaries(
            st.text(max_size=6).filter(lambda k: k != "ingest_max_drift"),
            st.text(max_size=6),
            max_size=3,
        ),
        more_ids=st.lists(st.text(min_size=1, max_size=2), max_size=3),
    )
    def test_save_then_load(
        self, tmp_path_factory, seed, shape, sample_id, labelled, named, metadata, more_ids
    ):
        rounds, n, d = shape
        rng = np.random.default_rng(seed)
        orig = DeliberationTrajectory(
            snapshots=rng.dirichlet(np.ones(d), size=(rounds + 1, n)),
            sample_id=sample_id,
            correct_label=int(rng.integers(d)) if labelled else None,
            metadata=metadata,
            label_names=tuple(f"c{k}" for k in range(d)) if named else None,
        )
        # further samples under ids that may repeat one
        trajs = [orig] + [replace(orig, sample_id=sid) for sid in more_ids]
        out = tmp_path_factory.mktemp("rt")
        path = str(out / "t.json")
        ids = [t.sample_id for t in trajs]
        if len(set(ids)) < len(ids):
            # the only list save refuses: the loader would reject its file
            with pytest.raises(ValidationError, match="duplicate sample_id"):
                save_trajectories(path, trajs)
            assert os.listdir(out) == []
            trajs = [orig]
        save_trajectories(path, trajs)
        # the file holds every bit of every entry
        assert read_json(out, "t.json")["samples"][0]["rounds"] == orig.snapshots.tolist()
        loaded = load_trajectories(path)
        assert [t.sample_id for t in loaded] == [t.sample_id for t in trajs]
        for back in loaded:
            # rows within TAU_SIMPLEX of unit mass load as written, bit for bit
            np.testing.assert_array_equal(back.snapshots, orig.snapshots)
            assert back.correct_label == orig.correct_label
            assert back.label_names == orig.label_names
            meta = dict(back.metadata)
            assert float(meta.pop("ingest_max_drift")) < 1e-14
            assert meta == orig.metadata
        # a second round trip changes nothing, the file included
        save_trajectories(path, loaded)
        first = (out / "t.json").read_bytes()
        again = load_trajectories(path)
        for back, twice in zip(loaded, again):
            np.testing.assert_array_equal(twice.snapshots, back.snapshots)
            assert twice.metadata == back.metadata
            assert twice.label_names == back.label_names
        save_trajectories(path, again)
        assert (out / "t.json").read_bytes() == first


def reference_document(trajs):
    """The trajectory file as one json.dumps call over every entry."""
    samples = []
    for traj in trajs:
        entry = {
            "sample_id": traj.sample_id,
            "n": traj.n,
            "d": traj.d,
            "rounds": traj.snapshots.tolist(),
            "correct_label": traj.correct_label,
        }
        if traj.label_names is not None:
            entry["label_names"] = list(traj.label_names)
        entry["metadata"] = traj.metadata
        samples.append(entry)
    return json.dumps({"schema_version": "1", "samples": samples}, allow_nan=False) + "\n"


def corpus_trajs(count=200, n=8, d=6, rounds=20):
    """Samples of the analyze-corpus workload's shape (n = 8, d = 6, 20 rounds)."""
    rng = np.random.default_rng(5)
    return [
        DeliberationTrajectory(
            snapshots=rng.dirichlet(np.ones(d), size=(rounds + 1, n)),
            sample_id=f"sample-{k:04d}",
            correct_label=int(rng.integers(d)),
            metadata={"pool": str(k % 4)},
        )
        for k in range(count)
    ]


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class _Raises:
    """A trajectory whose metadata cannot be read, to fail a save midway:
    reading it raises ``error`` in process ``pid``, or in any if None."""

    def __init__(self, error=RuntimeError("boom"), pid=None):
        self.error, self.pid = error, pid

    @property
    def metadata(self):
        if self.pid in (None, os.getpid()):
            raise self.error
        return {}

    sample_id, n, d, correct_label, label_names = "r", 1, 2, None, None
    snapshots = np.array([[[0.5, 0.5]]])


def _mixed_trajs():
    rng = np.random.default_rng(2)
    return [
        DeliberationTrajectory(
            snapshots=rng.dirichlet(np.ones(d), size=(t + 1, n)), sample_id=f"m{k}"
        )
        for k, (t, n, d) in enumerate([(1, 2, 2), (4, 3, 5), (0, 2, 3)])
    ]


class TestStreamedTrajectoryFiles:
    @pytest.mark.parametrize(
        "trajs",
        [
            lambda: [],
            _mixed_trajs,
            lambda: [replace(t, correct_label=None) for t in sample_trajs()],
            sample_trajs,
            lambda: [
                replace(
                    sample_trajs(count=1)[0],
                    sample_id='é "q" \\ 日本',
                    metadata={"note": 'caf\u00e9 "quoted" back\\slash \u65e5\n', "q\"k": "\\"},
                )
            ],
        ],
        ids=["empty", "mixed-shapes", "unlabelled", "label-names", "escapes"],
    )
    def test_bytes_equal_one_dumps(self, tmp_path, trajs):
        trajs = trajs()
        path = tmp_path / "t.json"
        save_trajectories(str(path), trajs)
        assert path.read_bytes() == reference_document(trajs).encode("utf-8")

    def test_failed_save_leaves_the_target(self, tmp_path):
        path = tmp_path / "t.json"
        save_trajectories(str(path), sample_trajs())
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="boom"):
            save_trajectories(str(path), corpus_trajs(count=20) + [_Raises()])
        assert path.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["t.json"]

    def test_duplicate_ids_are_refused_before_writing(self, tmp_path):
        path = tmp_path / "t.json"
        save_trajectories(str(path), sample_trajs())
        before = path.read_bytes()
        trajs = corpus_trajs(count=20)
        with pytest.raises(ValidationError, match="duplicate sample_id 'sample-0003'"):
            save_trajectories(str(path), trajs + [replace(trajs[5], sample_id="sample-0003")])
        assert path.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["t.json"]

    @pytest.mark.parametrize("key, value", [("k", 1), (1, "v")], ids=["value", "key"])
    def test_metadata_changed_after_construction_is_refused(self, tmp_path, key, value):
        # the constructor checked the map; the writer checks it again, so no
        # file that fails to load is written
        path = tmp_path / "t.json"
        save_trajectories(str(path), sample_trajs())
        before = path.read_bytes()
        traj = DeliberationTrajectory(np.full((1, 2, 2), 0.5), sample_id="a")
        traj.metadata[key] = value
        with pytest.raises(ValidationError, match="^sample 'a': metadata must map strings"):
            save_trajectories(str(path), sample_trajs() + [traj])
        assert path.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["t.json"]
        del traj.metadata[key]
        save_trajectories(str(path), [traj])
        assert load_trajectories(str(path))[0].metadata == {"ingest_max_drift": "0.0"}

    def test_failed_chunk_leaves_the_target(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("old\n", encoding="utf-8")

        def chunks():
            yield "new " * 10_000
            raise ValueError("midway")

        with pytest.raises(ValueError, match="midway"):
            atomic_write_chunks(str(path), chunks())
        assert path.read_text(encoding="utf-8") == "old\n"
        assert sorted(os.listdir(tmp_path)) == ["t.txt"]
        atomic_write_chunks(str(path), iter(["a", "b", "\n"]))
        assert path.read_text(encoding="utf-8") == "ab\n"

    @pytest.mark.parametrize(
        "sample, error, message",
        [
            ({"rounds": [[[0.5, 0.5], [0.5]]]}, ParseError, "sample 'x': non-numeric or ragged rounds"),
            ({"rounds": [[["a", "b"]]]}, ParseError, "sample 'x': non-numeric or ragged rounds"),
            ({"rounds": [[[0.5, {"rounds": [1.0]}]]]}, ParseError, "sample 'x': non-numeric or ragged rounds"),
            ({"rounds": []}, ParseError, "sample 'x': rounds must be a nonempty list"),
            ({"rounds": {"a": 1}}, ParseError, "sample 'x': rounds must be a nonempty list"),
            (
                {"rounds": [[0.5, 0.5]]},
                ShapeMismatch,
                "sample 'x': rounds must be (T+1, n, d), got (1, 2)",
            ),
            (
                {"metadata": {"rounds": [[[0.5, 0.5]]]}},
                ParseError,
                "sample 'x': metadata must map strings to strings",
            ),
        ],
        ids=["ragged", "non-numeric", "nested-object", "empty", "object", "2-d", "in-metadata"],
    )
    def test_same_errors_on_load(self, tmp_path, sample, error, message):
        path = tmp_path / "t.json"
        raw = {"sample_id": "x", "rounds": [[[0.5, 0.5]]], **sample}
        path.write_text(json.dumps({"schema_version": "1", "samples": [raw]}), encoding="utf-8")
        with pytest.raises(error) as err:
            load_trajectories(str(path))
        assert str(err.value) == message

    def test_top_level_rounds_is_an_unknown_key(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(
            json.dumps({"schema_version": "1", "samples": [], "rounds": [[[0.5, 0.5]]]}),
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as err:
            load_trajectories(str(path))
        assert str(err.value) == f"{path}: unknown top-level keys ['rounds']"

    @staticmethod
    def _as_tuples(trajs):
        return [
            (t.sample_id, t.correct_label, t.metadata, t.snapshots.tobytes(), t.snapshots.shape)
            for t in trajs
        ]

    # reads shorter than the head included
    @pytest.mark.parametrize("chunk", [1, 7, len(fio._HEAD) - 1, 100, fio._CHUNK_BYTES])
    @pytest.mark.parametrize("layout", ["written", "empty"])
    def test_chunked_parse_equals_whole_parse(self, tmp_path, monkeypatch, chunk, layout):
        trajs = [] if layout == "empty" else _mixed_trajs() + sample_trajs()
        text = reference_document(trajs)
        path = tmp_path / "t.json"
        path.write_text(text, encoding="utf-8")
        whole = tmp_path / "whole.json"
        whole.write_text(json.dumps(json.loads(text), indent=1), encoding="utf-8")
        monkeypatch.setattr(fio, "_CHUNK_BYTES", chunk)
        with open(path, "rb") as fh:
            assert fio._stream_samples(fh, lambda t: t) is not None
        with open(whole, "rb") as fh:
            assert fio._stream_samples(fh, lambda t: t) is None
        got = self._as_tuples(load_trajectories(str(path)))
        assert got == self._as_tuples(load_trajectories(str(whole)))
        assert len(got) == len(trajs)

    @pytest.mark.parametrize("chunk", [7, fio._CHUNK_BYTES])
    @pytest.mark.parametrize("layout", ["spaced", "empty-spaced"])
    def test_other_whitespace_is_read_whole(self, tmp_path, monkeypatch, chunk, layout):
        trajs = [] if layout == "empty-spaced" else _mixed_trajs() + sample_trajs()
        written = tmp_path / "written.json"
        save_trajectories(str(written), trajs)
        text = written.read_text(encoding="utf-8")
        # JSON whitespace around every separator after the head
        head, _, rest = text.partition("[")
        text = head + "[ \n" + rest.replace("}, {", "}\t,\r\n {")[:-3] + " ] \n}\n\n"
        path = tmp_path / "t.json"
        path.write_text(text, encoding="utf-8")
        monkeypatch.setattr(fio, "_CHUNK_BYTES", chunk)
        with open(path, "rb") as fh:
            assert fio._stream_samples(fh, lambda t: t) is None
        got = self._as_tuples(load_trajectories(str(path)))
        assert got == self._as_tuples(load_trajectories(str(written)))
        assert len(got) == len(trajs)

    @pytest.mark.parametrize("chunk", [7, fio._CHUNK_BYTES])
    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: text[: len(text) // 2],
            lambda text: text[:-1] + "x\n",
            lambda text: text.replace("]}", ", ]}"),
            lambda text: text.replace("]}", "}}"),
            lambda text: text + "\x0c",
            lambda text: text.replace("]}", "], \"extra\": 1}"),
            lambda text: text.replace('"s1"', '"s1\\q"'),
            lambda text: text.replace("0.", "00.", 1),
        ],
        ids=[
            "truncated", "trailing", "trailing-comma", "unclosed-array", "form-feed",
            "extra-key", "bad-escape", "bad-number",
        ],
    )
    def test_invalid_file_gives_the_whole_parse_error(self, tmp_path, monkeypatch, chunk, edit):
        text = edit(reference_document(sample_trajs(count=3)))
        path = tmp_path / "t.json"
        path.write_text(text, encoding="utf-8")
        monkeypatch.setattr(fio, "_CHUNK_BYTES", chunk)
        with pytest.raises(ParseError) as err:
            load_trajectories(str(path))
        try:
            json.loads(text)
        except ValueError as exc:
            assert str(err.value) == f"{path} is not valid JSON: {exc}"
        else:
            assert str(err.value) == f"{path}: unknown top-level keys ['extra']"

    def test_save_peak_is_below_half_the_snapshots(self, tmp_path):
        trajs = corpus_trajs()
        nbytes = sum(t.snapshots.nbytes for t in trajs)
        peak = traced_peak(lambda: save_trajectories(str(tmp_path / "t.json"), trajs))
        assert peak < 0.5 * nbytes

    def test_load_peak_is_below_the_whole_text_and_its_bytes(self, tmp_path):
        path = str(tmp_path / "t.json")
        trajs = corpus_trajs()
        save_trajectories(path, trajs)
        back = []
        peak = traced_peak(lambda: back.extend(load_trajectories(path)))
        # json.load of the whole file holds its bytes and its text at once: 2x
        assert peak < 1.75 * os.path.getsize(path)
        assert all(np.array_equal(a.snapshots, b.snapshots) for a, b in zip(back, trajs))

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["serial", "split"])
    def test_load_peak_is_below_six_tenths_of_the_file(self, tmp_path, monkeypatch, cpus):
        path = str(tmp_path / "t.json")
        trajs = corpus_trajs()
        save_trajectories(path, trajs)
        monkeypatch.setattr(fio, "_SPLIT_BYTES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        back = []
        peak = traced_peak(lambda: back.extend(load_trajectories(path)))
        # the arrays take 0.38x the file; a trajectory adopts its array uncopied
        assert peak < 0.6 * os.path.getsize(path)
        for a, b in zip(back, trajs):
            assert a.snapshots.tobytes() == b.snapshots.tobytes()
            assert not a.snapshots.flags.writeable

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["serial", "split"])
    def test_ends_load_peak_is_below_fifteen_hundredths_of_the_file(
        self, tmp_path, monkeypatch, cpus
    ):
        path = str(tmp_path / "t.json")
        trajs = corpus_trajs()
        save_trajectories(path, trajs)
        monkeypatch.setattr(fio, "_SPLIT_BYTES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        forks = _count_forks(monkeypatch)
        back = []
        peak = traced_peak(lambda: back.extend(fio._load_ends(path)))
        # each sample is checked as it is parsed and only its ends are kept
        assert peak <= 0.15 * os.path.getsize(path)
        assert len(forks) == (len(cpus) == 2)
        for a, b in zip(back, trajs, strict=True):
            assert a.innate.tobytes() == b.innate.tobytes()
            assert a.final.tobytes() == b.final.tobytes()

    def test_each_sample_is_decoded_once(self, tmp_path, monkeypatch):
        trajs = corpus_trajs()
        path = tmp_path / "t.json"
        save_trajectories(str(path), trajs)
        calls = []
        raw_decode = json.JSONDecoder.raw_decode

        def counted(self, s, idx=0):
            calls.append(idx)
            return raw_decode(self, s, idx)

        monkeypatch.setattr(json.JSONDecoder, "raw_decode", counted)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert len(load_trajectories(str(path))) == len(trajs)
        assert len(calls) == len(trajs)


def _count_forks(monkeypatch, fail=False):
    """Wrap os.fork so each call is recorded; with ``fail`` it raises instead."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        if fail:
            raise OSError("no fork here")
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _record_calls(monkeypatch, name):
    """Wrap fio's function ``name`` so each call made in this process is recorded."""
    calls = []
    inner = getattr(fio, name)
    parent = os.getpid()

    def recorded(*args, **kwargs):
        if os.getpid() == parent:
            calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(fio, name, recorded)
    return calls


# text that JSON escapes or encodes past ASCII, and the writer's separator itself
_TRICKY_TEXT = st.lists(
    st.sampled_from(['"', "\\", "\n", "é", "日本", "\U0001f600", "a", fio._SEPARATOR.decode()]),
    max_size=4,
).map("".join)


def _escaped_trajs(count=6):
    """Samples with label names, quotes, backslashes and non-ASCII text."""
    return [
        replace(
            traj,
            sample_id=f'é "q{k}" \\ 日本 😀',
            metadata={"note": 'café "quoted" back\\slash 日\n', "q\"k": "\\"},
            label_names=("ä", '"b"', "c\\", "日"),
        )
        for k, traj in enumerate(sample_trajs(count=count))
    ]


class TestSplitTrajectoryIo:
    """Save and load split the samples with one forked child when the text is
    large and two CPUs are usable: same bytes, same values, same errors, and
    no child left behind."""

    @pytest.fixture
    def forks(self, monkeypatch):
        monkeypatch.setattr(fio, "_SPLIT_BYTES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        yield _count_forks(monkeypatch)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def _serial(path):
        """The result of the serial load (os.fork raising), or its error."""
        with pytest.MonkeyPatch.context() as mp:
            forks = _count_forks(mp, fail=True)
            try:
                result = TestStreamedTrajectoryFiles._as_tuples(load_trajectories(str(path)))
            except Exception as exc:
                result = (type(exc), str(exc))
        return result, forks

    @pytest.mark.parametrize("trajs", [_escaped_trajs, lambda: corpus_trajs(count=9)])
    def test_save_bytes_equal_one_dumps(self, tmp_path, monkeypatch, forks, trajs):
        trajs = trajs()
        encoded = _record_calls(monkeypatch, "_sample_entries")
        path = tmp_path / "t.json"
        save_trajectories(str(path), trajs)
        assert len(forks) == 1
        assert len(encoded) == 1  # the child encoded the second half
        assert path.read_bytes() == reference_document(trajs).encode("utf-8")
        assert sorted(os.listdir(tmp_path)) == ["t.json"]

    def test_save_without_fork_is_the_same(self, tmp_path, forks, monkeypatch):
        failed = _count_forks(monkeypatch, fail=True)
        trajs = _escaped_trajs()
        path = tmp_path / "t.json"
        save_trajectories(str(path), trajs)
        assert len(failed) == 1
        assert path.read_bytes() == reference_document(trajs).encode("utf-8")
        assert sorted(os.listdir(tmp_path)) == ["t.json"]

    def test_a_failed_child_with_valid_samples_gives_the_serial_bytes(
        self, tmp_path, monkeypatch, forks
    ):
        trajs = _escaped_trajs()
        parent, entries = os.getpid(), fio._sample_entries

        def encoded_here(batch, *args):
            if os.getpid() != parent:
                raise RuntimeError("no encoding in the child")
            return entries(batch, *args)

        monkeypatch.setattr(fio, "_sample_entries", encoded_here)
        encoded = _record_calls(monkeypatch, "_sample_entries")
        path = tmp_path / "t.json"
        save_trajectories(str(path), trajs)
        assert len(forks) == 1
        # the first half, then every sample again in the serial writer
        assert [len(args[0]) for args in encoded] == [len(trajs) // 2, len(trajs)]
        assert path.read_bytes() == reference_document(trajs).encode("utf-8")
        assert sorted(os.listdir(tmp_path)) == ["t.json"]

    @pytest.mark.parametrize("chunk", [1, 7, fio._CHUNK_BYTES])
    def test_load_equals_the_serial_load(self, tmp_path, monkeypatch, forks, chunk):
        trajs = _escaped_trajs() + corpus_trajs(count=5)
        path = tmp_path / "t.json"
        path.write_text(reference_document(trajs), encoding="utf-8")
        serial, serial_forks = self._serial(path)
        assert len(serial_forks) == 1 and len(serial) == len(trajs)
        monkeypatch.setattr(fio, "_CHUNK_BYTES", chunk)
        serial_parses = _record_calls(monkeypatch, "_stream_samples")
        got = load_trajectories(str(path))
        assert forks == [os.getpid()]
        assert serial_parses == []  # both halves parsed to their ends
        assert TestStreamedTrajectoryFiles._as_tuples(got) == serial
        assert all(not t.snapshots.flags.writeable for t in got)

    @pytest.mark.parametrize("chunk", [1, 3, fio._CHUNK_BYTES])
    def test_non_ascii_file_loads_as_json_load_reads_it(self, tmp_path, monkeypatch, forks, chunk):
        # two- to four-byte characters on both sides of the cut
        samples = [
            {
                "sample_id": f"ü{'日' * k}😀{k}",
                "rounds": [[[0.25, 0.75], [1.0, 0.0]]],
                "metadata": {"ñ": "€" * k + "é \U0001f600"},
            }
            for k in range(12)
        ]
        text = json.dumps({"schema_version": "1", "samples": samples}, ensure_ascii=False)
        path = tmp_path / "t.json"
        path.write_bytes(text.encode("utf-8") + b" \n")
        monkeypatch.setattr(fio, "_CHUNK_BYTES", chunk)
        serial_parses = _record_calls(monkeypatch, "_stream_samples")
        got = load_trajectories(str(path))
        assert len(forks) == 1 and serial_parses == []
        with open(path, encoding="utf-8") as fh:
            want = json.load(fh)["samples"]
        assert [t.sample_id for t in got] == [s["sample_id"] for s in want]
        assert [{k: v for k, v in t.metadata.items() if k != "ingest_max_drift"} for t in got] == [
            s["metadata"] for s in want
        ]
        assert all(t.snapshots.tolist() == s["rounds"] for t, s in zip(got, want))

    @settings(max_examples=40, deadline=None)
    @given(
        ids=st.lists(_TRICKY_TEXT.filter(bool), min_size=2, max_size=5, unique=True),
        metadata=st.dictionaries(
            _TRICKY_TEXT.filter(lambda k: k != "ingest_max_drift"),
            _TRICKY_TEXT,
            max_size=3,
        ),
        names=st.lists(_TRICKY_TEXT, min_size=2, max_size=2),
    )
    def test_escaped_text_streams_and_loads_as_json_load_reads_it(
        self, tmp_path_factory, ids, metadata, names
    ):
        rng = np.random.default_rng(0)
        trajs = [
            DeliberationTrajectory(
                snapshots=rng.dirichlet(np.ones(2), size=(3, 2)),
                sample_id=sid,
                metadata=metadata,
                label_names=names,
            )
            for sid in ids
        ]
        path = tmp_path_factory.mktemp("escaped") / "t.json"
        save_trajectories(str(path), trajs)
        with open(path, "rb") as fh:
            assert fio._stream_samples(fh, lambda t: t) is not None
        with open(path, encoding="utf-8") as fh:
            want = json.load(fh)["samples"]
        text = path.read_bytes()
        splits = text.find(fio._SEPARATOR, len(text) // 2) >= 0
        for cpus in ({0}, {0, 1}):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(fio, "_SPLIT_BYTES", 1)
                mp.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
                serial_parses = _record_calls(mp, "_stream_samples")
                got = load_trajectories(str(path))
            # split: both halves parsed to their ends, unless no separator
            # follows the middle byte
            assert len(serial_parses) == (len(cpus) == 1 or not splits)
            assert [t.sample_id for t in got] == [s["sample_id"] for s in want]
            assert [t.label_names for t in got] == [tuple(s["label_names"]) for s in want]
            assert [
                {k: v for k, v in t.metadata.items() if k != "ingest_max_drift"} for t in got
            ] == [s["metadata"] for s in want]
            assert [t.snapshots.tolist() for t in got] == [s["rounds"] for s in want]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda last: last.replace("0.", "00.", 1),
            lambda last: last[:-40],
            lambda last: re.sub(r"\[\[\[[^,]*", "[[[NaN", last, count=1),
            lambda last: re.sub(r"\[\[\[[^,]*", "[[[0.9", last, count=1),
            lambda last: re.sub(r'"correct_label": \d+', '"correct_label": 99', last),
            lambda last: last.replace('"s9"', '"s0"'),
            lambda last: last + ", 7",
            lambda last: last[: -len("]}\n")],
        ],
        ids=[
            "bad-number", "truncated", "nan-row", "off-simplex", "label", "duplicate-id",
            "extra", "unclosed",
        ],
    )
    def test_an_edit_in_the_second_half_gives_the_serial_error(self, tmp_path, forks, edit):
        text = reference_document(sample_trajs(count=10))
        head, sep, last = text.rpartition(', {"sample_id": ')
        last = edit(sep + last)
        path = tmp_path / "t.json"
        path.write_text(head + last, encoding="utf-8")
        serial, _ = self._serial(path)
        assert serial[0] in (ParseError, InvariantViolation, LabelOutOfRange)
        with pytest.raises(Exception) as err:
            load_trajectories(str(path))
        assert len(forks) == 1
        assert (type(err.value), str(err.value)) == serial

    @pytest.mark.parametrize("chunk", [7, fio._CHUNK_BYTES], ids=["later-read", "first-read"])
    # a byte that starts no character, and an encoded surrogate, which strict
    # UTF-8 rejects and json.loads of bytes would let through
    @pytest.mark.parametrize("bad", [b"\xff", b"\xed\xa0\x80"], ids=["ff", "surrogate"])
    def test_bad_utf8_in_the_first_half_gives_the_serial_error(
        self, tmp_path, monkeypatch, forks, capsys, chunk, bad
    ):
        text = reference_document(sample_trajs(count=10)).encode("utf-8")
        path = tmp_path / "t.json"
        path.write_bytes(text.replace(b'"s1"', b'"s' + bad + b'"', 1))
        serial, _ = self._serial(path)
        assert serial[0] is ParseError and "not valid JSON" in serial[1]
        monkeypatch.setattr(fio, "_CHUNK_BYTES", chunk)
        with pytest.raises(ParseError) as err:
            load_trajectories(str(path))
        assert len(forks) == 1
        assert str(err.value) == serial[1]
        capsys.readouterr()
        argv = ["--output-dir", str(tmp_path), "--quiet", "fit", "--input", str(path)]
        assert run(argv) == 1
        assert len(forks) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"fjlab: error: {serial[1]}"

    def test_a_failed_save_in_the_childs_half_leaves_the_target(self, tmp_path, forks):
        path = tmp_path / "t.json"
        save_trajectories(str(path), sample_trajs())
        before = path.read_bytes()
        forks.clear()
        trajs = sample_trajs(count=5) + [_Raises()]
        with pytest.raises(Exception) as serial:
            list(fio._trajectory_chunks(trajs))
        with pytest.raises(type(serial.value)) as err:
            save_trajectories(str(path), trajs)
        assert str(err.value) == str(serial.value)
        assert len(forks) == 1
        assert path.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["t.json"]

    @pytest.mark.parametrize("half", ["parent", "child"])
    def test_changed_metadata_gives_the_serial_error(self, tmp_path, forks, half):
        path = tmp_path / "t.json"
        save_trajectories(str(path), sample_trajs())
        before = path.read_bytes()
        forks.clear()
        trajs = sample_trajs(count=6)
        bad = trajs[1 if half == "parent" else 4]
        bad.metadata["pool"] = 0
        with pytest.raises(ValidationError) as serial:
            list(fio._trajectory_chunks(trajs))
        with pytest.raises(ValidationError) as err:
            save_trajectories(str(path), trajs)
        assert str(err.value) == str(serial.value)
        assert str(err.value).startswith(f"sample {bad.sample_id!r}: metadata")
        assert len(forks) == 1
        assert path.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["t.json"]

    def test_a_nan_in_the_childs_half_raises_the_encoders_error(self, tmp_path, forks):
        nan = _Raises(None, pid=-1)
        nan.snapshots = np.array([[[np.nan, 1.0]]])
        trajs = sample_trajs(count=3) + [nan]
        with pytest.raises(ValueError) as serial:
            list(fio._trajectory_chunks(trajs))
        path = tmp_path / "t.json"
        with pytest.raises(ValueError) as err:
            save_trajectories(str(path), trajs)
        assert str(err.value) == str(serial.value)
        assert len(forks) == 1
        assert os.listdir(tmp_path) == []

    def test_interrupt_in_the_parents_half(self, tmp_path, forks, monkeypatch):
        path = tmp_path / "t.json"
        save_trajectories(str(path), sample_trajs())
        before = path.read_bytes()
        forks.clear()
        trajs = [_Raises(KeyboardInterrupt(), pid=os.getpid())] + sample_trajs(count=3)
        with pytest.raises(KeyboardInterrupt):
            save_trajectories(str(path), trajs)
        assert path.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["t.json"]
        rounds_to_array = fio._rounds_to_array
        parent = os.getpid()

        def interrupted(obj):
            if os.getpid() == parent and "sample_id" in obj:
                raise KeyboardInterrupt
            return rounds_to_array(obj)

        monkeypatch.setattr(fio, "_rounds_to_array", interrupted)
        with pytest.raises(KeyboardInterrupt):
            load_trajectories(str(path))
        assert len(forks) == 2

    def test_a_comma_before_the_first_sample_gives_the_serial_error(self, tmp_path, forks):
        # the cut falls right after the head, so the first half is the head alone
        path = tmp_path / "t.json"
        path.write_text(fio._HEAD + ', {"sample_id": "x"}]}\n', encoding="utf-8")
        serial, _ = self._serial(path)
        assert serial[0] is ParseError and "not valid JSON" in serial[1]
        with pytest.raises(ParseError) as err:
            load_trajectories(str(path))
        assert len(forks) == 1
        assert str(err.value) == serial[1]

    @pytest.mark.parametrize("case", ["below-threshold", "one-cpu", "python-3.12"])
    def test_no_fork_when_small_or_on_one_cpu(self, tmp_path, monkeypatch, case):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        if case != "below-threshold":
            monkeypatch.setattr(fio, "_SPLIT_BYTES", 1)
        if case == "one-cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        if case == "python-3.12":
            monkeypatch.setattr(sys, "version_info", (3, 12, 0, "final", 0))
        forks = _count_forks(monkeypatch)
        path = str(tmp_path / "t.json")
        trajs = corpus_trajs(count=20)
        save_trajectories(path, trajs)
        assert len(load_trajectories(path)) == len(trajs)
        assert forks == []


def _bad_cell(entry):
    return re.sub(r'"rounds": \[\[\[[^,]*', '"rounds": [[[-0.5', entry, count=1)


def _bad_json(entry):
    return entry.replace('"rounds": [[[0.', '"rounds": [[[00.', 1)


def _bad_label(entry):
    return re.sub(r'"correct_label": \d+', '"correct_label": 99', entry)


def _repeated_id(entry):
    return re.sub(r'^"s\d+"', '"s0"', entry)


class TestErrorPrecedence:
    """A file with two faults raises one error, the same on every path: a
    JSON error anywhere beats every sample check; otherwise the first failing
    sample in file order raises, whichever check it fails."""

    # (first fault, second fault, the error raised); None: the JSON error
    CASES = {
        "json-after-cell": (_bad_cell, _bad_json, None),
        "repeated-id-before-cell": (
            _repeated_id, _bad_cell, lambda a, b: (ParseError, "duplicate sample_id 's0'")
        ),
        "cell-before-repeated-id": (
            _bad_cell,
            _repeated_id,
            lambda a, b: (InvariantViolation, f"sample 's{a}', round 0, agent 0: entry 0 is -0.5"),
        ),
        "label-before-json": (_bad_label, _bad_json, None),
    }
    # sample positions of the two faults: both in the split's first half,
    # one in each, both in the second
    PLACES = [(1, 3), (2, 7), (7, 9)]

    @classmethod
    def _write(cls, tmp_path, case, places):
        first, second, want = cls.CASES[case]
        entries = reference_document(sample_trajs(count=10)).split(", {\"sample_id\": ")
        a, b = places
        entries[a], entries[b] = first(entries[a]), second(entries[b])
        text = ', {"sample_id": '.join(entries)
        path = tmp_path / "t.json"
        path.write_text(text, encoding="utf-8")
        if want is not None:
            return path, want(a, b)
        with pytest.raises(ValueError) as exc:
            json.loads(text)
        return path, (ParseError, f"{path} is not valid JSON: {exc.value}")

    @staticmethod
    def _paths(monkeypatch, split):
        monkeypatch.setattr(fio, "_SPLIT_BYTES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1} if split else {0}, raising=False)
        return _count_forks(monkeypatch)

    @pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
    @pytest.mark.parametrize("places", PLACES, ids=["first-half", "both-halves", "second-half"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_load_raises_the_first_error(self, tmp_path, monkeypatch, case, places, split):
        path, (error, message) = self._write(tmp_path, case, places)
        forks = self._paths(monkeypatch, split)
        with pytest.raises(ValidationError) as err:
            load_trajectories(str(path))
        assert (type(err.value), str(err.value)) == (error, message)
        assert len(forks) == split

    @pytest.mark.parametrize("command", ["analyze", "compare"])
    @pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_analyze_and_compare_exit_1_with_it(
        self, tmp_path, monkeypatch, capsys, case, split, command
    ):
        path, (_, message) = self._write(tmp_path, case, (2, 7))
        forks = self._paths(monkeypatch, split)
        argv = ["--output-dir", str(tmp_path), "--quiet", command, "--input", str(path)]
        assert run(argv) == 1
        assert capsys.readouterr().err.splitlines() == [f"fjlab: error: {message}"]
        assert len(forks) == split


class TestEndsLoad:
    """analyze and compare keep each sample's ends, after every round of it
    passed the full load's checks and repair."""

    @pytest.mark.parametrize("command", ["analyze", "compare"])
    @pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
    @pytest.mark.parametrize(
        "row, reason",
        [([-0.5, 0.5, 0.5, 0.5], "entry 0 is -0.5"), ([0.5, 0.5, 0.5, 0.0], "row sums to 1.5")],
        ids=["bad-cell", "bad-row-sum"],
    )
    def test_a_fault_in_round_3_exits_1(
        self, tmp_path, monkeypatch, capsys, command, split, row, reason
    ):
        doc = json.loads(reference_document(sample_trajs(count=8, rounds=5)))
        doc["samples"][5]["rounds"][3][1] = row
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        monkeypatch.setattr(fio, "_SPLIT_BYTES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1} if split else {0}, raising=False)
        forks = _count_forks(monkeypatch)
        argv = ["--output-dir", str(tmp_path), "--quiet", command, "--input", str(path)]
        assert run(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"fjlab: error: sample 's5', round 3, agent 1: {reason}"
        ]
        assert len(forks) == split

    @pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
    def test_repaired_ends_equal_the_full_loads_bit_for_bit(self, tmp_path, monkeypatch, split):
        doc = json.loads(reference_document(sample_trajs(count=6, rounds=4) + _mixed_trajs()))
        drifted = doc["samples"][4]["rounds"]
        drifted[0][2][1] += 3e-7  # off the simplex by more than 1e-9: renormalized
        drifted[-1][0] = [-1e-10, 1.0 + 1e-10, 0.0, 0.0]  # negative: clipped
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        monkeypatch.setattr(fio, "_SPLIT_BYTES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1} if split else {0}, raising=False)
        forks = _count_forks(monkeypatch)
        ends = fio._load_ends(str(path))
        full = load_trajectories(str(path))
        assert len(forks) == 2 * split
        assert float(full[4].metadata["ingest_max_drift"]) > 2e-7
        assert full[4].innate[2].tolist() != drifted[0][2]
        assert full[4].final[0].tolist() == [0.0, 1.0, 0.0, 0.0]
        for end, traj in zip(ends, full, strict=True):
            assert (end.sample_id, end.correct_label, end.metadata) == (
                traj.sample_id, traj.correct_label, traj.metadata
            )
            assert (end.n, end.d) == (traj.n, traj.d)
            for got, want in ((end.innate, traj.innate), (end.final, traj.final)):
                assert got.tobytes() == want.tobytes() and got.shape == want.shape
                assert not got.flags.writeable
                assert got.base is None  # a copy, not a view of every round


class TestChildPlacement:
    """A forked child runs on the usable CPUs other than its parent's."""

    @pytest.mark.parametrize(
        "usable, current, want",
        [
            ({0, 1}, 0, {1}),
            ({0, 1}, 1, {0}),
            ({0, 1, 2, 3}, 2, {0, 1, 3}),
            ({2, 3}, 0, {2, 3}),
            ({0}, 0, None),
            ({0, 1}, None, None),
        ],
        ids=["first", "second", "four", "parent-not-usable", "only-cpu", "unknown"],
    )
    def test_mask_rule(self, usable, current, want):
        assert _fork._child_cpus(usable, current) == want

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity") or _fork._current_cpu() is None,
        reason="no CPU affinity or /proc/self/stat",
    )
    def test_current_cpu_is_a_usable_cpu(self):
        assert _fork._current_cpu() in os.sched_getaffinity(0)

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity")
        or _fork._current_cpu() is None
        or len(os.sched_getaffinity(0)) < 2,
        reason="needs CPU affinity, /proc/self/stat and two usable CPUs",
    )
    def test_child_runs_on_the_other_cpus(self):
        usable = os.sched_getaffinity(0)

        def produce():
            yield from sorted(os.sched_getaffinity(0))

        with _fork._forked(produce) as theirs:
            placed = set(theirs)
        assert len(placed) == len(usable) - 1 and placed < usable
        assert os.sched_getaffinity(0) == usable  # this process is not moved
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkProtocol:
    """ChildProcessError is the one signal that a split failed, and no child
    is left behind."""

    def test_a_raising_producer_fails_the_iterator(self):
        def produce():
            yield "half"
            raise RuntimeError("the child's producer failed")

        with _fork._forked(produce) as theirs:
            with pytest.raises(ChildProcessError):
                next(theirs)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_no_child_raises_on_entry_and_closes_the_temp_file(self, monkeypatch):
        forks = _count_forks(monkeypatch, fail=True)
        before = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(ChildProcessError) as err:
            with _fork._forked(lambda: ()):
                pytest.fail("the block ran without a child")
        assert type(err.value.__cause__) is OSError
        assert len(forks) == 1
        assert sorted(os.listdir("/proc/self/fd")) == before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_iterator_yields_the_childs_objects_in_order(self, count):
        objects = [{"k": k, "rounds": np.full((2, 2), k / 3)} for k in range(count)]

        with _fork._forked(lambda: iter(objects)) as theirs:
            got = list(theirs)
        assert [obj["k"] for obj in got] == list(range(count))
        assert all(np.array_equal(a["rounds"], b["rounds"]) for a, b in zip(got, objects))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_iterator_waits_for_the_child_when_first_advanced(self, monkeypatch):
        # a split load chains its own half before the child's iterator; a
        # wait on entry would run the halves one after the other
        waits = []
        waitpid = os.waitpid

        def counted(pid, options):
            waits.append(pid)
            return waitpid(pid, options)

        monkeypatch.setattr(os, "waitpid", counted)
        with _fork._forked(lambda: iter("ab")) as theirs:
            assert waits == []
            assert next(theirs) == "a"
            assert len(waits) == 1
            assert list(theirs) == ["b"]
        assert len(waits) == 1  # the child was waited for, so not killed
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


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

    @pytest.mark.parametrize("block", [1, 2, 7])
    @pytest.mark.parametrize("count", [0, 1, 2, 7, 14, 15])
    def test_blocks_join_to_one_writers_text(self, tmp_path, monkeypatch, block, count):
        rows = [[f"s{k}", k, k / 3, k % 2 == 0, None] for k in range(count)]
        want = tmp_path / "want.csv"
        write_csv(str(want), ["id", "k", "x", "even", "none"], rows)
        monkeypatch.setattr(fio, "_CSV_BLOCK_ROWS", block)
        got = tmp_path / "got.csv"
        write_csv(str(got), ["id", "k", "x", "even", "none"], (row for row in rows))
        assert got.read_bytes() == want.read_bytes()
        assert len(got.read_bytes().splitlines()) == count + 1

    def test_a_row_generator_is_written_in_blocks(self, tmp_path):
        path = str(tmp_path / "t.csv")
        header = ["sample_id", "agent_id", *MetricColumns.AGENT_FIELDS]

        def rows():
            for k in range(80_000):
                yield [f"sample-{k // 8:04d}", k % 8, *(k / (j + 7) for j in range(len(header) - 2))]

        peak = traced_peak(lambda: write_csv(path, header, rows()))
        assert peak < 4 << 20
        with open(path, "rb") as fh:
            assert sum(1 for _ in fh) == 80_001

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

    @pytest.mark.parametrize("text, value", [("on", True), ("Off", False)])
    def test_booleans_take_every_configparser_spelling(self, tmp_path, text, value):
        path = tmp_path / "run.ini"
        path.write_text(f"[fit]\nglobal = {text}\n")
        assert load_config(str(path)).fit.global_fit is value

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

    def test_analyze_section_default_threshold_is_the_constant(self):
        assert AnalyzeSection().consensus_threshold == CONSENSUS_THRESHOLD

    @pytest.mark.parametrize(
        "line, message",
        [
            ("max_iters = 0", "max_iters and restarts must be positive"),
            ("objective = foo", "objective must be 'kl' or 'mse', got 'foo'"),
            ("reg_lambda = nan", "reg_lambda must be finite and nonnegative, got nan"),
            ("tol = -1", "tol must be finite and nonnegative, got -1.0"),
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

    def test_analyze_writes_null_for_unlabeled_samples(self, tmp_path):
        out = str(tmp_path)
        trajs = sample_trajs(count=3)
        save_trajectories(os.path.join(out, "trajectories.json"), trajs)
        assert self._analyze_with(out, params_to_dict(sample_params())) == 0
        summary = read_json(out, "analyze_summary.json")
        assert summary["spearman_confidence_competence"] is not None
        assert summary["spearman_influence_competence"] is not None
        # the same beliefs without labels: no competence to rank against
        trajs = [replace(t, correct_label=None) for t in trajs]
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

    @staticmethod
    def _inline_gamma_document(sim):
        """simulate's trajectories.json built without draw_pools: the draw loop
        and the γ rule written inline, and one json.dumps."""
        sset = None
        if sim.mode == "scenario" and sim.scenario == "exclusive":
            sc = ExclusiveScenario(n=sim.agents, d=sim.labels, epsilon=sim.epsilon)
            sset = gen_exclusive(sc, sim.pools * sim.samples, sim.seed)
        elif sim.mode == "scenario":
            sc = ImperfectScenario(n=sim.agents, d=sim.labels, p=sim.p, u=sim.u, c=sim.c)
            sset = gen_imperfect(sc, sim.pools * sim.samples, sim.seed)
        rng = np.random.default_rng(sim.seed)
        trajs = []
        for pool in range(sim.pools):
            pool_params = _draw_pool_params(rng, sim)
            first = pool * sim.samples
            metadata = {"pool": str(pool)}
            if sset is None:
                innates, labels = [], []
                for _ in range(sim.samples):
                    innates.append(rng.dirichlet(np.ones(sim.labels), size=sim.agents))
                    labels.append(int(rng.integers(sim.labels)))
                innates = np.stack(innates)
            else:
                innates = sset.beliefs[first : first + sim.samples]
                labels = [int(y) for y in sset.labels[first : first + sim.samples]]
                metadata["scenario"] = sim.scenario
            params = [pool_params] * sim.samples
            if sim.gamma_mode == "confidence":
                params = [
                    replace(pool_params, gamma=np.clip(conf, sim.gamma_min, sim.gamma_max))
                    for conf, _ in map(confidence_metrics, innates)
                ]
            ids = [f"sample-{first + k:04d}" for k in range(sim.samples)]
            trajs += simulate_pool(
                params, innates, sim.rounds, sample_ids=ids, correct_labels=labels, metadata=metadata
            )
        return reference_document(trajs).encode("utf-8")

    # (mode, scenario, gamma_mode): random mode and both scenarios x both γ modes
    DRAW_CASES = [
        ("random", None, "random"),
        ("scenario", "exclusive", "random"),
        ("scenario", "exclusive", "confidence"),
        ("scenario", "imperfect", "random"),
        ("scenario", "imperfect", "confidence"),
    ]

    @staticmethod
    def _simulate_case(out, seed, mode, scenario, gamma_mode, **size):
        """Run simulate on one draw case; return the SimulateConfig it resolved."""
        argv = ["--output-dir", out, "--seed", str(seed), "--quiet", "simulate", "--mode", mode]
        argv += ["--gamma-mode", gamma_mode] + (["--scenario", scenario] if scenario else [])
        for key, value in size.items():
            argv += [f"--{key}", str(value)]
        assert run(argv) == 0
        sim = load_config(None).with_seed(seed).simulate
        scenario = scenario or sim.scenario
        return replace(sim, mode=mode, scenario=scenario, gamma_mode=gamma_mode, **size)

    @pytest.mark.parametrize("mode, scenario, gamma_mode", DRAW_CASES)
    def test_gamma_rule_keeps_the_file(self, tmp_path, mode, scenario, gamma_mode):
        out = str(tmp_path)
        size = dict(pools=2, samples=3, agents=4, labels=3, rounds=4)
        sim = self._simulate_case(out, 11, mode, scenario, gamma_mode, **size)
        with open(os.path.join(out, "trajectories.json"), "rb") as fh:
            assert fh.read() == self._inline_gamma_document(sim)

    @pytest.mark.parametrize(
        "scenario, digest",
        [
            ("exclusive", "f2a872efa09c490d517d5261a58c1bfec94f42735b50b05f249bc05056992f29"),
            ("imperfect", "96aea0895a8e06884db3de79a775436332ad56a68a2bfb5dd4b37f21416e85a3"),
        ],
    )
    def test_scenario_mode_keeps_its_recorded_file(self, tmp_path, scenario, digest):
        # sha256 of trajectories.json, recorded when every sample's snapshot
        # was built on its own
        argv = ["--output-dir", str(tmp_path), "--seed", "4", "--quiet", "simulate"]
        argv += ["--mode", "scenario", "--scenario", scenario, "--agents", "4", "--labels", "3"]
        argv += ["--pools", "2", "--samples", "5", "--rounds", "3"]
        assert run(argv) == 0
        written = (tmp_path / "trajectories.json").read_bytes()
        assert hashlib.sha256(written).hexdigest() == digest

    @pytest.mark.parametrize("mode, scenario, gamma_mode", DRAW_CASES)
    def test_returned_truth_resimulates_every_saved_sample(
        self, tmp_path, mode, scenario, gamma_mode
    ):
        out = str(tmp_path)
        size = dict(pools=2, samples=3, agents=5, labels=4, rounds=3)
        sim = self._simulate_case(out, 7, mode, scenario, gamma_mode, **size)
        saved = load_trajectories(os.path.join(out, "trajectories.json"))
        trajs, truth = draw_pools(sim)
        assert [t.sample_id for t in trajs] == [t.sample_id for t in saved]
        assert len(truth) == len(saved) == 6
        for k, (traj, params, kept) in enumerate(zip(trajs, truth, saved)):
            assert kept.metadata.get("scenario") == scenario
            # each sample runs alone under its returned parameters
            alone = simulate(params, traj.innate, sim.rounds)
            assert alone.snapshots.tobytes() == kept.snapshots.tobytes()
            assert alone.metadata["max_drift"] == kept.metadata["max_drift"]
            # a pool shares α and w, and γ too unless γ follows confidence
            base = truth[k - k % sim.samples]
            shared = ("alpha", "w", "gamma") if gamma_mode == "random" else ("alpha", "w")
            for name in shared:
                np.testing.assert_array_equal(getattr(params, name), getattr(base, name))
        if gamma_mode == "confidence":
            assert len({params.gamma.tobytes() for params in truth}) > 1

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

    @pytest.mark.parametrize(
        "flag, value",
        [("--reg-lambda", "nan"), ("--reg-lambda", "inf"), ("--tol", "nan"), ("--tol", "-1e-9")],
    )
    def test_fit_rejects_a_bad_reg_lambda_or_tol(self, tmp_path, capfd, flag, value):
        out = str(tmp_path)
        assert self._simulate(out) == 0
        capfd.readouterr()
        assert run(["--output-dir", out, "--quiet", "fit", f"{flag}={value}"]) == 1
        captured = capfd.readouterr()
        name = flag[2:].replace("-", "_")
        want = f"fjlab: error: {name} must be finite and nonnegative, got {float(value)}"
        assert (captured.out, captured.err.splitlines()) == ("", [want])
        assert not os.path.exists(os.path.join(out, "fits.json"))

    @pytest.mark.parametrize("mode", ["random", "scenario"])
    @pytest.mark.parametrize(
        "low, high", [(0.9, 0.1), ("nan", 0.5), (0.2, "nan"), (-0.1, 0.5), (0.1, 1.5)]
    )
    @pytest.mark.parametrize("key", ["gamma", "alpha"])
    def test_simulate_rejects_a_bad_gamma_or_alpha_range(
        self, tmp_path, capsys, key, low, high, mode
    ):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[simulate]\n{key}_min = {low}\n{key}_max = {high}\n")
        out = str(tmp_path)
        argv = ["--config", str(ini), "--output-dir", out, "--quiet", "simulate"]
        assert run([*argv, "--mode", mode]) == 1
        want = (
            f"fjlab: error: {key}_min and {key}_max must satisfy 0 <= min <= max <= 1, "
            f"got {float(low)} and {float(high)}"
        )
        assert capsys.readouterr().err.splitlines() == [want]
        assert not os.path.exists(os.path.join(out, "trajectories.json"))

    def test_simulate_accepts_a_range_of_one_point_at_the_ends(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[simulate]\ngamma_min = 1\ngamma_max = 1\nalpha_min = 0\nalpha_max = 0\n")
        out = str(tmp_path)
        assert run(["--config", str(ini), "--output-dir", out, "--quiet", "simulate"]) == 0
        assert os.path.exists(os.path.join(out, "trajectories.json"))

    @pytest.mark.parametrize(
        "lines, want",
        [
            ("mode = foo", "unknown simulate mode 'foo'"),
            ("mode = scenario\nscenario = foo", "unknown scenario 'foo'"),
            ("mode = random\ngamma_mode = fixed", "unknown gamma_mode 'fixed'"),
            ("mode = scenario\ngamma_mode = fixed", "unknown gamma_mode 'fixed'"),
            ("mode = params\ngamma_mode = fixed", "unknown gamma_mode 'fixed'"),
        ],
        ids=["mode", "scenario", "gamma_mode-random", "gamma_mode-scenario", "gamma_mode-params"],
    )
    def test_simulate_rejects_a_config_only_value(self, tmp_path, capsys, lines, want):
        # argparse's choices guard the flags; the config file reaches cmd_simulate
        ini = tmp_path / "run.ini"
        ini.write_text(f"[simulate]\n{lines}\n")
        out = str(tmp_path)
        assert run(["--config", str(ini), "--output-dir", out, "--quiet", "simulate"]) == 1
        assert capsys.readouterr().err.splitlines() == [f"fjlab: error: {want}"]
        assert not os.path.exists(os.path.join(out, "trajectories.json"))

    def test_simulate_rejects_an_imperfect_scenario_without_confidence_order(
        self, tmp_path, capsys
    ):
        # at the default p = 0.9 and u = 0.05, d = 2 forces the other agents'
        # row to (0.05, 0.95), more confident than the competent (0.9, 0.1)
        out = str(tmp_path)
        argv = ["--output-dir", out, "--quiet", "simulate", "--mode", "scenario"]
        assert run([*argv, "--scenario", "imperfect", "--labels", "2"]) == 1
        want = (
            "fjlab: error: competent confidence 0.5310044064107189 "
            "not strictly above 0.7136030428840439"
        )
        assert capsys.readouterr().err.splitlines() == [want]
        assert not os.path.exists(os.path.join(out, "trajectories.json"))

    def test_simulate_checks_the_config_after_its_flags(self, tmp_path):
        # a [simulate] value that a flag makes valid is not an error
        ini = tmp_path / "run.ini"
        ini.write_text("[simulate]\ngamma_mode = confidence\n")
        both, mixed = tmp_path / "both", tmp_path / "mixed"
        argv = ["--quiet", "simulate", "--mode", "scenario", "--rounds", "3"]
        assert run(["--output-dir", str(both), *argv, "--gamma-mode", "confidence"]) == 0
        assert run(["--config", str(ini), "--output-dir", str(mixed), *argv]) == 0
        written = (mixed / "trajectories.json").read_bytes()
        assert written == (both / "trajectories.json").read_bytes()
        ini.write_text("[simulate]\nsamples = 0\n")
        argv = ["--config", str(ini), "--output-dir", str(mixed), "--quiet", "simulate"]
        assert run([*argv, "--samples", "2"]) == 0
        assert len(load_trajectories(str(mixed / "trajectories.json"))) == 2

    def test_a_bad_simulate_section_does_not_fail_verify(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[simulate]\nsamples = 0\ngamma_min = 0.9\ngamma_max = 0.1\nmode = foo\n")
        argv = ["--config", str(ini), "--output-dir", str(tmp_path / "out"), "--quiet", "verify"]
        assert run([*argv, "--checks", "diversity_forms"]) == 0

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
            # arrays that parse, but that FJParameters rejects
            (
                "analyze",
                {
                    "per_sample": [
                        {
                            "sample_id": "sample-0000",
                            "params": {
                                **params_to_dict(sample_params()),
                                "mask": [[False, True], [True, False]],
                            },
                        }
                    ]
                },
            ),
            (
                "compare",
                {
                    "global": [
                        {
                            "pool": "0",
                            "params": {**params_to_dict(sample_params()), "gamma": [1.5, 0.5, 0.5]},
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

    @pytest.mark.parametrize("version", ["2", None], ids=["unsupported", "missing"])
    @pytest.mark.parametrize("command", ["analyze", "compare"])
    def test_fits_schema_version_is_checked(self, tmp_path, capsys, command, version):
        out = str(tmp_path)
        assert self._simulate(out) == 0
        assert run(["--output-dir", out, "--quiet", "fit", "--global"]) == 0
        fits = read_json(out, "fits.json")
        assert fits["schema_version"] == "1"
        if version is None:
            del fits["schema_version"]
        else:
            fits["schema_version"] = version
        atomic_write_json(os.path.join(out, "fits.json"), fits)
        capsys.readouterr()
        assert run(["--output-dir", out, "--quiet", command]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        path = os.path.join(out, "fits.json")
        if version is None:
            assert line == f"fjlab: error: {path!r}: missing schema_version"
        else:
            assert line == (
                f"fjlab: error: {path!r}: schema_version '2', this reader supports '1'"
            )

    @pytest.mark.parametrize("command, section", [("analyze", "per_sample"), ("compare", "global")])
    def test_repeated_fits_key_exits_1(self, tmp_path, capsys, command, section):
        out = str(tmp_path)
        assert self._simulate(out) == 0
        assert run(["--output-dir", out, "--quiet", "fit", "--global"]) == 0
        fits = read_json(out, "fits.json")
        fits[section].append(fits[section][0])
        atomic_write_json(os.path.join(out, "fits.json"), fits)
        capsys.readouterr()
        assert run(["--output-dir", out, "--quiet", command]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        key = "sample_id" if section == "per_sample" else "pool"
        entry = len(fits[section]) - 1
        path = os.path.join(out, "fits.json")
        assert line == (
            f"fjlab: error: {path!r}: {section} entry {entry}: "
            f"duplicate {key} {fits[section][0][key]!r}"
        )

    def test_fits_parse_params_to_arrays(self):
        good = params_to_dict(sample_params())
        ragged = {**good, "mask": [[False, True, True], [True, False]]}
        text = json.dumps(
            {"per_sample": [{"params": good}, {"params": ragged}], "variability": {"gamma": [1, 2]}}
        )
        doc = json.loads(text, object_hook=_params_to_arrays)
        first, second = (entry["params"] for entry in doc["per_sample"])
        for name in ("gamma", "alpha", "w"):
            assert first[name].dtype == np.float64 and first[name].tolist() == good[name]
        assert first["mask"].dtype == bool and first["mask"].tolist() == good["mask"]
        # a list that does not convert is left for params_from_dict to reject
        assert second["mask"] == ragged["mask"] and second["w"].dtype == np.float64
        assert doc["variability"] == {"gamma": [1, 2]}  # not a params object

    @pytest.mark.parametrize("label", [True, 1.5, "1", 3])
    def test_params_file_label_is_checked_by_the_trajectory(self, tmp_path, capsys, label):
        out = str(tmp_path)
        doc = params_to_dict(sample_params())
        doc["innate"] = np.full((3, 3), 1.0 / 3).tolist()
        doc["correct_label"] = label
        pfile = os.path.join(out, "params.json")
        atomic_write_json(pfile, doc)
        argv = ["--output-dir", out, "--quiet", "simulate", "--mode", "params"]
        assert run(argv + ["--params-file", pfile]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("fjlab: error: label ")
        assert not os.path.exists(os.path.join(out, "trajectories.json"))

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("innate", "abc", "bad 'innate' snapshot"),
            ("mask", [[False, True, True], [True, False], [True]], "bad parameter dictionary"),
            ("innate", np.full((4, 3), 1.0 / 3).tolist(), "bad 'innate' snapshot"),
            ("innate", [1.0 / 3] * 3, "bad 'innate' snapshot"),
            ("innate", [[0.5, 0.6, 0.1]] * 3, "bad 'innate' snapshot"),
            ("innate", [[1.0]] * 3, "bad 'innate' snapshot"),
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
        assert not os.path.exists(os.path.join(out, "trajectories.json"))

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda doc: {**doc, "gamma": [0.5, 1.5, 0.5]}, "gamma entries must lie in [0, 1]"),
            (
                lambda doc: {**doc, "gamma": [0.5, 0.5]},
                "inconsistent shapes: gamma (2,), alpha (3,), w (3, 3), mask (3, 3)",
            ),
            (lambda doc: [doc], "params file must be a JSON object with an 'innate' snapshot"),
            (
                lambda doc: {k: v for k, v in doc.items() if k != "innate"},
                "params file must be a JSON object with an 'innate' snapshot",
            ),
        ],
        ids=["gamma-range", "gamma-count", "not-an-object", "no-innate"],
    )
    def test_params_file_errors_name_the_file(self, tmp_path, capsys, edit, reason):
        out = str(tmp_path)
        doc = params_to_dict(sample_params())
        doc["innate"] = np.full((3, 3), 1.0 / 3).tolist()
        pfile = os.path.join(out, "params.json")
        atomic_write_json(pfile, edit(doc))
        argv = ["--output-dir", out, "--quiet", "simulate", "--mode", "params"]
        assert run(argv + ["--params-file", pfile]) == 1
        assert capsys.readouterr().err.splitlines() == [f"fjlab: error: {pfile!r}: {reason}"]
        assert not os.path.exists(os.path.join(out, "trajectories.json"))

    def test_params_file_with_an_unknown_key_exits_1(self, tmp_path, capsys):
        out = str(tmp_path)
        doc = params_to_dict(sample_params())
        doc["innate"] = np.full((3, 3), 1.0 / 3).tolist()
        doc["correct_lable"] = 0
        doc["beta"] = 1.0
        pfile = os.path.join(out, "params.json")
        atomic_write_json(pfile, doc)
        argv = ["--output-dir", out, "--quiet", "simulate", "--mode", "params"]
        assert run(argv + ["--params-file", pfile]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"fjlab: error: {pfile!r}: unknown keys ['beta', 'correct_lable']"
        assert not os.path.exists(os.path.join(out, "trajectories.json"))

    @pytest.mark.parametrize(
        "literal", ["1" + "0" * 400, "1" * 5000], ids=["float-overflow", "digit-limit"]
    )
    @pytest.mark.parametrize(
        "kind, message",
        [
            ("trajectories", "sample 'sample-0001': non-numeric or ragged rounds"),
            ("fits", "per_sample entry 0: bad parameter dictionary: int too large"),
            ("params-innate", "bad 'innate' snapshot: int too large"),
            ("params-gamma", "bad parameter dictionary: int too large"),
        ],
    )
    def test_huge_integer_literal_exits_1(self, tmp_path, capsys, kind, message, literal):
        """An integer too large for a float is bad input; one past Python's
        integer parse limit (4,300 digits) fails as the file's JSON."""
        out = str(tmp_path)
        if kind == "trajectories":
            assert self._simulate(out) == 0
            name = "trajectories.json"
            doc = read_json(out, name)
            doc["samples"][1]["rounds"][0][0][0] = "HUGE"
            argv = ["fit", "--input", os.path.join(out, name)]
        elif kind == "fits":
            assert self._simulate(out) == 0
            assert run(["--output-dir", out, "--quiet", "fit"]) == 0
            name = "fits.json"
            doc = read_json(out, name)
            doc["per_sample"][0]["params"]["gamma"][0] = "HUGE"
            argv = ["analyze"]
        else:
            name = "params.json"
            doc = params_to_dict(sample_params())
            doc["innate"] = np.full((3, 3), 1.0 / 3).tolist()
            if kind == "params-innate":
                doc["innate"][0][0] = "HUGE"
            else:
                doc["gamma"][0] = "HUGE"
            argv = ["simulate", "--mode", "params", "--params-file", os.path.join(out, name)]
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc).replace('"HUGE"', literal))
        capsys.readouterr()
        assert run(["--output-dir", out, "--quiet"] + argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = err.splitlines()
        assert line.startswith("fjlab: error: ")
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # Python 3.10.7+
        assert (name if 0 < limit < len(literal) else message) in line

    @pytest.mark.parametrize(
        "argv, split",
        [
            (["fit", "--input"], False),
            (["fit", "--input"], True),
            (["analyze", "--fits"], False),
            (["compare", "--fits"], False),
            (["simulate", "--mode", "params", "--params-file"], False),
        ],
        ids=["trajectories", "trajectories-split", "analyze-fits", "compare-fits", "params"],
    )
    def test_json_nested_past_the_recursion_limit_exits_1(
        self, tmp_path, capsys, monkeypatch, argv, split
    ):
        out = str(tmp_path)
        assert self._simulate(out) == 0
        path = os.path.join(out, "deep.json")
        deep = "[" * 100_000
        forks = _count_forks(monkeypatch)
        if split:
            # a sample of the first half, which this process parses in a split load
            monkeypatch.setattr(fio, "_SPLIT_BYTES", 1)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            text = reference_document(sample_trajs(count=10))
            text = text.replace('"pool": "0"', f'"pool": {deep}{"]" * len(deep)}', 1)
        else:
            text = '{"schema_version": "1", "samples": [' + deep
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        capsys.readouterr()
        assert run(["--output-dir", out, "--quiet", *argv, path]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("fjlab: error: ") and "deep.json" in line
        assert "recursion" in line
        assert len(forks) == split

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

    @pytest.mark.parametrize("value", ["nan", "-1"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_analyze_rejects_a_bad_consensus_threshold(self, tmp_path, capsys, source, value):
        out = str(tmp_path)
        assert self._simulate(out) == 0
        assert run(["--output-dir", out, "--quiet", "fit"]) == 0
        ini = tmp_path / "run.ini"
        ini.write_text(f"[analyze]\nconsensus_threshold = {value}\n")
        argv = ["--output-dir", out, "--quiet"]
        if source == "config":
            argv += ["--config", str(ini), "analyze"]
        else:
            argv += ["analyze", f"--consensus-threshold={value}"]
        capsys.readouterr()
        assert run(argv) == 1
        want = f"fjlab: error: consensus_threshold must be >= 0, got {float(value)}"
        assert capsys.readouterr().err.splitlines() == [want]
        assert not os.path.exists(os.path.join(out, "agents.csv"))
        argv = ["--output-dir", out, "--quiet", "analyze"]
        for value in ("0", "inf"):
            assert run([*argv, f"--consensus-threshold={value}"]) == 0

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


    def test_compare_scores_a_pool_that_mixes_label_counts(self, tmp_path):
        # two simulate outputs in one file: each pool holds 3- and 4-label samples
        out = str(tmp_path)
        trajs = []
        for labels in ("3", "4"):
            part = str(tmp_path / f"d{labels}")
            assert self._simulate(part, ["--samples", "4", "--labels", labels]) == 0
            trajs += [
                replace(t, sample_id=f"d{labels}-{t.sample_id}")
                for t in load_trajectories(os.path.join(part, "trajectories.json"))
            ]
        save_trajectories(os.path.join(out, "trajectories.json"), trajs)
        for command in (["fit", "--global"], ["analyze"], ["compare"]):
            assert run(["--output-dir", out, "--quiet", *command]) == 0, command
        pooled = {
            entry["pool"]: params_from_dict(entry["params"])
            for entry in read_json(out, "fits.json")["global"]
        }
        eta = np.full(3, 1.0 / 3.0)
        groups = read_json(out, "compare.json")["groups"]
        assert [g["group"] for g in groups] == ["0", "1"]
        for group in groups:
            pool = [t for t in trajs if t.metadata["pool"] == group["group"]]
            assert {t.d for t in pool} == {3, 4} and group["n_samples"] == len(pool)
            pi = aggregate_pi(influence_weights(pooled[group["group"]]), eta)
            weights = {"innate_mix": (eta, 0), "final_mix": (eta, -1), "influence_mix": (pi, 0)}
            for method, (w, snapshot) in weights.items():
                hits = [np.argmax(w @ t.snapshots[snapshot]) == t.correct_label for t in pool]
                assert group[method] == np.mean(hits), method

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**128])
    @pytest.mark.parametrize(
        "command",
        [["simulate"], ["simulate", "--mode", "scenario"], ["verify"]],
        ids=["random", "scenario", "verify"],
    )
    def test_a_seed_outside_the_generators_range_exits_1(self, tmp_path, capsys, command, seed):
        capsys.readouterr()
        assert run(["--output-dir", str(tmp_path), "--quiet", "--seed", str(seed), *command]) == 1
        want = f"fjlab: error: seed must be in [0, 2**64), got {seed}"
        assert capsys.readouterr().err.splitlines() == [want]
        assert os.listdir(str(tmp_path)) == []

    @pytest.mark.parametrize(
        "command",
        [
            ["simulate"],
            ["simulate", "--mode", "scenario"],
            ["verify", "--prop-draws", "3", "--identity-draws", "20",
             "--consistency-samples", "50"],
        ],
        ids=["random", "scenario", "verify"],
    )
    def test_the_largest_seed_runs(self, tmp_path, command):
        argv = ["--output-dir", str(tmp_path), "--quiet", "--seed", str(2**64 - 1)]
        assert run([*argv, *command]) == 0

    def test_params_mode_draws_nothing_and_takes_any_seed(self, tmp_path):
        doc = params_to_dict(sample_params())
        doc["innate"] = np.random.default_rng(3).dirichlet(np.ones(3), size=3).tolist()
        pfile = str(tmp_path / "params.json")
        atomic_write_json(pfile, doc)
        out = str(tmp_path / "out")
        argv = ["--output-dir", out, "--quiet", "--seed", "-1"]
        assert run([*argv, "simulate", "--mode", "params", "--params-file", pfile]) == 0
        assert os.listdir(out) == ["trajectories.json"]

    def test_an_output_dir_that_is_a_file_exits_1(self, tmp_path, capsys):
        target = tmp_path / "out"
        target.write_text("kept\n")
        capsys.readouterr()
        assert run(["--output-dir", str(target), "--quiet", "simulate"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("fjlab: error: [Errno"), err
        assert os.listdir(str(tmp_path)) == ["out"] and target.read_text() == "kept\n"

    def test_an_artifact_path_that_is_a_directory_exits_1(self, tmp_path, capsys):
        (tmp_path / "trajectories.json").mkdir()
        capsys.readouterr()
        assert run(["--output-dir", str(tmp_path), "--quiet", "simulate"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("fjlab: error: [Errno"), err
        assert os.listdir(str(tmp_path)) == ["trajectories.json"]
        assert os.listdir(str(tmp_path / "trajectories.json")) == []

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


class TestParserReuse:
    """run() builds its parser once per process, and no call leaves state
    in it for the next."""

    SHAPE = ["--pools", "2", "--samples", "2", "--agents", "3", "--labels", "3", "--rounds", "3"]

    @staticmethod
    def _argv(out, *argv, quiet=True):
        return ["--output-dir", str(out), "--seed", "5", *(["--quiet"] if quiet else []), *argv]

    def test_a_global_fit_does_not_carry_over(self, tmp_path):
        assert run(self._argv(tmp_path, "simulate", *self.SHAPE)) == 0
        assert run(self._argv(tmp_path, "fit", "--global")) == 0
        assert "global" in read_json(tmp_path, "fits.json")
        assert run(self._argv(tmp_path, "fit")) == 0
        assert "global" not in read_json(tmp_path, "fits.json")

    def test_an_objective_does_not_carry_over(self, tmp_path):
        assert run(self._argv(tmp_path, "simulate", *self.SHAPE)) == 0
        assert run(self._argv(tmp_path, "fit", "--objective", "mse")) == 0
        assert read_json(tmp_path, "fits.json")["objective"] == "mse"
        assert run(self._argv(tmp_path, "fit")) == 0
        assert read_json(tmp_path, "fits.json")["objective"] == "kl"

    def test_quiet_does_not_carry_over(self, tmp_path, capsys):
        capsys.readouterr()
        assert run(self._argv(tmp_path, "simulate", *self.SHAPE)) == 0
        assert capsys.readouterr().out == ""
        assert run(self._argv(tmp_path, "simulate", *self.SHAPE, quiet=False)) == 0
        path = os.path.join(str(tmp_path), "trajectories.json")
        assert capsys.readouterr().out.splitlines() == [f"wrote {path} (4 samples, 3 rounds)"]

    def test_an_unknown_flag_leaves_the_parser_usable(self, tmp_path, capsys):
        capsys.readouterr()
        assert run(self._argv(tmp_path, "simulate", "--no-such-flag")) == 1
        assert capsys.readouterr().err.splitlines() == [
            "fjlab: error: unrecognized arguments: --no-such-flag"
        ]
        assert run(self._argv(tmp_path, "simulate", *self.SHAPE)) == 0

    def test_help_prints_the_same_text_twice(self, capsys):
        capsys.readouterr()
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                run(["--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert texts[0].startswith("usage: fjlab")

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()

    def test_five_runs_build_one_parser(self, tmp_path, monkeypatch, capsys):
        built = []

        def counting():
            built.append(None)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            codes = [
                run(self._argv(tmp_path, *argv))
                for argv in (
                    ["simulate", *self.SHAPE],
                    ["fit", "--global"],
                    ["analyze"],
                    ["compare"],
                    ["no-such-command"],
                )
            ]
        finally:
            cli._parser.cache_clear()  # later tests build from the real build_parser
        capsys.readouterr()
        assert codes == [0, 0, 0, 0, 1]
        assert len(built) == 1
