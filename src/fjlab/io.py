"""File formats: trajectory JSON, fitted-parameter JSON, metric CSVs.

Trajectory files are JSON with schema_version "1":

    {
      "schema_version": "1",
      "samples": [
        {
          "sample_id": "s0001",
          "n": 5, "d": 4,
          "rounds": [[[...d floats] * n] * (T+1)],   // row-major snapshots
          "correct_label": 2,                        // or null
          "label_names": ["A", "B", "C", "D"],       // optional
          "metadata": {"pool": "p00"}                // flat string map
        }, ...
      ]
    }

Unknown keys are rejected.  On ingest every belief row must sum to 1
within 1e-6 (entries finite and >= -1e-9).  A sample with a negative
entry or a row off by more than TAU_SIMPLEX (1e-9) is clipped at 0 and
renormalized; any other loads as written, bit for bit.  The worst drift
is recorded in the sample's metadata under "ingest_max_drift".  Errors
name the exact (sample, round, agent) cell.  label_names survive round
trips via the metadata key "label_names" (JSON-encoded list).

Loading and saving trajectories pause the cyclic garbage collector while
they parse or build the document.  Its tree of lists and dicts holds no
reference cycles, so reference counting alone frees it and a collection
finds nothing there; without the pause, the collector's allocation
thresholds fire every few hundred containers and its full passes walk
the growing tree.  The collector's previous state is restored afterwards,
also when the load raises.

All writes are atomic (temp file in the target directory, then rename).
JSON is written compact, on one line, with no NaN or Infinity tokens.
CSVs are RFC 4180: CRLF line endings, minimal quoting, floats via repr
(shortest round-trip form), booleans as "true"/"false", missing values
as empty cells.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import math
import os
import tempfile
from typing import Any

import numpy as np

from .constants import TAU_SIMPLEX
from .errors import (
    InvariantViolation,
    LabelOutOfRange,
    ParseError,
    SchemaVersionUnsupported,
    ShapeMismatch,
)
from .model import DeliberationTrajectory, FJParameters

__all__ = [
    "SCHEMA_VERSION",
    "atomic_write_text",
    "atomic_write_json",
    "write_csv",
    "format_cell",
    "load_trajectories",
    "save_trajectories",
    "params_to_dict",
    "params_from_dict",
]

SCHEMA_VERSION = "1"

_SAMPLE_KEYS = {
    "sample_id",
    "n",
    "d",
    "rounds",
    "correct_label",
    "label_names",
    "metadata",
}


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the target directory and a rename; the file
    gets mode 0o666 minus the umask, like one created by ``open``."""
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)  # the umask can only be read by setting it
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_json(path: str, obj: Any) -> None:
    """Write ``obj`` as compact single-line JSON; a NaN or infinite float
    raises ValueError, since every artifact holds finite numbers or null."""
    atomic_write_text(path, json.dumps(obj, allow_nan=False) + "\n")


def format_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        f = float(value)
        return repr(f) if math.isfinite(f) else ""
    return str(value)


def write_csv(path: str, header: list[str], rows: list[list[Any]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n", quoting=csv.QUOTE_MINIMAL)
    writer.writerow(header)
    # plain floats, nearly every cell, are formatted inline: format_cell's bytes without its call
    writer.writerows(
        [(repr(v) if math.isfinite(v) else "") if type(v) is float else format_cell(v) for v in row]
        for row in rows
    )
    atomic_write_text(path, buf.getvalue())


# -- trajectory files ------------------------------------------------------


@contextlib.contextmanager
def _gc_paused():
    """Disable the cyclic collector for the block or decorated call; re-enable
    it afterwards only if it was enabled before."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_gc_paused()
def load_trajectories(path: str) -> list[DeliberationTrajectory]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    if "schema_version" not in doc:
        raise ParseError(f"{path}: missing schema_version")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise SchemaVersionUnsupported(
            f"{path}: schema_version {doc['schema_version']!r}, "
            f"this reader supports {SCHEMA_VERSION!r}"
        )
    extra = set(doc) - {"schema_version", "samples"}
    if extra:
        raise ParseError(f"{path}: unknown top-level keys {sorted(extra)}")
    samples = doc.get("samples")
    if not isinstance(samples, list):
        raise ParseError(f"{path}: samples must be a list")
    out: list[DeliberationTrajectory] = []
    seen: set[str] = set()
    for pos, raw in enumerate(samples):
        out.append(_parse_sample(raw, pos))
        sid = out[-1].sample_id
        if sid in seen:
            raise ParseError(f"duplicate sample_id {sid!r}")
        seen.add(sid)
    return out


def _parse_sample(raw: Any, pos: int) -> DeliberationTrajectory:
    if not isinstance(raw, dict):
        raise ParseError(f"sample #{pos}: must be an object")
    extra = set(raw) - _SAMPLE_KEYS
    if extra:
        raise ParseError(f"sample #{pos}: unknown keys {sorted(extra)}")
    sid = raw.get("sample_id")
    if not isinstance(sid, str) or not sid:
        raise ParseError(f"sample #{pos}: sample_id must be a nonempty string")
    rounds = raw.get("rounds")
    if not isinstance(rounds, list) or not rounds:
        raise ParseError(f"sample {sid!r}: rounds must be a nonempty list")
    try:
        snaps = np.asarray(rounds, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"sample {sid!r}: non-numeric or ragged rounds") from exc
    if snaps.ndim != 3:
        raise ShapeMismatch(
            f"sample {sid!r}: rounds must be (T+1, n, d), got {snaps.shape}"
        )
    t1, n, d = snaps.shape
    if d < 2:
        raise ShapeMismatch(f"sample {sid!r}: need at least 2 labels, got {d}")
    for key, expected in (("n", n), ("d", d)):
        if key in raw and raw[key] != expected:
            raise ShapeMismatch(
                f"sample {sid!r}: declared {key}={raw[key]} but rounds give {expected}"
            )
    # entry and row-mass checks name the exact offending cell; NaN passes
    # every comparison, so non-finite entries are looked for explicitly
    bad = ~np.isfinite(snaps) | (snaps < -1e-9)
    if bad.any():
        t, i, c = np.argwhere(bad)[0]
        value = float(snaps[t, i, c])
        raise InvariantViolation(
            f"sample {sid!r}, round {t}, agent {i}: entry {c} is {value!r}"
        )
    sums = snaps.sum(axis=2)
    err = np.abs(sums - 1.0)
    drift = float(err.max())
    if drift > 1e-6:
        t, i = np.unravel_index(int(np.argmax(err)), err.shape)
        raise InvariantViolation(
            f"sample {sid!r}, round {t}, agent {i}: row sums to {float(sums[t, i])!r}"
        )
    if drift > TAU_SIMPLEX or snaps.min() < 0.0:
        # repair only samples off the simplex, so a saved one loads bit for bit
        np.clip(snaps, 0.0, None, out=snaps)
        snaps /= snaps.sum(axis=2, keepdims=True)
    label = raw.get("correct_label")
    if label is not None:
        if isinstance(label, bool) or not isinstance(label, int):
            raise ParseError(f"sample {sid!r}: correct_label must be an integer")
        if not 0 <= label < d:
            raise LabelOutOfRange(f"sample {sid!r}: label {label} outside [0, {d})")
    meta_raw = raw.get("metadata", {})
    if not isinstance(meta_raw, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in meta_raw.items()
    ):
        raise ParseError(f"sample {sid!r}: metadata must map strings to strings")
    metadata = dict(meta_raw)
    names = raw.get("label_names")
    if names is not None:
        if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
            raise ParseError(f"sample {sid!r}: label_names must be a list of strings")
        if len(names) != d:
            raise ShapeMismatch(
                f"sample {sid!r}: {len(names)} label_names for {d} labels"
            )
        metadata["label_names"] = json.dumps(names)
    metadata["ingest_max_drift"] = repr(drift)
    return DeliberationTrajectory(
        snapshots=snaps, sample_id=sid, correct_label=label, metadata=metadata
    )


@_gc_paused()
def save_trajectories(path: str, trajs: list[DeliberationTrajectory]) -> None:
    samples = []
    for traj in trajs:
        meta = dict(traj.metadata)
        names = None
        if "label_names" in meta:
            names = json.loads(meta.pop("label_names"))
        entry: dict[str, Any] = {
            "sample_id": traj.sample_id,
            "n": traj.n,
            "d": traj.d,
            "rounds": traj.snapshots.tolist(),
            "correct_label": traj.correct_label,
        }
        if names is not None:
            entry["label_names"] = names
        entry["metadata"] = meta
        samples.append(entry)
    atomic_write_json(path, {"schema_version": SCHEMA_VERSION, "samples": samples})


# -- parameter serialization ----------------------------------------------


def params_to_dict(params: FJParameters) -> dict[str, Any]:
    return {
        "gamma": params.gamma.tolist(),
        "alpha": params.alpha.tolist(),
        "w": params.w.tolist(),
        "mask": params.mask.tolist(),
    }


def params_from_dict(raw: dict[str, Any]) -> FJParameters:
    try:
        gamma = np.asarray(raw["gamma"], dtype=np.float64)
        alpha = np.asarray(raw["alpha"], dtype=np.float64)
        w = np.asarray(raw["w"], dtype=np.float64)
        mask = raw.get("mask")
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad parameter dictionary: {exc}") from exc
    if mask is None:
        mask = FJParameters.complete_mask(gamma.shape[0] if gamma.ndim == 1 else 0)
    return FJParameters(gamma=gamma, alpha=alpha, w=w, mask=mask)
