"""File formats: trajectory JSON, fitted-parameter JSON, params files, metric CSVs.

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
name the exact (sample, round, agent) cell, so the id is checked first;
it and the other fields then pass model._check_fields, the constructor's
check, raised as a ParseError naming the sample; metadata keys are free.

Trajectory io holds one sample's Python objects at a time.  The writer
streams the document: the head, then each sample's entry encoded on its
own by the C encoder (``JSONEncoder.encode``; ``iterencode`` would fall
back to the pure-Python encoder), then the closing brackets.  The bytes
equal ``json.dumps(document, allow_nan=False) + "\n"``.  The reader
streams a file in the writer's layout: the head, then ``, {"sample_id": ``
between samples.  It reads 64 KiB at a time, cuts the bytes at each
separator and parses each sample on its own (``_samples``), so it never
holds the whole text.  Any other layout, extra whitespace included, and any
file that is not valid JSON, is parsed whole by ``json.load``, which gives
the exact error; the checks on the samples are the same.  Both parses pass an
``object_hook``: as the scanner closes each object, a nonempty ``rounds``
list becomes a float64 array, so a sample's nested lists are freed before
the next sample is parsed.  A ``rounds`` that does not convert stays a
list, and the sample check raises on it.  A trajectory adopts the array
its load checked, frozen in place, without the constructor's second check
and copy.

Every load checks each sample as soon as a parse produces it (``_checked``),
so it holds one sample's parsed objects beside what it keeps:
``load_trajectories``, which ``fit`` uses, keeps every round; ``_load_ends``,
which ``analyze`` and ``compare`` use, keeps per sample its id, label,
metadata and copies of its first and last snapshots (``_Ends``), once every
round has passed the same checks and repair.  A file with several faults
raises one error on every path: a JSON error anywhere beats every sample
check; otherwise the first failing sample in file order raises, whether it
fails a cell, a field or the repeated-id check.

Large trajectory text is split between this process and one forked child
(``_fork``): ``save_trajectories`` and ``_load`` say how, and why
the bytes, samples and errors are those of the serial code.

All writes are atomic (temp file in the target directory, then rename).
JSON is written compact, on one line, with no NaN or Infinity tokens.
CSVs are written a block of rows at a time, RFC 4180: CRLF line endings,
minimal quoting, floats via repr (shortest round-trip form), booleans as
"true"/"false", missing values as empty cells.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import mmap
import os
import tempfile
from collections.abc import Callable, Iterable
from typing import Any, NamedTuple

import numpy as np

from ._fork import _fork_helps, _forked
from .constants import INGEST_TOL, TAU_SIMPLEX
from .errors import (
    InvariantViolation,
    ParseError,
    SchemaVersionUnsupported,
    ShapeMismatch,
    ValidationError,
)
from .model import DeliberationTrajectory, FJParameters, _check_fields, _freeze, validate_snapshot

__all__ = [
    "SCHEMA_VERSION",
    "atomic_write_chunks",
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

# the head of a file in the writer's layout, which the reader streams
_HEAD = f'{{"schema_version": {json.dumps(SCHEMA_VERSION)}, "samples": ['
# reads stay below glibc's 128 KiB mmap threshold; 1 MiB reads raised the
# peak RSS of a pipeline on small files by about 0.2 MiB
_CHUNK_BYTES = 1 << 16
# what the writer puts between two samples; the reader cuts the text at each
# one, and a split load cuts the file at one near its middle
_SEPARATOR = b', {"sample_id": '
# trajectory text from which save and load split the samples with a forked
# child; a float and its ", " take about 20 bytes of it
_SPLIT_BYTES = 4 << 20
_FLOAT_TEXT_BYTES = 20
# CSV rows formatted and written at a time: about 200 KiB of text for agents.csv
_CSV_BLOCK_ROWS = 1024

_SAMPLE_KEYS = {
    "sample_id",
    "n",
    "d",
    "rounds",
    "correct_label",
    "label_names",
    "metadata",
}
_PARAMS_FILE_KEYS = {"gamma", "alpha", "w", "mask", "innate", "correct_label"}


def atomic_write_chunks(path: str, chunks: Iterable[str]) -> None:
    """Write the text chunks in order via a temp file in the target directory,
    renamed onto ``path`` after the last one; the file gets mode 0o666 minus
    the umask, like one created by ``open``.  If a chunk raises, the temp
    file is removed and ``path`` is left as it was."""
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)  # the umask can only be read by setting it
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_chunks(path, (text,))


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


def write_csv(path: str, header: list[str], rows: Iterable[Iterable[Any]]) -> None:
    """Write the header and rows as CSV, atomically; the rows are read and
    their text written ``_CSV_BLOCK_ROWS`` at a time, so a generator of rows
    is never held whole."""

    def blocks() -> Iterable[str]:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n", quoting=csv.QUOTE_MINIMAL)
        writer.writerow(header)
        left = iter(rows)
        while True:
            block = list(itertools.islice(left, _CSV_BLOCK_ROWS))
            # plain floats, nearly every cell, are formatted inline: format_cell's
            # bytes without its call
            writer.writerows(
                [
                    (repr(v) if math.isfinite(v) else "") if type(v) is float else format_cell(v)
                    for v in row
                ]
                for row in block
            )
            yield buf.getvalue()
            if len(block) < _CSV_BLOCK_ROWS:
                return
            buf.seek(0)
            buf.truncate()

    atomic_write_chunks(path, blocks())


# -- trajectory files ------------------------------------------------------


def _rounds_to_array(obj: dict) -> dict:
    """json object_hook: a nonempty ``rounds`` list becomes a float64 array as
    its object closes; one that does not convert is left for _parse_sample."""
    rounds = obj.get("rounds")
    if type(rounds) is list and rounds:
        try:
            obj["rounds"] = np.asarray(rounds, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            pass
    return obj


def _split_pays(text_bytes: int) -> bool:
    """Whether save or load splits the samples with a forked child: the text
    is at least ``_SPLIT_BYTES`` (for a save, as estimated from the number of
    floats) and a fork helps (``_fork._fork_helps``)."""
    return text_bytes >= _SPLIT_BYTES and _fork_helps()


def _samples(fh, start: int, end: int):
    """Yield the sample objects of bytes [start, end) of a binary file in the
    writer's layout, parsed one sample at a time; raise ValueError where the
    range is not in that layout or a sample does not parse.  The range starts
    with _HEAD when ``start`` is 0, else with a sample, and ends with "]}"
    and whitespace when ``end`` is the file's size, else with a sample.

    The range is cut at each _SEPARATOR, and each sample's bytes between two
    cuts are parsed on their own.  A JSON string cannot hold the separator,
    since its quote would be escaped, so when every piece parses, the cuts
    were the array's own commas and the samples are those of the whole parse.
    """
    decode = json.JSONDecoder(object_hook=_rounds_to_array).decode
    tail = end == os.fstat(fh.fileno()).st_size
    fh.seek(start)
    if start == 0 and fh.read(len(_HEAD)) != _HEAD.encode():
        raise ValueError("the file does not start with the writer's head")
    left, buf, pos = end - fh.tell(), b"", 0  # buf[pos:] is not parsed yet
    # reads at least as long as the unparsed text: a long sample takes few
    while data := fh.read(min(max(_CHUNK_BYTES, len(buf) - pos), left)):
        left -= len(data)
        buf, pos = buf[pos:] + data, 0
        while (cut := buf.find(_SEPARATOR, pos)) >= 0:
            yield decode(buf[pos:cut].decode())  # a JSONDecodeError or bad UTF-8
            pos = cut + len(", ")
    last = buf[pos:]
    if tail:
        last = last.rstrip(b" \t\n\r")
        if not last.endswith(b"]}"):
            raise ValueError("the file does not end with the writer's brackets")
        last = last[: -len("]}")]
    if last or not tail:  # only a document without samples ends empty
        yield decode(last.decode())


def _stream_samples(fh, keep: Callable[[DeliberationTrajectory], Any]) -> list | None:
    """What ``_checked`` keeps of the samples of a binary file in the writer's
    layout, each checked as it is parsed; None for any other layout and for a
    file that is not valid JSON, which the caller then parses whole."""
    try:
        return _checked(_samples(fh, 0, os.fstat(fh.fileno()).st_size), keep)
    except ValueError:
        return None


def load_trajectories(path: str) -> list[DeliberationTrajectory]:
    return _load(path, lambda traj: traj)


class _Ends(NamedTuple):
    """What analyze and compare read of a sample: its id, label, metadata,
    and copies of its first and last snapshots; n and d as a trajectory's."""

    sample_id: str
    correct_label: int | None
    metadata: dict[str, str]
    innate: np.ndarray
    final: np.ndarray

    @property
    def n(self) -> int:
        return self.innate.shape[0]

    @property
    def d(self) -> int:
        return self.innate.shape[1]


def _ends(traj: DeliberationTrajectory) -> _Ends:
    innate, final = _freeze(traj.innate), _freeze(traj.final)
    return _Ends(traj.sample_id, traj.correct_label, traj.metadata, innate, final)


def _load_ends(path: str) -> list[_Ends]:
    """``load_trajectories`` keeping only each sample's ``_Ends``: every round
    is checked and repaired as the full load checks it, then dropped."""
    return _load(path, _ends)


def _load(path: str, keep: Callable[[DeliberationTrajectory], Any]) -> list:
    """What ``keep`` makes of each sample of a trajectory file, in file order.

    Three parses are tried in turn, each checking every sample as it
    produces it (``_checked``), and the first that reaches its end gives the
    result.  First, a large file in the writer's layout is split with a
    forked child, when a fork helps: the file is cut at the first writer
    separator ``, {"sample_id": `` after its middle byte; the child parses
    the text after the separator's ``", "``, which must end in ``]}`` and
    whitespace, and passes back each sample object, rounds array and all,
    while this process parses the text before the cut, which must start with
    the writer's head and end after a sample, then checks the child's
    samples as it iterates them.  When both halves parse to their exact
    ends, the text is half one, ``", "`` and half two, the same JSON value,
    so the samples, and the first that fails, are the serial parse's.  A
    half that does not parse (ValueError, or RecursionError when it nests
    past the recursion limit) or a child that could not be made or did not
    parse its half (``ChildProcessError``, an OSError) falls through.  Next
    the whole file is streamed in the writer's layout (``_stream_samples``);
    last it is parsed whole by ``json.load``, which raises the exact error.
    """

    def second_half():
        # the text after the cut, in its own file: one inherited shares its
        # offset with this process
        with open(path, "rb") as src:
            yield from _samples(src, cut + len(", "), size)

    try:
        with open(path, "rb") as fh:
            with contextlib.suppress(OSError, ValueError, RecursionError):
                size = os.fstat(fh.fileno()).st_size
                if _split_pays(size):
                    with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as text:
                        cut = text.find(_SEPARATOR, size // 2)
                    if cut >= 0:
                        with _forked(second_half) as theirs:
                            return _checked(itertools.chain(_samples(fh, 0, cut), theirs), keep)
            kept = _stream_samples(fh, keep)
        if kept is not None:
            return kept
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_hook=_rounds_to_array)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    # a JSONDecodeError, bad UTF-8, an over-long integer, or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    _check_schema_version(doc, path)
    extra = set(doc) - {"schema_version", "samples"}
    if extra:
        raise ParseError(f"{path}: unknown top-level keys {sorted(extra)}")
    if not isinstance(doc.get("samples"), list):
        raise ParseError(f"{path}: samples must be a list")
    return _checked(doc["samples"], keep)


def _check_schema_version(doc: dict, where: str) -> None:
    """Raise unless the document ``doc`` holds this reader's schema_version;
    ``where`` names its file in the message."""
    if "schema_version" not in doc:
        raise ParseError(f"{where}: missing schema_version")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise SchemaVersionUnsupported(
            f"{where}: schema_version {doc['schema_version']!r}, "
            f"this reader supports {SCHEMA_VERSION!r}"
        )


def _checked(raws: Iterable, keep: Callable[[DeliberationTrajectory], Any]) -> list:
    """One load's sample pipeline: each sample object, in file order as a
    parse produces it, passes ``_parse_sample``'s checks and repair and the
    repeated-id check, and ``keep`` makes what the load holds of it.  The
    first failing sample's error is held and later samples go unchecked, but
    the parse runs on to its end, since a JSON error anywhere beats it; the
    error is then raised."""
    kept: list = []
    ids: set[str] = set()
    error: ValidationError | None = None
    for raw in raws:
        if error is not None:
            continue
        try:
            traj = _parse_sample(raw, len(kept))
            if traj.sample_id in ids:
                raise ParseError(f"duplicate sample_id {traj.sample_id!r}")
        except ValidationError as exc:
            error = exc
            continue
        ids.add(traj.sample_id)
        kept.append(keep(traj))
    if error is not None:
        raise error
    return kept


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
    if not isinstance(rounds, (list, np.ndarray)) or not len(rounds):
        raise ParseError(f"sample {sid!r}: rounds must be a nonempty list")
    try:
        snaps = np.asarray(rounds, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
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
    bad = ~np.isfinite(snaps) | (snaps < -TAU_SIMPLEX)
    if bad.any():
        t, i, c = np.argwhere(bad)[0]
        value = float(snaps[t, i, c])
        raise InvariantViolation(
            f"sample {sid!r}, round {t}, agent {i}: entry {c} is {value!r}"
        )
    sums = snaps.sum(axis=2)
    err = np.abs(sums - 1.0)
    drift = float(err.max())
    if drift > INGEST_TOL:
        t, i = np.unravel_index(int(np.argmax(err)), err.shape)
        raise InvariantViolation(
            f"sample {sid!r}, round {t}, agent {i}: row sums to {float(sums[t, i])!r}"
        )
    if drift > TAU_SIMPLEX or snaps.min() < 0.0:
        # repair only samples off the simplex, so a saved one loads bit for bit
        np.clip(snaps, 0.0, None, out=snaps)
        snaps /= snaps.sum(axis=2, keepdims=True)
    try:
        label, metadata, names = _check_fields(
            d, sid, raw.get("correct_label"), raw.get("metadata", {}), raw.get("label_names")
        )
    except ValidationError as exc:
        raise ParseError(f"sample {sid!r}: {exc}") from exc
    metadata["ingest_max_drift"] = repr(drift)
    # snaps passed the constructor's checks above and is this load's own array
    return DeliberationTrajectory._from_checked(snaps, sid, label, metadata, names)


def save_trajectories(path: str, trajs: list[DeliberationTrajectory]) -> None:
    """Write the samples as one trajectory document, atomically.

    For large text a forked child encodes the second half of the samples,
    passing back each entry's text through a temp file next to the target,
    while this process streams the head and the first half; this process
    then appends the child's entries, and the bytes are those of the serial
    writer.  When the split fails (``ChildProcessError``: no child, or a
    child that did not encode its half), the serial writer writes the whole
    document, so a failing sample raises its own error; after a failed child
    the first half is encoded twice.  A repeated sample_id raises
    ValidationError; nothing is written.  A sample whose fields fail the
    loader's check, such as a metadata map changed after construction,
    raises ValidationError naming it, and the target is left as it was.
    """
    ids: set[str] = set()
    for traj in trajs:
        if traj.sample_id in ids:
            raise ValidationError(f"duplicate sample_id {traj.sample_id!r}")
        ids.add(traj.sample_id)
    half = len(trajs) // 2
    floats = sum(t.snapshots.size for t in trajs if isinstance(t, DeliberationTrajectory))
    if half and _split_pays(_FLOAT_TEXT_BYTES * floats):
        directory = os.path.dirname(os.path.abspath(path))
        with contextlib.suppress(ChildProcessError):
            with _forked(lambda: _sample_entries(trajs[half:], half), directory) as theirs:
                atomic_write_chunks(path, _trajectory_chunks(trajs[:half], theirs))
                return
    atomic_write_chunks(path, _trajectory_chunks(trajs))


def _trajectory_chunks(
    trajs: list[DeliberationTrajectory], theirs: Iterable[str] = ()
) -> Iterable[str]:
    """The trajectory document as text, one sample's entry per chunk: the
    entries of ``trajs``, then the chunks of ``theirs``, the entries of the
    samples that follow them."""
    yield _HEAD
    yield from _sample_entries(trajs)
    yield from theirs
    yield "]}\n"


def _sample_entries(trajs: list[DeliberationTrajectory], start: int = 0) -> Iterable[str]:
    """Each sample's entry as text, after ", " unless it is the document's
    first; ``start`` is the index in the document of ``trajs[0]``."""
    encode = json.JSONEncoder(allow_nan=False).encode
    for k, traj in enumerate(trajs, start):
        # the loader's check: a map changed after construction must not
        # write a file that fails to load
        try:
            label, metadata, names = _check_fields(
                traj.d, traj.sample_id, traj.correct_label, traj.metadata, traj.label_names
            )
        except ValidationError as exc:
            raise ValidationError(f"sample {traj.sample_id!r}: {exc}") from exc
        entry: dict[str, Any] = {
            "sample_id": traj.sample_id,
            "n": traj.n,
            "d": traj.d,
            "rounds": traj.snapshots.tolist(),
            "correct_label": label,
        }
        if names is not None:
            entry["label_names"] = list(names)
        entry["metadata"] = metadata
        yield f", {encode(entry)}" if k else encode(entry)


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
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad parameter dictionary: {exc}") from exc
    if mask is None:
        mask = FJParameters.complete_mask(gamma.shape[0] if gamma.ndim == 1 else 0)
    return FJParameters(gamma=gamma, alpha=alpha, w=w, mask=mask)


def _load_params_file(path: str) -> tuple[FJParameters, np.ndarray, Any]:
    """A params file's parameters, innate snapshot and raw correct_label."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from exc
    if not isinstance(raw, dict) or "innate" not in raw:
        raise ParseError(f"{path!r}: params file must be a JSON object with an 'innate' snapshot")
    extra = set(raw) - _PARAMS_FILE_KEYS
    if extra:
        raise ParseError(f"{path!r}: unknown keys {sorted(extra)}")
    try:
        params = params_from_dict(raw)
    except ValidationError as exc:  # a bad dictionary, or parameters FJParameters rejects
        raise ParseError(f"{path!r}: {exc}") from exc
    try:
        innate = validate_snapshot(raw["innate"])
        if len(innate) != params.n:
            raise ShapeMismatch(f"snapshot has {len(innate)} rows, n={params.n}")
    except (ValidationError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path!r}: bad 'innate' snapshot: {exc}") from exc
    # the trajectory's constructor checks the label
    return params, innate, raw.get("correct_label")
