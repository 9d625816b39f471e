"""Core value types: belief vectors, model parameters, trajectories.

Beliefs are plain float64 numpy arrays; the functions here validate and
normalize them. Composite objects are frozen dataclasses whose array
fields are defensively copied and marked read-only at construction, so a
validated array stays valid; a trajectory's metadata map is copied, not frozen.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .constants import TAU_SIMPLEX
from .errors import (
    AllZeroVector,
    LabelOutOfRange,
    NegativeEntry,
    ShapeMismatch,
    WeightNotSimplex,
)

__all__ = [
    "normalize_belief",
    "validate_belief",
    "validate_snapshot",
    "FJParameters",
    "DeliberationTrajectory",
]


def _as_float_array(x, ndim: int, what: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != ndim:
        raise ShapeMismatch(f"{what}: expected {ndim}-d array, got shape {arr.shape}")
    return arr


def normalize_belief(raw, tau: float = TAU_SIMPLEX) -> np.ndarray:
    """Project a raw nonnegative vector onto the simplex by rescaling.

    Entries in [-tau, 0) are clamped to 0; entries below -tau raise
    NegativeEntry, and zero total mass raises AllZeroVector.
    """
    b = _as_float_array(raw, 1, "belief").copy()
    if b.size < 2:
        raise ShapeMismatch(f"belief needs at least 2 entries, got {b.size}")
    low = float(b.min())
    if low < -tau:
        raise NegativeEntry(f"entry {low!r} below -{tau!r}")
    np.clip(b, 0.0, None, out=b)
    total = b.sum()
    if total <= 0.0:
        raise AllZeroVector("belief has zero total mass")
    b /= total
    return b


def _check_rows(arr: np.ndarray, what: str, tau: float = TAU_SIMPLEX) -> np.ndarray:
    """The one check of belief rows, along the last axis of ``arr``: every
    entry is finite and at least -tau, and every row sums to 1 within tau."""
    # NaN passes every comparison below, so reject non-finite entries first
    if not np.isfinite(arr).all():
        raise WeightNotSimplex(f"{what} has a non-finite entry")
    low = float(arr.min())
    if low < -tau:
        raise NegativeEntry(f"{what} entry {low!r} below -{tau!r}")
    worst = float(np.abs(arr.sum(axis=-1) - 1.0).max())
    if worst > tau:
        raise WeightNotSimplex(f"{what} row mass off by {worst!r} (> {tau!r})")
    return arr


def _belief_array(x, ndim: int, what: str, tau: float) -> np.ndarray:
    """A float64 array of ``ndim`` axes whose last axis holds beliefs over
    at least 2 labels, every other axis nonempty, checked row by row."""
    arr = _as_float_array(x, ndim, what)
    if arr.shape[-1] < 2 or 0 in arr.shape:
        raise ShapeMismatch(f"{what} shape {arr.shape} needs nonempty axes and d >= 2")
    return _check_rows(arr, what, tau)


def validate_belief(b, tau: float = TAU_SIMPLEX) -> np.ndarray:
    """Check that ``b`` already sits on the simplex; returns it as float64."""
    return _belief_array(b, 1, "belief", tau)


def validate_snapshot(s, tau: float = TAU_SIMPLEX) -> np.ndarray:
    """Check an (n, d) matrix of belief rows."""
    return _belief_array(s, 2, "snapshot", tau)


def _dirichlet_rows(exps: np.ndarray) -> np.ndarray:
    """Standard exponential rows (..., d) scaled in place onto the simplex as
    ``rng.dirichlet(np.ones(d))`` scales the same draws, by the reciprocal of
    a sum added entry by entry (``sum`` adds pairwise from 8), bit for bit."""
    acc = exps[..., 0].copy()
    for j in range(1, exps.shape[-1]):
        acc += exps[..., j]
    exps *= (1.0 / acc)[..., None]
    return exps


def _check_params(gamma: np.ndarray, alpha: np.ndarray, w: np.ndarray, mask: np.ndarray) -> None:
    """The one check of FJ parameters (float arrays, a boolean mask), on one
    system, gamma and alpha (n,) and w and mask (n, n), or on a stack (m, n)
    and (m, n, n) with one mask for the stack or one per system."""
    n = gamma.shape[-1]
    if n == 0:
        raise ShapeMismatch("parameters need at least one agent")
    shape = (*gamma.shape, n)
    if alpha.shape != gamma.shape or w.shape != shape or mask.shape not in ((n, n), shape):
        raise ShapeMismatch(
            f"inconsistent shapes: gamma {gamma.shape}, alpha {alpha.shape}, "
            f"w {w.shape}, mask {mask.shape}"
        )
    # NaN passes every range comparison below, so reject it first
    for name, arr in (("gamma", gamma), ("alpha", alpha), ("w", w)):
        if not np.isfinite(arr).all():
            raise WeightNotSimplex(f"{name} has a non-finite entry")
    for name, arr in (("gamma", gamma), ("alpha", alpha)):
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise WeightNotSimplex(f"{name} entries must lie in [0, 1]")
    if mask.diagonal(axis1=-2, axis2=-1).any():
        raise ShapeMismatch("mask diagonal must be False (no self-loops)")
    if w.min() < 0.0:
        raise NegativeEntry(f"w entry {float(w.min())!r} is negative")
    if np.any((w != 0.0) & ~mask):
        raise WeightNotSimplex("w must be exactly 0 outside the mask")
    row_has_edge = mask.any(axis=-1)
    sums = w.sum(axis=-1)
    bad = row_has_edge & (np.abs(sums - 1.0) > TAU_SIMPLEX)
    if bad.any():
        *system, i = np.argwhere(bad)[0]
        where = f"w{list(map(int, system))} row {i}" if system else f"w row {i}"
        raise WeightNotSimplex(
            f"{where} sums to {float(sums[(*system, i)])!r}, not 1 within {TAU_SIMPLEX!r}"
        )
    if np.any((sums != 0.0) & ~row_has_edge):
        raise WeightNotSimplex("rows without allowed edges must be all-zero")


def check_label(y: int, d: int) -> int:
    """An integer label in [0, d); non-integers, bools among them, are
    rejected, not truncated."""
    if isinstance(y, bool):
        raise LabelOutOfRange(f"label {y!r} is not an integer")
    try:
        y = operator.index(y)
    except TypeError as exc:
        raise LabelOutOfRange(f"label {y!r} is not an integer") from exc
    if not 0 <= y < d:
        raise LabelOutOfRange(f"label {y} outside [0, {d})")
    return y


def _check_fields(d: int, sample_id, correct_label, metadata, label_names):
    """The one check of a trajectory's fields but its snapshots, over d labels,
    for the constructor and the loader.  Returns the label as a plain int, a
    copy of the metadata that no caller holds, and the names as a tuple."""
    if not isinstance(sample_id, str) or not sample_id:
        raise ShapeMismatch(f"sample_id must be a nonempty string, got {sample_id!r}")
    if correct_label is not None:
        correct_label = check_label(correct_label, d)
    if not isinstance(metadata, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in metadata.items()
    ):
        raise ShapeMismatch("metadata must map strings to strings")
    if label_names is not None:
        # only a list or tuple: tuple() of a str is its characters
        if not (
            isinstance(label_names, (list, tuple))
            and len(label_names) == d
            and all(isinstance(x, str) for x in label_names)
        ):
            raise ShapeMismatch(
                f"label_names must be a list or tuple of {d} strings, got {label_names!r}"
            )
        label_names = tuple(label_names)
    return correct_label, dict(metadata), label_names


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=arr.dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class FJParameters:
    """Per-agent update parameters and the directed peer-weight matrix.

    gamma -- anchoring to the innate belief, in [0, 1], shape (n,)
    alpha -- retention of the own current belief, in [0, 1], shape (n,)
    w     -- row-stochastic nonnegative peer weights, zero diagonal, (n, n)
    mask  -- boolean adjacency; w must vanish outside it

    Equality is identity: comparing the arrays has no single truth value.
    """

    gamma: np.ndarray
    alpha: np.ndarray
    w: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        gamma = _as_float_array(self.gamma, 1, "gamma")
        alpha = _as_float_array(self.alpha, 1, "alpha")
        w = _as_float_array(self.w, 2, "w")
        mask = np.asarray(self.mask, dtype=bool)
        _check_params(gamma, alpha, w, mask)
        for name, arr in (("gamma", gamma), ("alpha", alpha), ("w", w), ("mask", mask)):
            object.__setattr__(self, name, _freeze(arr))

    @property
    def n(self) -> int:
        return self.gamma.shape[0]

    @staticmethod
    def complete_mask(n: int) -> np.ndarray:
        """All-to-all adjacency without self-loops."""
        return ~np.eye(n, dtype=bool)


@dataclass(frozen=True, eq=False)
class DeliberationTrajectory:
    """Observed belief snapshots over rounds 0..T for one sample.

    snapshots has shape (T+1, n, d); round 0 holds the innate beliefs.
    metadata is a flat string-to-string map carried through file I/O.
    label_names, if set, names the d labels, stored as a tuple of strings.
    _check_fields checks every field but snapshots, here and in the loader.
    Equality is identity: compared snapshots have no single truth value.
    """

    snapshots: np.ndarray
    sample_id: str = "sample"
    correct_label: int | None = None
    metadata: dict[str, str] = field(default_factory=dict)
    label_names: tuple[str, ...] | None = None

    def __post_init__(self):
        snaps = _belief_array(self.snapshots, 3, "snapshots", TAU_SIMPLEX)
        label, metadata, names = _check_fields(
            snaps.shape[2], self.sample_id, self.correct_label, self.metadata, self.label_names
        )
        vars(self).update(
            correct_label=label, metadata=metadata, label_names=names, snapshots=_freeze(snaps)
        )

    @classmethod
    def _from_checked(
        cls, snapshots: np.ndarray, sample_id: str, correct_label: int | None,
        metadata: dict[str, str], label_names: tuple[str, ...] | None,
    ) -> DeliberationTrajectory:
        """A trajectory over a float64 array that has passed the checks of
        ``__post_init__`` and that no one else holds: it is frozen in place
        instead of copied.  For loaders, which check every cell themselves."""
        snapshots.setflags(write=False)
        traj = object.__new__(cls)
        vars(traj).update(
            snapshots=snapshots, sample_id=sample_id, correct_label=correct_label,
            metadata=metadata, label_names=label_names,
        )
        return traj

    @property
    def rounds(self) -> int:
        """Number of update steps T (snapshots minus one)."""
        return self.snapshots.shape[0] - 1

    @property
    def n(self) -> int:
        return self.snapshots.shape[1]

    @property
    def d(self) -> int:
        return self.snapshots.shape[2]

    @property
    def innate(self) -> np.ndarray:
        return self.snapshots[0]

    @property
    def final(self) -> np.ndarray:
        return self.snapshots[-1]

