"""Core value types: belief vectors, model parameters, trajectories.

Beliefs are plain float64 numpy arrays; the functions here validate and
normalize them. Composite objects are frozen dataclasses whose array
fields are defensively copied and marked read-only at construction, so a
validated object stays valid.
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
    "argmax_label",
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


def argmax_label(b) -> int:
    """Index of the largest entry; ties resolve to the lowest index."""
    arr = _as_float_array(b, 1, "belief")
    return int(np.argmax(arr))


def check_label(y: int, d: int) -> int:
    """An integer label in [0, d); non-integers are rejected, not truncated."""
    try:
        y = operator.index(y)
    except TypeError as exc:
        raise LabelOutOfRange(f"label {y!r} is not an integer") from exc
    if not 0 <= y < d:
        raise LabelOutOfRange(f"label {y} outside [0, {d})")
    return y


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=arr.dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class FJParameters:
    """Per-agent update parameters and the directed peer-weight matrix.

    gamma -- anchoring to the innate belief, in [0, 1], shape (n,)
    alpha -- retention of the own current belief, in [0, 1], shape (n,)
    w     -- row-stochastic nonnegative peer weights, zero diagonal, (n, n)
    mask  -- boolean adjacency; w must vanish outside it
    """

    gamma: np.ndarray
    alpha: np.ndarray
    w: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        gamma = _as_float_array(self.gamma, 1, "gamma")
        alpha = _as_float_array(self.alpha, 1, "alpha")
        w = _as_float_array(self.w, 2, "w")
        mask = np.asarray(self.mask)
        if mask.dtype != np.bool_:
            mask = mask.astype(bool)
        n = gamma.shape[0]
        if n == 0:
            raise ShapeMismatch("parameters need at least one agent")
        if alpha.shape != (n,) or w.shape != (n, n) or mask.shape != (n, n):
            raise ShapeMismatch(
                f"inconsistent shapes: gamma {gamma.shape}, alpha {alpha.shape}, "
                f"w {w.shape}, mask {mask.shape}"
            )
        # NaN passes every range comparison below, so reject it first
        for name, arr in (("gamma", gamma), ("alpha", alpha), ("w", w)):
            if not np.isfinite(arr).all():
                raise WeightNotSimplex(f"{name} has a non-finite entry")
        if gamma.min() < 0.0 or gamma.max() > 1.0:
            raise WeightNotSimplex("gamma entries must lie in [0, 1]")
        if alpha.min() < 0.0 or alpha.max() > 1.0:
            raise WeightNotSimplex("alpha entries must lie in [0, 1]")
        if mask.diagonal().any():
            raise ShapeMismatch("mask diagonal must be False (no self-loops)")
        if w.min() < 0.0:
            raise NegativeEntry(f"w entry {float(w.min())!r} is negative")
        if np.any(w[~mask] != 0.0):
            raise WeightNotSimplex("w must be exactly 0 outside the mask")
        row_has_edge = mask.any(axis=1)
        sums = w.sum(axis=1)
        bad = row_has_edge & (np.abs(sums - 1.0) > TAU_SIMPLEX)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise WeightNotSimplex(
                f"w row {i} sums to {float(sums[i])!r}, not 1 within {TAU_SIMPLEX!r}"
            )
        if np.any(sums[~row_has_edge] != 0.0):
            raise WeightNotSimplex("rows without allowed edges must be all-zero")
        object.__setattr__(self, "gamma", _freeze(gamma))
        object.__setattr__(self, "alpha", _freeze(alpha))
        object.__setattr__(self, "w", _freeze(w))
        object.__setattr__(self, "mask", _freeze(mask))

    @property
    def n(self) -> int:
        return self.gamma.shape[0]

    @staticmethod
    def complete_mask(n: int) -> np.ndarray:
        """All-to-all adjacency without self-loops."""
        return ~np.eye(n, dtype=bool)


@dataclass(frozen=True)
class DeliberationTrajectory:
    """Observed belief snapshots over rounds 0..T for one sample.

    snapshots has shape (T+1, n, d); round 0 holds the innate beliefs.
    metadata is a flat string-to-string map carried through file I/O.
    """

    snapshots: np.ndarray
    sample_id: str = "sample"
    correct_label: int | None = None
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        snaps = _belief_array(self.snapshots, 3, "snapshots", TAU_SIMPLEX)
        if self.correct_label is not None:
            # stored as a plain int, so the trajectory writer can encode it
            label = check_label(self.correct_label, snaps.shape[2])
            object.__setattr__(self, "correct_label", label)
        if not all(
            isinstance(k, str) and isinstance(v, str) for k, v in self.metadata.items()
        ):
            raise ShapeMismatch("metadata must map strings to strings")
        object.__setattr__(self, "snapshots", _freeze(snaps))

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

