"""Mixture-of-experts routing theory on labeled belief snapshots.

Treat each agent's belief row s_j as a probabilistic prediction and a
router as a map from the snapshot S to simplex weights pi(S).  With
r_j(S) the per-agent squared-error risk against the one-hot label, the
ambiguity decomposition

    || sum_j a_j s_j - e_y ||^2  =  sum_j a_j r_j(S)  -  D_a(S)

splits a mixture's loss into the weighted member risk minus the member
diversity D_a(S) = sum_j a_j || s_j - sbar_a ||^2.  Everything else here
is bookkeeping on top of that identity, one report per question: does
adaptive routing beat the best single agent (``moe_vs_best_single``) or
a fixed ensemble (``moe_vs_fixed_ensemble``)?  Under one-hot routing such
as ``hard_confidence_weights`` the routed diversity D_pi is 0.

Routing weights are plain arrays: an (m, n) array with one simplex row
per sample, or one (n,) row that routes every sample alike.  The routers
below are functions of the data that return such arrays.  The router of
fitted FJ parameters is the constant row
``aggregate_pi(influence_weights(params), eta)``; per-sample
parameters give ``stacked_metrics(...).pi``.  Either is passed as it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import INGEST_TOL
from .errors import EmptyInput, LabelOutOfRange, ShapeMismatch, WeightNotSimplex
from .metrics import (
    _brier_rows,
    _confidence_rows,
    _diversity_rows,
    _mixture,
    _one_hot,
    _snapshot_weights,
    _softmax,
)
from .model import _check_rows, check_label

__all__ = [
    "LabeledSnapshotSet",
    "confidence_softmax_weights",
    "hard_confidence_weights",
    "min_risk_weights",
    "ambiguity_decomposition",
    "RoutingReport",
    "moe_vs_best_single",
    "EnsembleComparisonReport",
    "moe_vs_fixed_ensemble",
]


@dataclass(frozen=True)
class LabeledSnapshotSet:
    """A batch of single-round snapshots with ground-truth labels.

    beliefs -- (m, n, d) stacked snapshots (shared agent count and class
               count; analyze heterogeneous pools per d-subset)
    labels  -- (m,) int labels in [0, d)
    risks   -- optional (m, n) per-agent risks; generators fill these
               with exact conditional risks and set exact_risk
    """

    beliefs: np.ndarray
    labels: np.ndarray
    risks: np.ndarray | None = None
    exact_risk: bool = False

    def __post_init__(self):
        b = np.asarray(self.beliefs, dtype=np.float64)
        y = np.asarray(self.labels)
        if b.ndim != 3:
            raise ShapeMismatch(f"beliefs must be (m, n, d), got {b.shape}")
        m, n, d = b.shape
        if m == 0:
            raise EmptyInput("no snapshots")
        if n < 2 or d < 2:
            raise ShapeMismatch(f"need n >= 2 and d >= 2, got {b.shape}")
        if y.shape != (m,):
            raise ShapeMismatch(f"labels shape {y.shape}, expected ({m},)")
        if self.risks is not None:
            risks = np.asarray(self.risks, dtype=np.float64)
            if risks.shape != (m, n):
                raise ShapeMismatch(f"risks shape {risks.shape}, expected ({m}, {n})")
            object.__setattr__(self, "risks", risks)
        # integer labels only, as check_label asks: a cast would truncate 1.7
        if y.dtype == np.bool_ or not np.issubdtype(y.dtype, np.integer):
            raise LabelOutOfRange(f"labels must be integers, got dtype {y.dtype}")
        y = y.astype(np.int64)
        if y.min() < 0 or y.max() >= d:
            raise LabelOutOfRange(f"labels must lie in [0, {d})")
        _check_rows(b, "beliefs", INGEST_TOL)
        object.__setattr__(self, "beliefs", b)
        object.__setattr__(self, "labels", y)

    @property
    def m(self) -> int:
        return self.beliefs.shape[0]

    @property
    def n(self) -> int:
        return self.beliefs.shape[1]

    @property
    def d(self) -> int:
        return self.beliefs.shape[2]

    def agent_risks(self) -> np.ndarray:
        """(m, n) per-agent squared-error risks: stored ones when present,
        otherwise plug-in Brier losses against the sample label."""
        if self.risks is not None:
            return self.risks
        return _brier_rows(self.beliefs, self.labels)


def _mixture_losses(
    beliefs: np.ndarray, labels: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """(m,) squared-error loss of the weighted belief mixture per sample."""
    return _brier_rows(_mixture(weights, beliefs)[:, None, :], labels)[:, 0]


# -- routers --------------------------------------------------------------


def confidence_softmax_weights(beliefs, beta: float = 1.0) -> np.ndarray:
    """(m, n) weights proportional to exp(beta * confidence), max-subtracted."""
    return _softmax(beta * _confidence_rows(np.asarray(beliefs, dtype=np.float64)))


def hard_confidence_weights(beliefs) -> np.ndarray:
    """(m, n) one-hot on the most confident agent (lowest index on ties)."""
    beliefs = np.asarray(beliefs, dtype=np.float64)
    return _one_hot(np.argmax(_confidence_rows(beliefs), axis=1), beliefs.shape[1])


def min_risk_weights(risks) -> np.ndarray:
    """(m, n) one-hot on the lowest-risk agent: the oracle router, which
    needs the risks and so serves tests and analysis only."""
    risks = np.asarray(risks, dtype=np.float64)
    return _one_hot(np.argmin(risks, axis=1), risks.shape[1])


def _check_weights(sset: LabeledSnapshotSet, weights, what="routing weights") -> np.ndarray:
    """Weights as (m, n) simplex rows; one (n,) row is broadcast."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape == (sset.n,):
        w = np.broadcast_to(w, (sset.m, sset.n))
    if w.shape != (sset.m, sset.n):
        raise ShapeMismatch(
            f"{what} {w.shape}, expected {(sset.m, sset.n)} or ({sset.n},)"
        )
    if (
        not np.isfinite(w).all()
        or w.min() < -1e-12
        or np.abs(w.sum(axis=1) - 1.0).max() > 1e-9
    ):
        raise WeightNotSimplex(f"{what} must lie on the simplex")
    return w


# -- per-sample quantities ------------------------------------------------


def ambiguity_decomposition(s, a, y: int) -> tuple[float, float, float]:
    """Mixture loss, (weighted risk - diversity), and their gap.

    The gap is analytically zero; it is returned so callers can assert
    how tightly the identity holds in floating point.
    """
    s, a = _snapshot_weights(s, a)
    y = check_label(y, s.shape[1])
    lhs, rhs, gap = _ambiguity_rows(s[None], a[None], np.array([y]))
    return float(lhs[0]), float(rhs[0]), float(gap[0])


def _ambiguity_rows(
    beliefs: np.ndarray, weights: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``ambiguity_decomposition`` of m snapshots (m, n, d) under (m, n)
    weights against (m,) labels, as three (m,) arrays; each mixture is
    checked as a belief.  The weighted sums are mixtures, so one sample gets
    the bits of ``a @ s`` and ``a @ r``."""
    mix = _check_rows(_mixture(weights, beliefs)[:, None, :], "belief")
    loss = _brier_rows(mix, labels)[:, 0]
    risk = _mixture(weights, _brier_rows(beliefs, labels)[:, :, None])[:, 0]
    rhs = risk - _diversity_rows(beliefs, weights)
    return loss, rhs, loss - rhs


# -- aggregate condition reports ------------------------------------------


@dataclass(frozen=True)
class RoutingReport:
    """Does adaptive routing beat the best single agent on this set?

    The condition compares specialization gain plus routed diversity to
    routing regret; per-sample arrays plus the realized-outcome confusion
    matrix are kept so the condition can be audited sample by sample.
    """

    mean_best_single_risk: float
    mean_min_local_risk: float
    specialization_gain: float
    mean_local_diversity: float
    mean_routing_regret: float
    holds: bool
    best_single: int
    per_sample_condition: np.ndarray = field(repr=False)
    per_sample_outcome: np.ndarray = field(repr=False)
    confusion: np.ndarray = field(repr=False)
    mean_moe_loss: float = float("nan")


def moe_vs_best_single(sset: LabeledSnapshotSet, weights) -> RoutingReport:
    """Compare routed mixtures against the single agent best on average.

    holds:  E[r_best - min_j r_j] + E[D_pi] > E[routing regret].
    The per-sample version of the same inequality is recorded next to the
    realized outcome "routed mixture loss < best agent's loss"; with
    exact risks the two classifications coincide, so ``confusion`` has
    zero off-diagonal mass.
    """
    risks = sset.agent_risks()
    weights = _check_weights(sset, weights)
    best = int(np.argmin(risks.mean(axis=0)))
    best_risks = risks[:, best]
    min_risks = risks.min(axis=1)
    div = _diversity_rows(sset.beliefs, weights)
    routed_risk = (weights * risks).sum(axis=1)
    regret = routed_risk - min_risks
    lhs = (best_risks - min_risks) + div
    if sset.exact_risk:
        # With exact conditional risks, the routed mixture's conditional
        # loss is given by the ambiguity decomposition itself; using it
        # keeps condition and outcome on the same floats, so boundary
        # samples (routed one-hot onto the best agent) classify
        # consistently instead of hinging on 1-ulp rounding.
        moe_loss = routed_risk - div
    else:
        moe_loss = _mixture_losses(sset.beliefs, sset.labels, weights)
    cond = lhs > regret
    outcome = moe_loss < best_risks
    confusion = np.array(
        [
            [int(np.sum(cond & outcome)), int(np.sum(cond & ~outcome))],
            [int(np.sum(~cond & outcome)), int(np.sum(~cond & ~outcome))],
        ]
    )
    gain = float(best_risks.mean() - min_risks.mean())
    mean_div = float(div.mean())
    mean_regret = float(regret.mean())
    return RoutingReport(
        mean_best_single_risk=float(best_risks.mean()),
        mean_min_local_risk=float(min_risks.mean()),
        specialization_gain=gain,
        mean_local_diversity=mean_div,
        mean_routing_regret=mean_regret,
        holds=bool(gain + mean_div > mean_regret),
        best_single=best,
        per_sample_condition=cond,
        per_sample_outcome=outcome,
        confusion=confusion,
        mean_moe_loss=float(moe_loss.mean()),
    )


@dataclass(frozen=True)
class EnsembleComparisonReport:
    """Does adaptive routing beat a fixed ensemble on this set?

    holds: E[sum_j (a_j - pi_j) r_j] > E[D_a - D_pi].  realized_gap is
    the directly measured loss difference (fixed mixture minus routed
    mixture); identity_gap = |lhs - rhs - realized_gap| quantifies the
    ambiguity-decomposition identity numerically.
    """

    mean_ensemble_waste: float
    mean_diversity_difference: float
    holds: bool
    realized_gap: float
    identity_gap: float


def moe_vs_fixed_ensemble(
    sset: LabeledSnapshotSet, a, weights
) -> EnsembleComparisonReport:
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (sset.n,):
        raise ShapeMismatch(f"fixed weights {a.shape} do not fit n={sset.n}")
    a = _check_weights(sset, a, "fixed weights")
    risks = sset.agent_risks()
    weights = _check_weights(sset, weights)
    lhs = float(((a - weights) * risks).sum(axis=1).mean())
    rhs = float(
        (_diversity_rows(sset.beliefs, a) - _diversity_rows(sset.beliefs, weights)).mean()
    )
    fixed_loss = _mixture_losses(sset.beliefs, sset.labels, a)
    routed_loss = _mixture_losses(sset.beliefs, sset.labels, weights)
    realized = float(fixed_loss.mean() - routed_loss.mean())
    return EnsembleComparisonReport(
        mean_ensemble_waste=lhs,
        mean_diversity_difference=rhs,
        holds=bool(lhs > rhs),
        realized_gap=realized,
        identity_gap=abs(lhs - rhs - realized),
    )
