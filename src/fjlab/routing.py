"""Mixture-of-experts routing theory on labeled belief snapshots.

Treat each agent's belief row s_j as a probabilistic prediction and a
router as a map from the snapshot S to simplex weights pi(S).  With
r_j(S) the per-agent squared-error risk against the one-hot label, the
ambiguity decomposition

    || sum_j a_j s_j - e_y ||^2  =  sum_j a_j r_j(S)  -  D_a(S)

splits a mixture's loss into the weighted member risk minus the member
diversity D_a(S) = sum_j a_j || s_j - sbar_a ||^2.  Everything else here
is bookkeeping on top of that identity: when adaptive routing beats the
best single agent, when it beats the best fixed ensemble, and when
hard confidence routing is enough.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .constants import INGEST_TOL
from .errors import (
    EmptyInput,
    LabelOutOfRange,
    MissingParams,
    ShapeMismatch,
    WeightNotSimplex,
)
from .metrics import _confidence_rows, brier_loss, diversity
from .model import FJParameters, _check_rows, check_label, validate_snapshot
from .dynamics import aggregate_pi, influence_weights

__all__ = [
    "LabeledSnapshotSet",
    "Router",
    "constant_router",
    "uniform_router",
    "confidence_softmax_router",
    "hard_confidence_router",
    "oracle_min_risk_router",
    "fj_influence_router",
    "local_risk",
    "ambiguity_decomposition",
    "routing_regret",
    "ensemble_waste",
    "RoutingReport",
    "moe_vs_best_single",
    "EnsembleComparisonReport",
    "moe_vs_fixed_ensemble",
    "ConfidenceRoutingReport",
    "confidence_routing_vs_ensemble",
]

# A router maps a batch of snapshots (m, n, d) plus per-agent risks
# (m, n) to routing weights (m, n); risks are only consulted by the
# oracle and may be None for the rest.
Router = Callable[[np.ndarray, "np.ndarray | None"], np.ndarray]


@dataclass(frozen=True)
class LabeledSnapshotSet:
    """A batch of single-round snapshots with ground-truth labels.

    beliefs -- (m, n, d) stacked snapshots (shared agent count and class
               count; analyze heterogeneous pools per d-subset)
    labels  -- (m,) int labels in [0, d)
    weights -- optional (m, n) per-sample routing weights
    risks   -- optional (m, n) per-agent risks; generators fill these
               with exact conditional risks and set exact_risk
    """

    beliefs: np.ndarray
    labels: np.ndarray
    weights: np.ndarray | None = None
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
        y = y.astype(np.int64)
        if y.min() < 0 or y.max() >= d:
            raise LabelOutOfRange(f"labels must lie in [0, {d})")
        _check_rows(b, "beliefs", INGEST_TOL)
        for name in ("weights", "risks"):
            v = getattr(self, name)
            if v is None:
                continue
            v = np.asarray(v, dtype=np.float64)
            if v.shape != (m, n):
                raise ShapeMismatch(f"{name} shape {v.shape}, expected ({m}, {n})")
            object.__setattr__(self, name, v)
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

    @classmethod
    def from_items(
        cls, items: "list[tuple]", exact_risk: bool = False
    ) -> "LabeledSnapshotSet":
        """Build from a list of (S, y) or (S, y, weights) tuples."""
        if not items:
            raise EmptyInput("no snapshots")
        beliefs = np.stack([np.asarray(it[0], dtype=np.float64) for it in items])
        labels = np.array([it[1] for it in items])
        weights = None
        if len(items[0]) > 2 and items[0][2] is not None:
            weights = np.stack([np.asarray(it[2], dtype=np.float64) for it in items])
        return cls(
            beliefs=beliefs, labels=labels, weights=weights, exact_risk=exact_risk
        )

    def agent_risks(self) -> np.ndarray:
        """(m, n) per-agent squared-error risks: stored ones when present,
        otherwise plug-in Brier losses against the sample label."""
        if self.risks is not None:
            return self.risks
        return _brier_rows(self.beliefs, self.labels)


def _brier_rows(beliefs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    m, n, d = beliefs.shape
    onehot = np.zeros((m, d))
    onehot[np.arange(m), labels] = 1.0
    return ((beliefs - onehot[:, None, :]) ** 2).sum(axis=2)


def _mixture_losses(
    beliefs: np.ndarray, labels: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """(m,) squared-error loss of the weighted belief mixture per sample."""
    mix = np.einsum("mn,mnd->md", weights, beliefs)
    m, d = mix.shape
    onehot = np.zeros((m, d))
    onehot[np.arange(m), labels] = 1.0
    return ((mix - onehot) ** 2).sum(axis=1)


def _diversity_rows(beliefs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(m,) weighted spread of each snapshot under per-sample weights."""
    center = np.einsum("mn,mnd->md", weights, beliefs)
    sq = ((beliefs - center[:, None, :]) ** 2).sum(axis=2)
    return (weights * sq).sum(axis=1)


# -- routers --------------------------------------------------------------


def constant_router(a) -> Router:
    """Route every sample with the same fixed weights."""
    a = np.asarray(a, dtype=np.float64)

    def route(beliefs: np.ndarray, risks: np.ndarray | None = None) -> np.ndarray:
        if a.shape != (beliefs.shape[1],):
            raise ShapeMismatch(f"weights {a.shape} do not fit n={beliefs.shape[1]}")
        return np.broadcast_to(a, beliefs.shape[:2]).copy()

    route.__name__ = "constant_router"
    return route


def uniform_router() -> Router:
    def route(beliefs: np.ndarray, risks: np.ndarray | None = None) -> np.ndarray:
        m, n = beliefs.shape[:2]
        return np.full((m, n), 1.0 / n)

    route.__name__ = "uniform_router"
    return route


def confidence_softmax_router(beta: float = 1.0) -> Router:
    """Weights proportional to exp(beta * confidence), max-subtracted."""

    def route(beliefs: np.ndarray, risks: np.ndarray | None = None) -> np.ndarray:
        z = beta * _confidence_rows(beliefs)
        z -= z.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    route.__name__ = f"confidence_softmax_router(beta={beta})"
    return route


def hard_confidence_router() -> Router:
    """One-hot on the most confident agent (lowest index on ties)."""

    def route(beliefs: np.ndarray, risks: np.ndarray | None = None) -> np.ndarray:
        c = _confidence_rows(beliefs)
        out = np.zeros(beliefs.shape[:2])
        out[np.arange(beliefs.shape[0]), np.argmax(c, axis=1)] = 1.0
        return out

    route.__name__ = "hard_confidence_router"
    return route


def oracle_min_risk_router() -> Router:
    """One-hot on the lowest-risk agent; needs risks (test/analysis only)."""

    def route(beliefs: np.ndarray, risks: np.ndarray | None = None) -> np.ndarray:
        if risks is None:
            raise MissingParams("oracle router needs per-agent risks")
        out = np.zeros(beliefs.shape[:2])
        out[np.arange(beliefs.shape[0]), np.argmin(risks, axis=1)] = 1.0
        return out

    route.__name__ = "oracle_min_risk_router"
    return route


def fj_influence_router(params: FJParameters, eta: np.ndarray | None = None) -> Router:
    """Constant weights taken from the long-run influence of fitted params."""
    pi = aggregate_pi(influence_weights(params), eta).pi
    route = constant_router(pi)
    route.__name__ = "fj_influence_router"
    return route


def _resolve_weights(sset: LabeledSnapshotSet, router: Router | None) -> np.ndarray:
    if router is not None:
        w = np.asarray(router(sset.beliefs, sset.agent_risks()), dtype=np.float64)
    elif sset.weights is not None:
        w = sset.weights
    else:
        raise MissingParams("no router given and the snapshot set has no weights")
    if w.shape != (sset.m, sset.n):
        raise ShapeMismatch(f"router produced {w.shape}, expected {(sset.m, sset.n)}")
    if (
        not np.isfinite(w).all()
        or w.min() < -1e-12
        or np.abs(w.sum(axis=1) - 1.0).max() > 1e-9
    ):
        raise WeightNotSimplex("routing weights must lie on the simplex")
    return w


# -- per-sample quantities ------------------------------------------------


def local_risk(s, y: int) -> np.ndarray:
    """Per-agent squared-error risk of one snapshot against label y."""
    s = validate_snapshot(s)
    return _brier_rows(s[None], np.array([check_label(y, s.shape[1])]))[0]


def ambiguity_decomposition(s, a, y: int) -> tuple[float, float, float]:
    """Mixture loss, (weighted risk - diversity), and their gap.

    The gap is analytically zero; it is returned so callers can assert
    how tightly the identity holds in floating point.
    """
    s = validate_snapshot(s)
    a = np.asarray(a, dtype=np.float64)
    mix = a @ s
    lhs = brier_loss(mix, y)
    rhs = float(a @ local_risk(s, y)) - diversity(s, a)
    return lhs, rhs, lhs - rhs


def routing_regret(s, y: int, pi) -> float:
    """Expected risk under routing weights minus the best local risk."""
    r = local_risk(s, y)
    pi = np.asarray(pi, dtype=np.float64)
    return float(pi @ r - r.min())


def ensemble_waste(s, y: int, a, pi) -> float:
    """Risk paid by fixed weights a beyond what routing weights pi pay."""
    r = local_risk(s, y)
    return float((np.asarray(a) - np.asarray(pi)) @ r)


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


def moe_vs_best_single(
    sset: LabeledSnapshotSet, router: Router | None = None
) -> RoutingReport:
    """Compare routed mixtures against the single agent best on average.

    holds:  E[r_best - min_j r_j] + E[D_pi] > E[routing regret].
    The per-sample version of the same inequality is recorded next to the
    realized outcome "routed mixture loss < best agent's loss"; with
    exact risks the two classifications coincide, so ``confusion`` has
    zero off-diagonal mass.
    """
    risks = sset.agent_risks()
    weights = _resolve_weights(sset, router)
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
    sset: LabeledSnapshotSet, a, router: Router | None = None
) -> EnsembleComparisonReport:
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (sset.n,):
        raise ShapeMismatch(f"fixed weights {a.shape} do not fit n={sset.n}")
    risks = sset.agent_risks()
    weights = _resolve_weights(sset, router)
    lhs = float(((a[None, :] - weights) * risks).sum(axis=1).mean())
    rhs = float(
        (
            _diversity_rows(sset.beliefs, np.broadcast_to(a, weights.shape))
            - _diversity_rows(sset.beliefs, weights)
        ).mean()
    )
    fixed_loss = _mixture_losses(
        sset.beliefs, sset.labels, np.broadcast_to(a, weights.shape)
    )
    routed_loss = _mixture_losses(sset.beliefs, sset.labels, weights)
    realized = float(fixed_loss.mean() - routed_loss.mean())
    return EnsembleComparisonReport(
        mean_ensemble_waste=lhs,
        mean_diversity_difference=rhs,
        holds=bool(lhs > rhs),
        realized_gap=realized,
        identity_gap=abs(lhs - rhs - realized),
    )


@dataclass(frozen=True)
class ConfidenceRoutingReport:
    """Is hard max-confidence routing enough to beat fixed weights a?

    holds: E[G_a] > E[delta_C] + E[D_a], where G_a is the fixed
    ensemble's risk gap to the locally best agent and delta_C is the
    regret of hard confidence routing.
    """

    mean_ensemble_gap: float
    mean_confidence_regret: float
    mean_fixed_diversity: float
    holds: bool


def confidence_routing_vs_ensemble(
    sset: LabeledSnapshotSet, a
) -> ConfidenceRoutingReport:
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (sset.n,):
        raise ShapeMismatch(f"fixed weights {a.shape} do not fit n={sset.n}")
    risks = sset.agent_risks()
    min_risks = risks.min(axis=1)
    gap = (risks @ a) - min_risks
    chosen = np.argmax(_confidence_rows(sset.beliefs), axis=1)
    delta_c = risks[np.arange(sset.m), chosen] - min_risks
    div_a = _diversity_rows(sset.beliefs, np.broadcast_to(a, (sset.m, sset.n)))
    return ConfidenceRoutingReport(
        mean_ensemble_gap=float(gap.mean()),
        mean_confidence_regret=float(delta_c.mean()),
        mean_fixed_diversity=float(div_a.mean()),
        holds=bool(gap.mean() > delta_c.mean() + div_a.mean()),
    )
