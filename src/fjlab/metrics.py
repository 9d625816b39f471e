"""Per-agent and per-system deliberation metrics.

Confidence is the complement of normalized Shannon entropy,

    C(b) = 1 + (1 / ln d) * sum_c b_c ln b_c,

so a one-hot belief scores 1 and the uniform belief scores 0.  The
remaining metrics summarize a snapshot: how much agents disagree, how
each agent relates to the mean belief, how much structural influence
each agent carries, and (with a label) how good each belief is.

Natural logarithms throughout.  Argmax ties resolve to the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from .constants import CONSENSUS_THRESHOLD, ENTROPY_EPS, LOG_FLOOR, TAU_SIMPLEX
from .errors import (
    ShapeMismatch,
    TooFewAgents,
    TooFewPoints,
    WeightNotSimplex,
)
from .model import (
    AggregationWeights,
    DeliberationTrajectory,
    FJParameters,
    argmax_label,
    check_label,
    validate_belief,
    validate_snapshot,
)
from .dynamics import aggregate_pi, influence_weights

__all__ = [
    "confidence",
    "confidence_metrics",
    "softmax_weights",
    "influence_metrics",
    "disagreement",
    "alignment_metrics",
    "competence",
    "brier_loss",
    "log_loss",
    "diversity",
    "spearman",
    "AgentMetricRow",
    "SystemMetricRow",
    "trajectory_metrics",
]


def confidence(b) -> float:
    """Normalized-entropy complement of a belief; 0 (uniform) to 1 (one-hot).

    Entries below ENTROPY_EPS contribute exactly 0 to the entropy sum.
    """
    arr = validate_belief(b)
    return float(_confidence_rows(arr[None, :])[0])


def _confidence_rows(s: np.ndarray) -> np.ndarray:
    """Vectorized confidence over the rows of an (n, d) array."""
    d = s.shape[-1]
    safe = np.where(s < ENTROPY_EPS, 1.0, s)  # ln(1) = 0 kills masked terms
    ent = -(np.where(s < ENTROPY_EPS, 0.0, s) * np.log(safe)).sum(axis=-1)
    return np.clip(1.0 - ent / np.log(d), 0.0, 1.0)


def confidence_metrics(s) -> tuple[np.ndarray, np.ndarray]:
    """Per-agent confidence C and relative confidence R over a snapshot.

    R_j divides C_j by the second-largest confidence among all agents, so
    a uniquely confident agent scores above 1.  When that denominator is
    0, every R_j is defined as 1.
    """
    s = validate_snapshot(s)
    n = s.shape[0]
    if n < 2:
        raise TooFewAgents(f"relative confidence needs n >= 2, got {n}")
    c = _confidence_rows(s)
    second = float(np.partition(c, -2)[-2])
    if second == 0.0:
        r = np.ones(n)
    else:
        r = c / second
    return c, r


def softmax_weights(scores, beta: float = 1.0) -> np.ndarray:
    """Softmax with max subtraction: weights proportional to exp(beta * score)."""
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ShapeMismatch(f"scores must be a nonempty vector, got {arr.shape}")
    z = beta * arr
    z -= z.max()
    e = np.exp(z)
    return e / e.sum()


def influence_metrics(
    params: FJParameters,
    eta: np.ndarray | None = None,
    normalization: str = "max",
) -> tuple[np.ndarray, np.ndarray]:
    """Structural influence I and peer influence P, both normalized.

    I_j rescales the source weights pi = eta @ M.  P_j rescales the
    column sums of the one-round peer-exposure matrix (1 - alpha_i) w_ij,
    i.e. how much weight the rest of the group places on agent j within
    a single round.  ``normalization`` divides by the max (canonical) or
    by the second-largest value.
    """
    pi = aggregate_pi(influence_weights(params), eta).pi
    return _influence_scores(params, pi, normalization)


def _influence_scores(
    params: FJParameters, pi: np.ndarray, normalization: str
) -> tuple[np.ndarray, np.ndarray]:
    if normalization not in ("max", "second_largest"):
        raise ShapeMismatch(f"unknown normalization {normalization!r}")
    peer = ((1.0 - params.alpha)[:, None] * params.w).sum(axis=0)
    return _normalize_scores(pi, normalization), _normalize_scores(peer, normalization)


def _normalize_scores(v: np.ndarray, normalization: str) -> np.ndarray:
    if normalization == "max":
        ref = float(v.max())
    else:
        if v.size < 2:
            raise TooFewAgents("second-largest normalization needs n >= 2")
        ref = float(np.partition(v, -2)[-2])
    if ref == 0.0:
        return np.zeros_like(v)
    return v / ref


def disagreement(s) -> float:
    """Mean Euclidean distance of the rows from their average row."""
    s = validate_snapshot(s)
    center = s.mean(axis=0)
    return float(np.linalg.norm(s - center, axis=1).mean())


def alignment_metrics(s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alignment of each agent with the group mean.

    Returns (cosine to the mean belief, 0/1 agreement of argmax with the
    mean's argmax, count of OTHER agents sharing the agent's argmax).
    """
    s = validate_snapshot(s)
    center = s.mean(axis=0)
    norms = np.linalg.norm(s, axis=1) * np.linalg.norm(center)
    cos = (s @ center) / norms
    tops = np.argmax(s, axis=1)
    score = (tops == argmax_label(center)).astype(np.float64)
    count = np.array([(tops == tops[j]).sum() - 1 for j in range(s.shape[0])])
    return cos, score, count


def competence(b, y: int) -> float:
    """Probability mass the belief places on the correct label."""
    arr = validate_belief(b)
    return float(arr[check_label(y, arr.size)])


def brier_loss(b, y: int) -> float:
    """Squared Euclidean distance to the one-hot at the correct label."""
    arr = validate_belief(b)
    y = check_label(y, arr.size)
    e = np.zeros(arr.size)
    e[y] = 1.0
    return float(((arr - e) ** 2).sum())


def log_loss(b, y: int) -> float:
    """Negative log mass on the correct label, floored at LOG_FLOOR."""
    arr = validate_belief(b)
    y = check_label(y, arr.size)
    return float(-np.log(max(arr[y], LOG_FLOOR)))


def diversity(s, a, form: str = "moment") -> float:
    """Weighted spread of belief rows around their weighted mean.

    moment form:   sum_j a_j ||s_j - sbar||^2 with sbar = sum_j a_j s_j
    pairwise form: 0.5 * sum_ij a_i a_j ||s_i - s_j||^2

    The two agree analytically; both are exposed so tests can pin the
    identity numerically.
    """
    s = validate_snapshot(s)
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (s.shape[0],):
        raise ShapeMismatch(f"weights {a.shape} do not match {s.shape[0]} agents")
    if (
        not np.isfinite(a).all()
        or a.min() < -TAU_SIMPLEX
        or abs(a.sum() - 1.0) > TAU_SIMPLEX
    ):
        raise WeightNotSimplex("aggregation weights must lie on the simplex")
    if form == "moment":
        center = a @ s
        return float(a @ ((s - center) ** 2).sum(axis=1))
    if form == "pairwise":
        sq = ((s[:, None, :] - s[None, :, :]) ** 2).sum(axis=2)
        return float(0.5 * a @ sq @ a)
    raise ShapeMismatch(f"unknown diversity form {form!r}")


def spearman(x, y) -> float:
    """Rank correlation with average ranks over ties.

    Returns nan when either input has zero rank variance.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise ShapeMismatch(f"paired vectors required, got {x.shape} and {y.shape}")
    if x.size < 3:
        raise TooFewPoints(f"need at least 3 points, got {x.size}")
    rx = rankdata(x)
    ry = rankdata(y)
    if np.all(rx == rx[0]) or np.all(ry == ry[0]):
        return float("nan")
    return float(np.corrcoef(rx, ry)[0, 1])


@dataclass(frozen=True)
class AgentMetricRow:
    """One agent's metrics on the final snapshot of one sample."""

    agent_id: int
    confidence: float
    relative_confidence: float
    influence: float
    peer_influence: float
    alignment: float
    alignment_score: float
    alignment_count: int
    competence: float | None
    gamma: float

    FIELDS = (
        "agent_id",
        "confidence",
        "relative_confidence",
        "influence",
        "peer_influence",
        "alignment",
        "alignment_score",
        "alignment_count",
        "competence",
        "gamma",
    )


@dataclass(frozen=True)
class SystemMetricRow:
    """System-level metrics of one sample's final snapshot."""

    sample_id: str
    disagreement: float
    mean_confidence: float
    consensus_reached: bool
    pi: AggregationWeights


def trajectory_metrics(
    traj: DeliberationTrajectory,
    params: FJParameters,
    eta: np.ndarray | None = None,
    normalization: str = "max",
    consensus_threshold: float = CONSENSUS_THRESHOLD,
) -> tuple[list[AgentMetricRow], SystemMetricRow]:
    """All reportable metrics for one sample under its fitted parameters.

    Belief-derived metrics use the final snapshot; influence metrics use
    the parameters.  Consensus requires a unanimous final argmax AND
    final disagreement below the threshold.
    """
    if params.n != traj.n:
        raise ShapeMismatch(f"params n={params.n} but trajectory n={traj.n}")
    final = traj.final
    conf, rel = confidence_metrics(final)
    weights = aggregate_pi(influence_weights(params), eta)
    infl, peer = _influence_scores(params, weights.pi, normalization)
    align, score, count = alignment_metrics(final)
    label = traj.correct_label
    rows = [
        AgentMetricRow(
            agent_id=j,
            confidence=float(conf[j]),
            relative_confidence=float(rel[j]),
            influence=float(infl[j]),
            peer_influence=float(peer[j]),
            alignment=float(align[j]),
            alignment_score=float(score[j]),
            alignment_count=int(count[j]),
            competence=None if label is None else competence(final[j], label),
            gamma=float(params.gamma[j]),
        )
        for j in range(traj.n)
    ]
    tops = np.argmax(final, axis=1)
    dis = disagreement(final)
    system = SystemMetricRow(
        sample_id=traj.sample_id,
        disagreement=dis,
        mean_confidence=float(conf.mean()),
        consensus_reached=bool(np.all(tops == tops[0]) and dis < consensus_threshold),
        pi=weights,
    )
    return rows, system
