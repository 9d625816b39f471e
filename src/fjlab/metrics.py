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

from .constants import CONSENSUS_THRESHOLD, ENTROPY_EPS, LOG_FLOOR, TAU_SIMPLEX
from .errors import (
    ConfigError,
    FJLabError,
    ShapeMismatch,
    TooFewAgents,
    TooFewPoints,
    WeightNotSimplex,
)
from .model import (
    FJParameters,
    _belief_array,
    check_label,
    validate_belief,
    validate_snapshot,
)
from .dynamics import _influence_stack, _source_weights, aggregate_pi, influence_weights

__all__ = [
    "confidence",
    "confidence_metrics",
    "softmax_weights",
    "influence_metrics",
    "disagreement",
    "competence",
    "brier_loss",
    "log_loss",
    "diversity",
    "spearman",
    "MetricColumns",
    "stacked_metrics",
]


def confidence(b) -> float:
    """Normalized-entropy complement of a belief; 0 (uniform) to 1 (one-hot).

    Entries below ENTROPY_EPS contribute exactly 0 to the entropy sum.
    """
    arr = validate_belief(b)
    return float(_confidence_rows(arr[None, :])[0])


def _confidence_rows(s: np.ndarray) -> np.ndarray:
    """Vectorized confidence over the rows of an (..., d) array.  The terms
    s ln s fill one buffer in place; a masked term is 0 * s, -0.0 for a tiny
    negative entry, which leaves every confidence's bits as 0 * ln 1 did."""
    d = s.shape[-1]
    terms = np.log(s, out=np.zeros_like(s), where=s >= ENTROPY_EPS)
    terms *= s
    ent = -terms.sum(axis=-1)
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
    return c, _relative(c)


def _relative(c: np.ndarray) -> np.ndarray:
    """Relative confidence over the last axis: each entry over the
    second-largest, or 1 everywhere when that is 0."""
    second = np.partition(c, -2, axis=-1)[..., -2:-1]
    return np.divide(c, second, out=np.ones_like(c), where=second != 0.0)


def softmax_weights(scores, beta: float = 1.0) -> np.ndarray:
    """Softmax with max subtraction: weights proportional to exp(beta * score)."""
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ShapeMismatch(f"scores must be a nonempty vector, got {arr.shape}")
    return _softmax(beta * arr)


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, with the max subtracted before exp."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


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
    pi = aggregate_pi(influence_weights(params), eta)
    _check_normalization(normalization)
    peer = _peer_exposure(params.alpha, params.w)
    return _normalize_scores(pi, normalization), _normalize_scores(peer, normalization)


def _peer_exposure(alpha: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Column sums of (1 - alpha_i) w_ij over receivers i, for (n,) and
    (n, n) or stacked (m, n) and (m, n, n)."""
    return ((1.0 - alpha)[..., :, None] * w).sum(axis=-2)


def _check_normalization(normalization: str) -> None:
    if normalization not in ("max", "second_largest"):
        raise ShapeMismatch(f"unknown normalization {normalization!r}")


def _normalize_scores(v: np.ndarray, normalization: str) -> np.ndarray:
    """Divide the last axis by its max or second-largest entry (0 stays 0)."""
    if normalization == "max":
        ref = v.max(axis=-1, keepdims=True)
    else:
        if v.shape[-1] < 2:
            raise TooFewAgents("second-largest normalization needs n >= 2")
        ref = np.partition(v, -2, axis=-1)[..., -2:-1]
    return np.divide(v, ref, out=np.zeros_like(v), where=ref != 0.0)


def disagreement(s) -> float:
    """Mean Euclidean distance of the rows from their average row."""
    return float(_disagreement(validate_snapshot(s)))


def _disagreement(s: np.ndarray) -> np.ndarray:
    center = s.mean(axis=-2, keepdims=True)
    return np.linalg.norm(s - center, axis=-1).mean(axis=-1)


def _alignment(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alignment of each agent with the group mean, over one snapshot
    (n, d) or a stack (m, n, d).

    Returns (cosine to the mean belief, 0/1 agreement of argmax with the
    mean's argmax, count of OTHER agents sharing the agent's argmax).
    """
    center = s.mean(axis=-2)
    # matmul takes the same dot products as ``s @ center`` and the 1-D
    # ``np.linalg.norm(center)`` of one snapshot, so a stack is bit-identical.
    dots = np.matmul(s, center[..., :, None])[..., 0]
    center_norm = np.sqrt(np.matmul(center[..., None, :], center[..., :, None]))
    cos = dots / (np.linalg.norm(s, axis=-1) * center_norm[..., 0])
    tops = np.argmax(s, axis=-1)
    score = (tops == np.argmax(center, axis=-1)[..., None]).astype(np.float64)
    count = (tops[..., :, None] == tops[..., None, :]).sum(axis=-1) - 1
    return cos, score, count


def competence(b, y: int) -> float:
    """Probability mass the belief places on the correct label."""
    arr = validate_belief(b)
    return float(arr[check_label(y, arr.size)])


def brier_loss(b, y: int) -> float:
    """Squared Euclidean distance to the one-hot at the correct label."""
    arr = validate_belief(b)
    y = check_label(y, arr.size)
    return float(_brier_rows(arr[None, None], np.array([y]))[0, 0])


def _one_hot(index: np.ndarray, size: int) -> np.ndarray:
    """(m, size) rows with a single 1 at each entry of ``index``."""
    out = np.zeros((index.shape[0], size))
    out[np.arange(index.shape[0]), index] = 1.0
    return out


def _brier_rows(beliefs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """(m, n) Brier loss of each row of (m, n, d) beliefs against its
    sample's label."""
    onehot = _one_hot(labels, beliefs.shape[2])
    return ((beliefs - onehot[:, None, :]) ** 2).sum(axis=2)


def _mixture(weights: np.ndarray, beliefs: np.ndarray) -> np.ndarray:
    """(m, d) mixtures sum_j w_j s_j of (m, n, d) beliefs under (m, n) weights.

    A stacked matmul, so one sample gets the bits of ``a @ s``.
    """
    return np.matmul(weights[:, None, :], beliefs)[:, 0]


def _diversity_rows(beliefs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(m,) moment-form diversity of each snapshot under (m, n) weights.

    Both weighted sums are mixtures, so one sample gets the bits of
    ``a @ s`` and ``a @ sq``.
    """
    sq = ((beliefs - _mixture(weights, beliefs)[:, None, :]) ** 2).sum(axis=2)
    return _mixture(weights, sq[:, :, None])[:, 0]


def _pairwise_diversity_rows(beliefs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(m,) pairwise-form diversity of each snapshot under (m, n) weights.

    The products are stacked matmuls taken in the order Python parses
    ``0.5 * a @ sq @ a``, that is ((0.5 * a) @ sq) @ a, so one sample gets
    the bits of those 1-D products.
    """
    sq = ((beliefs[:, :, None, :] - beliefs[:, None, :, :]) ** 2).sum(axis=3)
    half = 0.5 * weights[:, None, :]
    return np.matmul(np.matmul(half, sq), weights[:, :, None])[:, 0, 0]


def log_loss(b, y: int) -> float:
    """Negative log mass on the correct label, floored at LOG_FLOOR."""
    arr = validate_belief(b)
    y = check_label(y, arr.size)
    return float(_log_loss_rows(arr[None], np.array([y]))[0])


def _log_loss_rows(beliefs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """(m,) log loss of each belief row of (m, d) against its label."""
    return -np.log(np.maximum(beliefs[np.arange(beliefs.shape[0]), labels], LOG_FLOOR))


def _snapshot_weights(s, a) -> tuple[np.ndarray, np.ndarray]:
    """A checked snapshot (n, d) and simplex weights (n,) over its agents."""
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
    return s, a


def diversity(s, a, form: str = "moment") -> float:
    """Weighted spread of belief rows around their weighted mean.

    moment form:   sum_j a_j ||s_j - sbar||^2 with sbar = sum_j a_j s_j
    pairwise form: 0.5 * sum_ij a_i a_j ||s_i - s_j||^2

    The two agree analytically; both are exposed so tests can pin the
    identity numerically.
    """
    s, a = _snapshot_weights(s, a)
    if form == "moment":
        return float(_diversity_rows(s[None], a[None])[0])
    if form == "pairwise":
        return float(_pairwise_diversity_rows(s[None], a[None])[0])
    raise ShapeMismatch(f"unknown diversity form {form!r}")


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks of a NaN-free vector, tied values sharing their mean rank."""
    order = np.argsort(a, kind="stable")
    s = a[order]
    first = np.r_[True, s[1:] != s[:-1]]  # each tie group's first position
    starts = np.flatnonzero(first)
    ends = np.r_[starts[1:], a.size]
    ranks = np.empty(a.size)
    ranks[order] = ((starts + 1 + ends) / 2)[np.cumsum(first) - 1]
    return ranks


def spearman(x, y) -> float:
    """Rank correlation with average ranks over ties.

    Returns nan when either input holds a NaN or has zero rank variance.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise ShapeMismatch(f"paired vectors required, got {x.shape} and {y.shape}")
    if x.size < 3:
        raise TooFewPoints(f"need at least 3 points, got {x.size}")
    if np.isnan(x).any() or np.isnan(y).any():
        return float("nan")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    if np.all(rx == rx[0]) or np.all(ry == ry[0]):
        return float("nan")
    return float(np.corrcoef(rx, ry)[0, 1])


@dataclass(frozen=True)
class MetricColumns:
    """``stacked_metrics`` of m samples with n agents, as columns.

    Agent columns are (m, n), named in AGENT_FIELDS, with competence NaN
    for a sample without a label.  System columns are (m,): disagreement,
    mean_confidence and consensus_reached.  pi (m, n) holds each sample's
    source weights under the readout.
    """

    AGENT_FIELDS = (
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

    confidence: np.ndarray
    relative_confidence: np.ndarray
    influence: np.ndarray
    peer_influence: np.ndarray
    alignment: np.ndarray
    alignment_score: np.ndarray
    alignment_count: np.ndarray
    competence: np.ndarray
    gamma: np.ndarray
    disagreement: np.ndarray
    mean_confidence: np.ndarray
    consensus_reached: np.ndarray
    pi: np.ndarray


def stacked_metrics(
    finals,
    params: list[FJParameters],
    labels: list[int | None] | None = None,
    eta: np.ndarray | None = None,
    normalization: str = "max",
    consensus_threshold: float = CONSENSUS_THRESHOLD,
) -> MetricColumns:
    """Every reportable metric of m samples, from their final snapshots
    stacked as (m, n, d), their fitted parameters and their labels (None,
    or one int or None per sample).  One sample is
    ``stacked_metrics(traj.final[None], [params], [traj.correct_label])``.

    Belief-derived metrics use the final snapshots; influence metrics use
    the parameters.  Consensus requires a unanimous final argmax AND
    final disagreement below the threshold.  Each metric is one array
    operation over the stack, and the influence matrices take one
    eigenvalue call and one solve.  A sample that fails a check raises
    what it raises alone; with several failing samples, the first one in
    stack order does.  This function owns that attribution: the stacked
    checks raise with the stack's worst value, so a failing stack is
    rerun one sample at a time.
    """
    finals = np.asarray(finals, dtype=np.float64)
    labels = [None] * len(params) if labels is None else list(labels)
    if finals.ndim != 3 or not len(params) == len(labels) == finals.shape[0]:
        raise ShapeMismatch(
            f"finals {finals.shape}, {len(params)} params, {len(labels)} labels"
        )
    args = (eta, normalization, consensus_threshold)
    try:
        return _stacked_metrics(finals, params, labels, *args)
    except FJLabError:
        # The stacked checks fail on some sample; redo the samples one at a
        # time so that the first failing one raises its own error.
        if len(params) > 1:
            for k in range(len(params)):
                _stacked_metrics(finals[k : k + 1], params[k : k + 1], labels[k : k + 1], *args)
        raise


def _stacked_metrics(
    finals, params, labels, eta, normalization, consensus_threshold
) -> MetricColumns:
    m, n, d = finals.shape
    for p in params:
        if p.n != n:
            raise ShapeMismatch(f"params n={p.n} but trajectory n={n}")
    finals = _belief_array(finals, 3, "snapshot", TAU_SIMPLEX)
    if n < 2:
        raise TooFewAgents(f"relative confidence needs n >= 2, got {n}")
    conf = _confidence_rows(finals)
    gamma, alpha, w = (
        np.stack([getattr(p, name) for p in params]) for name in ("gamma", "alpha", "w")
    )
    pi = _source_weights(_influence_stack(gamma, alpha, w), eta)
    _check_normalization(normalization)
    if not consensus_threshold >= 0.0:  # NaN too
        raise ConfigError(f"consensus_threshold must be >= 0, got {consensus_threshold}")
    align, score, count = _alignment(finals)
    competence = np.full((m, n), np.nan)
    for k, y in enumerate(labels):
        if y is not None:
            competence[k] = finals[k, :, check_label(y, d)]
    peer = _peer_exposure(alpha, w)
    tops = np.argmax(finals, axis=-1)
    dis = _disagreement(finals)
    return MetricColumns(
        confidence=conf,
        relative_confidence=_relative(conf),
        influence=_normalize_scores(pi, normalization),
        peer_influence=_normalize_scores(peer, normalization),
        alignment=align,
        alignment_score=score,
        alignment_count=count,
        competence=competence,
        gamma=gamma,
        disagreement=dis,
        mean_confidence=conf.mean(axis=-1),
        consensus_reached=(tops == tops[:, :1]).all(axis=-1) & (dis < consensus_threshold),
        pi=pi,
    )
