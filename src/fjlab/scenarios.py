"""Synthetic deliberation scenarios with closed-form loss oracles.

Two families, both over n agents and d labels with one competent agent
per sample whose identity varies by region:

* exclusive knowledge: the competent agent puts p = 1 - epsilon on the
  true label; everyone else is exactly uniform.  Log losses of fixed
  mixtures, of confidence routing, and of error-prone routing all have
  closed forms, the best fixed mixture is a water-filling solution, and
  the Monte Carlo routing crossover is an order statistic of the routing
  noise, which makes the family a sharp oracle for routing theory.
* imperfect agents: non-competent agents lean on a shared wrong label,
  so the uniform ensemble can be confidently wrong while confidence
  routing stays exact.

Generation is vectorized from a counter-based Philox stream keyed by the
seed; identical (scenario, samples, seed) triples reproduce bitwise. The
draw order is fixed: regions first, then labels (then routing-noise
uniforms where applicable).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfidenceOrderViolated,
    InvalidScenario,
    NoConvergence,
    UnbalancedScenario,
)
from .metrics import _brier_rows, _confidence_rows
from .routing import LabeledSnapshotSet

__all__ = [
    "ExclusiveScenario",
    "ExclusiveLosses",
    "gen_exclusive",
    "exclusive_losses",
    "optimal_fixed_ensemble",
    "moe_advantage_check",
    "routing_error_threshold",
    "empirical_route_crossover",
    "ImperfectScenario",
    "gen_imperfect",
    "imperfect_gap",
    "wrong_majority_holds",
    "uniform_mixture_profile",
    "project_simplex",
]

_BALANCED_TOL = 1e-12


@dataclass(frozen=True)
class ExclusiveScenario:
    """Exclusive-knowledge scenario parameters.

    n agents, d labels, competent mass p = 1 - epsilon on the true label
    (rest spread evenly), all other agents exactly uniform at u = 1/d.
    rho gives the region probabilities (balanced when omitted).
    """

    n: int
    d: int
    epsilon: float
    rho: np.ndarray | None = None

    def __post_init__(self):
        if self.n < 2:
            raise InvalidScenario(f"need n >= 2 agents, got {self.n}")
        if self.d < 2:
            raise InvalidScenario(f"need d >= 2 labels, got {self.d}")
        if not 0.0 < self.epsilon < 1.0 - 1.0 / self.d:
            raise InvalidScenario(
                f"epsilon must lie in (0, 1 - 1/d) = (0, {1.0 - 1.0 / self.d}), "
                f"got {self.epsilon}"
            )
        rho = self.rho
        if rho is None:
            rho = np.full(self.n, 1.0 / self.n)
        rho = np.asarray(rho, dtype=np.float64)
        if rho.shape != (self.n,):
            raise InvalidScenario(f"rho shape {rho.shape} does not match n={self.n}")
        if (
            not np.isfinite(rho).all()
            or rho.min() < 0.0
            or abs(rho.sum() - 1.0) > 1e-9
        ):
            raise InvalidScenario("rho must be a probability vector")
        rho = rho / rho.sum()
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)

    @property
    def p(self) -> float:
        return 1.0 - self.epsilon

    @property
    def u(self) -> float:
        return 1.0 / self.d

    @property
    def balanced(self) -> bool:
        return bool(np.abs(self.rho - 1.0 / self.n).max() <= _BALANCED_TOL)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def gen_exclusive(
    sc: ExclusiveScenario, samples: int, seed: int
) -> LabeledSnapshotSet:
    """Draw a labeled snapshot batch; risks are exact conditional risks."""
    if samples < 1:
        raise InvalidScenario(f"samples must be >= 1, got {samples}")
    rng = _rng(seed)
    regions = rng.choice(sc.n, size=samples, p=sc.rho)
    labels = rng.integers(0, sc.d, size=samples)
    p, u = sc.p, sc.u
    off = (1.0 - p) / (sc.d - 1)
    beliefs = np.full((samples, sc.n, sc.d), u)
    idx = np.arange(samples)
    beliefs[idx, regions, :] = off
    beliefs[idx, regions, labels] = p
    comp_risk = (1.0 - p) ** 2 + (sc.d - 1) * off**2
    other_risk = (1.0 - u) ** 2 + (sc.d - 1) * u**2
    risks = np.full((samples, sc.n), other_risk)
    risks[idx, regions] = comp_risk
    return LabeledSnapshotSet(
        beliefs=beliefs, labels=labels, risks=risks, exact_risk=True
    )


@dataclass(frozen=True)
class ExclusiveLosses:
    """Closed-form expected log losses for one fixed weighting.

    gap_balanced is only defined for balanced regions; gap_single is the
    loss the globally best single agent pays beyond perfect routing.
    """

    l_ens: float
    l_moe: float
    gap_balanced: float | None
    gap_single: float


def exclusive_losses(sc: ExclusiveScenario, a) -> ExclusiveLosses:
    """Expected log loss of the fixed mixture ``a`` and of exact routing.

    l_ens(a) = -sum_j rho_j ln(u + (p - u) a_j);  l_moe = -ln p.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (sc.n,):
        raise InvalidScenario(f"weights shape {a.shape} does not match n={sc.n}")
    if not np.isfinite(a).all() or a.min() < -1e-12 or abs(a.sum() - 1.0) > 1e-9:
        raise InvalidScenario("weights must lie on the simplex")
    p, u = sc.p, sc.u
    l_ens = float(-(sc.rho * np.log(u + (p - u) * np.clip(a, 0.0, None))).sum())
    l_moe = float(-np.log(p))
    gap_balanced = None
    if sc.balanced:
        gap_balanced = float(np.log(p) - np.log(u + (p - u) / sc.n))
    rho_best = float(sc.rho.max())
    gap_single = float((1.0 - rho_best) * np.log(p / u))
    return ExclusiveLosses(
        l_ens=l_ens, l_moe=l_moe, gap_balanced=gap_balanced, gap_single=gap_single
    )


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based), of a
    vector or of each row along the last axis."""
    v = np.asarray(v, dtype=np.float64)
    u = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1) - 1.0
    k = np.arange(1, v.shape[-1] + 1)
    support = u - css / k > 0.0
    rho = v.shape[-1] - 1 - np.argmax(support[..., ::-1], axis=-1)[..., None]
    theta = np.take_along_axis(css, rho, axis=-1) / (rho + 1.0)
    return np.clip(v - theta, 0.0, None)


def optimal_fixed_ensemble(sc: ExclusiveScenario) -> np.ndarray:
    """Fixed weights minimizing l_ens over the simplex, by water-filling.

    The KKT conditions of min -sum_j rho_j ln(u + (p - u) a_j) on the
    simplex give a_j = max(0, t rho_j - u / (p - u)), with the level t
    fixed by sum_j a_j = 1.  The support is the k largest rho_j for the
    largest k whose level keeps the k-th of them positive, found by one
    sort as in ``project_simplex``.  Balanced regions return exactly
    uniform weights.
    """
    if sc.balanced:
        return np.full(sc.n, 1.0 / sc.n)
    c = sc.u / (sc.p - sc.u)
    r = np.sort(sc.rho)[::-1]
    k = np.arange(1, sc.n + 1)
    level = (1.0 + k * c) / np.cumsum(r)
    last = int(np.nonzero(level * r - c > 0.0)[0][-1])
    return np.clip(level[last] * sc.rho - c, 0.0, None)


def moe_advantage_check(sc: ExclusiveScenario) -> bool:
    """True when exact routing strictly beats the best fixed mixture."""
    best = optimal_fixed_ensemble(sc)
    losses = exclusive_losses(sc, best)
    return bool(losses.l_moe < losses.l_ens)


def routing_error_threshold(sc: ExclusiveScenario) -> float:
    """Routing error rate at which noisy routing stops beating the best
    fixed mixture (balanced regions only):

        delta* = (ln p - ln(u + (p - u)/n)) / (ln p - ln u)
    """
    if not sc.balanced:
        raise UnbalancedScenario("threshold has a closed form only for balanced rho")
    p, u = sc.p, sc.u
    return float((np.log(p) - np.log(u + (p - u) / sc.n)) / (np.log(p) - np.log(u)))


def empirical_route_crossover(
    sc: ExclusiveScenario, samples: int = 100_000, seed: int = 0
) -> float:
    """Monte Carlo estimate of the routing-error break-even point.

    Uses common random numbers: one uniform per sample decides whether
    the router errs (noise < delta), so the empirical routed loss is
    lr + (lw - lr) #(noise < delta) / m.  It first exceeds the empirical
    optimal-fixed-mixture loss lr + q (lw - lr) once more than q m
    uniforms lie below delta, that is at the floor(q m)-th order
    statistic of the noise (0-based).  Draw order: regions, labels, then
    routing uniforms.
    """
    if not sc.balanced:
        raise UnbalancedScenario("crossover search expects balanced rho")
    if samples < 1:
        raise InvalidScenario(f"samples must be >= 1, got {samples}")
    rng = _rng(seed)
    regions = rng.choice(sc.n, size=samples, p=sc.rho)
    rng.integers(0, sc.d, size=samples)  # labels; keep the stream layout fixed
    noise = rng.uniform(size=samples)
    p, u = sc.p, sc.u
    a_star = optimal_fixed_ensemble(sc)
    target = float(-np.log(u + (p - u) * a_star[regions]).mean())
    loss_right, loss_wrong = -np.log(p), -np.log(u)
    q = (target - loss_right) / (loss_wrong - loss_right)
    if not 0.0 < q < 1.0:
        raise NoConvergence("empirical routed loss does not bracket the target")
    rank = int(q * samples)
    return float(np.partition(noise, rank)[rank])


@dataclass(frozen=True)
class ImperfectScenario:
    """Imperfect-agents scenario parameters.

    The competent agent puts p on the true label; every other agent puts
    u < 1/d on it, c on a shared wrong label, and the rest evenly on the
    remaining labels.  For d = 2 the non-competent row is forced to
    (u, 1 - u).  Regions are balanced.
    """

    n: int
    d: int
    p: float
    u: float
    c: float | None = None

    def __post_init__(self):
        if self.n < 3:
            raise InvalidScenario(f"need n >= 3 agents, got {self.n}")
        if self.d < 2:
            raise InvalidScenario(f"need d >= 2 labels, got {self.d}")
        if not 0.0 < self.u < 1.0 / self.d < self.p < 1.0:
            raise InvalidScenario(
                f"require 0 < u < 1/d < p < 1, got u={self.u}, p={self.p}, d={self.d}"
            )
        c = self.c
        if self.d == 2:
            forced = 1.0 - self.u
            if c is not None and abs(c - forced) > 1e-12:
                raise InvalidScenario(f"for d=2 the wrong-label mass is 1-u={forced}")
            c = forced
        else:
            if c is None:
                raise InvalidScenario("c is required when d > 2")
            if not self.u < c <= 1.0 - self.u:
                raise InvalidScenario(
                    f"require u < c <= 1-u for nonnegative residual mass, got c={c}"
                )
        object.__setattr__(self, "c", float(c))

    def profile_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Canonical (competent, non-competent) rows for y=0, z=1."""
        comp = np.full(self.d, (1.0 - self.p) / (self.d - 1))
        comp[0] = self.p
        if self.d == 2:
            other = np.array([self.u, 1.0 - self.u])
        else:
            other = np.full(self.d, (1.0 - self.u - self.c) / (self.d - 2))
            other[0] = self.u
            other[1] = self.c
        return comp, other


def gen_imperfect(
    sc: ImperfectScenario, samples: int, seed: int
) -> LabeledSnapshotSet:
    """Draw a labeled snapshot batch; raises ConfidenceOrderViolated when
    the parameters do not leave the competent agent strictly most
    confident (confidence routing is undefined there)."""
    if samples < 1:
        raise InvalidScenario(f"samples must be >= 1, got {samples}")
    comp, other = sc.profile_rows()
    c_comp, c_other = _confidence_rows(np.stack([comp, other]))
    if not c_comp > c_other:
        raise ConfidenceOrderViolated(
            f"competent confidence {float(c_comp)!r} not strictly above {float(c_other)!r}"
        )
    rng = _rng(seed)
    regions = rng.integers(0, sc.n, size=samples)
    labels = rng.integers(0, sc.d, size=samples)
    idx = np.arange(samples)
    # Each sample's columns, gathered from the canonical rows: its label
    # takes column 0, the shared wrong label column 1 and the rest column 2.
    cols = np.full((samples, sc.d), 2)
    cols[idx, labels] = 0
    cols[idx, (labels + 1) % sc.d] = 1
    beliefs = np.repeat(other[cols][:, None, :], sc.n, axis=1)
    beliefs[idx, regions] = comp[cols]
    comp_risk, other_risk = _brier_rows(np.stack([comp, other])[None], np.zeros(1, int))[0]
    risks = np.full((samples, sc.n), other_risk)
    risks[idx, regions] = comp_risk
    return LabeledSnapshotSet(
        beliefs=beliefs, labels=labels, risks=risks, exact_risk=True
    )


def imperfect_gap(sc: ImperfectScenario) -> float:
    """Expected log-loss gap between the uniform mixture and exact
    routing, counting only the true-label mass: ln(p / ((p + (n-1)u)/n))."""
    return float(np.log(sc.p / ((sc.p + (sc.n - 1) * sc.u) / sc.n)))


def uniform_mixture_profile(sc: ImperfectScenario) -> np.ndarray:
    """Uniform-ensemble belief row in canonical coordinates (y=0, z=1)."""
    comp, other = sc.profile_rows()
    return (comp + (sc.n - 1) * other) / sc.n


def wrong_majority_holds(sc: ImperfectScenario) -> bool:
    """True when the uniform mixture's argmax is the shared wrong label.

    Strictly stronger than comparing the wrong label only against the
    true one; this is the condition under which the uniform ensemble is
    confidently wrong on every sample.
    """
    mix = uniform_mixture_profile(sc)
    top = int(np.argmax(mix))
    return top == 1 and mix[1] > np.max(np.delete(mix, 1))
