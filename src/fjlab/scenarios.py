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
uniforms where applicable).  A sample's snapshot depends on its region and
label alone, so both generators build the n·d distinct snapshots once
(``_table``, a function of the scenario alone), draw regions and labels and
gather the rows; verify's scenario checks score the table with no draw.
``SimulateConfig`` holds simulate's settings, and ``draw_pools`` beside it
their checks and the RNG order, in all three modes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import numpy.random  # lazy in numpy 2: load it on import, not inside a draw

from .dynamics import simulate_pool
from .errors import (
    ConfidenceOrderViolated,
    ConfigError,
    InvalidScenario,
    NoConvergence,
    UnbalancedScenario,
)
from .io import _load_params_file
from .metrics import _brier_rows, _confidence_rows, confidence_metrics
from .model import DeliberationTrajectory, FJParameters, _dirichlet_rows
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
    "per_sample_params",
    "SimulateConfig",
    "draw_pools",
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


def _table(n: int, rows: np.ndarray, risks) -> LabeledSnapshotSet:
    """The n·d distinct labeled snapshots as one LabeledSnapshotSet, row
    ``region * d + label`` for each pair.

    ``rows`` holds the competent and the other agents' belief rows (2, d) in
    canonical columns: a snapshot's label takes column 0, its shared wrong
    label (label + 1) mod d column 1 and any other label column 2.  ``risks``
    holds those two rows' exact risks.  The region names the competent agent.
    """
    comp, other = rows
    d = comp.shape[0]
    idx = np.arange(n * d)
    where, y = np.divmod(idx, d)
    cols = np.full((n * d, d), 2)
    cols[idx, y] = 0
    cols[idx, (y + 1) % d] = 1
    beliefs = np.repeat(other[cols][:, None, :], n, axis=1)
    beliefs[idx, where] = comp[cols]
    risk = np.full((n * d, n), risks[1])
    risk[idx, where] = risks[0]
    return LabeledSnapshotSet(beliefs=beliefs, labels=y, risks=risk, exact_risk=True)


def _gather(table: LabeledSnapshotSet, regions, labels) -> LabeledSnapshotSet:
    """The samples' batch: each one's row ``region * d + label`` of the table."""
    keys = regions * table.d + labels
    rows = {name: getattr(table, name)[keys] for name in ("beliefs", "labels", "risks")}
    return replace(table, **rows)


def _exclusive_table(sc: ExclusiveScenario) -> LabeledSnapshotSet:
    """The scenario's n·d snapshots; see ``_table``."""
    p, u = sc.p, sc.u
    off = (1.0 - p) / (sc.d - 1)
    comp = np.full(sc.d, off)
    comp[0] = p
    comp_risk = (1.0 - p) ** 2 + (sc.d - 1) * off**2
    other_risk = (1.0 - u) ** 2 + (sc.d - 1) * u**2
    rows = np.stack([comp, np.full(sc.d, u)])
    return _table(sc.n, rows, (comp_risk, other_risk))


def gen_exclusive(
    sc: ExclusiveScenario, samples: int, seed: int
) -> LabeledSnapshotSet:
    """Draw a labeled snapshot batch; risks are exact conditional risks."""
    if samples < 1:
        raise InvalidScenario(f"samples must be >= 1, got {samples}")
    rng = _rng(seed)
    regions = rng.choice(sc.n, size=samples, p=sc.rho)
    return _gather(_exclusive_table(sc), regions, rng.integers(0, sc.d, size=samples))


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


def _imperfect_table(sc: ImperfectScenario) -> LabeledSnapshotSet:
    """The scenario's n·d snapshots; see ``_table``.  Checks
    ``gen_imperfect``'s confidence order first."""
    rows = np.stack(sc.profile_rows())
    c_comp, c_other = _confidence_rows(rows)
    if not c_comp > c_other:
        raise ConfidenceOrderViolated(
            f"competent confidence {float(c_comp)!r} not strictly above {float(c_other)!r}"
        )
    risks = _brier_rows(rows[None], np.zeros(1, int))[0]
    return _table(sc.n, rows, risks)


def gen_imperfect(
    sc: ImperfectScenario, samples: int, seed: int
) -> LabeledSnapshotSet:
    """Draw a labeled snapshot batch; raises ConfidenceOrderViolated, before
    anything is drawn, when the parameters do not leave the competent agent
    strictly most confident (confidence routing is undefined there)."""
    if samples < 1:
        raise InvalidScenario(f"samples must be >= 1, got {samples}")
    table = _imperfect_table(sc)
    rng = _rng(seed)
    regions = rng.integers(0, sc.n, size=samples)
    return _gather(table, regions, rng.integers(0, sc.d, size=samples))


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


def per_sample_params(
    base: FJParameters, innates, gamma_mode: str, gamma_min: float, gamma_max: float
) -> list[FJParameters]:
    """One FJParameters per innate snapshot of ``innates`` (m, n, d).

    gamma_mode "random" gives every sample ``base``; "confidence" gives each
    agent the stubbornness γ = clip(confidence of its innate belief,
    gamma_min, gamma_max), with ``base``'s α and w.
    """
    if gamma_mode == "random":
        return [base] * len(innates)
    if gamma_mode == "confidence":
        return [
            replace(base, gamma=np.clip(conf, gamma_min, gamma_max))
            for conf, _ in map(confidence_metrics, innates)
        ]
    raise InvalidScenario(f"unknown gamma_mode {gamma_mode!r}")


@dataclass(frozen=True)
class SimulateConfig:
    """[simulate] section, checked by ``scenarios.draw_pools`` when simulate
    runs, with its flags applied, not when the config loads.

    mode "random" draws contractive systems with uniform-random labels;
    "scenario" draws initial beliefs from a synthetic scenario; "params"
    simulates one explicit system from params_file.  gamma_mode
    "confidence" (gamma tied to confidence) is valid in scenario mode only.
    """

    mode: str = "random"
    samples: int = 8
    pools: int = 1
    agents: int = 5
    labels: int = 4
    rounds: int = 5
    seed: int = 0
    gamma_min: float = 0.1
    gamma_max: float = 0.9
    alpha_min: float = 0.1
    alpha_max: float = 0.9
    params_file: str = ""
    scenario: str = "imperfect"
    epsilon: float = 0.1
    p: float = 0.9
    u: float = 0.05
    c: float = 0.7
    gamma_mode: str = "random"


def _check_seed(seed: int) -> None:
    """numpy refuses a negative seed, and Philox a key of 2**128 or more."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be in [0, 2**64), got {seed}")


def _draw_pool_params(rng: np.random.Generator, sim: SimulateConfig) -> FJParameters:
    n = sim.agents
    gamma = rng.uniform(sim.gamma_min, sim.gamma_max, size=n)
    alpha = rng.uniform(sim.alpha_min, sim.alpha_max, size=n)
    # entries bounded away from 0 keep every row comfortably stochastic
    w = rng.uniform(0.1, 1.0, size=(n, n))
    np.fill_diagonal(w, 0.0)
    w /= w.sum(axis=1, keepdims=True)
    return FJParameters(gamma=gamma, alpha=alpha, w=w, mask=FJParameters.complete_mask(n))


def _scenario_snapshots(sim: SimulateConfig) -> LabeledSnapshotSet:
    total, n, d = sim.pools * sim.samples, sim.agents, sim.labels
    if sim.scenario == "exclusive":
        return gen_exclusive(ExclusiveScenario(n, d, sim.epsilon), total, sim.seed)
    if sim.scenario == "imperfect":
        sc = ImperfectScenario(n, d, sim.p, sim.u, None if d == 2 else sim.c)
        return gen_imperfect(sc, total, sim.seed)
    raise InvalidScenario(f"unknown scenario {sim.scenario!r}")


def draw_pools(sim: SimulateConfig) -> tuple[list[DeliberationTrajectory], list[FJParameters]]:
    """What ``fjlab simulate`` writes, in all three modes: (trajectories, each
    sample's true parameters) in file order.  ``sim`` is checked first, as given;
    a fault raises ConfigError.  Params mode runs the file's system as sample-0000
    of pool "0".  Otherwise the draw order is: the scenario batch, then per pool
    on ``default_rng(sim.seed)`` its γ, α and w and, in random mode, its samples'
    innates and labels."""
    if sim.samples < 1 or sim.pools < 1:
        raise ConfigError("samples and pools must be positive")
    if sim.mode in ("random", "scenario") and min(sim.agents, sim.labels) < 2:
        raise ConfigError("agents and labels must be at least 2")
    if sim.rounds < 0:
        raise ConfigError("rounds must be >= 0")
    if sim.gamma_mode not in ("random", "confidence"):
        raise ConfigError(f"unknown gamma_mode {sim.gamma_mode!r}")
    if sim.gamma_mode == "confidence" and sim.mode != "scenario":
        raise ConfigError(f"gamma_mode 'confidence' needs scenario mode, not {sim.mode!r}")
    if sim.mode in ("random", "scenario"):
        for key in ("gamma", "alpha"):
            low, high = getattr(sim, f"{key}_min"), getattr(sim, f"{key}_max")
            if not 0.0 <= low <= high <= 1.0:
                raise ConfigError(
                    f"{key}_min and {key}_max must satisfy 0 <= min <= max <= 1, "
                    f"got {low} and {high}"
                )
        _check_seed(sim.seed)
    elif sim.mode == "params":
        if not sim.params_file:
            raise ConfigError("simulate mode 'params' requires params_file")
        params, innate, label = _load_params_file(sim.params_file)
        trajs = simulate_pool(
            [params], innate[None], sim.rounds, sample_ids=["sample-0000"],
            correct_labels=[label], metadata={"pool": "0"},
        )
        return trajs, [params]
    else:
        raise ConfigError(f"unknown simulate mode {sim.mode!r}")
    sset = _scenario_snapshots(sim) if sim.mode == "scenario" else None
    rng = np.random.default_rng(sim.seed)
    trajs, truth = [], []
    for pool, first in enumerate(range(0, sim.pools * sim.samples, sim.samples)):
        base = _draw_pool_params(rng, sim)
        ids = [f"sample-{first + k:04d}" for k in range(sim.samples)]
        metadata = {"pool": str(pool)}
        if sset is None:
            # each sample's Dirichlet(1) rows as exponentials, then its label
            innates, labels = [], []
            for _ in range(sim.samples):
                innates.append(rng.standard_exponential((sim.agents, sim.labels)))
                labels.append(int(rng.integers(sim.labels)))
            innates = _dirichlet_rows(np.stack(innates))
        else:
            innates = sset.beliefs[first : first + sim.samples]
            labels = [int(y) for y in sset.labels[first : first + sim.samples]]
            metadata["scenario"] = sim.scenario
        params = per_sample_params(base, innates, sim.gamma_mode, sim.gamma_min, sim.gamma_max)
        trajs += simulate_pool(
            params, innates, sim.rounds, sample_ids=ids, correct_labels=labels, metadata=metadata
        )
        truth += params
    return trajs, truth
