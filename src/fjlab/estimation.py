"""Fitting update parameters to observed trajectories.

The objective is teacher-forced one-step prediction error: every
observed snapshot B(t) is fed through one model round and compared to
the observed B(t+1), either by mean squared error over (round, agent,
entry) or by KL(observed || predicted) averaged over (round, agent)
with a 1e-12 floor inside the log.

Agent i's coefficients c_i = (gamma_i, (1 - gamma_i) alpha_i,
(1 - gamma_i)(1 - alpha_i) w_ij for each permitted j) lie on a simplex
and predict X_i c_i, with columns s_i, b_i(t) and b_j(t) over the
stacked rows (a zero "sink" column stands in for an empty
neighbourhood).  With the regularizer reg_lambda * sum_i ||c_i - c_i0||^2
around c_i0 = (1/2, 1/4, 1/4 * uniform w), the image of gamma = alpha =
1/2 and uniform w, the fit is n independent convex problems: mse is
least squares on the simplex, solved exactly by an active-set KKT solve,
and kl runs Newton's method with the analytic Hessian from there.  Then
gamma = c_0, alpha = c_1 / (1 - c_0) (1/2 when gamma = 1) and w_i. is
proportional to the peer coefficients (uniform when they are all 0).
Nothing is random, so FitConfig.restarts and seed have no effect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.ma  # lazy in numpy 2 and loaded by np.percentile: load it with the module

from .constants import LOG_FLOOR
from .dynamics import build_h
from .errors import (
    DegenerateTrajectory,
    EmptyInput,
    InsufficientSamples,
    ShapeMismatch,
)
from .model import DeliberationTrajectory, FJParameters
from .scenarios import project_simplex

__all__ = [
    "FitConfig",
    "FitReport",
    "VariabilityReport",
    "one_step_predictions",
    "fit_objective",
    "fit_sample",
    "fit_global",
    "parameter_variability",
]

_FLAT_TOL = 1e-12
_TERMINATIONS = ("converged", "step_underflow", "max_iters")  # mildest first


@dataclass(frozen=True)
class FitConfig:
    """Solver settings; the defaults suit pools of short trajectories.

    An agent's Newton iterations stop once the predicted decrease of the
    objective is at most tol.  restarts and seed are validated but unused.
    """

    objective: str = "kl"
    max_iters: int = 500
    tol: float = 1e-12
    reg_lambda: float = 1e-3
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.objective not in ("kl", "mse"):
            raise ShapeMismatch(f"objective must be 'kl' or 'mse', got {self.objective!r}")
        if self.max_iters < 1 or self.restarts < 1:
            raise ShapeMismatch("max_iters and restarts must be positive")
        if self.reg_lambda < 0.0:
            raise ShapeMismatch("reg_lambda must be nonnegative")


@dataclass(frozen=True)
class FitReport:
    """Result of one fit: parameters plus both unregularized objectives.

    kl and mse are averages over all predicted (agent, round) pairs,
    whichever objective was optimized.  objective_curve holds the total
    regularized objective at the start and after every Newton iteration
    (non-increasing); its length minus one is the most iterations any
    agent took.  restart_index is always 0.  flat marks a trajectory whose
    snapshots never move.  termination is "converged", or "max_iters" /
    "step_underflow" if any agent hit the cap / found no decrease, and
    kkt_residual is the worst agent's sup norm of c - P(c - gradient).
    """

    params: FJParameters
    kl: float
    mse: float
    objective_curve: list[float]
    restart_index: int
    flat: bool = False
    sample_id: str = ""
    termination: str = "converged"
    kkt_residual: float = 0.0


@dataclass(frozen=True)
class VariabilityReport:
    """Spread of fitted parameters across a pool of per-sample fits.

    per_parameter maps "gamma_<i>"/"alpha_<i>"/"w_in_<i>" to
    (mean, std, iqr) over reports; w_in_<i> is agent i's incoming weight
    averaged over the other agents (senders).
    """

    per_parameter: dict[str, tuple[float, float, float]]
    n_reports: int


def _stack_io(traj: DeliberationTrajectory) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if traj.rounds < 1:
        raise EmptyInput(f"trajectory {traj.sample_id!r} has no update rounds")
    snaps = traj.snapshots
    return snaps[0], snaps[:-1], snaps[1:]


def one_step_predictions(
    params: FJParameters, traj: DeliberationTrajectory
) -> np.ndarray:
    """Model predictions for rounds 1..T given the observed previous rounds."""
    if params.n != traj.n:
        raise ShapeMismatch(f"params n={params.n} but trajectory n={traj.n}")
    innate, b_in, _ = _stack_io(traj)
    return params.gamma[:, None] * innate + build_h(params) @ b_in


def fit_objective(
    params: FJParameters, traj: DeliberationTrajectory, objective: str = "kl"
) -> float:
    """Unregularized teacher-forced one-step objective of given parameters."""
    if objective not in ("kl", "mse"):
        raise ShapeMismatch(f"objective must be 'kl' or 'mse', got {objective!r}")
    pred = one_step_predictions(params, traj)
    b_out = traj.snapshots[1:]
    if objective == "mse":
        return float(((pred - b_out) ** 2).mean())
    t, n, _ = b_out.shape
    pred_floor = np.maximum(pred, LOG_FLOOR)
    terms = np.where(
        b_out > 0.0, b_out * (np.log(np.where(b_out > 0.0, b_out, 1.0)) - np.log(pred_floor)), 0.0
    )
    return float(terms.sum() / (t * n))


def _simplex_lsq(a: np.ndarray, r: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Minimize ||a x - r|| over the simplex by a primal active set from x.

    Each pass solves the free coordinates with their sum fixed to 1 (by
    lstsq, so a rank-deficient face still solves), stops a step at the
    first coordinate it would make negative, or frees the bound
    coordinate with the most negative multiplier.
    """
    free = x > 0.0
    slack = 1e-13 * np.abs(a).max() * np.abs(r).max()
    for _ in range(4 * x.size):  # bounds cycling on rounding-level multipliers
        *others, last = np.flatnonzero(free)
        z = np.linalg.lstsq(a[:, others] - a[:, [last]], r - a[:, last])[0]
        target = np.zeros_like(x)
        target[others] = z
        target[last] = 1.0 - z.sum()
        leaving = target < 0.0
        if leaving.any():
            ratios = np.where(leaving, x / np.where(leaving, x - target, 1.0), np.inf)
            t = float(ratios.min())
            x = (1.0 - t) * x + t * target
            bound = free & ((x <= 0.0) | (ratios == t))
            x[bound] = 0.0
            free &= ~bound
            continue
        x = target
        grad = a.T @ (a @ x - r)
        mult = np.where(free, np.inf, grad - grad[free].mean())
        j = int(np.argmin(mult))
        if mult[j] >= -slack:
            break
        free[j] = True
    return x


def _newton(model, c: np.ndarray, config: FitConfig):
    """Newton's method on the simplex from the feasible c.

    model(c) gives the objective, its gradient and its quadratic model as
    a least-squares pair (a, r); each iteration backtracks from c towards
    the model's minimizer on the simplex, until the predicted decrease
    (the Newton decrement) is at most config.tol.  Returns (c, curve,
    termination, kkt_residual).
    """
    f, grad, a, r = model(c)
    curve = [f]
    termination = "max_iters"
    for _ in range(config.max_iters):
        target = _simplex_lsq(a, r, c)
        decrement = -float(grad @ (target - c))
        if decrement <= config.tol:
            termination = "converged"
            break
        t = 1.0
        while t >= 1e-10 and model((1.0 - t) * c + t * target)[0] >= f - 1e-4 * t * decrement:
            t *= 0.5
        if t < 1e-10:
            termination = "step_underflow"
            break
        c = (1.0 - t) * c + t * target
        f, grad, a, r = model(c)
        curve.append(f)
    # zero exactly at a KKT point of the simplex-constrained problem
    return c, curve, termination, float(np.abs(c - project_simplex(c - grad)).max())


def _fit_rows(
    x: np.ndarray, y: np.ndarray, weight: np.ndarray, centre: np.ndarray, config: FitConfig
):
    """Fit one agent's c to its rows x c ~ y, regularized towards centre.

    Each row's loss is weighted: the squared error, or for kl
    y log(y / max(x c, LOG_FLOOR)).  Returns what _newton returns.
    """
    lam = config.reg_lambda
    ridge = np.sqrt(lam) * np.eye(centre.size)
    a_mse = np.vstack([np.sqrt(weight)[:, None] * x, ridge])
    r_mse = np.concatenate([np.sqrt(weight) * y, ridge @ centre])
    if config.objective == "mse":

        def mse(c):
            res = a_mse @ c - r_mse
            return float(res @ res), 2.0 * a_mse.T @ res, a_mse, r_mse

        return _newton(mse, centre, config)
    observed = y > 0.0
    x_obs = x[observed]
    log_y = np.log(y[observed])
    mass = weight[observed] * y[observed]
    # Hessian sum mass / p^2 x x' + 2 lam I as a least-squares pair (a, r_kl)
    r_kl = np.concatenate([2.0 * np.sqrt(mass), np.sqrt(2.0) * ridge @ centre])

    def kl(c):
        p = x_obs @ c
        live = p > LOG_FLOOR
        inv_p = np.where(live, 1.0 / np.where(live, p, 1.0), 0.0)
        value = mass @ (log_y - np.log(np.maximum(p, LOG_FLOOR)))
        grad = -x_obs.T @ (mass * inv_p) + 2.0 * lam * (c - centre)
        a = np.vstack([(np.sqrt(mass) * inv_p)[:, None] * x_obs, np.sqrt(2.0) * ridge])
        return float(value + lam * ((c - centre) ** 2).sum()), grad, a, r_kl

    # start from the exact mse fit, unless it predicts observed mass below
    # the floor, where Newton gets no gradient; the centre never does for
    # a label that some column holds
    start = _simplex_lsq(a_mse, r_mse, centre)
    if np.any((x_obs @ start <= LOG_FLOOR) & (x_obs.max(axis=1) > 0.0)):
        start = centre
    return _newton(kl, start, config)


def _is_flat(traj: DeliberationTrajectory) -> bool:
    snaps = traj.snapshots
    return bool(np.abs(snaps - snaps[0]).max() <= _FLAT_TOL)


def _run_fit(
    trajs: list[DeliberationTrajectory],
    config: FitConfig,
    mask: np.ndarray | None,
    flat: bool,
    sample_id: str,
) -> FitReport:
    n = trajs[0].n
    for t in trajs[1:]:
        if t.n != n:
            raise ShapeMismatch(f"trajectory {t.sample_id!r} has n={t.n}, expected {n}")
    if mask is None:
        mask = FJParameters.complete_mask(n)
    mask = np.asarray(mask)
    if mask.dtype != np.bool_:
        mask = mask.astype(bool)
    if mask.shape != (n, n):
        raise ShapeMismatch(f"mask shape {mask.shape}, expected {(n, n)}")
    if mask.diagonal().any():
        raise ShapeMismatch("mask diagonal must be False")
    parts = []
    for traj in trajs:
        s, b_in, b_out = _stack_io(traj)
        t, _, d = b_in.shape
        per_row = len(trajs) * t * n * (d if config.objective == "mse" else 1)
        rows = [b.transpose(1, 0, 2).reshape(n, t * d) for b in (b_in, b_out)]
        parts.append((np.tile(s, (1, t)), *rows, np.full(t * d, 1.0 / per_row)))
    # (agent, row) arrays over the (trajectory, round, label) rows; the
    # weights keep fit_objective's averaging
    innate, belief, target, weight = (np.concatenate(p, axis=-1) for p in zip(*parts))
    gamma, alpha, w = np.empty(n), np.empty(n), np.zeros((n, n))
    fits = []
    for i in range(n):
        peers = np.flatnonzero(mask[i])
        # an empty neighbourhood gets a zero sink column for its peer mass
        peer_cols = belief[peers] if peers.size else np.zeros((1, weight.size))
        x = np.vstack([innate[i], belief[i], peer_cols]).T
        deg = len(peer_cols)
        centre = np.concatenate([[0.5, 0.25], np.full(deg, 0.25 / deg)])
        fits.append(_fit_rows(x, target[i], weight, centre, config))
        c = fits[-1][0] + 0.0  # no negative zeros in the artifacts
        gamma[i] = min(c[0], 1.0)
        rest = c[1:].sum()
        alpha[i] = c[1] / rest if rest > 0.0 else 0.5
        if peers.size:
            peer_mass = c[2:].sum()
            w[i, peers] = c[2:] / peer_mass if peer_mass > 0.0 else 1.0 / peers.size
    params = FJParameters(gamma=gamma, alpha=alpha, w=w, mask=mask)
    kl = float(np.mean([fit_objective(params, t, "kl") for t in trajs]))
    mse = float(np.mean([fit_objective(params, t, "mse") for t in trajs]))
    _, curves, terminations, residuals = zip(*fits)
    # agents that stopped early hold their last value
    length = max(len(cv) for cv in curves)
    curve = [sum(cv[min(k, len(cv) - 1)] for cv in curves) for k in range(length)]
    return FitReport(
        params=params,
        kl=kl,
        mse=mse,
        objective_curve=curve,
        restart_index=0,
        flat=flat,
        sample_id=sample_id,
        termination=max(terminations, key=_TERMINATIONS.index),
        kkt_residual=max(residuals),
    )


def fit_sample(
    traj: DeliberationTrajectory,
    config: FitConfig = FitConfig(),
    mask: np.ndarray | None = None,
) -> FitReport:
    """Fit parameters to one trajectory.

    A trajectory whose snapshots never move cannot identify any
    parameters; with reg_lambda = 0 that raises DegenerateTrajectory,
    otherwise the regularized optimum is returned with flat=True.
    """
    flat = _is_flat(traj)
    if flat and config.reg_lambda == 0.0:
        raise DegenerateTrajectory(
            f"trajectory {traj.sample_id!r} is constant and the fit is unregularized"
        )
    return _run_fit([traj], config, mask, flat, traj.sample_id)


def fit_global(
    trajs: list[DeliberationTrajectory],
    config: FitConfig = FitConfig(),
    mask: np.ndarray | None = None,
) -> FitReport:
    """Fit one shared parameter set to a pool of trajectories.

    Trajectories must share the agent count; labels and class counts may
    differ.  The objective is the unweighted mean of the per-sample data
    terms plus one regularizer.
    """
    if not trajs:
        raise EmptyInput("no trajectories to fit")
    flat = all(_is_flat(t) for t in trajs)
    if flat and config.reg_lambda == 0.0:
        raise DegenerateTrajectory("all trajectories are constant; fit is unregularized")
    return _run_fit(list(trajs), config, mask, flat, "global")


def parameter_variability(reports: list[FitReport]) -> VariabilityReport:
    """Cross-sample spread (mean, population std, IQR) of fitted values.

    Incoming weights are first averaged over senders per receiving
    agent, giving one w_in value per agent per report.
    """
    if len(reports) < 2:
        raise InsufficientSamples(f"need >= 2 reports, got {len(reports)}")
    n = reports[0].params.n
    for rep in reports[1:]:
        if rep.params.n != n:
            raise ShapeMismatch("reports mix different agent counts")
    gammas = np.stack([rep.params.gamma for rep in reports])
    alphas = np.stack([rep.params.alpha for rep in reports])
    # mean over the n-1 potential senders; the diagonal is structurally 0
    w_in = np.stack([rep.params.w.sum(axis=0) / (n - 1) for rep in reports])
    out: dict[str, tuple[float, float, float]] = {}

    def add(prefix: str, values: np.ndarray):
        for i in range(n):
            col = values[:, i]
            q25, q75 = np.percentile(col, [25.0, 75.0])
            out[f"{prefix}_{i}"] = (
                float(col.mean()),
                float(col.std()),
                float(q75 - q25),
            )

    add("gamma", gammas)
    add("alpha", alphas)
    add("w_in", w_in)
    return VariabilityReport(per_parameter=out, n_reports=len(reports))
