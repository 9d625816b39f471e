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
1/2 and uniform w, every fit is n independent convex problems, one per
agent.  All of them, across every fit of a call, are solved as one stack
per coefficient and row count: mse is least squares on the simplex, solved
exactly by a primal active set over the stack (each pass's faces in one
least-squares stack per size), and kl runs Newton's method with the
analytic Hessian from there, each problem stopping on its own.  Every
problem gets the bits it gets alone.  Then gamma = c_0, alpha = c_1 /
(1 - c_0) (1/2 when gamma = 1) and w_i. is proportional to the peer
coefficients (uniform when they are all 0).
Nothing is random, so FitConfig.restarts and seed have no effect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .constants import LOG_FLOOR
from .dynamics import build_h
from .errors import (
    ConfigError,
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
    "fit_samples",
    "fit_pools",
    "parameter_variability",
]

_FLAT_TOL = 1e-12
_EPS = np.finfo(np.float64).eps
_TERMINATIONS = ("converged", "step_underflow", "max_iters")  # mildest first


def _check_objective(objective: str) -> None:
    if objective not in ("kl", "mse"):
        raise ConfigError(f"objective must be 'kl' or 'mse', got {objective!r}")


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
        _check_objective(self.objective)
        if self.max_iters < 1 or self.restarts < 1:
            raise ConfigError("max_iters and restarts must be positive")
        for name in ("reg_lambda", "tol"):
            value = getattr(self, name)
            if not 0.0 <= value < np.inf:
                raise ConfigError(f"{name} must be finite and nonnegative, got {value}")


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


def one_step_predictions(
    params: FJParameters, traj: DeliberationTrajectory
) -> np.ndarray:
    """Model predictions for rounds 1..T given the observed previous rounds."""
    if params.n != traj.n:
        raise ShapeMismatch(f"params n={params.n} but trajectory n={traj.n}")
    if traj.rounds < 1:
        raise EmptyInput(f"trajectory {traj.sample_id!r} has no update rounds")
    snaps = traj.snapshots
    return params.gamma[:, None] * snaps[0] + build_h(params) @ snaps[:-1]


def _objectives(pairs: list[tuple[FJParameters, DeliberationTrajectory]]):
    """(kl, mse) arrays: each trajectory's objectives under its parameters,
    reduced once per stack of trajectories of one shape."""
    kl, mse = np.empty(len(pairs)), np.empty(len(pairs))
    shapes: dict[tuple, list[int]] = {}
    for k, (_, traj) in enumerate(pairs):
        shapes.setdefault(traj.snapshots.shape, []).append(k)
    for idx in shapes.values():
        pred = np.stack([one_step_predictions(*pairs[k]) for k in idx])
        b_out = np.stack([pairs[k][1].snapshots[1:] for k in idx])
        m, t, n, _ = b_out.shape
        mse[idx] = ((pred - b_out) ** 2).reshape(m, -1).mean(axis=1)
        logs = np.log(np.where(b_out > 0.0, b_out, 1.0)) - np.log(np.maximum(pred, LOG_FLOOR))
        kl[idx] = np.where(b_out > 0.0, b_out * logs, 0.0).reshape(m, -1).sum(axis=1) / (t * n)
    return kl, mse


def fit_objective(
    params: FJParameters, traj: DeliberationTrajectory, objective: str = "kl"
) -> float:
    """Unregularized teacher-forced one-step objective of given parameters."""
    _check_objective(objective)
    kl, mse = _objectives([(params, traj)])
    return float((kl if objective == "kl" else mse)[0])


# Stacked products through matmul: each problem of a stack gets the BLAS
# call (gemv, dot) and so the bits that its own 2-D or 1-D product gets,
# whatever else is in the stack.
def _matvec(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    return (a @ c[..., None])[..., 0]


def _rmatvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (v[..., None, :] @ a)[..., 0, :]


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (u[..., None, :] @ v[..., None])[..., 0, 0]


def _lstsq_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


# numpy's stacked least-squares kernel (LAPACK dgelsd per matrix), numpy 2.0+
_GELSD = _umath_linalg.lstsq


def _lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.lstsq(a[g], b[g])[0] for each g of a stack of equal-shape
    problems, with the kernel call np.linalg.lstsq makes, so each problem
    gets the bits it gets alone."""
    rcond = _EPS * max(a.shape[1:])
    with np.errstate(
        call=_lstsq_failed, invalid="call", over="ignore", divide="ignore", under="ignore"
    ):
        return _GELSD(a, b[..., None], rcond, signature="ddd->ddid")[0][..., 0]


def _simplex_lsq(a: np.ndarray, r: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Minimize ||a_b x_b - r_b|| over the simplex for each problem b of a
    stack, by a primal active set from the feasible x.

    Each pass solves every busy problem's free coordinates with their sum
    fixed to 1, the faces with the same number of free coordinates in one
    least-squares stack (a rank-deficient face still solves), then
    each problem stops a step at the first coordinate it would make
    negative, frees the bound coordinate with the most negative
    multiplier, or is done.
    """
    b, k = x.shape
    slack = 1e-13 * np.abs(a).max(axis=(1, 2)) * np.abs(r).max(axis=1)
    x, free, busy = x.copy(), x > 0.0, np.arange(b)
    for _ in range(4 * k):  # bounds cycling on rounding-level multipliers
        if not busy.size:
            break
        f, ab, rb, rows = free[busy], a[busy], r[busy], np.arange(busy.size)
        target, sizes = np.zeros(f.shape), f.sum(axis=1)
        for size in np.flatnonzero(np.bincount(sizes)):  # np.unique would import numpy.ma
            g = np.flatnonzero(sizes == size)
            cols = np.nonzero(f[g])[1].reshape(g.size, size)  # in order, as flatnonzero
            others, last = cols[:, :-1], cols[:, -1]
            z = np.zeros((g.size, 0))  # one free coordinate: no solve
            if size > 1:
                a_last = ab[g, :, last]
                # (face, column, row): lstsq copies each face column by column
                face = ab[g[:, None], :, others] - a_last[:, None, :]
                z = _lstsq(face.transpose(0, 2, 1), rb[g] - a_last)
            target[g[:, None], others], target[g, last] = z, 1.0 - z.sum(axis=1)
        xb = x[busy]
        leaving = target < 0.0
        step = leaving.any(axis=1)
        ratios = np.where(leaving, xb / np.where(leaving, xb - target, 1.0), np.inf)
        t = np.where(step, ratios.min(axis=1), 1.0)[:, None]
        moved = (1.0 - t) * xb + t * target
        bound = step[:, None] & f & ((moved <= 0.0) | (ratios == t))
        moved[bound] = 0.0
        f &= ~bound
        grad = _rmatvec(ab, _matvec(ab, moved) - rb)
        level = np.where(f, grad, 0.0).sum(axis=1, keepdims=True) / f.sum(axis=1, keepdims=True)
        mult = np.where(f, np.inf, grad - level)
        j = np.argmin(mult, axis=1)
        enter = ~step & (mult[rows, j] < -slack[busy])
        f[enter, j[enter]] = True
        x[busy], free[busy] = moved, f
        busy = busy[step | enter]
    return x


def _newton(model, c: np.ndarray, config: FitConfig):
    """Newton's method on the simplex for a stack of problems from the
    feasible c.

    model(c, idx) gives problems idx's objectives, gradients and quadratic
    models as least-squares pairs (a, r).  Each iteration moves every busy
    problem from c towards its model's minimizer on the simplex by a
    backtracking line search.  A problem stops when its predicted decrease
    (the Newton decrement) is at most config.tol, when its step underflows,
    or at config.max_iters.  Returns c, the (iterations + 1, B) objectives
    with each problem holding its last value, each problem's iteration
    count, its index into _TERMINATIONS and its KKT residual.
    """
    busy = np.arange(c.shape[0])
    f, grad, a, r = model(c, busy)
    curve, steps = [f.copy()], np.zeros(busy.size, dtype=np.int64)
    status = np.full(busy.size, _TERMINATIONS.index("max_iters"))
    for _ in range(config.max_iters):
        if not busy.size:
            break
        target = _simplex_lsq(a, r, c[busy])
        decrement = -_dot(grad[busy], target - c[busy])
        status[busy[decrement <= config.tol]] = _TERMINATIONS.index("converged")
        search = np.flatnonzero(decrement > config.tol)
        t, trying = np.ones(search.size), np.arange(search.size)
        passed = np.zeros(search.size, dtype=bool)
        while trying.size:
            p, s = search[trying], t[trying, None]
            trial = (1.0 - s) * c[busy[p]] + s * target[p]
            ok = model(trial, busy[p])[0] < f[busy[p]] - 1e-4 * t[trying] * decrement[p]
            passed[trying[ok]] = True
            t[trying[~ok]] *= 0.5
            trying = trying[~ok & (t[trying] >= 1e-10)]
        status[busy[search[~passed]]] = _TERMINATIONS.index("step_underflow")
        p, busy, s = search[passed], busy[search[passed]], t[passed, None]
        c[busy] = (1.0 - s) * c[busy] + s * target[p]
        f[busy], grad[busy], a, r = model(c[busy], busy)
        steps[busy] += 1
        if busy.size:
            curve.append(f.copy())
    # zero exactly at a KKT point of the simplex-constrained problem
    residual = np.abs(c - project_simplex(c - grad)).max(axis=1)
    return c, np.array(curve), steps, status, residual


def _solve(
    x: np.ndarray, y: np.ndarray, weight: np.ndarray, centre: np.ndarray, config: FitConfig
):
    """Fit a stack of B problems of k columns: c_b on the simplex with
    x_b c_b ~ y_b, regularized towards centre.

    Each row's loss is weighted: the squared error, or for kl
    y log(y / max(x c, LOG_FLOOR)).  Returns what _newton returns.
    """
    lam, (b, _, k) = config.reg_lambda, x.shape
    ridge = np.sqrt(lam) * np.eye(k)
    root = np.sqrt(weight)
    a_mse = np.concatenate([root[..., None] * x, np.broadcast_to(ridge, (b, k, k))], axis=1)
    r_mse = np.concatenate([root * y, np.broadcast_to(ridge @ centre, (b, k))], axis=1)
    start = np.tile(centre, (b, 1))
    if config.objective == "mse":

        def mse(c, idx):
            res = _matvec(a_mse[idx], c) - r_mse[idx]
            return _dot(res, res), 2.0 * _rmatvec(a_mse[idx], res), a_mse[idx], r_mse[idx]

        return _newton(mse, start, config)
    observed = y > 0.0
    log_y = np.log(np.where(observed, y, 1.0))
    mass = np.where(observed, weight * y, 0.0)
    root_mass = np.sqrt(mass)
    # Hessian sum mass / p^2 x x' + 2 lam I as a least-squares pair (a, r_kl)
    a_ridge = np.broadcast_to(np.sqrt(2.0) * ridge, (b, k, k))
    r_ridge = np.broadcast_to(np.sqrt(2.0) * ridge @ centre, (b, k))
    r_kl = np.concatenate([2.0 * root_mass, r_ridge], axis=1)

    def kl(c, idx):
        p = _matvec(x[idx], c)
        live = p > LOG_FLOOR
        inv_p = np.where(live, 1.0 / np.where(live, p, 1.0), 0.0)
        value = _dot(mass[idx], log_y[idx] - np.log(np.maximum(p, LOG_FLOOR)))
        grad = -_rmatvec(x[idx], mass[idx] * inv_p) + 2.0 * lam * (c - centre)
        a = np.concatenate([(root_mass[idx] * inv_p)[..., None] * x[idx], a_ridge[idx]], axis=1)
        return value + lam * ((c - centre) ** 2).sum(axis=1), grad, a, r_kl[idx]

    # start from the exact mse fit, unless it predicts observed mass below
    # the floor, where Newton gets no gradient; the centre never does for
    # a label that some column holds
    start = _simplex_lsq(a_mse, r_mse, start)
    dead = (_matvec(x, start) <= LOG_FLOOR) & observed & (x.max(axis=2) > 0.0)
    start[dead.any(axis=1)] = centre
    return _newton(kl, start, config)


def _is_flat(traj: DeliberationTrajectory) -> bool:
    snaps = traj.snapshots
    return bool(np.abs(snaps - snaps[0]).max() <= _FLAT_TOL)


def _fit(groups, config: FitConfig, mask: np.ndarray | None, pooled: bool) -> list[FitReport]:
    """One parameter set per group of trajectories; every agent of every
    group is solved in one stack per coefficient and row count."""
    fits, problems = [], {}
    for g, trajs in enumerate(groups):
        if not trajs:
            raise EmptyInput("no trajectories to fit")
        flat = all(_is_flat(t) for t in trajs)
        if flat and config.reg_lambda == 0.0:
            raise DegenerateTrajectory(
                "all trajectories are constant; fit is unregularized"
                if pooled
                else f"trajectory {trajs[0].sample_id!r} is constant and the fit is unregularized"
            )
        n = trajs[0].n
        for t in trajs[1:]:
            if t.n != n:
                raise ShapeMismatch(f"trajectory {t.sample_id!r} has n={t.n}, expected {n}")
        mask_g = FJParameters.complete_mask(n) if mask is None else np.asarray(mask, dtype=bool)
        if mask_g.shape != (n, n):
            raise ShapeMismatch(f"mask shape {mask_g.shape}, expected {(n, n)}")
        if mask_g.diagonal().any():
            raise ShapeMismatch("mask diagonal must be False")
        parts = []
        for traj in trajs:
            if traj.rounds < 1:
                raise EmptyInput(f"trajectory {traj.sample_id!r} has no update rounds")
            snaps = traj.snapshots
            t, _, d = snaps[1:].shape
            per_row = len(trajs) * t * n * (d if config.objective == "mse" else 1)
            rows = [b.transpose(1, 0, 2).reshape(n, t * d) for b in (snaps[:-1], snaps[1:])]
            parts.append((np.tile(snaps[0], (1, t)), *rows, np.full(t * d, 1.0 / per_row)))
        # (agent, row) arrays over the (trajectory, round, label) rows; the
        # weights keep fit_objective's averaging
        innate, belief, target, weight = (np.concatenate(p, axis=-1) for p in zip(*parts))
        # gamma, alpha, w, mask, flat and each agent's (curve, steps, status, residual)
        fits.append((np.empty(n), np.empty(n), np.zeros((n, n)), mask_g, flat, [None] * n))
        degree = mask_g.sum(axis=1)
        for deg in set(degree.tolist()):  # np.unique would import numpy.ma
            agents = np.flatnonzero(degree == deg)
            peers = np.nonzero(mask_g[agents])[1].reshape(agents.size, deg)
            # an empty neighbourhood gets a zero sink column for its peer mass
            cols = belief[peers] if deg else np.zeros((agents.size, 1, weight.size))
            x = np.concatenate([innate[agents, None], belief[agents, None], cols], axis=1)
            y = target[agents]
            problems.setdefault(x.shape[1:], []).append(
                (g, agents, peers, x, y, np.broadcast_to(weight, y.shape))
            )
    for (k, _), blocks in problems.items():
        x, y, weight = (np.concatenate([blk[j] for blk in blocks]) for j in (3, 4, 5))
        centre = np.concatenate([[0.5, 0.25], np.full(k - 2, 0.25 / (k - 2))])
        coef, curve, steps, status, residual = _solve(
            x.transpose(0, 2, 1).copy(), y, weight, centre, config
        )
        coef = coef + 0.0  # no negative zeros in the artifacts
        rest, peer_mass = coef[:, 1:].sum(axis=1), coef[:, 2:].sum(axis=1, keepdims=True)
        alpha = np.divide(coef[:, 1], rest, out=np.full(rest.shape, 0.5), where=rest > 0.0)
        shares = np.full(coef[:, 2:].shape, 1.0 / (k - 2))  # uniform without peer mass
        np.divide(coef[:, 2:], peer_mass, out=shares, where=peer_mass > 0.0)
        end = 0
        for g, agents, peers, *_ in blocks:
            gamma_g, alpha_g, w, _, _, runs = fits[g]
            span = range(end, end + agents.size)
            end = span.stop
            gamma_g[agents] = np.minimum(coef[span, 0], 1.0)
            alpha_g[agents] = alpha[span]
            w[agents[:, None], peers] = shares[span]
            for i, j in zip(agents, span):
                runs[i] = (curve[:, j], steps[j], status[j], residual[j])
    params = [FJParameters(gamma=gm, alpha=al, w=w, mask=m) for gm, al, w, m, *_ in fits]
    # each trajectory's objectives under its fit, from one stack per shape
    kl, mse = _objectives([(p, t) for p, ts in zip(params, groups) for t in ts])
    reports, end = [], np.cumsum([len(ts) for ts in groups])
    for g, (*_, flat, runs) in enumerate(fits):
        curves, steps, status, residual = zip(*runs)
        rounds = np.arange(1 + max(steps))
        # agents that stopped early hold their last value
        curve = sum(cv[np.minimum(rounds, last)] for cv, last in zip(curves, steps))
        span = slice(end[g] - len(groups[g]), end[g])
        reports.append(
            FitReport(
                params=params[g],
                kl=float(np.mean(kl[span])),
                mse=float(np.mean(mse[span])),
                objective_curve=curve.tolist(),
                restart_index=0,
                flat=flat,
                sample_id="global" if pooled else groups[g][0].sample_id,
                termination=_TERMINATIONS[max(status)],
                kkt_residual=float(max(residual)),
            )
        )
    return reports


def fit_samples(
    trajs: list[DeliberationTrajectory],
    config: FitConfig = FitConfig(),
    mask: np.ndarray | None = None,
) -> list[FitReport]:
    """fit_sample of each trajectory, all in one batched solve."""
    return _fit([[t] for t in trajs], config, mask, pooled=False)


def fit_pools(
    pools: list[list[DeliberationTrajectory]],
    config: FitConfig = FitConfig(),
    mask: np.ndarray | None = None,
) -> list[FitReport]:
    """fit_global of each pool of trajectories, all in one batched solve."""
    return _fit([list(t) for t in pools], config, mask, pooled=True)


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
    return fit_samples([traj], config, mask)[0]


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
    return fit_pools([trajs], config, mask)[0]


def _quartile(s: np.ndarray, q: float) -> np.ndarray:
    """np.percentile's linear-interpolation quantile q of each column of the
    sorted s, bit for bit, without the numpy.ma import np.percentile costs."""
    pos = (s.shape[0] - 1) * q
    i = int(pos)
    lo, hi, t = s[i], s[min(i + 1, s.shape[0] - 1)], pos - i
    return lo + (hi - lo) * t if t < 0.5 else hi - (hi - lo) * (1.0 - t)


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
        ordered = np.sort(values, axis=0)
        iqr = _quartile(ordered, 0.75) - _quartile(ordered, 0.25)
        for i in range(n):
            col = values[:, i]
            out[f"{prefix}_{i}"] = (float(col.mean()), float(col.std()), float(iqr[i]))

    add("gamma", gammas)
    add("alpha", alphas)
    add("w_in", w_in)
    return VariabilityReport(per_parameter=out, n_reports=len(reports))
