"""Belief update dynamics, fixed points, and long-run influence.

One deliberation round moves every agent toward a convex combination of
its innate belief, its current belief, and a weighted average of its
peers' current beliefs:

    b_i(t+1) = g_i * s_i + (1 - g_i) * a_i * b_i(t)
               + (1 - g_i) * (1 - a_i) * sum_j w_ij * b_j(t)

Stacking rows, the linear part is H = (I - G) @ (A + (I - A) @ W) with
G = diag(gamma) and A = diag(alpha), so a round is B <- G @ S + H @ B.
When the spectral radius of H is below 1 the map contracts onto

    B* = (I - H)^{-1} @ G @ S = M @ S,

where M is the long-run influence matrix: entry (i, j) is how much of
agent j's innate belief ends up in agent i's settled belief.  For
row-stochastic W, M is nonnegative with unit row sums, so any readout
eta over agents induces source weights pi = eta @ M on the simplex.

A round takes one snapshot (n, d) or a stack of them (m, n, d), with one
shared H or one H per sample, so samples that share a shape run their
rounds together.
"""

from __future__ import annotations

import numpy as np

from .constants import CONTRACTION_MARGIN, STOCHASTIC_TOL, TAU_SIMPLEX
from .errors import (
    DegenerateStubbornness,
    NoConvergence,
    NotContractive,
    NumericalError,
    ShapeMismatch,
    SingularSystem,
)
from .model import (
    DeliberationTrajectory,
    FJParameters,
    _belief_array,
    _check_rows,
    validate_snapshot,
)

__all__ = [
    "build_h",
    "fj_step",
    "spectral_radius",
    "equilibrium",
    "influence_weights",
    "aggregate_pi",
    "simulate",
    "simulate_pool",
    "settle",
]

# rounds between two looks of the final-only round loop for samples that
# repeat; at least 3, so each look sees three rounds of the live samples
_RETIRE_EVERY = 16


def build_h(params: FJParameters) -> np.ndarray:
    """Linear round operator H = (I - G) (A + (I - A) W); nonnegative,
    row sums 1 - gamma_i when the weight row is stochastic."""
    return _stack_h(params.gamma, params.alpha, params.w)


def _stack_h(gamma: np.ndarray, alpha: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``build_h``'s formula on one system or a stack: gamma and alpha
    (..., n), w (..., n, n)."""
    h = (1.0 - alpha)[..., :, None] * w
    diag = np.arange(w.shape[-1])
    h[..., diag, diag] += alpha
    h *= (1.0 - gamma)[..., :, None]
    return h


def fj_step(params: FJParameters, innate: np.ndarray, current: np.ndarray) -> np.ndarray:
    """Apply one deliberation round to ``current`` given innate beliefs."""
    innate = validate_snapshot(innate)
    current = validate_snapshot(current)
    if innate.shape != current.shape or innate.shape[0] != params.n:
        raise ShapeMismatch(f"innate {innate.shape}, current {current.shape}, n={params.n}")
    return _round(params.gamma[:, None] * innate, build_h(params), current)


def _round(
    gs: np.ndarray, h: np.ndarray, current: np.ndarray, worst: np.ndarray | None = None
) -> np.ndarray:
    """One round B <- G S + H B from precomputed G S and H, on one snapshot
    (n, d) or a stack (m, n, d), with G S shaped like the snapshots and H
    shared (n, n) or per sample (m, n, n); returns the renormalized
    snapshots.  ``worst`` (m,), when given, is raised to each sample's row
    drift |(H B + G S).sum(-1) - 1| before renormalization."""
    out = h @ current
    out += gs
    if worst is not None:
        np.maximum(worst, np.abs(out.sum(axis=-1) - 1.0).max(axis=-1), out=worst)
    # Rows are convex combinations of simplex rows, so only float rounding
    # (or an empty neighborhood row) moves the mass off 1; renormalize.
    np.maximum(out, 0.0, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def _run_rounds(
    gs: np.ndarray, h: np.ndarray, start: np.ndarray, rounds: int,
    snaps: np.ndarray | None = None, worst: np.ndarray | None = None,
) -> np.ndarray:
    """``rounds`` rounds from the stack ``start`` (m, n, d), shapes as in
    ``_round`` with G S (m, n, d); fills ``snaps[:, t + 1]`` after round t
    when given, and raises ``worst`` to each round's drift when given.
    Returns the final stack.

    Without ``snaps`` and ``worst`` only the final stack is wanted, so every
    ``_RETIRE_EVERY`` rounds a sample whose snapshot has the bits of the one
    a round or two rounds before leaves the stack.  A round's bits depend
    only on the sample's own snapshot, G S and H, so from there the sample
    repeats with that period (1 or 2), and its final snapshot is read off
    the period: the bits of the full loop."""
    if snaps is not None or worst is not None:
        current = start
        for t in range(rounds):
            current = _round(gs, h, current, worst)
            if snaps is not None:
                snaps[:, t + 1] = current
        return current
    final = np.empty(start.shape)
    live = np.arange(len(start))
    previous = current = start
    for t in range(1, rounds + 1):
        # after the stack shrinks, older and previous hold retired samples
        # for two more rounds; the next look is further off
        older, previous, current = previous, current, _round(gs, h, current)
        if t % _RETIRE_EVERY or t == rounds:
            continue
        bits = current.view(np.uint64)
        one = (bits == previous.view(np.uint64)).all(axis=(1, 2))
        done = one | (bits == older.view(np.uint64)).all(axis=(1, 2))
        if done.any():
            # a period-2 sample ends on this round's snapshot after an even
            # number of rounds still to run, else on the one before
            ends = one | ((rounds - t) % 2 == 0)
            final[live[done]] = np.where(ends[:, None, None], current, previous)[done]
            live, current, gs = live[~done], current[~done], gs[~done]
            if h.ndim == 3:
                h = h[~done]
            if not live.size:
                return final
    final[live] = current
    return final


def spectral_radius(h: np.ndarray):
    """Spectral radius: the largest eigenvalue modulus of a square matrix,
    as a float, or of each matrix in a stack (m, n, n), as an array.

    One dense eigenvalue computation, exact to rounding for the small
    systems this package works with.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim not in (2, 3) or h.shape[-1] != h.shape[-2]:
        raise ShapeMismatch(f"expected square matrix, got {h.shape}")
    if h.shape[-1] == 0:
        raise ShapeMismatch("empty matrix")
    rho = np.abs(np.linalg.eigvals(h)).max(axis=-1)
    return float(rho) if h.ndim == 2 else rho


def _fixed_point(h: np.ndarray, *rhs: np.ndarray) -> tuple[np.ndarray, ...]:
    """Solve (I - H) X = b for each right-hand side b, on a stack of
    systems H (m, n, n) and b (m, n, k), after checking that every H
    contracts; returns each system's spectral radius, then the solutions.
    A stack with a system that does not contract raises with the largest
    radius; ``stacked_metrics`` reruns a failing stack sample by sample
    to report the first failing sample."""
    rho = spectral_radius(h)
    if (rho >= 1.0 - CONTRACTION_MARGIN).any():
        raise NotContractive(
            f"spectral radius {float(rho.max())!r} is not below 1 - {CONTRACTION_MARGIN!r}"
        )
    a = np.eye(h.shape[-1]) - h
    try:
        return (rho, *(np.linalg.solve(a, b) for b in rhs))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc


def equilibrium(params: FJParameters, innate: np.ndarray) -> np.ndarray:
    """Settled beliefs: solves (I - H) B = G S with partial pivoting.

    Raises NotContractive when the spectral radius of H is within
    CONTRACTION_MARGIN of 1; callers that still want an answer can fall
    back to ``settle`` (finite iteration).
    """
    innate = validate_snapshot(innate)
    if innate.shape[0] != params.n:
        raise ShapeMismatch(f"innate has {innate.shape[0]} rows, n={params.n}")
    _, b = _fixed_point(build_h(params)[None], (params.gamma[:, None] * innate)[None])
    return b[0]


def influence_weights(params: FJParameters) -> np.ndarray:
    """Long-run influence matrix M = (I - H)^{-1} G.

    Entry (i, j) is the weight of agent j's innate belief in agent i's
    equilibrium belief.  Nonnegative and row-stochastic for stochastic W;
    zero-stubbornness agents can break row sums, which is reported as
    DegenerateStubbornness rather than repaired, and so can an agent
    without peers (NumericalError).
    """
    return _influence_stack(params.gamma[None], params.alpha[None], params.w[None])[0]


def _influence_stack(gamma: np.ndarray, alpha: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``influence_weights`` for a stack of m systems: gamma and alpha
    (m, n), w (m, n, n); one eigenvalue call and one solve for the stack."""
    _, m = _fixed_point(
        _stack_h(gamma, alpha, w), gamma[..., :, None] * np.eye(gamma.shape[-1])
    )
    return _checked_influence(m, gamma)


def _checked_influence(m: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Clip a stack of solved influence matrices (m, n, n) at 0 in place
    and check their rows; a failing stack raises with its worst value.
    ``stacked_metrics`` reruns a failing stack sample by sample to report
    the first failing sample."""
    low = float(m.min())
    if low < -1e-12:
        raise NumericalError(f"influence entry {low!r} below -1e-12")
    np.clip(m, 0.0, None, out=m)
    row_err = float(np.abs(m.sum(axis=-1) - 1.0).max())
    if row_err > STOCHASTIC_TOL:
        if np.any(gamma == 0.0):
            raise DegenerateStubbornness(
                f"influence rows off stochasticity by {row_err!r} with "
                f"zero-stubbornness agents present"
            )
        raise NumericalError(
            f"influence rows off stochasticity by {row_err!r}; check that "
            f"every agent has a stochastic weight row"
        )
    return m


def aggregate_pi(m: np.ndarray, eta: np.ndarray | None = None) -> np.ndarray:
    """Source weights pi = eta @ M (n,) for a readout eta (uniform by default)."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"influence matrix must be square, got {m.shape}")
    return _source_weights(m[None], eta)[0]


def _source_weights(m: np.ndarray, eta: np.ndarray | None) -> np.ndarray:
    """pi = eta @ M (m, n) for each influence matrix of a stack (m, n, n),
    clipped at 0 and renormalized; eta and pi are checked as simplex rows."""
    n = m.shape[-1]
    if eta is None:
        eta = np.full(n, 1.0 / n)
    eta = np.asarray(eta, dtype=np.float64)
    if eta.shape != (n,):
        raise ShapeMismatch(f"eta shape {eta.shape} does not match n={n}")
    _check_rows(eta, "eta")
    pi = np.matmul(eta, m)
    # Guard against -1e-17 style round-off before the simplex validation.
    np.clip(pi, 0.0, None, out=pi)
    pi /= pi.sum(axis=-1, keepdims=True)
    return _check_rows(pi, "pi")


def simulate(
    params: FJParameters,
    innate: np.ndarray,
    rounds: int,
    *,
    sample_id: str = "sim",
    correct_label: int | None = None,
    metadata: dict[str, str] | None = None,
) -> DeliberationTrajectory:
    """Run ``rounds`` update steps from the innate snapshot.

    The returned trajectory records the worst per-round row drift that
    renormalization absorbed under the "max_drift" metadata key.
    """
    return simulate_pool(
        [params], validate_snapshot(innate)[None], rounds, sample_ids=[sample_id],
        correct_labels=[correct_label], metadata=metadata,
    )[0]


def simulate_pool(
    params: list[FJParameters],
    innates: np.ndarray,
    rounds: int,
    *,
    sample_ids: list[str],
    correct_labels: list[int | None],
    metadata: dict[str, str] | None = None,
) -> list[DeliberationTrajectory]:
    """``simulate`` for m samples run as one stack from the innate
    snapshots (m, n, d), sample k under ``params[k]``.

    Sample k gets ``sample_ids[k]``, ``correct_labels[k]`` and ``metadata``
    with its own "max_drift"; its trajectory equals what ``simulate``
    returns for it alone.
    """
    innates = _belief_array(innates, 3, "innates", TAU_SIMPLEX)
    m, n, _ = innates.shape
    if rounds < 0:
        raise ShapeMismatch(f"rounds must be >= 0, got {rounds}")
    if not len(params) == len(sample_ids) == len(correct_labels) == m:
        raise ShapeMismatch(
            f"{m} samples, {len(params)} params, {len(sample_ids)} ids, {len(correct_labels)} labels"
        )
    for p in params:
        if p.n != n:
            raise ShapeMismatch(f"innates have {n} rows, n={p.n}")
    gamma, alpha, w = (
        np.stack([getattr(p, name) for p in params]) for name in ("gamma", "alpha", "w")
    )
    snaps = np.empty((m, rounds + 1) + innates.shape[1:])
    snaps[:, 0] = innates
    gs = gamma[:, :, None] * innates
    h = _stack_h(gamma, alpha, w)
    # each sample's worst row drift over rounds and agents
    worst = np.zeros(m)
    _run_rounds(gs, h, innates, rounds, snaps, worst)
    return [
        DeliberationTrajectory(
            snapshots=snap, sample_id=sample_id, correct_label=label,
            metadata={**(metadata or {}), "max_drift": repr(float(drift))},
        )
        for snap, drift, sample_id, label in zip(snaps, worst, sample_ids, correct_labels)
    ]


def settle(
    params: FJParameters,
    innate: np.ndarray,
    max_rounds: int = 10000,
    atol: float = 1e-12,
) -> np.ndarray:
    """Iterate rounds until the snapshot stops moving (sup-norm <= atol).

    Finite-horizon fallback for systems rejected by ``equilibrium``;
    raises NoConvergence when the budget runs out first.
    """
    innate = validate_snapshot(innate)
    if innate.shape[0] != params.n:
        raise ShapeMismatch(f"innate has {innate.shape[0]} rows, n={params.n}")
    gs, h = params.gamma[:, None] * innate, build_h(params)
    current = innate
    for _ in range(max_rounds):
        nxt = _round(gs, h, current)
        if np.abs(nxt - current).max() <= atol:
            return nxt
        current = nxt
    raise NoConvergence(f"no fixed point within {max_rounds} rounds")
