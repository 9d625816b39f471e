"""The benchmark's workloads: fixed CLI stage sequences over one output directory.

Every workload runs closed loop in one single-threaded process per
repetition.  The workload seed is passed to every stage as the global
``--seed`` flag; every other setting is the CLI default.
"""

from __future__ import annotations

from dataclasses import dataclass

# Stage names in the fixed CLI order; a workload runs a subsequence of them.
STAGES = ("simulate", "fit", "analyze", "compare", "verify")


@dataclass(frozen=True)
class Shape:
    """Arguments of ``fjlab simulate`` in random mode."""

    pools: int
    samples: int
    agents: int
    labels: int
    rounds: int

    def simulate_argv(self) -> tuple[str, ...]:
        return (
            "simulate",
            "--pools", str(self.pools),
            "--samples", str(self.samples),
            "--agents", str(self.agents),
            "--labels", str(self.labels),
            "--rounds", str(self.rounds),
        )


@dataclass(frozen=True)
class Workload:
    """Stages as CLI argv after the global flags, in CLI order.

    With ``synthetic_fits`` the benchmark writes ``fits.json`` itself
    between ``simulate`` and the next stage, outside any timed stage.
    """

    name: str
    stages: tuple[tuple[str, ...], ...]
    shape: Shape | None = None
    synthetic_fits: bool = False


def _pipeline(name, shape, fit_argv=None, synthetic_fits=False) -> Workload:
    stages = [shape.simulate_argv()]
    if fit_argv is not None:
        stages.append(fit_argv)
    stages += [("analyze",), ("compare",)]
    return Workload(name, tuple(stages), shape, synthetic_fits)


WORKLOADS = {
    # Why: ROADMAP's baseline shape (5 agents, 4 labels, 8 rounds) cut to 12
    # of its 200 samples so that a repetition takes about 12 s, not 160 s,
    # on a 2-vCPU x86 virtual machine with Python 3.11 and numpy 2.4.
    # `estimation` does more than 99% of the work: 12 per-sample fits and 3
    # pooled fits of about 0.75 s each.  This is where a faster fit (ROADMAP
    # item 1) must show its gain; simulate, analyze and compare take under
    # 50 ms each here and count only in wall_s.
    "fit-pools": _pipeline(
        "fit-pools", Shape(pools=3, samples=4, agents=5, labels=4, rounds=8),
        fit_argv=("fit", "--global"),
    ),
    # Why: the large mode of ROADMAP item 2.  1,000 samples of 8 agents,
    # 6 labels and 20 rounds make a 38 MB trajectories.json, so writes
    # (JSON encoding in simulate) sit beside reads (load in analyze and
    # compare), and analyze runs 2,000 influence_weights calls whose power
    # iterations dominate it.  Fitting 1,000 samples would take about 750 s,
    # so fits.json holds parameters the benchmark draws from the seed; the
    # estimation layer does no work here.
    "analyze-corpus": _pipeline(
        "analyze-corpus", Shape(pools=4, samples=250, agents=8, labels=6, rounds=20),
        synthetic_fits=True,
    ),
    # Why: `verify` with default budgets uses the dynamics layer the other
    # way from analyze-corpus: a few long trajectories (200 systems with a
    # 500-round simulate each, about 100k validate_snapshot calls) rather
    # than many short ones, plus the Monte Carlo checks of scenarios and
    # routing.  No io beyond the reports and no estimation.
    "verify-defaults": Workload("verify-defaults", (("verify",),)),
}

# The same stage sequences on tiny inputs, for the benchmark's self-test.
TINY_WORKLOADS = {
    "fit-pools": _pipeline(
        "fit-pools", Shape(pools=2, samples=2, agents=3, labels=3, rounds=4),
        fit_argv=("fit", "--global", "--max-iters", "20", "--restarts", "1"),
    ),
    "analyze-corpus": _pipeline(
        "analyze-corpus", Shape(pools=2, samples=5, agents=3, labels=3, rounds=4),
        synthetic_fits=True,
    ),
    "verify-defaults": Workload(
        "verify-defaults",
        (
            (
                "verify",
                "--prop-draws", "3",
                "--identity-draws", "20",
                "--scenario-samples", "50000",
                "--consistency-samples", "50",
            ),
        ),
    ),
}


def get(name: str, size: str = "full") -> Workload:
    table = TINY_WORKLOADS if size == "tiny" else WORKLOADS
    return table[name]
