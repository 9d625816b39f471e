"""Correctness checks on a repetition's artifacts, counted per operation.

Each check is one attempted operation; a check that does not hold is a
failed one and is described in ``Tally.problems``.
"""

from __future__ import annotations

import csv
import json
import math
import os

from fjlab import io as fio
from fjlab.estimation import fit_objective

# Largest gap allowed between a reported and a recomputed fit MSE.  Both are
# the same float computation on the same inputs, so they should agree exactly.
MSE_ABS_TOL = 1e-12
MSE_REL_TOL = 1e-9
PI_SUM_TOL = 1e-9


class Tally:
    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.problems.append(what)
        return ok


def _read_csv(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_fits(tally: Tally, out_dir: str) -> None:
    """Finite kl/mse on every fits.json entry, and each mse recomputed with
    ``fit_objective`` on the same trajectories matches the reported one."""
    with open(os.path.join(out_dir, "fits.json"), encoding="utf-8") as fh:
        fits = json.load(fh)
    trajs = {t.sample_id: t for t in fio.load_trajectories(os.path.join(out_dir, "trajectories.json"))}
    pools: dict[str, list] = {}
    for traj in trajs.values():
        pools.setdefault(traj.metadata.get("pool", "0"), []).append(traj)
    entries = [(e, [trajs[e["sample_id"]]]) for e in fits["per_sample"]]
    entries += [(e, pools[e["pool"]]) for e in fits.get("global", [])]
    tally.check(len(fits["per_sample"]) == len(trajs), "fits.json misses per-sample fits")
    for entry, group in entries:
        label = entry.get("sample_id", f"pool {entry.get('pool')}")
        kl, mse = entry["kl"], entry["mse"]
        if not tally.check(
            isinstance(kl, float) and isinstance(mse, float) and math.isfinite(kl) and math.isfinite(mse),
            f"fit {label}: kl={kl!r} mse={mse!r} not finite",
        ):
            continue
        params = fio.params_from_dict(entry["params"])
        again = sum(fit_objective(params, t, "mse") for t in group) / len(group)
        tally.check(
            abs(again - mse) <= MSE_ABS_TOL + MSE_REL_TOL * abs(mse),
            f"fit {label}: reported mse {mse!r}, recomputed {again!r}",
        )


def check_analyze(tally: Tally, out_dir: str, samples: int, agents: int) -> None:
    """agents.csv has samples x agents rows; each system.csv pi row sums to 1."""
    rows = _read_csv(os.path.join(out_dir, "agents.csv"))
    tally.check(len(rows) == samples * agents, f"agents.csv has {len(rows)} rows, expected {samples * agents}")
    system = _read_csv(os.path.join(out_dir, "system.csv"))
    tally.check(len(system) == samples, f"system.csv has {len(system)} rows, expected {samples}")
    for row in system:
        total = math.fsum(float(v) for k, v in row.items() if k.startswith("pi_"))
        tally.check(abs(total - 1.0) <= PI_SUM_TOL, f"system.csv {row['sample_id']}: pi sums to {total!r}")


def check_compare(tally: Tally, out_dir: str, pools: int) -> None:
    """compare.csv has one row per pool with every accuracy in [0, 1]."""
    rows = _read_csv(os.path.join(out_dir, "compare.csv"))
    tally.check(len(rows) == pools, f"compare.csv has {len(rows)} rows, expected {pools}")
    for row in rows:
        accs = [float(v) for k, v in row.items() if k.startswith("acc_")]
        tally.check(
            len(accs) == 3 and all(0.0 <= a <= 1.0 for a in accs),
            f"compare.csv row {row}: accuracies outside [0, 1]",
        )


def check_verify(tally: Tally, out_dir: str) -> None:
    """verify_report.json says all_passed and every check passed."""
    with open(os.path.join(out_dir, "verify_report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    tally.check(report.get("all_passed") is True, "verify_report.json: all_passed is not true")
    for entry in report.get("checks", []):
        tally.check(entry.get("passed") is True, f"verify check {entry.get('name')} failed")
