"""Command-line interface.

Five subcommands form a pipeline over one output directory:

  simulate   draw deliberation trajectories        -> trajectories.json
  fit        recover parameters from trajectories  -> fits.json
  analyze    agent/system metric tables            -> agents.csv, system.csv,
                                                      analyze_summary.json
  verify     self-contained numerical checks       -> verify_report.txt/.json
  compare    aggregation strategies by pool        -> compare.csv, compare.json

Global flags (before the subcommand): --config FILE, --seed N (overrides
every section seed), --output-dir DIR, --quiet.  Subcommand flags override
the matching config keys.  Exit codes: 0 success, 1 invalid input or
configuration, 2 numerical failure (including failed verify checks).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import fields, replace

import numpy as np
import numpy.random  # lazy in numpy 2: load it with the CLI, not inside simulate

from . import io as fio
from .config import RunConfig, eta_vector, load_config
from .dynamics import aggregate_pi, influence_weights, settle, simulate, simulate_pool
from .errors import (
    ConfigError,
    DegenerateStubbornness,
    EmptyInput,
    MissingLabels,
    MissingParams,
    NotContractive,
    NumericalError,
    ParseError,
    ShapeMismatch,
    TooFewPoints,
    ValidationError,
)
from .estimation import fit_pools, fit_samples, parameter_variability
from .metrics import MetricColumns, confidence_metrics, spearman, stacked_metrics
from .model import DeliberationTrajectory, FJParameters
from .scenarios import (
    ExclusiveScenario,
    ImperfectScenario,
    gen_exclusive,
    gen_imperfect,
)
from .verify import run_all_checks

__all__ = ["build_parser", "run", "main"]


class _Parser(argparse.ArgumentParser):
    """Raises instead of exiting so run() controls the exit code."""

    def error(self, message):
        raise ConfigError(message)


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _override(section, args):
    """Apply each non-None CLI flag named like a field of the config section."""
    updates = {f.name: getattr(args, f.name, None) for f in fields(section)}
    return replace(section, **{k: v for k, v in updates.items() if v is not None})


def _t_quantile(confidence: float, df: int) -> float:
    """The t with P(|T| <= t) = confidence for Student's T on integer df >= 1.

    Newton's method on theta = atan(t / sqrt(df)), where P(|T| <= t) is the
    finite series of Abramowitz & Stegun 26.7.3-4 in sin and cos theta and is
    concave in theta, from a Cornish-Fisher start (A&S 26.2.23 and 26.7.5).
    """
    r = math.sqrt(-2.0 * math.log((1.0 - confidence) / 2.0))
    z = r - (2.515517 + r * (0.802853 + r * 0.010328)) / (
        1.0 + r * (1.432788 + r * (0.189269 + r * 0.001308))
    )
    t = z + (z**3 + z) / (4 * df) + (5 * z**5 + 16 * z**3 + 3 * z) / (96 * df**2)
    theta = math.atan(t / math.sqrt(df))
    # d/dtheta P(|T| <= t) = 2 Gamma((df + 1) / 2) / (sqrt(pi) Gamma(df / 2)) cos^(df - 1) theta
    log_slope = math.lgamma((df + 1) / 2) - math.lgamma(df / 2) + math.log(2 / math.sqrt(math.pi))
    for _ in range(100):
        sin, cos = math.sin(theta), math.cos(theta)
        # log cos^2 theta, accurate enough to raise to the power df / 2
        log_x = math.log1p(-sin * sin) if sin < cos else 2 * math.log(cos)
        coef, total = 1.0, float(df > 1)
        for k, j in enumerate(range(1 + df % 2, df - 2, 2), 1):
            coef *= j / (j + 1)
            total += coef * math.exp(k * log_x)
        prob = (theta + sin * cos * total) * 2 / math.pi if df % 2 else sin * total
        step = (prob - confidence) / math.exp(log_slope + (df - 1) * math.log(cos))
        new = theta - step
        theta = new if 0 < new < math.pi / 2 else (theta + (new > 0) * math.pi / 2) / 2
        if abs(step) <= 1e-10 * sin * cos:
            break
    return math.sqrt(df) * math.tan(theta)


def mean_ci(values, confidence: float = 0.95) -> "tuple[float, float | None]":
    """Sample mean and Student-t CI half-width (None when n < 2)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise EmptyInput("no values to aggregate")
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, None
    sd = float(arr.std(ddof=1))
    quantile = _t_quantile(confidence, arr.size - 1)
    return mean, quantile * sd / math.sqrt(arr.size)


def _ci_entry(values) -> dict:
    mean, half = mean_ci(values)
    return {"mean": mean, "ci95": half, "n": len(values)}


def _by_pool(trajs) -> "dict[str, list[DeliberationTrajectory]]":
    """Samples grouped by their ``pool`` metadata, "0" when it is absent."""
    groups: dict[str, list[DeliberationTrajectory]] = {}
    for traj in trajs:
        groups.setdefault(traj.metadata.get("pool", "0"), []).append(traj)
    return groups


def _load_input(args) -> "list[DeliberationTrajectory]":
    """The trajectories of --input, or of trajectories.json in the output
    directory; a file without samples raises EmptyInput."""
    path = args.input or os.path.join(args.output_dir, "trajectories.json")
    trajs = fio.load_trajectories(path)
    if not trajs:
        raise EmptyInput(f"{path!r} holds no samples")
    return trajs


def _shared_n(trajs) -> int:
    counts = {t.n for t in trajs}
    if len(counts) != 1:
        raise ShapeMismatch(
            f"samples mix agent counts {sorted(counts)}; analyze one batch at a time"
        )
    return counts.pop()


# -- simulate ---------------------------------------------------------------


def _draw_pool_params(rng: np.random.Generator, sim) -> FJParameters:
    n = sim.agents
    gamma = rng.uniform(sim.gamma_min, sim.gamma_max, size=n)
    alpha = rng.uniform(sim.alpha_min, sim.alpha_max, size=n)
    # entries bounded away from 0 keep every row comfortably stochastic
    w = rng.uniform(0.1, 1.0, size=(n, n))
    np.fill_diagonal(w, 0.0)
    w /= w.sum(axis=1, keepdims=True)
    return FJParameters(
        gamma=gamma, alpha=alpha, w=w, mask=FJParameters.complete_mask(n)
    )


def _scenario_snapshots(sim):
    total = sim.pools * sim.samples
    if sim.scenario == "exclusive":
        sc = ExclusiveScenario(n=sim.agents, d=sim.labels, epsilon=sim.epsilon)
        return gen_exclusive(sc, total, sim.seed)
    if sim.scenario == "imperfect":
        c = None if sim.labels == 2 else sim.c
        sc = ImperfectScenario(n=sim.agents, d=sim.labels, p=sim.p, u=sim.u, c=c)
        return gen_imperfect(sc, total, sim.seed)
    raise ConfigError(f"unknown scenario {sim.scenario!r}")


def _load_params_file(sim):
    if not sim.params_file:
        raise ConfigError("simulate mode 'params' requires params_file")
    try:
        with open(sim.params_file, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {sim.params_file!r}: {exc}") from exc
    if not isinstance(raw, dict) or "innate" not in raw:
        raise ParseError("params file must be a JSON object with an 'innate' snapshot")
    try:
        params = fio.params_from_dict(raw)
        innate = np.asarray(raw["innate"], dtype=np.float64)
    except ParseError as exc:
        raise ParseError(f"{sim.params_file!r}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{sim.params_file!r}: bad 'innate' snapshot: {exc}") from exc
    label = raw.get("correct_label")
    if label is not None and (isinstance(label, bool) or not isinstance(label, int)):
        raise ParseError(f"correct_label must be an integer, got {label!r}")
    return params, innate, label


def cmd_simulate(args, cfg: RunConfig) -> int:
    sim = _override(cfg.simulate, args)
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
        sset = _scenario_snapshots(sim) if sim.mode == "scenario" else None
        rng = np.random.default_rng(sim.seed)
        trajs = []
        for pool in range(sim.pools):
            pool_params = _draw_pool_params(rng, sim)
            first = pool * sim.samples
            ids = [f"sample-{first + k:04d}" for k in range(sim.samples)]
            metadata = {"pool": str(pool)}
            if sset is None:
                innates, labels = [], []
                for _ in range(sim.samples):
                    innates.append(rng.dirichlet(np.ones(sim.labels), size=sim.agents))
                    labels.append(int(rng.integers(sim.labels)))
                innates = np.stack(innates)
            else:
                innates = sset.beliefs[first : first + sim.samples]
                labels = [int(y) for y in sset.labels[first : first + sim.samples]]
                metadata["scenario"] = sim.scenario
            params = [pool_params] * sim.samples
            if sim.gamma_mode == "confidence":
                # each agent's stubbornness is the confidence of its innate belief
                params = [
                    replace(pool_params, gamma=np.clip(conf, sim.gamma_min, sim.gamma_max))
                    for conf, _ in map(confidence_metrics, innates)
                ]
            trajs += simulate_pool(
                params,
                innates,
                sim.rounds,
                sample_ids=ids,
                correct_labels=labels,
                metadata=metadata,
            )
    elif sim.mode == "params":
        params, innate, label = _load_params_file(sim)
        trajs = [
            simulate(
                params,
                innate,
                sim.rounds,
                sample_id="sample-0000",
                correct_label=label,
                metadata={"pool": "0"},
            )
        ]
    else:
        raise ConfigError(f"unknown simulate mode {sim.mode!r}")
    out_path = os.path.join(args.output_dir, "trajectories.json")
    fio.save_trajectories(out_path, trajs)
    _say(args, f"wrote {out_path} ({len(trajs)} samples, {sim.rounds} rounds)")
    return 0


# -- fit --------------------------------------------------------------------


def _fit_entry(head: dict, report, **extra) -> dict:
    """One fits.json entry: head's keys, then the report's, with extra keys
    after restart_index."""
    return {
        **head,
        "kl": report.kl,
        "mse": report.mse,
        "restart_index": report.restart_index,
        **extra,
        "flat": report.flat,
        "termination": report.termination,
        "kkt_residual": report.kkt_residual,
        "params": fio.params_to_dict(report.params),
    }


def cmd_fit(args, cfg: RunConfig) -> int:
    sec = _override(cfg.fit, args)
    trajs = _load_input(args)
    reports = fit_samples(trajs, sec)
    capped = sum(r.termination == "max_iters" for r in reports)
    per_sample = []
    for traj, report in zip(trajs, reports):
        head = {"sample_id": traj.sample_id, "pool": traj.metadata.get("pool", "0")}
        per_sample.append(_fit_entry(head, report, iterations=len(report.objective_curve) - 1))
        _say(args, f"fit {traj.sample_id}: kl={report.kl:.6e} mse={report.mse:.6e}")
    document = {
        "schema_version": fio.SCHEMA_VERSION,
        "objective": sec.objective,
        "per_sample": per_sample,
    }
    if sec.global_fit:
        groups = _by_pool(trajs)
        pools = sorted(groups)
        pooled = fit_pools([groups[pool] for pool in pools], sec)
        capped += sum(r.termination == "max_iters" for r in pooled)
        document["global"] = []
        for pool, report in zip(pools, pooled):
            head = {"pool": pool, "n_samples": len(groups[pool])}
            document["global"].append(_fit_entry(head, report))
            _say(
                args,
                f"fit pool {pool} ({len(groups[pool])} samples): "
                f"kl={report.kl:.6e} mse={report.mse:.6e}",
            )
    if len(reports) >= 2 and len({r.params.n for r in reports}) == 1:
        spread = parameter_variability(reports)
        document["variability"] = {
            "n_reports": spread.n_reports,
            "per_parameter": {
                name: {"mean": triple[0], "std": triple[1], "iqr": triple[2]}
                for name, triple in spread.per_parameter.items()
            },
        }
    document["aggregate"] = {
        "kl": _ci_entry([r.kl for r in reports]),
        "mse": _ci_entry([r.mse for r in reports]),
    }
    out_path = os.path.join(args.output_dir, "fits.json")
    fio.atomic_write_json(out_path, document)
    _say(args, f"wrote {out_path} ({len(reports)} fits)")
    if not args.quiet:
        total = len(reports) + len(document.get("global", []))
        print(
            f"fjlab: {capped} of {total} fits hit the iteration cap ({sec.max_iters})",
            file=sys.stderr,
        )
    return 0


# -- analyze ----------------------------------------------------------------


def _load_fits(path: str, section: str, key: str) -> "dict[str, FJParameters]":
    """The parameters of each entry of one fits.json section, by the entry's
    ``key``; a malformed entry raises ParseError naming the file and entry."""
    if not os.path.exists(path):
        raise MissingParams(f"{path!r} not found; run 'fjlab fit' first")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path!r} must hold a JSON object")
    entries = raw.get(section, [])
    if not isinstance(entries, list):
        raise ParseError(f"{path!r}: {section!r} must be a list")
    fits = {}
    for pos, entry in enumerate(entries):
        where = f"{path!r}: {section} entry {pos}"
        if not isinstance(entry, dict) or not isinstance(entry.get(key), str):
            raise ParseError(f"{where} must be an object with a string {key!r}")
        try:
            fits[entry[key]] = fio.params_from_dict(entry.get("params"))
        except ParseError as exc:
            raise ParseError(f"{where}: {exc}") from exc
    return fits


def _safe_spearman(x, y) -> "float | None":
    """Rank correlation, or None with fewer than 3 points or no rank variance."""
    try:
        rho = spearman(x, y)
    except TooFewPoints:
        return None
    return rho if math.isfinite(rho) else None


def cmd_analyze(args, cfg: RunConfig) -> int:
    sec = _override(cfg.analyze, args)
    fits_path = args.fits or os.path.join(args.output_dir, sec.fits)
    trajs = _load_input(args)
    by_sample = _load_fits(fits_path, "per_sample", "sample_id")
    n = _shared_n(trajs)
    eta = eta_vector("analyze", sec.eta, n)
    params = []
    for traj in trajs:
        if traj.sample_id not in by_sample:
            break
        params.append(by_sample[traj.sample_id])
    # Each run of consecutive samples that share d is one stack, so rows,
    # and the first failing sample, come in file order.
    runs = []
    done = 0
    for _, group in itertools.groupby(trajs[: len(params)], key=lambda t: t.d):
        run = list(group)
        cols = stacked_metrics(
            np.stack([t.final for t in run]),
            params[done : done + len(run)],
            [t.correct_label for t in run],
            eta=eta,
            normalization=sec.normalization,
            consensus_threshold=sec.consensus_threshold,
        )
        runs.append((run, cols))
        done += len(run)
    if done < len(trajs):
        raise MissingParams(f"no fitted parameters for sample {trajs[done].sample_id!r}")
    agent_rows = []
    system_rows = []
    for run, cols in runs:
        agent = [getattr(cols, f).tolist() for f in MetricColumns.AGENT_FIELDS]
        system = [
            c.tolist()
            for c in (cols.disagreement, cols.mean_confidence, cols.consensus_reached, cols.pi)
        ]
        for k, traj in enumerate(run):
            agent_rows += (
                [traj.sample_id, j, *cells]
                for j, cells in enumerate(zip(*(c[k] for c in agent)))
            )
            dis, mean_conf, consensus, pi = (c[k] for c in system)
            system_rows.append([traj.sample_id, dis, mean_conf, consensus, *pi])

    def column(name: str) -> np.ndarray:
        return np.concatenate([getattr(cols, name) for _, cols in runs])

    labeled = np.array([t.correct_label is not None for t in trajs])
    competences = column("competence")[labeled].ravel()
    agents_path = os.path.join(args.output_dir, "agents.csv")
    system_path = os.path.join(args.output_dir, "system.csv")
    fio.write_csv(agents_path, ["sample_id", "agent_id", *MetricColumns.AGENT_FIELDS], agent_rows)
    fio.write_csv(
        system_path,
        ["sample_id", "disagreement", "mean_confidence", "consensus_reached"]
        + [f"pi_{j}" for j in range(n)],
        system_rows,
    )
    summary = {
        "schema_version": fio.SCHEMA_VERSION,
        "n_samples": len(trajs),
        "n_agents": n,
        "consensus_rate": float(np.mean(column("consensus_reached"))),
        "mean_disagreement": float(np.mean(column("disagreement"))),
        "mean_confidence": float(np.mean(column("mean_confidence"))),
        "spearman_confidence_competence": (
            _safe_spearman(column("confidence")[labeled].ravel(), competences)
            if competences.size
            else None
        ),
        "spearman_influence_competence": (
            _safe_spearman(column("influence")[labeled].ravel(), competences)
            if competences.size
            else None
        ),
    }
    summary_path = os.path.join(args.output_dir, "analyze_summary.json")
    fio.atomic_write_json(summary_path, summary)
    _say(
        args,
        f"wrote {agents_path}, {system_path}, {summary_path} "
        f"({len(trajs)} samples, {len(agent_rows)} agent rows)",
    )
    return 0


# -- verify -----------------------------------------------------------------


def cmd_verify(args, cfg: RunConfig) -> int:
    sec = _override(cfg.verify, args)
    # every [verify] key but checks is the run_all_checks argument of its name
    settings = {f.name: getattr(sec, f.name) for f in fields(sec) if f.name != "checks"}
    results = run_all_checks(checks=sec.check_names(), **settings)
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        parts = [f"[{status}] {res.name}"]
        if res.measured:
            parts.append(" ".join(f"{k}={v!r}" for k, v in sorted(res.measured.items())))
        if res.detail:
            parts.append(f"| {res.detail}")
        line = " ".join(parts)
        lines.append(line)
        _say(args, line)
    passed = sum(1 for r in results if r.passed)
    lines.append(f"{passed}/{len(results)} checks passed")
    _say(args, lines[-1])
    txt_path = os.path.join(args.output_dir, "verify_report.txt")
    json_path = os.path.join(args.output_dir, "verify_report.json")
    fio.atomic_write_text(txt_path, "\n".join(lines) + "\n")
    fio.atomic_write_json(
        json_path,
        {
            "schema_version": fio.SCHEMA_VERSION,
            "all_passed": passed == len(results),
            "checks": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "measured": r.measured,
                    "detail": r.detail,
                }
                for r in results
            ],
        },
    )
    return 0 if passed == len(results) else 2


# -- compare ----------------------------------------------------------------


def cmd_compare(args, cfg: RunConfig) -> int:
    sec = _override(cfg.compare, args)
    if sec.fallback_rounds < 1:
        raise ConfigError(
            f"compare.fallback_rounds must be >= 1, got {sec.fallback_rounds}"
        )
    fits_path = args.fits or os.path.join(args.output_dir, "fits.json")
    trajs = _load_input(args)
    pooled = _load_fits(fits_path, "global", "pool")
    if not pooled:
        raise MissingParams(
            f"{fits_path!r} holds no pooled fits; rerun 'fjlab fit --global'"
        )
    n = _shared_n(trajs)
    eta = eta_vector("compare", sec.eta, n)
    eta_arr = np.full(n, 1.0 / n) if eta is None else eta
    groups = _by_pool(trajs)
    records = []
    for pool in sorted(groups):
        labeled = [t for t in groups[pool] if t.correct_label is not None]
        if not labeled:
            continue
        params = pooled.get(pool)
        if params is None:
            raise MissingParams(f"no pooled fit for group {pool!r}")
        labels = np.array([t.correct_label for t in labeled])
        mixes = {
            "innate_mix": [eta_arr @ t.innate for t in labeled],
            "final_mix": [eta_arr @ t.final for t in labeled],
        }
        try:
            pi = aggregate_pi(influence_weights(params), eta_arr)
            mixes["influence_mix"] = [pi @ t.innate for t in labeled]
        except (NotContractive, DegenerateStubbornness):
            mixes["influence_mix"] = [
                eta_arr @ settle(params, t.innate, sec.fallback_rounds) for t in labeled
            ]
        record = {"group": pool, "n_samples": len(labeled)}
        for method, mix in mixes.items():
            record[method] = float(np.mean(np.argmax(mix, axis=1) == labels))
        records.append(record)
    if not records:
        raise MissingLabels("no labeled samples to score")
    csv_path = os.path.join(args.output_dir, "compare.csv")
    json_path = os.path.join(args.output_dir, "compare.json")
    fio.write_csv(
        csv_path,
        ["pool", "samples", "acc_innate_mix", "acc_final_mix", "acc_influence_mix"],
        [list(record.values()) for record in records],
    )
    fio.atomic_write_json(
        json_path,
        {
            "schema_version": fio.SCHEMA_VERSION,
            "group_key": "pool",
            "groups": records,
            "aggregate": {
                method: _ci_entry([g[method] for g in records])
                for method in ("innate_mix", "final_mix", "influence_mix")
            },
        },
    )
    _say(args, f"wrote {csv_path}, {json_path} ({len(records)} groups)")
    return 0


# -- parser and entry point ---------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fjlab",
        description="deliberation dynamics laboratory: simulate, fit, analyze",
    )
    parser.add_argument("--config", default=None, help="INI run configuration")
    parser.add_argument(
        "--seed", type=int, default=None, help="override every section seed"
    )
    parser.add_argument(
        "--output-dir", dest="output_dir", default=".", help="artifact directory"
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress lines")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("simulate", help="draw deliberation trajectories")
    p.add_argument("--mode", choices=("random", "scenario", "params"), default=None)
    p.add_argument("--samples", type=int, default=None, help="samples per pool")
    p.add_argument("--pools", type=int, default=None, help="independent agent pools")
    p.add_argument("--agents", type=int, default=None)
    p.add_argument("--labels", type=int, default=None, help="belief dimension")
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--params-file", dest="params_file", default=None)
    p.add_argument("--scenario", choices=("exclusive", "imperfect"), default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--p", type=float, default=None, help="competent mass on the label")
    p.add_argument("--u", type=float, default=None, help="non-competent mass on it")
    p.add_argument("--c", type=float, default=None, help="shared wrong-label mass")
    p.add_argument("--gamma-mode", dest="gamma_mode", choices=("random", "confidence"), default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="recover parameters from trajectories")
    p.add_argument("--input", default=None, help="trajectories file")
    p.add_argument("--objective", choices=("kl", "mse"), default=None)
    p.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--reg-lambda", dest="reg_lambda", type=float, default=None)
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument(
        "--global",
        dest="global_fit",
        action="store_true",
        default=None,
        help="also fit one parameter set per pool",
    )
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("analyze", help="metric tables from trajectories and fits")
    p.add_argument("--input", default=None, help="trajectories file")
    p.add_argument("--fits", default=None, help="fits file")
    p.add_argument("--eta", default=None, help="'uniform' or comma-separated weights")
    p.add_argument(
        "--normalization", choices=("max", "second_largest"), default=None
    )
    p.add_argument(
        "--consensus-threshold", dest="consensus_threshold", type=float, default=None
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="run the numerical self-checks")
    p.add_argument("--checks", default=None, help="'all' or comma-separated names")
    p.add_argument("--prop-draws", dest="prop_draws", type=int, default=None)
    p.add_argument("--identity-draws", dest="identity_draws", type=int, default=None)
    p.add_argument(
        "--scenario-samples", dest="scenario_samples", type=int, default=None
    )
    p.add_argument(
        "--consistency-samples", dest="consistency_samples", type=int, default=None
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="score aggregation strategies by pool")
    p.add_argument("--input", default=None, help="trajectories file")
    p.add_argument("--fits", default=None, help="fits file with pooled fits")
    p.add_argument("--eta", default=None, help="'uniform' or comma-separated weights")
    p.add_argument(
        "--fallback-rounds", dest="fallback_rounds", type=int, default=None
    )
    p.set_defaults(func=cmd_compare)
    return parser


def run(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = cfg.with_seed(args.seed)
        os.makedirs(args.output_dir, exist_ok=True)
        return args.func(args, cfg)
    except NumericalError as exc:
        print(f"fjlab: numerical error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"fjlab: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
