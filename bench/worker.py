"""One repetition of a workload, in a fresh process.

Runs the workload's stages in CLI order through ``fjlab.cli.run`` over
one output directory, times each stage with ``time.perf_counter``, reads
this process's peak RSS after the last stage, times a calibration kernel
before each stage and after the last, checks the artifacts and prints
one JSON object as its last line of standard output.  With
``--spans FILE`` the stages run under in-process spans (see spans.py),
the spans are written to FILE and per-layer totals are added.

    PYTHONPATH=src python3 bench/worker.py --workload fit-pools --seed 1 --out-dir DIR
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback
from time import perf_counter

import fjlab.cli  # imported first: the tracer wraps functions of loaded modules
import numpy as np
import scipy
from fjlab import io as fio
from fjlab.config import SimulateConfig
from fjlab.model import FJParameters

import checks
import spans
import workloads


def _draw_params(rng: np.random.Generator, n: int, sim: SimulateConfig) -> dict:
    """A random contractive system with simulate's default parameter ranges."""
    gamma = rng.uniform(sim.gamma_min, sim.gamma_max, n)
    alpha = rng.uniform(sim.alpha_min, sim.alpha_max, n)
    w = rng.uniform(0.1, 1.0, (n, n))
    np.fill_diagonal(w, 0.0)
    w /= w.sum(axis=1, keepdims=True)
    mask = FJParameters.complete_mask(n)
    return fio.params_to_dict(FJParameters(gamma=gamma, alpha=alpha, w=w, mask=mask))


def write_synthetic_fits(out_dir: str, shape: workloads.Shape, seed: int) -> None:
    """fits.json with drawn per-sample and pooled parameters.

    Sample ids and pools follow ``simulate --mode random``: sample k is
    ``sample-{k:04d}`` in pool ``k // samples``.  Written with plain json,
    so no fjlab io call shows in the trace.
    """
    rng = np.random.default_rng([seed, 1])
    sim = SimulateConfig()
    total = shape.pools * shape.samples
    document = {
        "schema_version": fio.SCHEMA_VERSION,
        "objective": "kl",
        "per_sample": [
            {
                "sample_id": f"sample-{k:04d}",
                "pool": str(k // shape.samples),
                "params": _draw_params(rng, shape.agents, sim),
            }
            for k in range(total)
        ],
        "global": [
            {
                "pool": str(pool),
                "n_samples": shape.samples,
                "params": _draw_params(rng, shape.agents, sim),
            }
            for pool in range(shape.pools)
        ],
    }
    with open(os.path.join(out_dir, "fits.json"), "w", encoding="utf-8") as fh:
        json.dump(document, fh)


def calibrate() -> float:
    """Seconds a fixed, fjlab-independent kernel takes in this process.

    The kernel mixes the kinds of work the stages do (small numpy
    products in a Python loop, JSON encoding and decoding) and holds
    about a megabyte, so it leaves the peak RSS alone.  Stage times
    divided by it follow the program and not how fast the host happens
    to run.
    """
    start = perf_counter()
    rng = np.random.default_rng(0)
    h = rng.random((8, 8)) / 8.0
    x = np.ones(8)
    for _ in range(15_000):
        x = h @ x
        x /= np.linalg.norm(x)
    rows = rng.random((2_000, 6)).tolist()
    for _ in range(15):
        json.loads(json.dumps(rows))
    return perf_counter() - start


def _run_stage(argv: list[str]) -> int | str:
    """fjlab.cli.run's exit code, or the exception it let escape."""
    try:
        return fjlab.cli.run(argv)
    except Exception as exc:  # a crash is a failed operation, not the end of the run
        traceback.print_exc()
        return f"{type(exc).__name__}: {exc}"


def run_workload(workload: workloads.Workload, seed: int, out_dir: str, tracer) -> dict:
    tally = checks.Tally()
    stage_s: dict[str, float] = {}
    flags = ["--quiet", "--output-dir", out_dir, "--seed", str(seed)]
    trajectories_bytes = 0
    calibration = []  # one sample before each stage and one after the last
    for argv in workload.stages:
        stage = argv[0]
        calibration.append(calibrate())
        # the wrappers are in place only while a stage runs, so the
        # benchmark's own work between stages leaves no spans
        if tracer is not None:
            untraced = tracer.install()
            record = tracer.begin(f"cli.{stage}")
        start = perf_counter()
        rc = _run_stage(flags + list(argv))
        stage_s[stage] = perf_counter() - start
        if tracer is not None:
            tracer.end(record)
            tracer.uninstall()
        if not tally.check(rc == 0, f"stage {stage} exited with {rc!r}"):
            break
        if stage == "simulate":
            trajectories_bytes = os.path.getsize(os.path.join(out_dir, "trajectories.json"))
            if workload.synthetic_fits:
                write_synthetic_fits(out_dir, workload.shape, seed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calibration.append(calibrate())
    if not tally.problems:
        ran = set(stage_s)
        shape = workload.shape
        if "fit" in ran:
            checks.check_fits(tally, out_dir)
        if "analyze" in ran:
            checks.check_analyze(tally, out_dir, shape.pools * shape.samples, shape.agents)
        if "compare" in ran:
            checks.check_compare(tally, out_dir, shape.pools)
        if "verify" in ran:
            checks.check_verify(tally, out_dir)
    result = {
        "stage_s": stage_s,
        "peak_rss_mb": peak_rss_mb,
        "cal_s": sum(calibration) / len(calibration),
        "attempted": tally.attempted,
        "failed": len(tally.problems),
        "problems": tally.problems,
        "context": {
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": _blas_info(),
        },
    }
    if tracer is not None:
        result["layers"] = {**tracer.metrics(workloads.STAGES), "io.trajectories_bytes": trajectories_bytes}
        result["untraced_layers"] = untraced
    return result


def _blas_info() -> dict:
    """numpy's BLAS build as numpy reports it; thread settings are not touched."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy older than 1.26 has no dict mode
        return {}
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas}


def main() -> int:
    print("ready", flush=True)  # fjlab.cli is imported: the parent times set-up to here
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--spans", help="trace the stages and write the spans to this file")
    args = parser.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)
    tracer = spans.Tracer() if args.spans else None
    result = run_workload(workloads.get(args.workload, args.size), args.seed, args.out_dir, tracer)
    if tracer is not None:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump({"clock": "time.perf_counter", "fields": ["name", "start", "end", "parent"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
