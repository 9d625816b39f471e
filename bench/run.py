"""fjlab benchmark: per-stage CLI wall time on fixed workloads.

    python3 bench/run.py --workload fit-pools --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is taken from ``src/`` next to this
directory and nothing is installed.  One run:

1. imports ``fjlab.cli`` once in a fresh interpreter, untimed, to warm
   the file cache and byte-code;
2. repeats the workload, each repetition in a fresh worker process
   (bench/worker.py), until ``--seconds`` have passed, at least once.
   The time from launching a worker to its having imported ``fjlab.cli``
   is a set-up sample; ``setup_s`` is their median;
3. prints what it measured by name and unit, the run context, and as
   its last line one JSON object with ``correct``, ``attempted``,
   ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, medians over
repetitions: ``setup_s``, ``peak_rss_mb`` and ``wall_cal``, the sum of
the stage times (``wall_s``) over the time of a calibration kernel run in
the same worker, which cancels the host's drifting speed.  With
``--trace 1`` repetitions alternate untraced and traced, and the metrics
are the per-layer ones from the traced repetitions, plus the tracing
overhead (traced minus untraced wall_s), the untraced wall_s and the
calibration time.
Work files go to ``.bench_work/`` at the checkout root; the spans of the
last traced repetition stay there as ``spans-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKER = Path(__file__).resolve().parent / "worker.py"

# A repetition starts only while the run should stay within RUN_BUDGET_S,
# and no process outlives RUN_LIMIT_S, so that a run ends inside 180 s.
RUN_BUDGET_S = 150.0
RUN_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_cal": "1",
    "peak_rss_mb": "MiB",
}
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def child_env() -> dict[str, str]:
    """The caller's environment with src/ on the path; BLAS thread variables
    are passed through as found."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def warm_up(env, timeout: float) -> None:
    """Import fjlab.cli once, untimed, so that no repetition pays for
    compiling byte-code or a cold file cache."""
    proc = subprocess.run(
        [sys.executable, "-c", "import fjlab.cli"],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import fjlab.cli failed:\n{proc.stderr}")


def run_worker(args, env, out_dir: Path, traced: bool, timeout: float) -> dict | None:
    """One repetition; None when the worker died without a result.

    The worker prints a line as soon as it has imported fjlab.cli; the time
    from its launch to that line is the repetition's set-up sample.
    """
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--out-dir", str(out_dir),
    ]
    if traced:
        cmd += ["--spans", str(WORK / f"spans-{args.workload}.json")]
    start = perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"worker stopped after {timeout:.0f} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if err:
        sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or ready.strip() != "ready" or not lines:
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    result["traced"] = traced
    result["setup_s"] = setup_s
    result["wall_s"] = sum(result["stage_s"].values())
    return result


def src_line_count() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))


def run_context(reps: list[dict]) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": reps[0]["context"]["numpy"],
        "scipy": reps[0]["context"]["scipy"],
        "blas": reps[0]["context"]["blas"],
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "src_lines": src_line_count(),
    }


def _spread(values) -> str:
    return (f"median {statistics.median(values):.4f} of {len(values)}, "
            f"min {min(values):.4f}, max {max(values):.4f}")


def main() -> int:
    parser = argparse.ArgumentParser(description="fjlab CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's self-test")
    args = parser.parse_args()
    run_started = perf_counter()
    if not (SRC / "fjlab" / "__init__.py").is_file():
        print(f"bench: no fjlab package under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    WORK.mkdir(exist_ok=True)
    try:
        warm_up(env, RUN_LIMIT_S)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    reps: list[dict] = []
    attempted = failed = 0
    problems: list[str] = []
    min_reps = 2 if args.trace else 1  # trace runs need one untraced and one traced
    started = perf_counter()
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep_start = perf_counter()
        remaining = RUN_LIMIT_S - (perf_counter() - run_started)
        rep = run_worker(args, env, WORK / f"{args.workload}-{os.getpid()}", traced, remaining)
        longest = max(longest, perf_counter() - rep_start)
        if rep is None:
            attempted += 1
            failed += 1
            problems.append("a worker died without a result")
            break
        reps.append(rep)
        attempted += rep["attempted"]
        failed += rep["failed"]
        problems += rep["problems"]
        elapsed = perf_counter() - started
        # start another repetition only if it should end within --seconds
        if len(reps) >= min_reps and (elapsed * (len(reps) + 1) / len(reps) > args.seconds or rep["failed"]):
            break
        if perf_counter() - run_started + longest > RUN_BUDGET_S:
            break
    if len(reps) < min_reps:
        print("bench: too few repetitions produced a result", file=sys.stderr)
        return 1

    plain = [r for r in reps if not r["traced"]]
    walls = [r["wall_s"] for r in plain]
    print(f"workload {args.workload}, seed {args.seed}, {len(reps)} repetitions "
          f"in {perf_counter() - started:.1f} s, each a fresh single-threaded process")
    for stage in workloads.STAGES:
        times = [r["stage_s"][stage] for r in plain if stage in r["stage_s"]]
        if times:
            print(f"  stage {stage} s: {_spread(times)} untraced repetitions")
    if args.trace:
        metrics = trace_metrics(reps, walls)
    else:
        setup = [r["setup_s"] for r in reps]
        values = {
            "setup_s": statistics.median(setup),
            "wall_cal": statistics.median(r["wall_s"] / r["cal_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        print(f"  wall_s (sum of the stage times): {_spread(walls)} repetitions")
        print(f"  calibration kernel s: {_spread([r['cal_s'] for r in plain])}; "
              f"wall_cal is wall_s over it, repetition by repetition")
        print(f"  setup_s (launch to `import fjlab.cli` done): {_spread(setup)} fresh processes")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")
    context = run_context(reps)
    print("context " + json.dumps(context))
    for problem in problems[:20]:
        print(f"FAILED: {problem}")
    print(f"correctness: {failed} of {attempted} checked operations failed")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (WORK / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"seed": args.seed, "context": context, **result}, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


def trace_metrics(reps: list[dict], untraced_walls: list[float]) -> dict:
    """Per-layer metrics of the traced repetitions: counts from the first
    (they must repeat), times as medians; plus the tracing overhead."""
    traced = [r for r in reps if r["traced"]]
    print("tracing: in-process spans around fjlab module attributes, timed with the "
          "benchmark's own clock; no system-wide tracer (perf, eBPF, ptrace) is used")
    untraced_layers = traced[0]["untraced_layers"]
    if untraced_layers:
        print(f"tracing: no fjlab attribute holds {', '.join(untraced_layers)}; reported as 0")
    out = {}
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        unit = spans.unit_of(name)
        if unit == "count" or unit == "bytes":
            if len(set(values)) > 1:
                print(f"WARNING: count {name} differs between traced repetitions: {values}")
            value = values[0]
        else:
            value = statistics.median(values)
        out[name] = {"value": value, "unit": unit}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    out["trace.overhead_s"] = {"value": traced_wall - statistics.median(untraced_walls), "unit": "s"}
    out["cli.wall_s"] = {"value": statistics.median(untraced_walls), "unit": "s"}
    out["calibration_s"] = {"value": statistics.median(r["cal_s"] for r in reps), "unit": "s"}
    print(f"tracing overhead: traced wall_s {traced_wall:.4f} s minus untraced "
          f"{statistics.median(untraced_walls):.4f} s")
    return out


if __name__ == "__main__":
    sys.exit(main())
