"""Self-test of the benchmark on tiny inputs (about a minute).

    python3 bench/selftest.py

For every workload in BENCHMARK.json it checks that an untraced run emits
exactly the end-to-end metrics and a traced run exactly the per-layer
metrics, each with the declared unit; that every operation passed; and
that the count metrics repeat exactly across two traced runs with the
same seed.  It also checks that the benchmark refuses to run, without
printing a result, in a directory that holds only BENCHMARK.json and the
benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNT_UNITS = ("count", "bytes")


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_metrics(result: dict, declared: list[dict], what: str, errors: list[str]) -> None:
    units = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(units):
        errors.append(f"{what}: missing {sorted(set(units) - set(got))}, "
                      f"undeclared {sorted(set(got) - set(units))}")
    for name, metric in got.items():
        if name in units and metric["unit"] != units[name]:
            errors.append(f"{what}: {name} has unit {metric['unit']!r}, declared {units[name]!r}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{what}: correct={result['correct']} attempted={result['attempted']} "
                      f"failed={result['failed']}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        rc, out = run(workload, 0)
        if rc != 0:
            errors.append(f"{workload} trace 0: exit {rc}")
            continue
        result = last_json(out)
        check_metrics(result, spec["end_to_end"], f"{workload} trace 0", errors)
        for name, metric in result["metrics"].items():
            if not metric["value"] > 0:
                errors.append(f"{workload} trace 0: {name} is {metric['value']!r}")
        traced = []
        for attempt in (1, 2):
            rc, out = run(workload, 1)
            if rc != 0:
                errors.append(f"{workload} trace 1 (run {attempt}): exit {rc}")
                break
            traced.append(last_json(out))
            check_metrics(traced[-1], spec["per_layer"], f"{workload} trace 1 (run {attempt})", errors)
        if len(traced) == 2:
            for name, metric in traced[0]["metrics"].items():
                again = traced[1]["metrics"].get(name, {}).get("value")
                if metric["unit"] in COUNT_UNITS and metric["value"] != again:
                    errors.append(f"{workload}: count {name} was {metric['value']} then {again}")
        print(f"{workload}: checked", flush=True)

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        rc, out = run(spec["workloads"][0]["name"], 0, cwd=bare)
        if rc == 0 or out.strip():
            errors.append(f"without the package: exit {rc}, printed {out.strip()[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("without the package: checked")

    for error in errors:
        print(f"FAIL {error}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
