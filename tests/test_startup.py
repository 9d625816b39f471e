"""What the CLI loads: no scipy at run time, nothing lazy inside a stage,
and every third-party import declared as a dependency."""

import ast
import json
import os
import re
import subprocess
import sys
import textwrap

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Runs in a fresh interpreter: imports the CLI, then runs all five stages
# on tiny inputs and reports which modules each part loaded.
PIPELINE = textwrap.dedent(
    """
    import json, sys, tempfile
    import fjlab.cli
    after_import = sorted(sys.modules)
    before = set(sys.modules)
    out = tempfile.mkdtemp()
    base = ["--output-dir", out, "--quiet", "--seed", "1"]
    codes = [
        fjlab.cli.run(base + argv)
        for argv in (
            ["simulate", "--pools", "2", "--samples", "3", "--agents", "3",
             "--labels", "3", "--rounds", "3"],
            ["fit", "--global"],
            ["analyze"],
            ["compare"],
            ["verify", "--prop-draws", "3", "--identity-draws", "20",
             "--scenario-samples", "400", "--consistency-samples", "50"],
        )
    ]
    print(json.dumps({
        "after_import": after_import,
        "during_stages": sorted(set(sys.modules) - before),
        "codes": codes,
    }))
    """
)


def test_cli_loads_no_scipy_and_stages_import_no_numpy_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PIPELINE], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0, 0, 0]
    assert [m for m in report["after_import"] if m.startswith("scipy")] == []
    # numpy.ma costs about 20 ms of every command's start-up
    assert "numpy.ma" not in report["after_import"]
    loaded_late = set(report["during_stages"]) - {"locale", "_locale"}  # argparse's gettext
    assert [m for m in loaded_late if m.startswith(("scipy", "numpy"))] == []


# Runs in a fresh interpreter: saves and loads a corpus above the size at
# which trajectory io splits the samples with a forked child, and reports
# the modules those calls loaded and the forks they made.
SPLIT_IO = textwrap.dedent(
    """
    import json, os, sys, tempfile
    import numpy as np
    import fjlab.cli
    from fjlab import io as fio
    from fjlab.model import DeliberationTrajectory

    rng = np.random.default_rng(3)
    trajs = [
        DeliberationTrajectory(
            snapshots=rng.dirichlet(np.ones(6), size=(21, 8)), sample_id=f"s{k}"
        )
        for k in range(260)
    ]
    assert sum(t.snapshots.size for t in trajs) * fio._FLOAT_TEXT_BYTES > fio._SPLIT_BYTES
    forks = []
    fork = os.fork
    def counted():
        forks.append(1)
        return fork()
    os.fork = counted
    path = os.path.join(tempfile.mkdtemp(), "trajectories.json")
    before = set(sys.modules)
    fio.save_trajectories(path, trajs)
    back = fio.load_trajectories(path)
    print(json.dumps({
        "loaded": sorted(set(sys.modules) - before),
        "process_modules": sorted(
            {"multiprocessing", "concurrent.futures", "signal", "subprocess"} & set(sys.modules)
        ),
        "forks": len(forks),
        "size": os.path.getsize(path),
        "split_bytes": fio._SPLIT_BYTES,
        "same": all(a.snapshots.tobytes() == b.snapshots.tobytes() for a, b in zip(back, trajs)),
    }))
    """
)


def test_split_trajectory_io_loads_no_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SPLIT_IO], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["size"] > report["split_bytes"]
    assert report["same"]
    # a save and a load each fork once where two CPUs are usable, before 3.12
    two_cpus = (
        sys.version_info < (3, 12)
        and hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
    )
    assert report["forks"] == (2 if two_cpus else 0)
    assert report["loaded"] == []
    # a fork needs none of the process modules, which would cost every start-up
    assert report["process_modules"] == []


def _requirement_name(spec: str) -> str:
    return re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_")


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_every_third_party_import_is_a_declared_dependency():
    import tomllib

    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    declared = {_requirement_name(spec) for spec in project["dependencies"]}
    package = os.path.join(SRC, "fjlab")
    imported = set()
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"fjlab"}
    assert third_party, "the scan found no third-party import at all"
    assert sorted(third_party - declared) == []
