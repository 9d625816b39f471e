"""The pytest settings in pyproject.toml report a failing test and go on."""

import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TWO_TESTS = textwrap.dedent(
    """
    from hypothesis import given, strategies as st


    @given(st.integers())
    def test_fails(x):
        assert x < 0


    def test_passes():
        assert True
    """
)


def test_failing_hypothesis_test_is_reported_and_the_run_goes_on(tmp_path):
    # Reporting a failing example imports modules that warn on import; with
    # warnings as errors, that aborted the run with INTERNALERROR.
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", os.path.join(ROOT, "pyproject.toml"), "--rootdir", str(tmp_path),
            "test_two.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout[-2000:]
