"""Every ```python block of README.md runs as written, so an API change
breaks a test and not only the docs."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
# (first line number of the code, code) per block
BLOCKS = [
    (TEXT.count("\n", 0, match.start(1)) + 1, match.group(1))
    for match in re.finditer(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("line, source", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_python_block_runs(line, source):
    # pad with blank lines so a traceback names the README's own line numbers
    code = compile("\n" * (line - 1) + source, str(README), "exec")
    exec(code, {"__name__": "readme"})
