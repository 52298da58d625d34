"""README's Python examples run as written, so no removed name lingers there."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
# (first line number, source) of each fenced python block
BLOCKS = [
    (TEXT.count("\n", 0, m.start(1)) + 1, m.group(1))
    for m in re.finditer(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
]


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("line, code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(line, code):
    # padded so that a traceback names the README's own line numbers
    exec(compile("\n" * (line - 1) + code, str(README), "exec"), {"__name__": "readme_example"})
