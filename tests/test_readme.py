"""README's Python examples run and its command lines parse as written, so no removed name lingers there."""

import re
import shlex
from pathlib import Path

import pytest

from mlsm2d import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
# (first line number, source) of each fenced python block
BLOCKS = [
    (TEXT.count("\n", 0, m.start(1)) + 1, m.group(1))
    for m in re.finditer(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
]
# each `mlsm2d ...` line of the fenced sh blocks, and each option file the text shows as "`NAME` holding" a block
COMMANDS = [
    line
    for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.M | re.S)
    for line in block.splitlines()
    if line.startswith("mlsm2d ")
]
OPTION_FILES = dict(re.findall(r"`([^`\s]+)` holding\n\n```text\n(.*?)^```", TEXT, re.M | re.S))


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("line, code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(line, code):
    # padded so that a traceback names the README's own line numbers
    exec(compile("\n" * (line - 1) + code, str(README), "exec"), {"__name__": "readme_example"})


def test_readme_has_command_lines():
    assert len(COMMANDS) >= 8 and any("@" in line for line in COMMANDS) and OPTION_FILES


@pytest.mark.parametrize("line", COMMANDS)
def test_command_line_is_accepted(line, tmp_path, monkeypatch):
    # parsed and validated as written, without a solve; an @FILE gets the README's sample contents
    monkeypatch.chdir(tmp_path)
    for name, contents in OPTION_FILES.items():
        (tmp_path / name).write_text(contents)
    config = cli._build_parser().parse_args(shlex.split(line)[1:])
    assert cli.validate(config) == []
