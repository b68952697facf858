"""Every command-line example in the README runs and exits 0."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import centrokdv.cli as cli

README = Path(__file__).resolve().parent.parent / "README.md"


def cli_examples():
    """Lines of the first fenced block in the README's command-line section."""
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.strip()]


def test_readme_cli_examples_exit_0(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    examples = cli_examples()
    assert len(examples) == 8
    for line in examples:
        prog, *argv = shlex.split(line)
        assert prog == "centrokdv"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, line
