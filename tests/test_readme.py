"""The README's library example runs and prints what its comments show,
and its command-line block lists exactly the CLI's subcommands."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

from polywit import cli

ROOT = Path(__file__).resolve().parent.parent


def _library_example() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_prints_its_comments():
    code = _library_example()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    expected = {
        i: line.split("#", 1)[1].strip()
        for i, line in enumerate(prints)
        if "#" in line
    }
    assert expected, "the example shows no expected output"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    ).stdout.splitlines()
    assert len(out) == len(prints)
    for i, want in expected.items():
        assert out[i] == want


def test_readme_commands_are_the_cli_subcommands():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    documented = [line.split()[1] for line in block.splitlines() if line.strip()]
    parser = cli._build_parser()
    (subparsers,) = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert sorted(documented) == sorted(subparsers.choices)
    assert len(set(documented)) == len(documented)
