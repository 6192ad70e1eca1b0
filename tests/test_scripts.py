"""The shell scripts drive the CLI by its flags, so a flag renamed or
deleted in cli.build_parser() would break them without failing any other
test.  These check that each script parses and passes only known flags."""

import argparse
import re
import subprocess
from pathlib import Path

import pytest

from scalemap.cli import build_parser

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.sh"))
LONG_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def option_strings(parser: argparse.ArgumentParser) -> set[str]:
    """Every option string of the parser and of its subparsers, recursively."""
    found = set()
    for action in parser._actions:
        found.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found |= option_strings(sub)
    return found


def test_scripts_exist():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_parses(script):
    out = subprocess.run(["bash", "-n", str(script)], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_script_flags_are_cli_options():
    used = {flag for s in SCRIPTS for flag in LONG_FLAG.findall(s.read_text())}
    assert {"--vectors-per-unit", "--node-counts"} <= used
    assert used - option_strings(build_parser()) == set()
