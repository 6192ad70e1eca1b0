"""The shell scripts and the README's examples drive the CLI by its flags,
so a flag renamed or deleted in cli.build_parser() would break them without
failing any other test.  These check that each script parses and passes
only known flags, and that each README command line parses."""

import argparse
import re
import shlex
import subprocess
from pathlib import Path

import pytest

from scalemap.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.sh"))
LONG_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
SH_BLOCK = re.compile(r"^```sh\n(.*?)^```", re.M | re.S)


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


def readme_commands(text: str) -> list[list[str]]:
    """The argv of each `scalemap ...` line in the sh blocks of a README,
    continuation lines joined and a trailing & stripped."""
    commands = []
    for block in SH_BLOCK.findall(text):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line.strip().removesuffix("&"), comments=True)
            if argv[:1] == ["scalemap"]:
                commands.append(argv)
    return commands


def test_readme_commands_parse():
    commands = readme_commands((ROOT / "README.md").read_text())
    assert {"bench", "sweep", "analyze", "master", "worker", "netprobe"} <= {
        argv[1] for argv in commands}
    failed = []
    for argv in commands:
        try:
            build_parser().parse_args(argv[1:])
        except SystemExit:
            failed.append(shlex.join(argv))
    assert failed == []
