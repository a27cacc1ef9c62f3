"""README.md is the package's contract: it names every public name and flag."""

import argparse
import re
import types
from pathlib import Path

import heatoc
from heatoc.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _section(title: str) -> str:
    match = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", README, re.M | re.S)
    assert match, f"README has no '## {title}' section"
    return match.group(1)


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return dict(action.choices)


def test_readme_names_every_public_name():
    public = [name for name, value in vars(heatoc).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    missing = [name for name in public if not re.search(rf"\b{name}\b", README)]
    assert missing == []


def test_readme_cli_section_names_every_subcommand_and_flag_and_no_other():
    cli = _section("CLI")
    subcommands = _subcommands()
    assert [name for name in subcommands if f"heatoc {name}" not in cli] == []
    flags = {opt for parser in subcommands.values() for action in parser._actions
             for opt in action.option_strings if opt.startswith("--") and opt != "--help"}
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][A-Za-z0-9-]*", cli))
    assert sorted(flags - named) == []
    assert sorted(named - flags) == []
