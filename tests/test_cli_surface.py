"""The CLI surface is pinned: every subcommand's flags, defaults and types.

``tests/data/cli_surface.json`` records, for each subcommand, every
argparse action's option strings, default, type, choices, nargs, const,
required flag and metavar.  Help text and flag order are deliberately
left out: they may change without changing what a command line means.

Regenerate after a deliberate surface change with::

    PYTHONPATH=src python -m tests.test_cli_surface
"""

import argparse
import json
from pathlib import Path

from repro.cli import build_parser

SNAPSHOT = Path(__file__).resolve().parent / "data" / "cli_surface.json"


def _jsonable(value):
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if callable(value):
        return getattr(value, "__name__", repr(value))
    return value


def subparsers(parser):
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def cli_surface():
    """``{command: {key: action fields}}`` for every subcommand."""
    surface = {}
    for name, sub in sorted(subparsers(build_parser()).items()):
        actions = {}
        for action in sub._actions:
            key = " ".join(action.option_strings) or action.dest
            actions[key] = {
                field: _jsonable(getattr(action, field))
                for field in ("default", "type", "choices", "nargs",
                              "const", "required", "metavar")
            }
        surface[name] = actions
    return surface


def test_cli_surface_matches_snapshot():
    expected = json.loads(SNAPSHOT.read_text())
    actual = json.loads(json.dumps(cli_surface()))
    assert sorted(actual) == sorted(expected)
    for command in expected:
        assert actual[command] == expected[command], command


def _dump(surface):
    """One line per action, so a surface change reads as a small diff."""
    commands = []
    for command, actions in sorted(surface.items()):
        lines = [f"  {json.dumps(key)}: {json.dumps(fields, sort_keys=True)}"
                 for key, fields in sorted(actions.items())]
        commands.append(f" {json.dumps(command)}: {{\n" + ",\n".join(lines)
                        + "\n }")
    return "{\n" + ",\n".join(commands) + "\n}\n"


if __name__ == "__main__":
    SNAPSHOT.write_text(_dump(cli_surface()))
