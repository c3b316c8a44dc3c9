"""Byte-for-byte CLI output against checked-in expectations.

Every case in ``golden_cli.json`` is one ``main(argv)`` call with its exact
stdout and exit code.  An argv entry ``{name}`` stands for the file
``name.json`` whose content is the ``files[name]`` entry, written to a
temporary directory before the call.  The ``parser`` entry pins the
argparse declaration itself: each subcommand's help and, per argument,
the fields argparse keeps (compared as data, since the rendered ``--help``
layout differs between Python versions).  After an intended output change,
rewrite the expectations from the current code with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import argparse
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from pqforms.cli import main

DATA = Path(__file__).with_name("golden_cli.json")


def _load():
    return json.loads(DATA.read_text(encoding="utf-8"))


def run_case(argv, files, directory: Path):
    """Run one call with its file placeholders filled; return (exit, stdout)."""
    resolved = []
    for arg in argv:
        if arg.startswith("{") and arg.endswith("}"):
            path = directory / f"{arg[1:-1]}.json"
            if arg[1:-1] in files:
                path.write_text(json.dumps(files[arg[1:-1]]), encoding="utf-8")
            arg = str(path)
        resolved.append(arg)
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(resolved)
    return code, out.getvalue()


def parser_surface() -> list:
    """The declared CLI surface: one entry per subcommand, in order."""
    from pqforms.cli import build_parser

    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    helps = {choice.dest: choice.help for choice in subparsers._choices_actions}
    surface = []
    for name, sub in subparsers.choices.items():
        arguments = [
            {
                "option_strings": action.option_strings,
                "dest": action.dest,
                "required": action.required,
                "default": action.default,
                "choices": list(action.choices) if action.choices is not None else None,
                "help": action.help,
                "nargs": action.nargs,
                "const": action.const,
                "type": action.type.__name__ if action.type is not None else None,
            }
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
        ]
        surface.append({"command": name, "help": helps[name], "arguments": arguments})
    return surface


_GOLDEN = _load()


@pytest.mark.parametrize(
    "case",
    _GOLDEN["cases"],
    ids=[f"{i:02d}-{case['argv'][0]}" for i, case in enumerate(_GOLDEN["cases"])],
)
def test_cli_output_is_unchanged(case, tmp_path):
    code, out = run_case(case["argv"], _GOLDEN["files"], tmp_path)
    assert (code, out) == (case["exit"], case["stdout"])


def test_golden_cases_cover_every_command():
    from pqforms.cli import build_parser

    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    used = {case["argv"][0] for case in _GOLDEN["cases"]}
    assert set(subparsers.choices) <= used
    assert {2} <= {case["exit"] for case in _GOLDEN["cases"]}


def test_parser_surface_is_unchanged():
    assert parser_surface() == _GOLDEN["parser"]


if __name__ == "__main__":
    import tempfile

    golden = _load()
    with tempfile.TemporaryDirectory() as tmp:
        for case in golden["cases"]:
            case["exit"], case["stdout"] = run_case(case["argv"], golden["files"], Path(tmp))
    golden["parser"] = parser_surface()
    DATA.write_text(json.dumps(golden, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"rewrote {len(golden['cases'])} cases in {DATA}")
