"""Every demo runs to the end and prints exactly its checked-in stdout.

``demos_stdout.json`` maps each ``demos/*.py`` file name to the stdout it
printed when the expectations were last written.  Demo 06 prints two
``ParseError`` diagnostics, so this also pins the messages users see.
After an intended output change, rewrite the expectations with

    PYTHONPATH=src python tests/test_demos.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
DATA = Path(__file__).with_name("demos_stdout.json")


def run_demo(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, str(path)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def test_every_demo_has_an_expectation():
    assert sorted(json.loads(DATA.read_text(encoding="utf-8"))) == [path.name for path in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_output_is_unchanged(path):
    expected = json.loads(DATA.read_text(encoding="utf-8"))[path.name]
    result = run_demo(path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == expected


if __name__ == "__main__":
    recorded = {}
    for path in DEMOS:
        result = run_demo(path)
        if result.returncode != 0:
            sys.exit(f"{path.name} exited {result.returncode}:\n{result.stderr}")
        recorded[path.name] = result.stdout
    DATA.write_text(json.dumps(recorded, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"rewrote {len(recorded)} demos in {DATA}")
