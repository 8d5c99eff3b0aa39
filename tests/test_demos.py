"""Every script under demos/ runs to completion against src/ and prints its pinned stdout."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# One file per demo, <name>.out: its stdout, which is deterministic and holds no absolute path.
EXPECTED = Path(__file__).resolve().parent / "fixtures" / "demos"


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    # Run from a scratch directory: demo 03 writes demo_output/ under its cwd.
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (EXPECTED / f"{demo.stem}.out").read_text(encoding="utf-8")
