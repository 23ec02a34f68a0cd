"""Smoke tests of the experiment drivers in ``scripts/``.

Each driver runs in a child process against the package this process
imports; a removed option or renamed function shows up as a nonzero exit.
The two drivers that write files (``regen_golden_reports.py`` and
``write_fixture_specs.py``) are left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import switchctrl

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    src = str(Path(switchctrl.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
    )


@pytest.mark.parametrize("name, args", [
    ("run_examples.py", ["nec1-det-not-nec2"]),
    ("viability_study.py", []),
    ("bound_study.py", ["--help"]),
    ("mc_agreement.py", ["--seeds", "1", "--max-paths", "50"]),
])
def test_script_exits_zero(name, args):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
