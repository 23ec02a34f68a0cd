"""Smoke tests of the experiment drivers in ``scripts/``.

Each driver runs in a child process against the package this process
imports; a removed option or renamed function shows up as a nonzero exit.
``regen_golden_reports.py`` and ``write_fixture_specs.py`` write into a
temporary directory, whose files must equal the pinned reports under
``tests/data`` and the shipped specs under ``specs/``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import switchctrl
from test_report import GOLDEN

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
    ("coordinate_probe.py", ["--seeds", "1", "--transforms", "1"]),
])
def test_script_exits_zero(name, args):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_bound_study_reports_the_commuting_hypothesis():
    # a real run: the null_bound_check table for two restart counts
    proc = run_script("bound_study.py", "--paths", "200", "--N", "1,2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("commuting hypothesis: True")


def test_regen_golden_reports_reproduces_tests_data(tmp_path):
    # the script's PINNED, the files in tests/data and test_report's GOLDEN
    # must name the same reports, byte for byte
    proc = run_script("regen_golden_reports.py", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    data = ROOT / "tests" / "data"
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in data.glob("report_*.json"))
    assert written == sorted(GOLDEN.values())
    for name in written:
        assert (tmp_path / name).read_bytes() == (data / name).read_bytes(), name


def test_write_fixture_specs_reproduces_specs(tmp_path):
    # the benchmark and the golden reports read these files
    proc = run_script("write_fixture_specs.py", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    specs = ROOT / "specs"
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in specs.glob("*.json"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (specs / name).read_bytes(), name
