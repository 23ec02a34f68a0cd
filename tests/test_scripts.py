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
from switchctrl import fixtures
from test_report import GOLDEN

ROOT = Path(__file__).resolve().parents[1]

#: Seconds a driver may run; the slowest smoke case takes a few.
SCRIPT_TIMEOUT = 120


def run_script(name, *args):
    src = str(Path(switchctrl.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path), timeout=SCRIPT_TIMEOUT,
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


@pytest.mark.parametrize("args, message", [
    (["--T", "inf"], "T must be positive and finite"),
    (["--N", "1,10,100,100"], "penalty weights must be strictly increasing"),
])
def test_viability_study_refuses_an_unusable_horizon_or_ladder(args, message):
    # an infinite horizon used to integrate forever, a repeated rung to
    # call the nonviable shift line viable
    proc = run_script("viability_study.py", *args)
    assert proc.returncode != 0
    assert message in proc.stderr, proc.stderr


def test_regen_golden_reports_reproduces_tests_data(tmp_path):
    proc = run_script("regen_golden_reports.py", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    data = ROOT / "tests" / "data"
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(f"report_{name.replace('-', '_')}.json"
                             for name in fixtures.FIXTURE_NAMES)
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
