import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import switchctrl
from switchctrl import fixtures
from switchctrl.cli import build_parser, main
from switchctrl.model import Mode, SwitchSystem, serialize_spec

DATA = Path(__file__).parent / "data"


@pytest.fixture
def spec_dir(tmp_path):
    for name in fixtures.FIXTURE_NAMES:
        path = tmp_path / f"{name}.json"
        path.write_bytes(serialize_spec(fixtures.example_system(name)))
    return tmp_path


def silent_spec(tmp_path):
    A = np.array([[0.1, 1.0], [0.0, -0.3]])
    mode = Mode(id="only", embedding=np.zeros(1), rate=0.0, A=A,
                B0=np.array([[1.0], [0.0]]))
    sys_ = SwitchSystem(n=2, d=1, m=1, beta=np.zeros(1), modes=(mode,),
                        Q=np.zeros((1, 1)), C={})
    path = tmp_path / "silent.json"
    path.write_bytes(serialize_spec(sys_))
    return path, A


# -------------------------------------------------------------------- check


def test_check_exit_codes(spec_dir):
    expected = {
        "nec1-not-det": 2,
        "nec1-det-not-nec2": 2,
        "nec2-det-not-nec1": 2,
        "ctrl-not-suf1": 0,
        "cont-switch-bound": 0,
    }
    for name, code in expected.items():
        assert main(["check", str(spec_dir / f"{name}.json"),
                     "--out", str(spec_dir / "out.json")]) == code


def test_check_report_matches_golden(spec_dir, tmp_path):
    out = tmp_path / "report.json"
    main(["check", str(spec_dir / "ctrl-not-suf1.json"), "--out", str(out)])
    assert out.read_bytes() == (DATA / "report_ctrl_not_suf1.json").read_bytes()


def test_check_rerun_stability(spec_dir, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    c1 = main(["check", str(spec_dir / "nec1-not-det.json"), "--out", str(out1)])
    c2 = main(["check", str(spec_dir / "nec1-not-det.json"), "--out", str(out2)])
    assert c1 == c2 == 2
    assert out1.read_bytes() == out2.read_bytes()


def test_check_undetermined_exit_code(tmp_path):
    base = fixtures.ctrl_not_suf1()
    m0, m1 = base.modes
    fast = Mode(id=m1.id, embedding=m1.embedding, rate=2.0, A=m1.A, B0=m1.B0)
    sys_ = SwitchSystem(n=3, d=1, m=1, beta=base.beta, modes=(m0, fast),
                        Q=base.Q, C=dict(base.C))
    path = tmp_path / "undet.json"
    path.write_bytes(serialize_spec(sys_))
    assert main(["check", str(path)]) == 3


def test_check_invalid_spec_exits_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2}')
    assert main(["check", str(bad)]) == 1
    doc = json.loads(serialize_spec(fixtures.nec1_not_det()))
    doc["Q"] = [[0.0, 0.5], [1.0, 0.0]]
    bad.write_text(json.dumps(doc))
    assert main(["check", str(bad)]) == 1


# ----------------------------------------------------------------- simulate


def test_simulate_single_path_matches_exponential(tmp_path, capsys):
    path, A = silent_spec(tmp_path)
    assert main(["simulate", str(path), "--policy", "zero", "--paths", "1",
                 "--seed", "7", "--x0", "1,0", "--dt", "1e-3"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "t,mode,x1,x2,side"
    last = lines[-1].split(",")
    t = float(last[0])
    x = np.array([float(last[2]), float(last[3])])
    assert t == 1.0
    assert np.linalg.norm(x - expm(A) @ np.array([1.0, 0.0])) <= 1e-8


def test_simulate_min_energy_summary(spec_dir, tmp_path):
    out = tmp_path / "mc.json"
    code = main(["simulate", str(spec_dir / "cont-switch-bound.json"),
                 "--policy", "min-energy", "--N", "4", "--paths", "200",
                 "--dt", "1e-2", "--seed", "5", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["policy"] == "min-energy"
    assert doc["bound_pass"] is True
    assert doc["terminal_msq"]["mean"] <= doc["bound"]


def test_simulate_min_energy_bound_not_asserted_without_commuting(tmp_path):
    # rotation drifts are not self-adjoint: the bound is reported, not judged
    Z = np.zeros((2, 2))
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    modes = (Mode(id="0", embedding=np.zeros(1), rate=1.0, A=rot, B0=np.eye(2)),
             Mode(id="1", embedding=np.ones(1), rate=1.0, A=2 * rot, B0=np.eye(2)))
    sys_ = SwitchSystem(n=2, d=2, m=1, beta=np.zeros(1), modes=modes,
                        Q=np.array([[0.0, 1.0], [1.0, 0.0]]), C={(0, 1): Z, (1, 0): Z})
    spec, out = tmp_path / "rot.json", tmp_path / "mc.json"
    spec.write_bytes(serialize_spec(sys_))
    assert main(["simulate", str(spec), "--policy", "min-energy", "--N", "4",
                 "--paths", "200", "--dt", "1e-2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["bound_pass"] is None
    assert doc["bound"] > 0


def test_simulate_start_mode_and_constant_input(spec_dir, capsys):
    assert main(["simulate", str(spec_dir / "cont-switch-bound.json"),
                 "--policy", "constant", "--u", "0.5,-0.5", "--paths", "1",
                 "--start-mode", "1", "--dt", "1e-2"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")
    assert rows[0] == "t,mode,x1,x2,side"
    assert rows[1].split(",")[:2] == ["0.0000000000000000e+00", "1"]


def test_simulate_min_energy_refuses_jumping_state(spec_dir):
    assert main(["simulate", str(spec_dir / "nec1-not-det.json"),
                 "--policy", "min-energy", "--paths", "200"]) == 2


def test_simulate_feedback_dual_residual(spec_dir, tmp_path):
    out = tmp_path / "dual.json"
    code = main(["simulate", str(spec_dir / "nec1-det-not-nec2.json"),
                 "--policy", "feedback-dual", "--paths", "10",
                 "--dt", "1e-3", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["witness_dim"] == 1
    assert doc["max_kernel_residual"] <= 1e-6


def test_simulate_feedback_dual_single_path(spec_dir, capsys):
    # the dual path of the witness stays in ker(B0*): x1 = B0* y is 0
    assert main(["simulate", str(spec_dir / "nec1-det-not-nec2.json"),
                 "--policy", "feedback-dual", "--paths", "1", "--dt", "1e-2"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")
    assert rows[0] == "t,mode,x1,x2,side"
    assert len(rows) > 2
    assert all(float(row.split(",")[2]) == 0.0 for row in rows[1:])


def test_simulate_feedback_dual_refuses_trivial_witness(spec_dir):
    assert main(["simulate", str(spec_dir / "nec2-det-not-nec1.json"),
                 "--policy", "feedback-dual", "--paths", "5"]) == 2


# ------------------------------------------------------------------ riccati


def test_riccati_nonviable_vector(spec_dir, tmp_path):
    out = tmp_path / "r.json"
    code = main(["riccati", str(spec_dir / "ctrl-not-suf1.json"),
                 "--y", "0,0,1", "--riccati-N-list", "1,10,100",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "nonviable"
    assert doc["in_kernel"] is True
    assert len(doc["table"]) == 3


def test_riccati_vector_outside_kernel(spec_dir, capsys):
    code = main(["riccati", str(spec_dir / "ctrl-not-suf1.json"),
                 "--y", "1,0,0", "--riccati-N-list", "1,10,100"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "nonviable"
    assert doc["in_kernel"] is False


def test_riccati_refuses_nonconstant(spec_dir):
    assert main(["riccati", str(spec_dir / "nec2-det-not-nec1.json")]) == 2


def test_riccati_csv_export(spec_dir, tmp_path):
    out = tmp_path / "runs.csv"
    code = main(["riccati", str(spec_dir / "ctrl-not-suf1.json"),
                 "--riccati-N-list", "1,10",
                 "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("N,t,k11,k12")
    assert len(lines) > 100
    rows = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    for N in (1.0, 10.0):
        t = rows[rows[:, 0] == N, 1]
        assert t[0] == 0.0 and t[-1] == 1.0  # every rung ends at t = T
        assert np.all(np.diff(t) > 0.0)


def test_riccati_step_flag_is_gone(spec_dir):
    assert main(["riccati", str(spec_dir / "ctrl-not-suf1.json"), "--dt", "1e-3"]) == 1


# ------------------------------------------------------------ verify-example


def test_verify_example_unknown_name():
    assert main(["verify-example", "no-such-example"]) == 1


def test_verify_example_fast_bundles(capsys):
    for name in ("nec2-det-not-nec1", "ctrl-not-suf1"):
        assert main(["verify-example", name]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


# -------------------------------------------------------------------- misc


def test_seed_env_default(monkeypatch):
    monkeypatch.setenv("SWITCHCTRL_SEED", "123")
    args = build_parser().parse_args(["check", "whatever.json"])
    assert args.seed == 123
    monkeypatch.delenv("SWITCHCTRL_SEED")
    args = build_parser().parse_args(["check", "whatever.json"])
    assert args.seed == 0


def test_console_entry_point_runs():
    # the child imports the same package as this process, installed or not
    src = str(Path(switchctrl.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "switchctrl.cli", "--version"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


IMPORT_GUARD = """
import contextlib, io, sys
from switchctrl.cli import main

specs = sys.argv[1]
calls = [["check", f"{specs}/ctrl_not_suf1.json"],
         ["simulate", f"{specs}/cont_switch_bound.json", "--policy", "min-energy",
          "--paths", "1"],
         ["riccati", f"{specs}/nec1_det_not_nec2.json", "--y", "0,1"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in calls]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_runtime_never_imports_scipy():
    # numpy is the only runtime dependency: scipy serves the tests alone
    src = str(Path(switchctrl.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    specs = str(Path(__file__).resolve().parents[1] / "specs")
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, specs],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0] []"


def test_cli_rejects_malformed_vectors_and_path_counts(spec_dir, capsys):
    assert main(["simulate", str(spec_dir / "cont-switch-bound.json"),
                 "--policy", "zero", "--x0", "a,b"]) == 1
    assert main(["simulate", str(spec_dir / "cont-switch-bound.json"),
                 "--policy", "zero", "--paths", "0"]) == 1
    # unusable horizons, steps, restart and path counts, and penalty
    # ladders end in one error line, not a traceback
    simulate = ["simulate", str(spec_dir / "cont-switch-bound.json")]
    riccati = ["riccati", str(spec_dir / "nec1-det-not-nec2.json"), "--y", "0,1"]
    cases = [
        simulate + ["--policy", "zero", "--dt", "0"],
        simulate + ["--policy", "zero", "--dt", "nan"],
        simulate + ["--policy", "zero", "--T", "0"],
        simulate + ["--policy", "zero", "--T", "inf"],
        simulate + ["--policy", "min-energy", "--N", "0", "--paths", "200"],
        simulate + ["--policy", "min-energy", "--paths", "50"],
        riccati + ["--T", "0"],
        riccati + ["--T", "nan"],
        riccati + ["--riccati-N-list", "0"],
        riccati + ["--riccati-N-list", "1,10"],
        riccati + ["--riccati-N-list", "1,1,10"],
        riccati + ["--riccati-N-list", "0,10", "--format", "csv"],
        # non-finite vector entries
        simulate + ["--policy", "zero", "--x0", "nan,1", "--paths", "100"],
        simulate + ["--policy", "constant", "--u", "inf,0", "--paths", "1"],
        ["simulate", str(spec_dir / "nec1-det-not-nec2.json"),
         "--policy", "feedback-dual", "--y0", "0,-inf", "--paths", "1"],
        ["riccati", str(spec_dir / "nec1-det-not-nec2.json"), "--y", "nan,1"],
        # empty entries, which used to be dropped; an empty penalty list,
        # an unwritable output path
        simulate + ["--policy", "zero", "--x0", "1,,2"],
        simulate + ["--policy", "zero", "--x0", "1,2,"],
        riccati + ["--riccati-N-list", "1,,10,100"],
        riccati + ["--riccati-N-list", "", "--format", "csv"],
        ["check", str(spec_dir / "ctrl-not-suf1.json"),
         "--out", str(spec_dir / "missing" / "report.json")],
        # an unknown start mode; argparse's own errors: a non-number for a
        # numeric option and an unknown flag
        simulate + ["--policy", "zero", "--start-mode", "nope"],
        ["check", str(spec_dir / "ctrl-not-suf1.json"), "--tol-rank", "abc"],
        ["check", str(spec_dir / "ctrl-not-suf1.json"), "--bogus"],
    ]
    # rank cutoffs outside (0, 1): nan and inf used to end in a traceback,
    # 2 and -1 in a wrong verdict, and riccati nan in a vector outside ker(B*)
    for tol in ("nan", "inf", "2", "-1", "0", "1"):
        cases += [["check", str(spec_dir / "ctrl-not-suf1.json"), "--tol-rank", tol],
                  simulate + ["--policy", "zero", "--tol-rank", tol],
                  ["riccati", str(spec_dir / "ctrl-not-suf1.json"), "--tol-rank", tol]]
    capsys.readouterr()
    for argv in cases:
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, argv
