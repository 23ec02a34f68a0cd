from pathlib import Path

import numpy as np
import pytest

from switchctrl import fixtures
from switchctrl.model import Mode, SwitchSystem, system_digest
from switchctrl.report import (
    check_report,
    overall_verdict,
    report_bytes,
    run_criteria,
)

DATA = Path(__file__).parent / "data"

GOLDEN = {
    "nec1-not-det": "report_nec1_not_det.json",
    "nec1-det-not-nec2": "report_nec1_det_not_nec2.json",
    "nec2-det-not-nec1": "report_nec2_det_not_nec1.json",
    "ctrl-not-suf1": "report_ctrl_not_suf1.json",
    "cont-switch-bound": "report_cont_switch_bound.json",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_reports_pinned(name):
    blob = report_bytes(check_report(fixtures.example_system(name)))
    assert blob == (DATA / GOLDEN[name]).read_bytes()


def undetermined_system():
    # Shift fixture with mode-dependent intensities: every two-valued
    # criterion is inapplicable, the necessary ones pass, the sufficient
    # one fails.
    base = fixtures.ctrl_not_suf1()
    m0, m1 = base.modes
    fast = Mode(id=m1.id, embedding=m1.embedding, rate=2.0, A=m1.A, B0=m1.B0)
    return SwitchSystem(n=3, d=1, m=1, beta=base.beta, modes=(m0, fast),
                        Q=base.Q, C=dict(base.C))


def test_overall_verdicts_per_fixture():
    expected = {
        "nec1-not-det": ("no", "nec2"),
        "nec1-det-not-nec2": ("no", "nec2"),
        "nec2-det-not-nec1": ("no", "nec1"),
        "ctrl-not-suf1": ("yes", "crit_equiv"),
        "cont-switch-bound": ("yes", "crit_cont_switch"),
    }
    for name, (verdict, decided_by) in expected.items():
        verdicts, _ = run_criteria(fixtures.example_system(name))
        assert overall_verdict(verdicts) == (verdict, decided_by), name


def test_three_valued_verdict_undetermined():
    verdicts, applicability = run_criteria(undetermined_system())
    assert verdicts["nec1"].overall and verdicts["nec2"].overall
    assert not verdicts["suf1"].overall
    assert "crit_equiv" not in verdicts
    assert applicability["crit_equiv"].startswith("not-constant")
    assert overall_verdict(verdicts) == ("undetermined", None)


def test_deterministic_check_never_decides():
    # The informational check fails on the zero-drift fixture while the
    # decision comes from the stochastic chain criterion.
    verdicts, _ = run_criteria(fixtures.nec1_not_det())
    assert not verdicts["det_kalman"].overall
    verdict, decided_by = overall_verdict(verdicts)
    assert decided_by != "det_kalman"


def test_report_records_reproducibility_inputs():
    sys_ = fixtures.ctrl_not_suf1()
    rep = check_report(sys_, rank_tol=1e-8, seed=42)
    assert rep["system_digest"] == system_digest(sys_)
    assert rep["rank_tol"] == 1e-8
    assert rep["seed"] == 42
    assert rep["schema_version"] == 2
    names = [c["name"] for c in rep["criteria"]]
    assert names == ["nec1", "nec2", "suf1", "crit_equiv", "det_kalman"]


def test_report_serialization_is_stable():
    a = report_bytes(check_report(fixtures.nec1_not_det()))
    b = report_bytes(check_report(fixtures.nec1_not_det()))
    assert a == b


def test_witness_serialization_round_trip():
    import json

    rep = check_report(fixtures.nec1_det_not_nec2())
    doc = json.loads(report_bytes(rep))
    nec2 = next(c for c in doc["criteria"] if c["name"] == "nec2")
    wit = nec2["per_mode"]["0"]["witness"]
    assert wit["dim"] == 1
    basis = np.array(wit["basis"][0])
    assert np.allclose(np.abs(basis), [0.0, 1.0])
