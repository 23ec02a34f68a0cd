from pathlib import Path

import numpy as np
import pytest

from switchctrl import fixtures
from switchctrl.criteria import (
    crit_cont_switch_check,
    crit_equiv_check,
    det_kalman_check,
    nec1_check,
    nec2_check,
    suf1_check,
)
from switchctrl.model import Mode, SwitchSystem, as_constant, canonical_json, system_digest
from switchctrl.report import (
    check_report,
    overall_verdict,
    report_bytes,
    run_criteria,
    subspace_dict,
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


# ----------------------------------------- memo-free reference of the report


def _copied(value):
    """``value`` with every dict, list and array copied: no two places share
    an object, so the writer formats every array afresh."""
    if isinstance(value, dict):
        return {k: _copied(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_copied(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.copy()
    return value


def _reference_bytes(system) -> bytes:
    """The report built without any memo: each criterion run alone, one
    ``subspace_dict`` per subspace, and the writer on copied arrays."""
    alone = {"nec1": nec1_check, "nec2": nec2_check, "suf1": suf1_check,
             "det_kalman": det_kalman_check, "crit_cont_switch": crit_cont_switch_check,
             "crit_equiv": lambda s: crit_equiv_check(as_constant(s))}
    report = check_report(system)
    criteria = []
    for entry in report["criteria"]:
        v = alone[entry["name"]](system)
        per_mode = {}
        for mode_id, mv in v.per_mode.items():
            per_mode[mode_id] = {
                "pass": mv.passed,
                "witness": subspace_dict(mv.chain[-1]),
                "chain_dims": [s.dim for s in mv.chain],
                "chain": [subspace_dict(s) for s in mv.chain],
            }
        out = {"name": v.name, "overall": v.overall, "per_mode": per_mode}
        if v.details:
            out["details"] = {k: v.details[k] for k in sorted(v.details)}
        criteria.append(out)
    return canonical_json(_copied({**report, "criteria": criteria}))


def _memo_systems():
    from conftest import random_switch_system

    rng = np.random.default_rng(20)
    systems = [fixtures.example_system(name) for name in sorted(GOLDEN)]
    for k in range(20):
        # every fourth system has no jumps at all (C = 0)
        systems.append(random_switch_system(
            rng, max_n=5, max_modes=4, zero_jump_prob=1.0 if k % 4 == 0 else 0.25))
    return systems


def test_report_memo_leaves_the_bytes_of_a_memo_free_reference():
    systems = _memo_systems()
    assert sum(not any(np.any(c) for c in s.C.values()) for s in systems) >= 5
    for k, system in enumerate(systems):
        assert report_bytes(check_report(system)) == _reference_bytes(system), k


def test_report_shares_one_dict_per_distinct_basis():
    # the nec1, det_kalman and crit_cont_switch chains of a jump-free
    # system are one chain, so the report holds one dict per subspace
    rep = check_report(fixtures.cont_switch_bound())
    by_name = {c["name"]: c for c in rep["criteria"]}
    for mode_id, entry in by_name["det_kalman"]["per_mode"].items():
        for other in ("nec1", "crit_cont_switch"):
            chain = by_name[other]["per_mode"][mode_id]["chain"]
            assert all(a is b for a, b in zip(chain, entry["chain"]))
