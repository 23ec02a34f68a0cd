"""Machine-readable analysis reports with a canonical serialization.

A report pins everything needed to reproduce its verdicts: the canonical
digest of the system spec, the rank tolerance, the seed, and the full
witness bases and chains of every criterion.  Serialization reuses the
canonical JSON writer (fixed key order, 17-significant-digit floats), so
byte equality is meaningful and golden files stay stable.
"""

from __future__ import annotations

from typing import Mapping

from . import __version__
from .criteria import (
    CriterionVerdict,
    RefusalError,
    crit_cont_switch_check,
    crit_equiv_check,
    det_kalman_check,
    nec1_check,
    nec2_check,
    suf1_check,
)
from .model import NotConstantError, SwitchSystem, as_constant, canonical_json, system_digest
from .subspace import DEFAULT_RANK_TOL, Subspace

SCHEMA_VERSION = 2

#: Criteria that certify failure (left) and success (right) of
#: approximate null-controllability, in deciding order.
NECESSARY_ORDER = ("nec1", "nec2", "crit_equiv", "crit_cont_switch")
SUFFICIENT_ORDER = ("crit_equiv", "crit_cont_switch", "suf1")


def subspace_dict(sub: Subspace) -> dict:
    return {"dim": sub.dim, "basis": sub.canonical_basis().T}


def verdict_dict(v: CriterionVerdict) -> dict:
    per_mode = {}
    for mode_id, mv in v.per_mode.items():
        chain = [subspace_dict(s) for s in mv.chain]
        per_mode[mode_id] = {
            "pass": mv.passed,
            "witness": chain[-1],  # the witness is the chain's last entry
            "chain_dims": [s.dim for s in mv.chain],
            "chain": chain,
        }
    out = {"name": v.name, "overall": v.overall, "per_mode": per_mode}
    if v.details:
        out["details"] = {k: v.details[k] for k in sorted(v.details)}
    return out


def run_criteria(system: SwitchSystem, rank_tol: float = DEFAULT_RANK_TOL):
    """All applicable criteria plus the reasons the conditional ones were skipped."""
    verdicts = {
        "nec1": nec1_check(system, rank_tol),
        "nec2": nec2_check(system, rank_tol),
        "suf1": suf1_check(system, rank_tol),
        "det_kalman": det_kalman_check(system, rank_tol),
    }
    applicability = {}
    try:
        verdicts["crit_equiv"] = crit_equiv_check(as_constant(system), rank_tol)
        applicability["crit_equiv"] = "ok"
    except NotConstantError as exc:
        applicability["crit_equiv"] = f"not-constant: {exc}"
    try:
        verdicts["crit_cont_switch"] = crit_cont_switch_check(system, rank_tol)
        applicability["crit_cont_switch"] = "ok"
    except RefusalError as exc:
        applicability["crit_cont_switch"] = str(exc)
    return verdicts, applicability


def overall_verdict(verdicts: Mapping[str, CriterionVerdict]):
    """Three-valued conclusion with the deciding criterion.

    ``no`` when any necessary criterion fails, else ``yes`` when any
    sufficient criterion passes, else ``undetermined`` (the general gap
    between the necessary and sufficient families is real; a binary answer
    would overclaim).  The informational deterministic check never decides.
    """
    for name in NECESSARY_ORDER:
        if name in verdicts and not verdicts[name].overall:
            return "no", name
    for name in SUFFICIENT_ORDER:
        if name in verdicts and verdicts[name].overall:
            return "yes", name
    return "undetermined", None


EXIT_FOR_VERDICT = {"yes": 0, "no": 2, "undetermined": 3}

CRITERIA_REPORT_ORDER = ("nec1", "nec2", "suf1", "crit_equiv",
                         "crit_cont_switch", "det_kalman")


def check_report(system: SwitchSystem, rank_tol: float = DEFAULT_RANK_TOL,
                 seed: int = 0) -> dict:
    verdicts, applicability = run_criteria(system, rank_tol)
    verdict, decided_by = overall_verdict(verdicts)
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "system_digest": system_digest(system),
        "rank_tol": float(rank_tol),
        "seed": int(seed),
        "overall": {"verdict": verdict, "decided_by": decided_by},
        "applicability": {k: applicability[k] for k in sorted(applicability)},
        "criteria": [verdict_dict(verdicts[name])
                     for name in CRITERIA_REPORT_ORDER if name in verdicts],
    }


def report_bytes(report: dict) -> bytes:
    return canonical_json(report)
