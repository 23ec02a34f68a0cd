"""Assertion bundles reproducing the built-in examples end to end.

Each bundle re-derives the example's expected witnesses, chains, ranks,
and (where the example's argument is probabilistic) the matching Monte
Carlo or closed-form simulation checks.  The bundles back the
``verify-example`` command and the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fixtures
from .criteria import (
    det_kalman_check,
    crit_equiv_check,
    feedback_witness,
    nec1_check,
    nec2_check,
    strict_invariant_fixpoint,
    suf1_check,
)
from .mc import estimate_terminal, path_streams
from .model import as_constant
from .pdmp import (
    SIDE_PRE,
    FeedbackDualControl,
    ZeroPolicy,
    sample_mode_path,
    simulate_dual,
)
from .subspace import Subspace, kernel


@dataclass(frozen=True)
class Assertion:
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'}  {self.name}: {self.detail}"


def _span(*cols) -> Subspace:
    return Subspace.span_of(*(np.asarray(c, dtype=float) for c in cols))


def _check(out, name, ok, detail):
    out.append(Assertion(name, bool(ok), detail))


def verify_nec1_not_det(seed: int = 0) -> list[Assertion]:
    sys_ = fixtures.nec1_not_det()
    out: list[Assertion] = []
    v1 = nec1_check(sys_)
    _check(out, "nec1-both-modes", v1.overall,
           "compensated-drift invariance test passes in both modes")
    dk = det_kalman_check(sys_)
    _check(out, "deterministic-rank-one", dk.details["kalman_ranks"] == {"0": 1, "1": 1},
           f"kalman ranks {dk.details['kalman_ranks']} (pair uncontrollable)")
    v2 = nec2_check(sys_)
    _check(out, "null-control-refuted", not v2.overall,
           "strictly invariant chain keeps span(e2): not null-controllable")
    x0 = np.array([0.0, 1.0])
    est = estimate_terminal(sys_, x0, ZeroPolicy(), 1.0, 10_000, seed, 1e-3,
                            func=lambda xT: float(xT[1]))
    _check(out, "martingale-mean",
           abs(est.mean - x0[1]) <= 3.0 * est.std_error,
           f"second-component mean {est.mean:.5f} vs {x0[1]} "
           f"(3se = {3 * est.std_error:.5f}, 10^4 paths)")
    return out


def verify_nec1_det_not_nec2(seed: int = 0) -> list[Assertion]:
    sys_ = fixtures.nec1_det_not_nec2()
    out: list[Assertion] = []
    _check(out, "nec1-passes", nec1_check(sys_).overall,
           "compensated-drift invariance test passes")
    dk = det_kalman_check(sys_)
    _check(out, "deterministic-rank-two", dk.details["kalman_ranks"] == {"0": 2, "1": 2},
           f"kalman ranks {dk.details['kalman_ranks']}")
    v2 = nec2_check(sys_)
    e2 = _span([0.0, 1.0])
    wit_ok = (not v2.overall) and all(
        mv.witness.dim == 1 and mv.witness.distance(e2) <= 1e-9
        for mv in v2.per_mode.values())
    _check(out, "chain-limit-is-e2-line", wit_ok,
           "strictly invariant chain limit equals span(e2) (distance <= 1e-9)")

    wit = feedback_witness(sys_, 0)
    _check(out, "feedback-witness", wit is not None and wit.residual <= 1e-8,
           f"edge feedback residual {0.0 if wit is None else wit.residual:.2e}")

    ctrl = FeedbackDualControl(wit.F)
    worst = 0.0
    for rng in path_streams(seed, range(100)):
        path = sample_mode_path(sys_, 0, 1.0, rng)
        traj = simulate_dual(sys_, np.array([0.0, 1.0]), ctrl, path, 1e-4)
        jumps = path.jumps_before(traj.times, inclusive=traj.side != SIDE_PRE)
        ref = np.column_stack([np.zeros(traj.times.size),
                               (-1.0) ** jumps * np.exp(2.0 * traj.times)])
        worst = max(worst, float(np.max(np.abs(traj.states - ref))))
    _check(out, "dual-closed-form", worst <= 1e-6,
           f"flip-exponential dual matches within {worst:.2e} on 100 paths")
    return out


def verify_nec2_det_not_nec1(seed: int = 0) -> list[Assertion]:
    sys_ = fixtures.nec2_det_not_nec1()
    out: list[Assertion] = []
    e2 = _span([0.0, 1.0, 0.0])
    e3 = _span([0.0, 0.0, 1.0])
    seed_sub = kernel(sys_.modes[0].B0.T)
    w0, _ = strict_invariant_fixpoint([(sys_.modes[0].A.T, [sys_.C[(0, 1)].T])],
                                      seed_sub)
    w1, _ = strict_invariant_fixpoint([(sys_.modes[1].A.T, [sys_.C[(1, 0)].T])],
                                      seed_sub)
    _check(out, "strict-witness-mode-0", w0.isclose(e3), "single-mode witness span(e3)")
    _check(out, "strict-witness-mode-1", w1.isclose(e2), "single-mode witness span(e2)")
    v2 = nec2_check(sys_)
    _check(out, "chain-limit-trivial", v2.overall,
           "joint chain collapses to {0} once both modes are accessible")
    v1 = nec1_check(sys_)
    ok = (not v1.overall and v1.witness("0").isclose(e3)
          and v1.witness("1").isclose(e2))
    _check(out, "nec1-fails-with-line-witnesses", ok,
           "compensated-drift invariant lines survive in each mode")
    dk = det_kalman_check(sys_)
    _check(out, "deterministic-rank-three",
           dk.details["kalman_ranks"] == {"0": 3, "1": 3},
           f"kalman ranks {dk.details['kalman_ranks']}")
    return out


def verify_ctrl_not_suf1(seed: int = 0) -> list[Assertion]:
    sys_ = fixtures.ctrl_not_suf1()
    out: list[Assertion] = []
    eq = crit_equiv_check(as_constant(sys_))
    _check(out, "constant-equivalence-passes", eq.overall,
           "strict invariance collapses to {0}: approximately controllable")
    sf = suf1_check(sys_)
    e3 = _span([0.0, 0.0, 1.0])
    _check(out, "augmented-test-fails", not sf.overall and all(
        mv.witness.contains(e3) for mv in sf.per_mode.values()),
        "augmented-image witness contains span(e3)")
    return out


BUNDLES = {
    "nec1-not-det": verify_nec1_not_det,
    "nec1-det-not-nec2": verify_nec1_det_not_nec2,
    "nec2-det-not-nec1": verify_nec2_det_not_nec1,
    "ctrl-not-suf1": verify_ctrl_not_suf1,
}


def verify_example(name: str, seed: int = 0) -> list[Assertion]:
    try:
        bundle = BUNDLES[name]
    except KeyError:
        raise KeyError(f"unknown example {name!r}; known: {', '.join(BUNDLES)}") \
            from None
    return bundle(seed)
