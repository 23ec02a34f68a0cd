"""Built-in example systems used by the verification command and the tests.

All five are bimodal systems on a two-point mode set with unit jump
intensities and deterministic switching (each mode jumps to the other).
The first four are the canonical counterexamples separating the algebraic
criteria from each other; the fifth is a continuous-switching system with
full-rank input used for the minimal-energy null-control bound study.
"""

from __future__ import annotations

import numpy as np

from .model import Mode, SwitchSystem

def _bimodal(n, d, A0, A1, B0, C01, C10, rate=1.0):
    embed = (np.array([0.0]), np.array([1.0]))
    modes = (
        Mode(id="0", embedding=embed[0], rate=rate, A=np.asarray(A0, float),
             B0=np.asarray(B0, float)),
        Mode(id="1", embedding=embed[1], rate=rate, A=np.asarray(A1, float),
             B0=np.asarray(B0, float)),
    )
    C = {}
    if C01 is not None:
        C[(0, 1)] = np.asarray(C01, float)
    if C10 is not None:
        C[(1, 0)] = np.asarray(C10, float)
    return SwitchSystem(
        n=n, d=d, m=1, beta=np.zeros(1), modes=modes,
        Q=np.array([[0.0, 1.0], [1.0, 0.0]]), C=C,
    )


def nec1_not_det() -> SwitchSystem:
    """Zero drift, rank-one input, symmetric half jumps.

    The single-mode invariance test passes in both modes, yet the second
    state component is a martingale mean, so the system cannot be steered
    to zero; the associated deterministic pair (A, B0) is uncontrollable.
    """
    C = [[0.0, 0.5], [0.5, 0.0]]
    return _bimodal(2, 1, np.zeros((2, 2)), np.zeros((2, 2)),
                    [[1.0], [0.0]], C, C)


def nec1_det_not_nec2() -> SwitchSystem:
    """Swap drift, rank-one input, symmetric half jumps.

    Both the single-mode invariance test and the deterministic Kalman test
    pass, but the strictly-invariant chain stalls at span(e2): the dual
    admits an explicit kernel-valued solution, so null-control fails.
    """
    A = [[0.0, 1.0], [1.0, 0.0]]
    C = [[0.0, 0.5], [0.5, 0.0]]
    return _bimodal(2, 1, A, A, [[1.0], [0.0]], C, C)


def nec2_det_not_nec1() -> SwitchSystem:
    """Three-dimensional two-mode system with mode-dependent shift drifts.

    The strictly-invariant chain collapses to zero once both modes are
    accessible, but each mode's compensated drift leaves a line inside
    ker(B0*) invariant, so the single-mode necessary test fails.
    """
    A0 = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    A1 = [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
    C01 = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    C10 = [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]
    return _bimodal(3, 1, A0, A1, [[1.0], [0.0], [0.0]], C01, C10)


def ctrl_not_suf1() -> SwitchSystem:
    """Constant-coefficient shift system whose jumps only touch the first axis.

    The constant-coefficient equivalence criterion certifies approximate
    controllability, yet the single-mode sufficient test fails because its
    augmented image term resurrects span(e3).
    """
    A = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    C = [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    return _bimodal(3, 1, A, A, [[1.0], [0.0], [0.0]], C, C)


def cont_switch_bound() -> SwitchSystem:
    """Continuous switching between a swap drift and a saddle, full-rank input.

    No state jumps (C = 0), both drifts are self-adjoint and the input
    Gramian factor is the identity, so the commuting hypothesis behind the
    minimal-energy excursion bound holds with a0 = c0 = 1.
    """
    A0 = [[0.0, 1.0], [1.0, 0.0]]
    A1 = [[1.0, 0.0], [0.0, -1.0]]
    Z = np.zeros((2, 2))
    return _bimodal(2, 2, A0, A1, np.eye(2), Z, Z)


_BUILDERS = {
    "nec1-not-det": nec1_not_det,
    "nec1-det-not-nec2": nec1_det_not_nec2,
    "nec2-det-not-nec1": nec2_det_not_nec1,
    "ctrl-not-suf1": ctrl_not_suf1,
    "cont-switch-bound": cont_switch_bound,
}

#: Registry names of the built-in systems, in registry order.
FIXTURE_NAMES = tuple(_BUILDERS)


def example_system(name: str) -> SwitchSystem:
    """Look up a built-in system by its registry name."""
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise KeyError(
            f"unknown example {name!r}; known: {', '.join(FIXTURE_NAMES)}"
        ) from None
