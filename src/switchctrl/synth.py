"""Controllability Gramians and minimal-energy null-control synthesis.

The restart policy steers the state to the origin over a window ``T/N``
after every one of the first ``N`` jumps; on any realization where some
of those inter-jump gaps reaches ``T/N`` the steering completes and the
terminal state is exactly zero.  The mean-square terminal bound
``exp(2 a0 T) |x0|^2 (1 - exp(-c0 T / N))`` additionally needs the
commuting hypothesis (self-adjoint drifts commuting with ``B0 B0*``),
which is verified, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy.linalg import expm

from .criteria import RefusalError, crit_cont_switch_check
from .model import SwitchSystem
from .pdmp import ForwardSegment
from .subspace import DEFAULT_RANK_TOL


class SingularGramianError(RuntimeError):
    """The steering Gramian of a mode is numerically singular."""

    def __init__(self, mode_id: str, horizon: float, eigvals: np.ndarray):
        self.mode_id = mode_id
        self.horizon = horizon
        self.eigvals = eigvals
        super().__init__(
            f"gramian of mode {mode_id!r} at horizon {horizon:g} is singular "
            f"(eigenvalues {np.array2string(eigvals, precision=3)})"
        )


def gramian(A, B, t: float) -> np.ndarray:
    """Finite-horizon controllability Gramian of the pair (A, B).

    The convolution integral of ``e^{As} B B* e^{A*s}`` over ``[0, t]``,
    read off one block exponential (Van Loan 1978): the upper-right block
    of ``expm([[A, B B*], [0, -A*]] t)`` times the transpose of its
    upper-left block ``e^{At}``.  Symmetrized against round-off.
    """
    A = np.asarray(A, dtype=float)
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if t < 0:
        raise ValueError("t must be nonnegative")
    n = A.shape[0]
    M = np.block([[A, B @ B.T], [np.zeros((n, n)), -A.T]])
    E = expm(M * t)
    G = E[:n, n:] @ E[:n, :n].T
    return 0.5 * (G + G.T)


@dataclass(frozen=True)
class GramianFactor:
    """Eigendecomposition of a steering Gramian with its conditioning report."""

    mode_id: str
    horizon: float
    value: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray

    @property
    def condition(self) -> float:
        return float(self.eigvals[-1] / self.eigvals[0])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self.eigvecs @ ((self.eigvecs.T @ rhs) / self.eigvals)


def gramian_factor(system: SwitchSystem, mode_idx: int, horizon: float,
                   rank_tol: float = DEFAULT_RANK_TOL) -> GramianFactor:
    """Gramian of one mode, factored; raises when numerically singular."""
    mode = system.modes[mode_idx]
    G = gramian(mode.A, mode.B0, horizon)
    eigvals, eigvecs = np.linalg.eigh(G)
    if eigvals[0] <= rank_tol * max(eigvals[-1], 0.0) or eigvals[-1] <= 0.0:
        raise SingularGramianError(mode.id, horizon, eigvals)
    return GramianFactor(mode.id, horizon, G, eigvals, eigvecs)


@dataclass(frozen=True)
class MinEnergyControl:
    """Open-loop control steering one mode's dynamics from y to 0 in time h.

    Callable on elapsed time; zero after the horizon.  ``adjoint0`` seeds
    the adjoint representation ``u(t) = -exp(-b t) B0* z(t)``,
    ``z' = -A* z``, which is how the integrator consumes it.
    """

    mode_idx: int
    horizon: float
    y: np.ndarray
    B0: np.ndarray
    Astar: np.ndarray
    adjoint0: np.ndarray
    beta_rate: float

    def __call__(self, elapsed: float) -> np.ndarray:
        if elapsed > self.horizon:
            return np.zeros(self.B0.shape[1])
        z = expm(self.Astar * (-elapsed)) @ self.adjoint0
        return -math.exp(-self.beta_rate * elapsed) * (self.B0.T @ z)


def min_energy_control(system: SwitchSystem, mode_idx: int, y, horizon: float,
                       factor: GramianFactor | None = None,
                       rank_tol: float = DEFAULT_RANK_TOL) -> MinEnergyControl:
    """Minimal-energy steering control for one mode over ``[0, horizon]``.

    With no jumps, driving the mode's dynamics with this control brings
    ``|X(horizon)|`` below ``1e-8 |y|``; the Gramian must be invertible
    (equivalently, the pair (A, B0) controllable).
    """
    if factor is None:
        factor = gramian_factor(system, mode_idx, horizon, rank_tol)
    mode = system.modes[mode_idx]
    y = np.asarray(y, dtype=float).reshape(system.n)
    eAh = expm(mode.A * horizon)
    w = factor.solve(eAh @ y)
    z0 = expm(mode.A.T * horizon) @ w
    return MinEnergyControl(
        mode_idx=mode_idx,
        horizon=horizon,
        y=y,
        B0=mode.B0,
        Astar=mode.A.T,
        adjoint0=z0,
        beta_rate=system.beta_rate(mode_idx),
    )


def commuting_hypothesis(system: SwitchSystem, tol: float = 1e-10) -> bool:
    """Whether every drift is self-adjoint and commutes with B0 B0*.

    This is the verified precondition for the excursion bound
    ``|X_t| <= exp(a0 t) |x0|`` along steering segments and for the
    terminal mean-square bound; the restart policy itself only needs
    controllable pairs.
    """
    if system.b0_mode_varying():
        return False
    B = system.modes[0].B0
    BBt = B @ B.T
    scale = max(1.0, float(np.linalg.norm(BBt, 2)))
    for mode in system.modes:
        if np.max(np.abs(mode.A - mode.A.T)) > tol * max(1.0, system.a0):
            return False
        comm = mode.A @ BBt - BBt @ mode.A
        if np.max(np.abs(comm)) > tol * scale * max(1.0, system.a0):
            return False
    return True


# --------------------------------------------------------------------------
# forward control policies
# --------------------------------------------------------------------------


class ConstantPolicy:
    """Fixed control vector on every segment.

    Under input growth the forcing ``beta_factor e^{brate s} B0 u`` is the
    linear flow of a scalar ``z' = brate z``, ``z(0) = 1``, coupled into
    the state through ``beta_factor B0 u``; without growth ``z`` stays 1.
    """

    kind = "custom"

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def segment(self, system, seg_index, mode, x_start, beta_factor, b0_init):
        col = beta_factor * (b0_init @ self.u)
        return ForwardSegment(
            adjoint_gen=np.array([[system.beta_rate(mode)]]),
            adjoint0=np.ones(1),
            coupling=col.reshape(-1, 1),
        )


class MinEnergyRestartPolicy:
    """Restart the minimal-energy steering at each of the first N jumps.

    Segment ``k`` (zero-based, ``k < N``) applies the window-``T/N``
    steering control for the segment's mode from the segment's entry
    state, then switches off; later segments apply zero control.  On any
    realization where one of the first N inter-jump gaps reaches ``T/N``
    the state hits the origin and stays there.
    """

    kind = "min_energy"

    def __init__(self, system: SwitchSystem, N: int, T: float,
                 factors: Mapping[int, GramianFactor], commuting: bool):
        self.N = int(N)
        self.T = float(T)
        self.horizon = float(T) / int(N)
        self.factors = dict(factors)
        self.commuting = commuting
        self._expm_cache = {
            i: (expm(system.modes[i].A * self.horizon),
                expm(system.modes[i].A.T * self.horizon))
            for i in factors
        }

    def segment(self, system, seg_index, mode, x_start, beta_factor, b0_init):
        if seg_index >= self.N:
            return ForwardSegment()
        eAh, eAstarh = self._expm_cache[mode]
        w = self.factors[mode].solve(eAh @ np.asarray(x_start, dtype=float))
        z0 = eAstarh @ w
        B0 = system.modes[mode].B0
        return ForwardSegment(
            adjoint_gen=-system.modes[mode].A.T,
            adjoint0=z0,
            coupling=-beta_factor * (b0_init @ B0.T),
            active_until=self.horizon,
        )


def piecewise_null_policy(system: SwitchSystem, N: int, T: float,
                          rank_tol: float = DEFAULT_RANK_TOL) -> MinEnergyRestartPolicy:
    """Build the N-restart minimal-energy policy, or refuse.

    Refusals: nonzero jump matrices; a failing continuous-switching
    criterion (some pair (A, B0) uncontrollable, surfacing as a singular
    Gramian); or a mode-dependent input matrix, which the pinned input
    ``B_t = (...) B0(start)`` could never steer against.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    verdict = crit_cont_switch_check(system, rank_tol)  # refuses when C != 0
    if system.b0_mode_varying():
        raise RefusalError("B0-mode-varying",
                           "restart steering requires one shared input matrix")
    if not verdict.overall:
        failing = [mid for mid, v in verdict.per_mode.items() if not v.passed]
        raise RefusalError("criterion-failed",
                           f"uncontrollable modes: {', '.join(failing)}")
    horizon = float(T) / int(N)
    factors = {
        i: gramian_factor(system, i, horizon, rank_tol)
        for i in range(system.n_modes)
    }
    return MinEnergyRestartPolicy(system, N, T, factors,
                                  commuting_hypothesis(system))


def null_bound(system: SwitchSystem, x0, T: float, N: int) -> float:
    """Terminal mean-square bound for the N-restart policy."""
    x0 = np.asarray(x0, dtype=float)
    gap = float(T) / int(N)
    return math.exp(2.0 * system.a0 * T) * float(x0 @ x0) \
        * (1.0 - math.exp(-system.c0 * gap))
