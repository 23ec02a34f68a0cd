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

import numpy as np

from .criteria import RefusalError, crit_cont_switch_check
from .model import SwitchSystem, check_positive
from .pdmp import ForwardSegment, matvec
from .subspace import DEFAULT_RANK_TOL, rank_of


#: Pade-13 numerator coefficients, divided by the leading one so that the
#: exponential of zero is exactly I, and the 1-norm up to which the
#: approximant is accurate to double precision (Higham 2005, Table 2.3).
_PADE13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0))
_THETA13 = 5.371920351148152


def _expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential by Pade-13 scaling and squaring (Higham 2005,
    SIAM J. Matrix Anal. Appl. 26): ``A`` is halved ``s`` times until its
    1-norm is at most ``_THETA13``, the [13/13] Pade approximant is solved
    for, and the result is squared ``s`` times.  A matrix with a non-finite
    entry is a ``ValueError``."""
    A = np.asarray(A, dtype=float)
    if not np.isfinite(A).all():
        raise ValueError("expm needs a finite matrix")
    norm = float(np.linalg.norm(A, 1))
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    A = A / 2.0 ** s
    b = _PADE13
    eye = np.eye(A.shape[0])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


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
    upper-left block ``e^{At}``.  Symmetrized against round-off.  ``t``
    must be finite and nonnegative (``t = 0`` gives the zero Gramian);
    otherwise ``ValueError``.
    """
    A = np.asarray(A, dtype=float)
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if not (math.isfinite(t) and t >= 0):
        raise ValueError("t must be finite and nonnegative")
    n = A.shape[0]
    M = np.block([[A, B @ B.T], [np.zeros((n, n)), -A.T]])
    E = _expm(M * t)
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
        """``G^{-1} rhs`` for one right-hand side or a stack of them."""
        return matvec(self.eigvecs, matvec(self.eigvecs.T, rhs) / self.eigvals)


def gramian_factor(system: SwitchSystem, mode_idx: int, horizon: float,
                   rank_tol: float = DEFAULT_RANK_TOL) -> GramianFactor:
    """Gramian of one mode, factored; raises when numerically singular, that
    is when :func:`~switchctrl.subspace.rank_of` keeps fewer than ``n`` of
    its eigenvalues (always so when the largest is not positive)."""
    mode = system.modes[mode_idx]
    G = gramian(mode.A, mode.B0, horizon)
    eigvals, eigvecs = np.linalg.eigh(G)
    if rank_of(eigvals[::-1], rank_tol) < system.n:
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
        z = _expm(self.Astar * (-elapsed)) @ self.adjoint0
        return -math.exp(-self.beta_rate * elapsed) * (self.B0.T @ z)


def min_energy_control(system: SwitchSystem, mode_idx: int, y, horizon: float,
                       rank_tol: float = DEFAULT_RANK_TOL) -> MinEnergyControl:
    """Minimal-energy steering control for one mode over ``[0, horizon]``.

    With no jumps, driving the mode's dynamics with this control brings
    ``|X(horizon)|`` below ``1e-8 |y|``; the Gramian must be invertible
    (equivalently, the pair (A, B0) controllable).
    """
    mode = system.modes[mode_idx]
    y = np.asarray(y, dtype=float).reshape(system.n)
    eAh = _expm(mode.A * horizon)
    w = gramian_factor(system, mode_idx, horizon, rank_tol).solve(eAh @ y)
    z0 = _expm(mode.A.T * horizon) @ w
    return MinEnergyControl(
        mode_idx=mode_idx,
        horizon=horizon,
        y=y,
        B0=mode.B0,
        Astar=mode.A.T,
        adjoint0=z0,
        beta_rate=system.beta_rate(mode_idx),
    )


#: Relative tolerance of the symmetry and commutator tests below.
COMMUTING_TOL = 1e-10


def commuting_hypothesis(system: SwitchSystem) -> bool:
    """Whether every drift is self-adjoint and commutes with B0 B0*, up to
    ``COMMUTING_TOL`` relative to ``max(1, a0)`` (and ``|B0 B0*|``).

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
        if np.max(np.abs(mode.A - mode.A.T)) > COMMUTING_TOL * max(1.0, system.a0):
            return False
        comm = mode.A @ BBt - BBt @ mode.A
        if np.max(np.abs(comm)) > COMMUTING_TOL * scale * max(1.0, system.a0):
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
    An array ``beta_factor`` gives one segment per path of a batch.
    """

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def segment(self, system, seg_index, mode, x_start, beta_factor, b0_init):
        col = np.multiply.outer(beta_factor, b0_init @ self.u)
        return ForwardSegment(
            adjoint_gen=np.array([[system.beta_rate(mode)]]),
            adjoint0=np.ones(np.shape(beta_factor) + (1,)),
            coupling=col[..., None],
        )


class MinEnergyRestartPolicy:
    """Restart the minimal-energy steering at each of the first N jumps.

    Segment ``k`` (zero-based, ``k < N``) applies the window-``T/N``
    steering control for the segment's mode from the segment's entry
    state, then switches off; later segments apply zero control.  On any
    realization where one of the first N inter-jump gaps reaches ``T/N``
    the state hits the origin and stays there.  Entry states stacked along
    a leading axis (with one ``beta_factor`` each) give one segment per
    path of a batch.  The constructor factors each mode's window-``T/N``
    Gramian and sets ``commuting`` by :func:`commuting_hypothesis`; the
    refusals are :func:`piecewise_null_policy`'s.
    """

    def __init__(self, system: SwitchSystem, N: int, T: float,
                 rank_tol: float = DEFAULT_RANK_TOL):
        self.N = int(N)
        self.T = float(T)
        self.horizon = float(T) / int(N)
        self.factors, self._expm_cache = {}, {}
        for i, mode in enumerate(system.modes):
            self.factors[i] = gramian_factor(system, i, self.horizon, rank_tol)
            self._expm_cache[i] = (_expm(mode.A * self.horizon),
                                   _expm(mode.A.T * self.horizon))
        self.commuting = commuting_hypothesis(system)

    def segment(self, system, seg_index, mode, x_start, beta_factor, b0_init):
        if seg_index >= self.N:
            return ForwardSegment()
        eAh, eAstarh = self._expm_cache[mode]
        w = self.factors[mode].solve(matvec(eAh, np.asarray(x_start, dtype=float)))
        z0 = matvec(eAstarh, w)
        B0 = system.modes[mode].B0
        return ForwardSegment(
            adjoint_gen=-system.modes[mode].A.T,
            adjoint0=z0,
            coupling=np.multiply.outer(-np.asarray(beta_factor), b0_init @ B0.T),
            active_until=self.horizon,
        )


def piecewise_null_policy(system: SwitchSystem, N: int, T: float,
                          rank_tol: float = DEFAULT_RANK_TOL) -> MinEnergyRestartPolicy:
    """Build the N-restart minimal-energy policy, or refuse.

    Refusals: nonzero jump matrices; a failing continuous-switching
    criterion (some pair (A, B0) uncontrollable, surfacing as a singular
    Gramian); or a mode-dependent input matrix, which the pinned input
    ``B_t = (...) B0(start)`` could never steer against.  A horizon ``T``
    that is not positive and finite is a ``ValueError``.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    check_positive("T", T)
    verdict = crit_cont_switch_check(system, rank_tol)  # refuses when C != 0
    if system.b0_mode_varying():
        raise RefusalError("B0-mode-varying",
                           "restart steering requires one shared input matrix")
    if not verdict.overall:
        failing = [mid for mid, v in verdict.per_mode.items() if not v.passed]
        raise RefusalError("criterion-failed",
                           f"uncontrollable modes: {', '.join(failing)}")
    return MinEnergyRestartPolicy(system, N, T, rank_tol)


def null_bound(system: SwitchSystem, x0, T: float, N: int) -> float:
    """Terminal mean-square bound for the N-restart policy."""
    x0 = np.asarray(x0, dtype=float)
    gap = float(T) / int(N)
    return math.exp(2.0 * system.a0 * T) * float(x0 @ x0) \
        * (1.0 - math.exp(-system.c0 * gap))
