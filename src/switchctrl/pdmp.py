"""Jump-chain sampling and piecewise integration of the switch dynamics.

Between jumps the controlled state follows the compensated linear drift of
the current mode; at a jump with mark theta it moves by ``x -> x + C x``.
The dual state follows the negative adjoint drift loaded with the chosen
mark control and absorbs the control value at jumps.  Both integrators run
a classical fourth-order one-step scheme on a per-segment uniform grid
whose spacing never exceeds ``dt`` and whose endpoints are exactly the
jump times.

Linear-in-state controls (zero, minimal-energy, feedback) make each
segment an autonomous linear system, possibly after augmenting with an
adjoint variable; for those the one-step map is the degree-4 Taylor
polynomial of the segment generator, which is exactly what the classical
scheme produces on linear autonomous systems.  A recorded linear segment
of k steps is filled in one block by repeated squaring of the one-step
matrix (about log2(k) matrix products); an unrecorded one applies its k-th
power.  General callable controls fall back to stage evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .model import SwitchSystem


# --------------------------------------------------------------------------
# mode paths
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ModePath:
    """One realization of the jump chain on [0, t_end].

    ``modes`` has one more entry than ``jump_times``: the initial mode
    followed by the post-jump modes in order.
    """

    t_end: float
    jump_times: np.ndarray
    modes: tuple[int, ...]

    def __post_init__(self):
        times = np.array(self.jump_times, dtype=float)
        times.setflags(write=False)
        object.__setattr__(self, "jump_times", times)
        object.__setattr__(self, "modes", tuple(int(m) for m in self.modes))
        if len(self.modes) != len(times) + 1:
            raise ValueError("need exactly one more mode than jump times")
        if times.size:
            if times[0] <= 0 or np.any(np.diff(times) <= 0) or times[-1] > self.t_end:
                raise ValueError("jump times must be strictly increasing in (0, t_end]")
        for a, b in zip(self.modes, self.modes[1:]):
            if a == b:
                raise ValueError("consecutive modes must differ")

    @property
    def n_jumps(self) -> int:
        return int(self.jump_times.size)

    def segments(self) -> Iterator[tuple[float, float, int, int | None]]:
        """Yield (t_start, t_end, mode, next_mode); next_mode is None on the last."""
        bounds = [0.0, *self.jump_times.tolist(), self.t_end]
        for i, mode in enumerate(self.modes):
            nxt = self.modes[i + 1] if i < len(self.modes) - 1 else None
            yield bounds[i], bounds[i + 1], mode, nxt

    def jumps_before(self, t, inclusive=True):
        """Number of jumps at or before ``t`` (strictly before it when not
        ``inclusive``).  ``t`` and ``inclusive`` may be arrays, which
        broadcast; a scalar call returns an ``int``."""
        counts = np.where(inclusive,
                          np.searchsorted(self.jump_times, t, side="right"),
                          np.searchsorted(self.jump_times, t, side="left"))
        return int(counts) if counts.ndim == 0 else counts


def sample_mode_path(system: SwitchSystem, start: int, t_end: float,
                     rng: np.random.Generator) -> ModePath:
    """Draw a jump chain: exponential holding times, transitions from Q rows.

    A zero-rate mode is absorbing.  Reproducible: the draw sequence is one
    exponential plus one uniform per jump, in order.
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    t = 0.0
    mode = int(start)
    times: list[float] = []
    modes = [mode]
    while True:
        rate = system.modes[mode].rate
        if rate <= 0.0:
            break
        t += rng.exponential(1.0 / rate)
        if t > t_end:
            break
        row = np.cumsum(system.Q[mode])
        # scale the uniform by the actual row mass so rounding in the row sum
        # can never push the index past the last positive entry
        mode = int(np.searchsorted(row, rng.random() * row[-1], side="right"))
        times.append(t)
        modes.append(mode)
    return ModePath(t_end, np.array(times), tuple(modes))


def effective_drift(system: SwitchSystem, i: int) -> np.ndarray:
    """Between-jump drift of mode i: A minus the jump compensator."""
    A = np.array(system.modes[i].A)
    for j in system.support(i):
        A -= system.edge_weight(i, j) * system.C[(i, j)]
    return A


# --------------------------------------------------------------------------
# trajectories
# --------------------------------------------------------------------------

SIDE_INTERIOR = 0
SIDE_PRE = 1
SIDE_POST = 2

_SIDE_LABEL = {SIDE_INTERIOR: "", SIDE_PRE: "pre", SIDE_POST: "post"}


@dataclass(frozen=True)
class Trajectory:
    """Recorded path: times, states, governing mode, and jump bookkeeping.

    Jump times appear twice, once with ``side == SIDE_PRE`` holding the left
    limit and once with ``side == SIDE_POST`` holding the post-jump value.
    """

    times: np.ndarray
    states: np.ndarray
    mode_idx: np.ndarray
    side: np.ndarray
    mode_ids: tuple[str, ...]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def to_csv(self, fh) -> None:
        n = self.states.shape[1]
        header = "t,mode," + ",".join(f"x{i + 1}" for i in range(n)) + ",side"
        fh.write(header + "\n")
        for t, x, m, s in zip(self.times, self.states, self.mode_idx, self.side):
            cells = [format(t, ".16e"), self.mode_ids[int(m)]]
            cells += [format(v, ".16e") for v in x]
            cells.append(_SIDE_LABEL[int(s)])
            fh.write(",".join(cells) + "\n")


class _Recorder:
    """Collects recorded points as blocks; ``build`` concatenates them."""

    def __init__(self, enabled: bool, n_state: int):
        self.enabled = enabled
        self.n_state = n_state
        self.times: list[np.ndarray] = []
        self.states: list[np.ndarray] = []
        self.mode_idx: list[int] = []
        self.side: list[int] = []
        self.counts: list[int] = []

    def add(self, t, mode, x, side=SIDE_INTERIOR):
        """Record one point (start, jump pre/post, or end of a path)."""
        if self.enabled:
            self.add_block(np.array([float(t)]), mode, np.array(x, ndmin=2),
                           side)

    def add_block(self, times, mode, states, side=SIDE_INTERIOR):
        """Record the rows of ``states`` at ``times``, all under one mode."""
        if self.enabled:
            self.times.append(times)
            self.states.append(states[:, : self.n_state])
            self.mode_idx.append(int(mode))
            self.side.append(side)
            self.counts.append(times.size)

    def build(self, mode_ids) -> Trajectory:
        return Trajectory(
            times=np.concatenate(self.times),
            states=np.concatenate(self.states),
            mode_idx=np.repeat(np.array(self.mode_idx, dtype=int), self.counts),
            side=np.repeat(np.array(self.side, dtype=np.int8), self.counts),
            mode_ids=tuple(mode_ids),
        )


# --------------------------------------------------------------------------
# one-step integration cores
# --------------------------------------------------------------------------


def _taylor4(G: np.ndarray, h: float) -> np.ndarray:
    """One-step matrix of the classical RK4 scheme on ``x' = G x``."""
    Gh = G * h
    P = np.eye(G.shape[0]) + Gh
    term = Gh
    for k in (2.0, 3.0, 4.0):
        term = term @ Gh / k
        P = P + term
    return P


def _steps_for(length: float, dt: float) -> int:
    return max(1, int(math.ceil(length / dt - 1e-12)))


def _advance_linear(state, G, t0, length, dt, rec, mode):
    """Propagate ``state' = G state`` over ``length``; record interior points.

    Recorded, the rows ``P^i state`` for i = 1..k are filled by doubling:
    ``rows[s:2s] = rows[:s] @ (P^T)^s`` with ``P^T`` squared each round,
    about log2(k) matrix products per segment.
    """
    if length <= 0.0:
        return state
    k = _steps_for(length, dt)
    h = length / k
    P = _taylor4(G, h)
    if rec is not None and rec.enabled:
        rows = np.empty((k, state.shape[0]))
        rows[0] = P @ state
        step = P.T
        done = 1
        while done < k:
            more = min(done, k - done)
            rows[done:done + more] = rows[:more] @ step
            done += more
            if done < k:
                step = step @ step
        if k > 1:
            rec.add_block(t0 + np.arange(1, k) * h, mode, rows[:-1])
        return rows[-1]
    if k == 1:
        return P @ state
    return np.linalg.matrix_power(P, k) @ state


def _rk4_step(f, t, x, h):
    k1 = f(t, x)
    k2 = f(t + 0.5 * h, x + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, x + 0.5 * h * k2)
    k4 = f(t + h, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _advance_rk4(f, x, t0, length, dt, rec, mode):
    """Classical RK4 with stage-evaluated right-hand side ``f(elapsed, x)``."""
    if length <= 0.0:
        return x
    k = _steps_for(length, dt)
    h = length / k
    interior = np.empty((k - 1, x.shape[0])) if rec is not None else None
    for i in range(k):
        x = _rk4_step(f, i * h, x, h)
        if interior is not None and i < k - 1:
            interior[i] = x
    if interior is not None and k > 1:
        rec.add_block(t0 + np.arange(1, k) * h, mode, interior)
    return x


# --------------------------------------------------------------------------
# forward simulation
# --------------------------------------------------------------------------


@dataclass
class ForwardSegment:
    """What a control policy provides for one inter-jump segment.

    Exactly one of three shapes:

    * everything ``None``: zero control;
    * ``adjoint_gen/adjoint0/coupling`` set: the control is linear in an
      adjoint variable ``z`` with ``z' = adjoint_gen z`` and contributes
      ``coupling @ z`` to the state drift (``coupling`` already contains
      every input-matrix factor), switched off after ``active_until``;
    * ``ufunc`` set: a raw control value per elapsed time, combined with
      the input matrix by the integrator.
    """

    ufunc: Callable[[float], np.ndarray] | None = None
    adjoint_gen: np.ndarray | None = None
    adjoint0: np.ndarray | None = None
    coupling: np.ndarray | None = None
    active_until: float = math.inf


class ZeroPolicy:
    """No control; the state follows the compensated drift and the jumps."""

    kind = "zero"

    def segment(self, system, seg_index, mode, x_start, beta_factor, b0_init):
        return ForwardSegment()


def simulate_forward(system: SwitchSystem, x0, policy, path: ModePath,
                     dt: float, record: bool = True):
    """Integrate the controlled state along a fixed mode path.

    Returns a :class:`Trajectory` when ``record`` is true, otherwise the
    terminal state only.  Both run the same one-step maps; the linear
    segments associate the matrix products differently (doubling when
    recorded, a matrix power when not), so the terminal states agree to
    rounding.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = system.n
    x = np.array(x0, dtype=float).reshape(n)
    b0_init = system.modes[path.modes[0]].B0
    rec = _Recorder(record, n)
    rec.add(0.0, path.modes[0], x)
    beta_accum = 0.0
    for seg_index, (t0, t1, mode, nxt) in enumerate(path.segments()):
        length = t1 - t0
        beta_factor = math.exp(beta_accum)
        seg = policy.segment(system, seg_index, mode, x, beta_factor, b0_init)
        drift = effective_drift(system, mode)
        brate = system.beta_rate(mode)
        x = _forward_segment(x, seg, drift, b0_init, brate, beta_factor,
                             t0, length, dt, rec if record else None, mode, n)
        if nxt is not None:
            rec.add(t1, mode, x, SIDE_PRE)
            x = x + system.C[(mode, nxt)] @ x
            rec.add(t1, nxt, x, SIDE_POST)
        else:
            rec.add(t1, mode, x)
        beta_accum += brate * length
    if record:
        return rec.build(system.mode_ids)
    return x


def _forward_segment(x, seg: ForwardSegment, drift, b0_init, brate,
                     beta_factor, t0, length, dt, rec, mode, n):
    if length <= 0.0:
        return x
    if seg.ufunc is not None:
        def f(elapsed, state):
            scale = beta_factor * math.exp(brate * elapsed)
            return drift @ state + scale * (b0_init @ seg.ufunc(elapsed))

        return _advance_rk4(f, x, t0, length, dt, rec, mode)
    if seg.coupling is None:
        return _advance_linear(x, drift, t0, length, dt, rec, mode)

    z = np.asarray(seg.adjoint0, dtype=float)
    m = z.shape[0]
    G = np.zeros((n + m, n + m))
    G[:n, :n] = drift
    G[:n, n:] = seg.coupling
    G[n:, n:] = seg.adjoint_gen
    state = np.concatenate([x, z])
    cut = min(seg.active_until, length)
    if cut > 0.0:
        state = _advance_linear(state, G, t0, cut, dt, rec, mode)
    x = state[:n]
    if cut < length:
        if rec is not None:
            rec.add(t0 + cut, mode, x)
        x = _advance_linear(x, drift, t0 + cut, length - cut, dt, rec, mode)
    return x


# --------------------------------------------------------------------------
# dual simulation
# --------------------------------------------------------------------------


@dataclass
class DualSegment:
    """Per-segment shape of a dual control.

    ``gen`` is the full closed-loop generator when the control is linear in
    the dual state; otherwise ``vfunc(mark, elapsed)`` gives the control
    value and the integrator assembles the drift.
    """

    gen: np.ndarray | None = None
    vfunc: Callable[[int, float], np.ndarray] | None = None


class ZeroDualControl:
    """v = 0: the dual follows the negative adjoint drift and never jumps."""

    kind = "zero"

    def segment(self, system, seg_index, mode, y_start):
        return DualSegment(gen=-system.modes[mode].A.T)

    def jump_value(self, system, seg_index, mode, theta, elapsed, y_pre):
        return np.zeros(system.n)


class FeedbackDualControl:
    """Mark control ``v(theta) = F[(mode, theta)] Y`` for fixed edge matrices.

    With the matrices produced by the feedback-witness synthesis this
    keeps the dual state inside the witness subspace along every path.
    Edges without a matrix fall back to zero.
    """

    kind = "feedback_witness_dual"

    def __init__(self, F):
        self.F = dict(F)

    def _edge(self, system, mode, theta):
        return self.F.get((mode, theta))

    def segment(self, system, seg_index, mode, y_start):
        n = system.n
        gen = -np.array(system.modes[mode].A.T)
        eye = np.eye(n)
        for theta in system.support(mode):
            Fm = self._edge(system, mode, theta)
            if Fm is not None:
                w = system.edge_weight(mode, theta)
                gen -= w * (system.C[(mode, theta)].T + eye) @ Fm
        return DualSegment(gen=gen)

    def jump_value(self, system, seg_index, mode, theta, elapsed, y_pre):
        Fm = self._edge(system, mode, theta)
        if Fm is None:
            return np.zeros(system.n)
        return Fm @ y_pre


class FunctionDualControl:
    """General dual control from a per-segment factory.

    ``factory(seg_index, mode, y_start)`` returns a callable
    ``v(mark, elapsed)``; the same callable feeds the drift and the jump.
    """

    kind = "custom"

    def __init__(self, factory):
        self.factory = factory
        self._current = {}

    def segment(self, system, seg_index, mode, y_start):
        v = self.factory(seg_index, mode, y_start)
        self._current[seg_index] = v
        return DualSegment(vfunc=v)

    def jump_value(self, system, seg_index, mode, theta, elapsed, y_pre):
        v = self._current.pop(seg_index)
        return np.asarray(v(theta, elapsed), dtype=float)


def simulate_dual(system: SwitchSystem, y0, control, path: ModePath,
                  dt: float, record: bool = True):
    """Integrate the dual state along a fixed mode path.

    Between jumps the drift is the negative adjoint drift minus the
    weighted, identity-augmented adjoint jump matrices applied to the
    control values; at a jump with mark theta the control value is added
    to the state.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = system.n
    y = np.array(y0, dtype=float).reshape(n)
    rec = _Recorder(record, n)
    rec.add(0.0, path.modes[0], y)
    for seg_index, (t0, t1, mode, nxt) in enumerate(path.segments()):
        length = t1 - t0
        seg = control.segment(system, seg_index, mode, y)
        if seg.gen is not None:
            y = _advance_linear(y, seg.gen, t0, length, dt,
                                rec if record else None, mode)
        else:
            astar = system.modes[mode].A.T
            loads = [(theta, system.edge_weight(mode, theta)
                      * (system.C[(mode, theta)].T + np.eye(n)))
                     for theta in system.support(mode)]

            def f(elapsed, state):
                out = -astar @ state
                for theta, w_mat in loads:
                    out = out - w_mat @ seg.vfunc(theta, elapsed)
                return out

            y = _advance_rk4(f, y, t0, length, dt, rec if record else None, mode)
        if nxt is not None:
            rec.add(t1, mode, y, SIDE_PRE)
            y = y + control.jump_value(system, seg_index, mode, nxt, t1 - t0, y)
            rec.add(t1, nxt, y, SIDE_POST)
        else:
            rec.add(t1, mode, y)
    if record:
        return rec.build(system.mode_ids)
    return y
