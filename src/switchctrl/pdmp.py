"""Jump-chain sampling and piecewise integration of the switch dynamics.

Between jumps the controlled state follows the compensated linear drift of
the current mode; at a jump with mark theta it moves by ``x -> x + C x``.
The dual state follows the negative adjoint drift loaded with the chosen
mark control and absorbs the control value at jumps.  Both integrators run
a classical fourth-order one-step scheme on a per-segment uniform grid
whose spacing never exceeds ``dt`` and whose endpoints are exactly the
jump times.

Every control the integrators accept makes each segment an autonomous
linear system, possibly after augmenting with an adjoint variable (the
minimal-energy adjoint, or the scalar ``z' = brate z`` that carries a
constant control through input growth).  The one-step map is therefore the
degree-4 Taylor polynomial of the segment generator, which is exactly what
the classical scheme produces on linear autonomous systems.  A recorded
segment of k steps is filled in one block by repeated squaring of the
one-step matrix (about log2(k) matrix products); an unrecorded one applies
its k-th power.

``simulate_forward_batch`` gives the terminal states of a whole batch of
jump chains (``sample_jump_chains``) at once.  It walks the segment index
across the batch and advances each mode's paths with stacked one-step
matrices, stacked powers and stacked matrix-vector products that repeat
the per-path arithmetic of ``simulate_forward`` product for product, so a
path's terminal state is bit-identical to the per-path one whatever batch
it is propagated in: batching never changes the sample set.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .model import SwitchSystem, check_positive, format_float


# --------------------------------------------------------------------------
# mode paths
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ModePath:
    """One realization of the jump chain on [0, t_end].

    ``modes`` has one more entry than ``jump_times``: the initial mode
    followed by the post-jump modes in order.  ``t_end`` must be positive
    and finite.
    """

    t_end: float
    jump_times: np.ndarray
    modes: tuple[int, ...]

    def __post_init__(self):
        check_positive("t_end", self.t_end)
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


def _chain_tables(system: SwitchSystem):
    """Per-mode jump rates and cumulative Q rows, the inputs of ``_jump_chain``."""
    rates = [mode.rate for mode in system.modes]
    rows = [np.cumsum(row).tolist() for row in system.Q]
    return rates, rows


def _jump_chain(rates, rows, start: int, t_end: float, rng):
    """Jump times and modes of one chain drawn from ``rng``."""
    t = 0.0
    mode = int(start)
    times: list[float] = []
    modes = [mode]
    while True:
        rate = rates[mode]
        if rate <= 0.0:
            break
        t += rng.exponential(1.0 / rate)
        if t > t_end:
            break
        row = rows[mode]
        # scale the uniform by the actual row mass so rounding in the row sum
        # can never push the index past the last positive entry
        mode = bisect.bisect_right(row, rng.random() * row[-1])
        times.append(t)
        modes.append(mode)
    return times, modes


def sample_mode_path(system: SwitchSystem, start: int, t_end: float,
                     rng: np.random.Generator) -> ModePath:
    """Draw a jump chain: exponential holding times, transitions from Q rows.

    A zero-rate mode is absorbing.  Reproducible: the draw sequence is one
    exponential plus one uniform per jump, in order.
    """
    check_positive("t_end", t_end)
    times, modes = _jump_chain(*_chain_tables(system), start, t_end, rng)
    return ModePath(t_end, np.array(times), tuple(modes))


@dataclass(frozen=True)
class ChainBatch:
    """Jump chains of a batch of paths on [0, t_end], all from one mode.

    Row ``p`` holds path ``p``: ``modes[p]`` its modes and ``bounds[p]`` its
    segment bounds (0, the jump times, ``t_end``), padded to the longest
    path with -1 and ``t_end`` respectively.
    """

    bounds: np.ndarray
    modes: np.ndarray


def sample_jump_chains(system: SwitchSystem, start: int, t_end: float,
                       rngs) -> ChainBatch:
    """One jump chain per generator that ``rngs`` yields, drawn in turn
    exactly as ``sample_mode_path`` draws it."""
    check_positive("t_end", t_end)
    rates, rows = _chain_tables(system)
    chains = [_jump_chain(rates, rows, start, t_end, rng) for rng in rngs]
    width = max(len(modes) for _, modes in chains)
    bounds = np.full((len(chains), width + 1), float(t_end))
    bounds[:, 0] = 0.0
    modes = np.full((len(chains), width), -1)
    for p, (times, path_modes) in enumerate(chains):
        bounds[p, 1:len(path_modes)] = times
        modes[p, :len(path_modes)] = path_modes
    return ChainBatch(bounds, modes)


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
        for t, x, m, s in zip(self.times.tolist(), self.states.tolist(),
                              self.mode_idx.tolist(), self.side.tolist()):
            cells = [format_float(t), self.mode_ids[m], *map(format_float, x),
                     _SIDE_LABEL[s]]
            fh.write(",".join(cells) + "\n")


class _Recorder:
    """Collects recorded points as blocks; ``build`` concatenates them."""

    def __init__(self, n_state: int):
        self.n_state = n_state
        self.times: list[np.ndarray] = []
        self.states: list[np.ndarray] = []
        self.mode_idx: list[int] = []
        self.side: list[int] = []
        self.counts: list[int] = []

    def add(self, t, mode, x, side=SIDE_INTERIOR):
        """Record one point (start, jump pre/post, or end of a path)."""
        self.add_block(np.array([float(t)]), mode, np.array(x, ndmin=2), side)

    def add_block(self, times, mode, states, side=SIDE_INTERIOR):
        """Record the rows of ``states`` at ``times``, all under one mode."""
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


def matvec(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``M @ x`` for every vector ``x`` along the last axis of ``X``; ``M`` is
    one matrix or a stack.  Each product is the one ``M @ x`` computes."""
    return (M @ X[..., None])[..., 0]


def _taylor4(G: np.ndarray, h) -> np.ndarray:
    """One-step matrix of the classical RK4 scheme on ``x' = G x``; with an
    array ``h`` one matrix per step (``G`` one matrix or a stack)."""
    Gh = G * np.asarray(h)[..., None, None]
    P = np.eye(G.shape[-1]) + Gh
    term = Gh
    for k in (2.0, 3.0, 4.0):
        term = term @ Gh / k
        P = P + term
    return P


def _steps_for(length: float, dt: float) -> int:
    return max(1, int(math.ceil(length / dt - 1e-12)))


def _matrix_powers(P: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``P[i]`` to the power ``k[i]`` (k >= 1) for a stack, with the products
    of ``np.linalg.matrix_power`` in its order: its shortcut ``(P P) P`` for
    k = 3, otherwise its binary powers from the lowest bit, the squarings
    masked to the powers that still have bits left."""
    out = np.empty_like(P)
    three = k == 3
    if three.any():
        Q = P[three]
        out[three] = (Q @ Q) @ Q
    idx = np.flatnonzero(~three)
    if idx.size == 0:
        return out
    z = P[idx]
    result = np.empty_like(z)
    have = np.zeros(idx.size, dtype=bool)
    rem = k[idx]
    while True:
        bit = (rem & 1).astype(bool)
        first = bit & ~have
        result[first] = z[first]
        more = bit & have
        if more.any():
            result[more] = result[more] @ z[more]
        have |= bit
        rem = rem >> 1
        alive = rem > 0
        if not alive.any():
            break
        za = z[alive]
        z[alive] = za @ za
    out[idx] = result
    return out


def _advance_batch(X: np.ndarray, G: np.ndarray, length: np.ndarray, dt):
    """Row ``p`` of ``X`` advanced by ``x' = G x`` (``G`` shared or stacked)
    over ``length[p]``, as ``_advance_linear`` advances it unrecorded; rows
    with ``length <= 0`` stay."""
    live = np.flatnonzero(length > 0.0)
    if live.size == 0:
        return X
    span = length[live]
    k = np.maximum(1, np.ceil(span / dt - 1e-12)).astype(np.int64)
    P = _taylor4(G if G.ndim == 2 else G[live], span / k)
    out = X.copy()
    out[live] = matvec(_matrix_powers(P, k), X[live])
    return out


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
    if rec is not None:
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
    return np.linalg.matrix_power(P, k) @ state


# --------------------------------------------------------------------------
# forward simulation
# --------------------------------------------------------------------------


@dataclass
class ForwardSegment:
    """What a control policy provides for one inter-jump segment.

    For a batch of paths (``x_start`` with a leading batch axis),
    ``adjoint0`` and ``coupling`` carry the same leading axis.

    Exactly one of two shapes:

    * everything ``None``: zero control;
    * ``adjoint_gen/adjoint0/coupling`` set: the control is linear in an
      adjoint variable ``z`` with ``z' = adjoint_gen z`` and contributes
      ``coupling @ z`` to the state drift (``coupling`` already contains
      every input-matrix factor), switched off after ``active_until``.
    """

    adjoint_gen: np.ndarray | None = None
    adjoint0: np.ndarray | None = None
    coupling: np.ndarray | None = None
    active_until: float = math.inf


class ZeroPolicy:
    """No control; the state follows the compensated drift and the jumps."""

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
    check_positive("dt", dt)
    n = system.n
    x = np.array(x0, dtype=float).reshape(n)
    b0_init = system.modes[path.modes[0]].B0
    rec = _Recorder(n) if record else None
    if rec is not None:
        rec.add(0.0, path.modes[0], x)
    beta_accum = 0.0
    drifts: dict[int, np.ndarray] = {}
    for seg_index, (t0, t1, mode, nxt) in enumerate(path.segments()):
        length = t1 - t0
        beta_factor = math.exp(beta_accum)
        seg = policy.segment(system, seg_index, mode, x, beta_factor, b0_init)
        if mode not in drifts:
            drifts[mode] = effective_drift(system, mode)
        drift = drifts[mode]
        x = _forward_segment(x, seg, drift, t0, length, dt, rec, mode, n)
        if rec is not None:
            rec.add(t1, mode, x, SIDE_INTERIOR if nxt is None else SIDE_PRE)
        if nxt is not None:
            x = x + system.C[(mode, nxt)] @ x
            if rec is not None:
                rec.add(t1, nxt, x, SIDE_POST)
        beta_accum += system.beta_rate(mode) * length
    return x if rec is None else rec.build(system.mode_ids)


def _forward_segment(x, seg: ForwardSegment, drift, t0, length, dt, rec,
                     mode, n):
    if length <= 0.0:
        return x
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


def simulate_forward_batch(system: SwitchSystem, x0, policy,
                           chains: ChainBatch, dt: float) -> np.ndarray:
    """Terminal states, one row per path of ``chains``, each bit-identical
    to ``simulate_forward(..., record=False)`` along that path.

    Walks the segment index across the batch.  At each index the paths are
    grouped by mode: ``policy.segment`` sees the group's entry states and
    input-growth factors stacked, one stacked flow advances the group, and
    one stacked jump per target mode moves it.
    """
    check_positive("dt", dt)
    n = system.n
    n_paths, width = chains.modes.shape
    X = np.repeat(np.array(x0, dtype=float).reshape(1, n), n_paths, axis=0)
    b0_init = system.modes[int(chains.modes[0, 0])].B0
    beta_accum = np.zeros(n_paths)
    drifts: dict[int, np.ndarray] = {}
    for seg_index in range(width):
        modes = chains.modes[:, seg_index]
        nxt = (chains.modes[:, seg_index + 1] if seg_index + 1 < width
               else np.full(n_paths, -1))
        length = chains.bounds[:, seg_index + 1] - chains.bounds[:, seg_index]
        for mode in np.unique(modes[modes >= 0]).tolist():
            idx = np.flatnonzero(modes == mode)
            beta_factor = np.array([math.exp(v) for v in beta_accum[idx].tolist()])
            seg = policy.segment(system, seg_index, mode, X[idx], beta_factor,
                                 b0_init)
            if mode not in drifts:
                drifts[mode] = effective_drift(system, mode)
            X[idx] = _forward_segment_batch(X[idx], seg, drifts[mode],
                                            length[idx], dt, n)
            targets = nxt[idx]
            for theta in np.unique(targets[targets >= 0]).tolist():
                j = idx[targets == theta]
                X[j] = X[j] + matvec(system.C[(mode, theta)], X[j])
            beta_accum[idx] += system.beta_rate(mode) * length[idx]
    return X


def _forward_segment_batch(X, seg: ForwardSegment, drift, length, dt, n):
    """``_forward_segment`` for stacked entry states and segment lengths."""
    if seg.coupling is None:
        return _advance_batch(X, drift, length, dt)
    Z = np.asarray(seg.adjoint0, dtype=float)
    m = Z.shape[-1]
    G = np.zeros((X.shape[0], n + m, n + m))
    G[:, :n, :n] = drift
    G[:, :n, n:] = seg.coupling
    G[:, n:, n:] = seg.adjoint_gen
    cut = np.minimum(seg.active_until, length)
    X = _advance_batch(np.concatenate([X, Z], axis=1), G, cut, dt)[:, :n]
    return _advance_batch(X, drift, length - cut, dt)


# --------------------------------------------------------------------------
# dual simulation
# --------------------------------------------------------------------------


class FeedbackDualControl:
    """Mark control ``v(theta) = F[(mode, theta)] Y`` for fixed edge matrices.

    With the matrices produced by the feedback-witness synthesis this
    keeps the dual state inside the witness subspace along every path.
    Edges without a matrix fall back to zero, so ``FeedbackDualControl({})``
    is the zero control: the dual follows the negative adjoint drift and
    never jumps.
    """

    def __init__(self, F):
        self.F = dict(F)
        self._system = None
        self._gens: dict[int, np.ndarray] = {}

    def segment(self, system, mode):
        """Closed-loop generator of ``mode``, built once per mode for the
        last system seen (another system starts a fresh cache)."""
        if system is not self._system:
            self._system, self._gens = system, {}
        gen = self._gens.get(mode)
        if gen is None:
            gen = self._gens[mode] = self._closed_loop(system, mode)
            gen.setflags(write=False)
        return gen

    def _closed_loop(self, system, mode):
        gen = -np.array(system.modes[mode].A.T)
        eye = np.eye(system.n)
        for theta in system.support(mode):
            Fm = self.F.get((mode, theta))
            if Fm is not None:
                w = system.edge_weight(mode, theta)
                gen -= w * (system.C[(mode, theta)].T + eye) @ Fm
        return gen

    def jump_value(self, system, mode, theta, y_pre):
        Fm = self.F.get((mode, theta))
        if Fm is None:
            return np.zeros(system.n)
        return Fm @ y_pre


def simulate_dual(system: SwitchSystem, y0, control, path: ModePath,
                  dt: float) -> Trajectory:
    """Recorded :class:`Trajectory` of the dual state along a fixed mode path.

    Between jumps the drift is the negative adjoint drift minus the
    weighted, identity-augmented adjoint jump matrices applied to the
    control values; at a jump with mark theta the control value is added
    to the state.  The control is linear in the dual state:
    ``control.segment(system, mode)`` returns that closed-loop generator
    and ``control.jump_value(system, mode, theta, y_pre)`` the value added
    at the jump.
    """
    check_positive("dt", dt)
    n = system.n
    y = np.array(y0, dtype=float).reshape(n)
    rec = _Recorder(n)
    rec.add(0.0, path.modes[0], y)
    for t0, t1, mode, nxt in path.segments():
        y = _advance_linear(y, control.segment(system, mode), t0, t1 - t0, dt,
                            rec, mode)
        rec.add(t1, mode, y, SIDE_INTERIOR if nxt is None else SIDE_PRE)
        if nxt is not None:
            y = y + control.jump_value(system, mode, nxt, y)
            rec.add(t1, nxt, y, SIDE_POST)
    return rec.build(system.mode_ids)
