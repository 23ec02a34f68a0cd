import dataclasses
import io

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import expm

from switchctrl import fixtures, pdmp
from switchctrl.criteria import feedback_witness
from switchctrl.model import Mode, SwitchSystem
from switchctrl.pdmp import (
    SIDE_PRE,
    FeedbackDualControl,
    ModePath,
    ZeroPolicy,
    effective_drift,
    sample_mode_path,
    simulate_dual,
    simulate_forward,
)
from switchctrl.synth import ConstantPolicy, piecewise_null_policy


def rng_for(seed):
    return np.random.default_rng(np.random.Philox(key=seed))


def silent_system(A, B0):
    A = np.asarray(A, dtype=float)
    mode = Mode(id="s", embedding=np.zeros(1), rate=0.0, A=A,
                B0=np.asarray(B0, dtype=float))
    return SwitchSystem(n=A.shape[0], d=np.atleast_2d(B0).shape[1], m=1,
                        beta=np.zeros(1), modes=(mode,),
                        Q=np.zeros((1, 1)), C={})


# ----------------------------------------------------------------- mode paths


def test_zero_rate_mode_never_jumps():
    sys_ = silent_system(np.zeros((2, 2)), [[1.0], [0.0]])
    path = sample_mode_path(sys_, 0, 5.0, rng_for(0))
    assert path.n_jumps == 0
    assert path.modes == (0,)


def test_mode_path_invariants():
    sys_ = fixtures.nec1_not_det()
    rng = rng_for(1)
    for _ in range(200):
        path = sample_mode_path(sys_, 0, 2.0, rng)
        assert np.all(np.diff(path.jump_times) > 0)
        for a, b in zip(path.modes, path.modes[1:]):
            assert a != b
        assert len(path.modes) == path.n_jumps + 1


def test_mean_jump_count_matches_unit_rate_poisson():
    # Unit-rate switching on [0, 1] gives on average one jump.
    sys_ = fixtures.nec1_not_det()
    rng = rng_for(2)
    counts = np.array([sample_mode_path(sys_, 0, 1.0, rng).n_jumps
                       for _ in range(10_000)])
    se = counts.std(ddof=1) / np.sqrt(counts.size)
    assert abs(counts.mean() - 1.0) <= 3 * se


def test_first_jump_time_is_exponential():
    # Kolmogorov-Smirnov at the 1% level on 10^4 first jump times.
    sys_ = fixtures.nec1_not_det()
    rng = rng_for(3)
    horizon = 50.0  # long enough that truncation at the horizon is immaterial
    first = np.array([sample_mode_path(sys_, 0, horizon, rng).jump_times[0]
                      for _ in range(10_000)])
    result = stats.kstest(first, "expon")
    assert result.pvalue > 0.01


def test_sampling_is_deterministic_given_stream():
    sys_ = fixtures.nec2_det_not_nec1()
    a = sample_mode_path(sys_, 1, 3.0, rng_for(42))
    b = sample_mode_path(sys_, 1, 3.0, rng_for(42))
    assert np.array_equal(a.jump_times, b.jump_times)
    assert a.modes == b.modes


@pytest.mark.parametrize("t_end", [0.0, -1.0, np.inf, np.nan])
def test_sampling_rejects_unusable_horizon(t_end):
    # An infinite horizon would never stop drawing jumps.
    with pytest.raises(ValueError, match="t_end"):
        sample_mode_path(fixtures.nec1_not_det(), 0, t_end, rng_for(5))


@pytest.mark.parametrize("dt", [0.0, -1e-3, np.nan])
def test_simulation_rejects_unusable_step(dt):
    sys_ = fixtures.nec1_not_det()
    path = ModePath(1.0, np.array([0.5]), (0, 1))
    with pytest.raises(ValueError, match="dt"):
        simulate_forward(sys_, np.ones(2), ZeroPolicy(), path, dt)
    with pytest.raises(ValueError, match="dt"):
        simulate_dual(sys_, np.ones(2), FeedbackDualControl({}), path, dt)


# ------------------------------------------------------------ effective drift


def test_effective_drift_compensates_jumps():
    sys_ = fixtures.nec1_not_det()
    expected = -np.array([[0.0, 0.5], [0.5, 0.0]])
    assert np.allclose(effective_drift(sys_, 0), expected)
    assert np.allclose(effective_drift(sys_, 1), expected)


def test_effective_drift_plain_when_no_jump_effect():
    sys_ = fixtures.cont_switch_bound()  # C = 0
    assert np.allclose(effective_drift(sys_, 0), sys_.modes[0].A)
    silent = silent_system(np.array([[1.0, 2.0], [3.0, 4.0]]), [[1.0], [0.0]])
    assert np.allclose(effective_drift(silent, 0), silent.modes[0].A)


# ------------------------------------------------------------------- forward


def test_forward_matches_matrix_exponential_without_jumps():
    sys_ = silent_system(np.array([[0.3, 1.0], [-0.5, -0.2]]), [[1.0], [0.0]])
    x0 = np.array([0.8, -1.1])
    path = ModePath(1.0, np.array([]), (0,))
    xT = simulate_forward(sys_, x0, ZeroPolicy(), path, 1e-3, record=False)
    assert np.linalg.norm(xT - expm(sys_.modes[0].A) @ x0) <= 1e-8


def test_forward_jump_bookkeeping_exact():
    sys_ = fixtures.nec1_det_not_nec2()
    path = ModePath(1.0, np.array([0.25, 0.8]), (0, 1, 0))
    traj = simulate_forward(sys_, np.array([1.0, 2.0]), ZeroPolicy(), path, 1e-2)
    for jt, pre_mode, post_mode in [(0.25, 0, 1), (0.8, 1, 0)]:
        at = np.flatnonzero(traj.times == jt)
        assert at.size == 2
        pre, post = at
        assert traj.side[pre] == 1 and traj.side[post] == 2
        assert traj.mode_idx[pre] == pre_mode and traj.mode_idx[post] == post_mode
        C = sys_.C[(pre_mode, post_mode)]
        expect = traj.states[pre] + C @ traj.states[pre]
        assert np.array_equal(traj.states[post], expect)
    assert traj.times[0] == 0.0 and traj.times[-1] == 1.0
    assert np.all(np.diff(traj.times) >= 0)
    assert np.all(np.isfinite(traj.states))


def test_forward_grid_spacing_never_exceeds_dt():
    sys_ = fixtures.nec1_not_det()
    path = ModePath(1.0, np.array([0.123456]), (0, 1))
    traj = simulate_forward(sys_, np.ones(2), ZeroPolicy(), path, 0.01)
    assert np.max(np.diff(traj.times)) <= 0.01 + 1e-12


@pytest.mark.parametrize("k", [1, 2, 3, 8, 9])
def test_recorded_segment_of_k_steps(k):
    # Two segments of k steps each, at the edges of the doubling fill:
    # k - 1 interior points per segment, the rows P^i x0 of the one-step
    # matrix, and the terminal state of the unrecorded matrix power.
    sys_ = fixtures.nec1_det_not_nec2()
    path = ModePath(1.0, np.array([0.5]), (0, 1))
    dt = 0.5 / k
    x0 = np.array([0.7, -0.4])
    traj = simulate_forward(sys_, x0, ZeroPolicy(), path, dt)
    assert traj.times.size == 2 * (k - 1) + 4
    assert np.count_nonzero(traj.side == pdmp.SIDE_INTERIOR) == 2 * k
    assert np.max(np.diff(traj.times)) <= dt + 1e-12
    P = pdmp._taylor4(effective_drift(sys_, 0), dt)
    ref = np.array([np.linalg.matrix_power(P, i) @ x0 for i in range(k + 1)])
    assert np.max(np.abs(traj.states[: k + 1] - ref)) <= 1e-13 * np.max(np.abs(ref))
    xT = simulate_forward(sys_, x0, ZeroPolicy(), path, dt, record=False)
    assert np.max(np.abs(traj.final_state - xT)) <= 1e-13 * np.max(np.abs(xT))


def test_forward_fourth_order_convergence_on_fixed_path():
    sys_ = fixtures.nec1_det_not_nec2()
    path = ModePath(1.0, np.array([0.31, 0.77]), (0, 1, 0))
    x0 = np.array([0.7, -0.4])
    xs = {dt: simulate_forward(sys_, x0, ZeroPolicy(), path, dt, record=False)
          for dt in (0.1, 0.05, 0.025, 0.0125)}
    d = [np.linalg.norm(xs[a] - xs[b])
         for a, b in [(0.1, 0.05), (0.05, 0.025), (0.025, 0.0125)]]
    # fourth-order: each halving shrinks the change by ~16; the per-segment
    # grid snapping only shrinks errors further, so allow [5, 24]
    for ratio in (d[0] / d[1], d[1] / d[2]):
        assert 5.0 <= ratio <= 24.0
    # change at dt bounded by 16 x the model constant fitted at dt/2
    model_const = d[1] / (0.05**4 * (15.0 / 16.0))
    assert d[0] <= 16.0 * model_const * 0.1**4 * 1.5


def test_forward_deterministic_for_equal_inputs():
    sys_ = fixtures.nec1_not_det()
    path = sample_mode_path(sys_, 0, 1.0, rng_for(7))
    t1 = simulate_forward(sys_, np.array([0.0, 1.0]), ZeroPolicy(), path, 1e-3)
    t2 = simulate_forward(sys_, np.array([0.0, 1.0]), ZeroPolicy(), path, 1e-3)
    assert np.array_equal(t1.times, t2.times)
    assert np.array_equal(t1.states, t2.states)


def _rk4_segment(f, x, t0, length, dt, rec, mode):
    """Classical RK4 with a stage-evaluated right-hand side ``f(elapsed, x)``.
    It never forms a generator, so it checks the augmented linear segments
    independently."""
    if length <= 0.0:
        return x
    k = pdmp._steps_for(length, dt)
    h = length / k
    for i in range(k):
        s = i * h
        k1 = f(s, x)
        k2 = f(s + 0.5 * h, x + 0.5 * h * k1)
        k3 = f(s + 0.5 * h, x + 0.5 * h * k2)
        k4 = f(s + h, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if i < k - 1:
            rec.add(t0 + (i + 1) * h, mode, x)
    return x


def rk4_forward(system, x0, law, path, dt):
    """Stage-evaluated forward oracle.  ``law(mode, x_start)`` returns the
    segment's control ``u(elapsed)``; the input is ``exp(int beta . gamma)
    B0(gamma_0)`` as in :func:`pdmp.simulate_forward`."""
    x = np.array(x0, dtype=float)
    b0_init = system.modes[path.modes[0]].B0
    rec = pdmp._Recorder(system.n)
    rec.add(0.0, path.modes[0], x)
    beta_accum = 0.0
    for t0, t1, mode, nxt in path.segments():
        drift = effective_drift(system, mode)
        brate = system.beta_rate(mode)
        factor = np.exp(beta_accum)
        u = law(mode, x)

        def f(elapsed, state):
            scale = factor * np.exp(brate * elapsed)
            return drift @ state + scale * (b0_init @ u(elapsed))

        x = _rk4_segment(f, x, t0, t1 - t0, dt, rec, mode)
        if nxt is not None:
            rec.add(t1, mode, x, SIDE_PRE)
            x = x + system.C[(mode, nxt)] @ x
            rec.add(t1, nxt, x, pdmp.SIDE_POST)
        else:
            rec.add(t1, mode, x)
        beta_accum += brate * (t1 - t0)
    return rec.build(system.mode_ids)


def rk4_dual(system, y0, law, path, dt):
    """Stage-evaluated dual oracle.  ``law(mode, y_start)`` returns the
    segment's mark control ``v(theta, elapsed)``, which loads the drift and
    is added to the state at the jump."""
    n = system.n
    y = np.array(y0, dtype=float)
    rec = pdmp._Recorder(n)
    rec.add(0.0, path.modes[0], y)
    for t0, t1, mode, nxt in path.segments():
        astar = system.modes[mode].A.T
        loads = [(theta, system.edge_weight(mode, theta)
                  * (system.C[(mode, theta)].T + np.eye(n)))
                 for theta in system.support(mode)]
        v = law(mode, y)

        def f(elapsed, state):
            out = -astar @ state
            for theta, w_mat in loads:
                out = out - w_mat @ v(theta, elapsed)
            return out

        y = _rk4_segment(f, y, t0, t1 - t0, dt, rec, mode)
        if nxt is not None:
            rec.add(t1, mode, y, SIDE_PRE)
            y = y + v(nxt, t1 - t0)
            rec.add(t1, nxt, y, pdmp.SIDE_POST)
        else:
            rec.add(t1, mode, y)
    return rec.build(system.mode_ids)


def test_constant_policy_affine_fast_path_matches_callable():
    # The augmented linear segment (the scalar z' = brate z carries the
    # input growth) against the stage-evaluated oracle driven by the
    # callable u(t) = u, without growth (beta = 0) and with it.
    A0 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    A1 = np.array([[0.5, 0.0], [0.0, -0.5]])
    systems = [fixtures.cont_switch_bound(),
               growing_input_system([0.4, -0.2], [A0, A1], np.eye(2))]
    path = ModePath(1.0, np.array([0.4]), (0, 1))
    u = np.array([0.3, -0.2])
    x0 = np.ones(2)
    for sys_ in systems:
        fast = simulate_forward(sys_, x0, ConstantPolicy(u), path, 1e-3)
        slow = rk4_forward(sys_, x0, lambda mode, x: (lambda t: u), path, 1e-3)
        assert np.array_equal(fast.times, slow.times)
        assert np.array_equal(fast.side, slow.side)
        assert np.max(np.abs(fast.states - slow.states)) <= 1e-10
        xT = simulate_forward(sys_, x0, ConstantPolicy(u), path, 1e-3,
                              record=False)
        assert np.linalg.norm(xT - slow.final_state) <= 1e-10


# ---------------------------------------------------------------------- dual


def test_dual_constant_when_drift_and_control_vanish():
    sys_ = fixtures.nec1_not_det()  # A = 0
    path = sample_mode_path(sys_, 0, 1.0, rng_for(11))
    traj = simulate_dual(sys_, np.array([0.3, -0.7]), FeedbackDualControl({}), path,
                         1e-2)
    assert np.max(np.abs(traj.states - np.array([0.3, -0.7]))) <= 1e-12


def test_dual_matches_flip_exponential_closed_form():
    # With the witness feedback the dual is (+-1)^{jumps} (0, e^{2t}).
    sys_ = fixtures.nec1_det_not_nec2()
    wit = feedback_witness(sys_, 0)
    ctrl = FeedbackDualControl(wit.F)
    rng = rng_for(13)
    for _ in range(5):
        path = sample_mode_path(sys_, 0, 1.0, rng)
        traj = simulate_dual(sys_, np.array([0.0, 1.0]), ctrl, path, 1e-4)
        jumps = path.jumps_before(traj.times, inclusive=traj.side != SIDE_PRE)
        ref = np.column_stack([np.zeros(traj.times.size),
                               (-1.0) ** jumps * np.exp(2.0 * traj.times)])
        assert np.max(np.abs(traj.states - ref)) <= 1e-6


def test_jumps_before_array_matches_scalar_calls():
    path = ModePath(1.0, np.array([0.25, 0.5, 0.8]), (0, 1, 0, 1))
    t = np.array([0.0, 0.1, 0.25, 0.25, 0.5, 0.6, 0.8, 0.8, 1.0])
    inclusive = np.array([True, False, False, True, True, False, False, True, True])
    scalar = [path.jumps_before(a, b) for a, b in zip(t, inclusive)]
    assert all(type(c) is int for c in scalar)
    assert scalar == [0, 0, 0, 1, 2, 2, 2, 3, 3]
    assert np.array_equal(path.jumps_before(t, inclusive), scalar)
    assert np.array_equal(path.jumps_before(t), [path.jumps_before(a) for a in t])


def _stepwise_linear(state, G, t0, length, dt, rec, mode):
    """The per-step recording loop the block recorder replaced."""
    if length <= 0.0:
        return state
    k = pdmp._steps_for(length, dt)
    h = length / k
    P = pdmp._taylor4(G, h)
    for i in range(1, k):
        state = P @ state
        rec.add(t0 + i * h, mode, state)
    return P @ state


def test_recorded_matches_stepwise_reference(monkeypatch):
    # Every fixture forward and dual at two grid sizes, plus min-energy
    # forward paths whose adjoint is cut at active_until: the grid, sides
    # and modes are bit-equal to the stepwise loop's, the states agree to
    # rounding.
    names = ["nec1_not_det", "nec1_det_not_nec2", "nec2_det_not_nec1",
             "ctrl_not_suf1", "cont_switch_bound"]
    cases = []
    for name in names:
        sys_ = getattr(fixtures, name)()
        rng = rng_for(29)
        for dt in (1e-2, 1e-4):
            for _ in range(2):
                path = sample_mode_path(sys_, 0, 1.0, rng)
                x0 = np.linspace(1.0, -0.5, sys_.n)
                cases.append((simulate_forward, sys_, x0, ZeroPolicy(), path, dt))
                cases.append((simulate_dual, sys_, x0, FeedbackDualControl({}), path,
                              dt))
    sys_ = fixtures.cont_switch_bound()
    policy = piecewise_null_policy(sys_, 4, 1.0)
    rng = rng_for(31)
    paths = [ModePath(1.0, np.array([0.6]), (0, 1))]
    paths += [sample_mode_path(sys_, 0, 1.0, rng) for _ in range(4)]
    for path in paths:
        for dt in (1e-2, 1e-4):
            cases.append((simulate_forward, sys_, np.ones(2), policy, path, dt))

    got = [sim(*args) for sim, *args in cases]
    monkeypatch.setattr(pdmp, "_advance_linear", _stepwise_linear)
    for traj, (sim, *args) in zip(got, cases):
        ref = sim(*args)
        assert np.array_equal(traj.times, ref.times)
        assert np.array_equal(traj.side, ref.side)
        assert np.array_equal(traj.mode_idx, ref.mode_idx)
        scale = np.max(np.abs(ref.states))
        assert np.max(np.abs(traj.states - ref.states)) <= 1e-11 * scale


def test_dual_feedback_confined_to_witness_subspace():
    sys_ = fixtures.nec1_det_not_nec2()
    wit = feedback_witness(sys_, 0)
    ctrl = FeedbackDualControl(wit.F)
    perp = np.eye(2) - wit.v_inf.projector()
    rng = rng_for(17)
    for _ in range(10):
        path = sample_mode_path(sys_, 0, 1.0, rng)
        traj = simulate_dual(sys_, wit.v_inf.basis[:, 0], ctrl, path, 1e-3)
        off = np.max(np.linalg.norm(traj.states @ perp.T, axis=1))
        assert off <= 1e-6


def test_feedback_dual_generator_cached_per_mode_and_system():
    sys_ = fixtures.nec1_det_not_nec2()
    wit = feedback_witness(sys_, 0)
    ctrl = FeedbackDualControl(wit.F)
    gen = ctrl.segment(sys_, 0)
    assert ctrl.segment(sys_, 0) is gen
    assert not gen.flags.writeable
    # an equal-shaped system with other drifts must not reuse the cache
    other = dataclasses.replace(sys_, modes=tuple(
        dataclasses.replace(m, A=2.0 * m.A) for m in sys_.modes))
    fresh = FeedbackDualControl(wit.F).segment(other, 0)
    assert np.array_equal(ctrl.segment(other, 0), fresh)
    assert not np.array_equal(fresh, gen)
    assert np.array_equal(ctrl.segment(sys_, 0), gen)


def test_duality_pairing_identity():
    # E<X_T, Y_T> = <x, y> + E int <B u, Y> dt for uncontrolled dual.
    sys_ = fixtures.nec1_det_not_nec2()
    u = np.array([0.8])
    x0 = np.array([0.5, -0.3])
    y0 = np.array([0.2, 0.9])
    dt = 1e-2
    rng = rng_for(19)
    samples = []
    for _ in range(400):
        path = sample_mode_path(sys_, 0, 1.0, rng)
        fwd = simulate_forward(sys_, x0, ConstantPolicy(u), path, dt)
        dua = simulate_dual(sys_, y0, FeedbackDualControl({}), path, dt)
        assert np.array_equal(fwd.times, dua.times)
        bu = sys_.modes[0].B0 @ u
        integrand = dua.states @ bu
        integral = np.trapezoid(integrand, fwd.times)
        samples.append(float(fwd.states[-1] @ dua.states[-1]) - integral)
    samples = np.asarray(samples)
    se = samples.std(ddof=1) / np.sqrt(samples.size)
    assert abs(samples.mean() - float(x0 @ y0)) <= 3 * se + 5 * dt


# ----------------------------------------------------------------------- csv


def test_trajectory_csv_round_trip():
    sys_ = fixtures.nec1_not_det()
    path = ModePath(0.5, np.array([0.2]), (0, 1))
    traj = simulate_forward(sys_, np.array([1.0, 0.0]), ZeroPolicy(), path, 0.05)
    buf = io.StringIO()
    traj.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,mode,x1,x2,side"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == traj.times.size
    times = np.array([float(r[0]) for r in rows])
    states = np.array([[float(r[2]), float(r[3])] for r in rows])
    assert np.array_equal(times, traj.times)
    assert np.array_equal(states, traj.states)
    sides = [r[4] for r in rows]
    assert sides.count("pre") == 1 and sides.count("post") == 1
    modes = {r[1] for r in rows}
    assert modes == {"0", "1"}


# -------------------------------------------------------- input growth (beta)


def growing_input_system(brates, As, B0, C_zero=True):
    """Modes whose input matrix grows at per-mode rates beta . embedding."""
    n = np.asarray(As[0]).shape[0]
    modes = tuple(
        Mode(id=str(i), embedding=np.array([float(b)]), rate=1.0,
             A=np.asarray(A, dtype=float), B0=np.asarray(B0, dtype=float))
        for i, (b, A) in enumerate(zip(brates, As))
    )
    k = len(modes)
    if k == 1:
        Q = np.zeros((1, 1))
        modes = (Mode(id="0", embedding=modes[0].embedding, rate=0.0,
                      A=modes[0].A, B0=modes[0].B0),)
        C = {}
    else:
        Q = np.array([[0.0, 1.0], [1.0, 0.0]])
        C = {(0, 1): np.zeros((n, n)), (1, 0): np.zeros((n, n))}
    return SwitchSystem(n=n, d=np.atleast_2d(B0).shape[1], m=1,
                        beta=np.ones(1), modes=modes, Q=Q, C=C)


def test_forward_exponential_input_growth_single_mode():
    # Oracle: exact augmented exponential for x' = A x + e^{bt} B u.
    A = np.array([[0.1, 0.6], [-0.4, -0.2]])
    B = np.array([[1.0], [0.5]])
    u = np.array([0.7])
    b = 0.3
    sys_ = growing_input_system([b], [A], B)
    x0 = np.array([0.2, -0.9])
    path = ModePath(1.0, np.array([]), (0,))
    xT = simulate_forward(sys_, x0, ConstantPolicy(u), path, 1e-3, record=False)
    G = np.zeros((3, 3))
    G[:2, :2] = A
    G[:2, 2] = B @ u
    G[2, 2] = b
    ref = (expm(G) @ np.array([*x0, 1.0]))[:2]
    assert np.linalg.norm(xT - ref) <= 1e-9


def test_forward_growth_factor_accumulates_across_jumps():
    # Two modes with different growth rates: the input scale carries
    # exp(int beta . gamma_s ds) across the jump.
    A0 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    A1 = np.array([[0.5, 0.0], [0.0, -0.5]])
    B = np.array([[1.0], [0.0]])
    u = np.array([1.0])
    sys_ = growing_input_system([0.4, -0.2], [A0, A1], B)
    x0 = np.array([1.0, 1.0])
    t1 = 0.6
    path = ModePath(1.0, np.array([t1]), (0, 1))
    xT = simulate_forward(sys_, x0, ConstantPolicy(u), path, 1e-3, record=False)

    def seg_exp(A, brate, length):
        G = np.zeros((3, 3))
        G[:2, :2] = A
        G[:2, 2] = B @ u
        G[2, 2] = brate
        return expm(G * length)

    state = np.array([*x0, 1.0])          # third slot carries exp(int beta.gamma)
    state = seg_exp(A0, 0.4, t1) @ state
    state = seg_exp(A1, -0.2, 1.0 - t1) @ state
    assert np.linalg.norm(xT - state[:2]) <= 1e-9


def test_function_dual_control_matches_feedback_closed_form():
    # The witness feedback written as explicit per-segment mark functions
    # v(theta, t) = -2 y_seg e^{2t}, integrated by the stage-evaluated
    # oracle, against the linear closed-loop path.
    sys_ = fixtures.nec1_det_not_nec2()
    wit_F = feedback_witness(sys_, 0).F

    def law(mode, y_start):
        y_at = np.array(y_start)
        return lambda theta, elapsed: -2.0 * y_at * np.exp(2.0 * elapsed)

    rng = rng_for(23)
    for _ in range(4):
        path = sample_mode_path(sys_, 0, 1.0, rng)
        y0 = np.array([0.0, 1.0])
        a = rk4_dual(sys_, y0, law, path, 1e-3)
        b = simulate_dual(sys_, y0, FeedbackDualControl(wit_F), path, 1e-3)
        assert np.array_equal(a.times, b.times)
        assert np.max(np.abs(a.states - b.states)) <= 1e-8


def test_dual_drift_weights_multiple_marks():
    # Mode 0 can jump to two different marks with distinct jump matrices
    # and distinct feedback gains; its closed-loop generator must weight
    # both marks.  Oracle: expm of -A* - sum_theta w_theta (C_theta* + I)
    # F_theta per segment, and y + F y at the jump.
    A0 = np.array([[0.3, -0.2], [0.1, 0.0]])
    A2 = np.array([[0.0, 0.4], [-0.3, 0.1]])
    C01 = np.array([[0.0, 0.5], [0.0, 0.0]])
    C02 = np.array([[0.0, 0.0], [-0.4, 0.0]])
    C20 = np.array([[0.2, 0.0], [0.0, -0.1]])
    zero = np.zeros((2, 2))
    modes = tuple(
        Mode(id=str(i), embedding=np.array([float(i)]), rate=r, A=a,
             B0=np.array([[1.0], [0.0]]))
        for i, (r, a) in enumerate([(2.0, A0), (1.0, zero), (1.5, A2)])
    )
    Q = np.array([[0.0, 0.3, 0.7], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    C = {(0, 1): C01, (0, 2): C02, (1, 0): zero, (2, 0): C20}
    sys_ = SwitchSystem(n=2, d=1, m=1, beta=np.zeros(1), modes=modes, Q=Q, C=C)
    F = {(0, 1): np.array([[0.8, -0.1], [0.2, 0.3]]),
         (0, 2): np.array([[-0.3, 0.6], [0.0, -0.5]]),
         (2, 0): np.array([[0.4, 0.0], [-0.2, 0.7]])}

    y0 = np.array([1.0, 2.0])
    t1 = 0.4
    path = ModePath(1.0, np.array([t1]), (0, 2))
    traj = simulate_dual(sys_, y0, FeedbackDualControl(F), path, 1e-3)

    eye = np.eye(2)
    gen0 = (-A0.T - 2.0 * 0.3 * (C01.T + eye) @ F[(0, 1)]
            - 2.0 * 0.7 * (C02.T + eye) @ F[(0, 2)])
    gen2 = -A2.T - 1.5 * 1.0 * (C20.T + eye) @ F[(2, 0)]
    y_pre = expm(gen0 * t1) @ y0
    y_post = y_pre + F[(0, 2)] @ y_pre
    y_end = expm(gen2 * (1.0 - t1)) @ y_post
    pre = np.flatnonzero(traj.side == SIDE_PRE)
    assert np.linalg.norm(traj.states[pre[0]] - y_pre) <= 1e-9
    assert np.linalg.norm(traj.states[-1] - y_end) <= 1e-9
