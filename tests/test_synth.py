import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.linalg import expm

from switchctrl import fixtures
from switchctrl.criteria import RefusalError, kalman_rank
from switchctrl.model import Mode, SwitchSystem
from switchctrl.pdmp import ModePath, simulate_forward
from switchctrl.synth import (
    MinEnergyRestartPolicy,
    SingularGramianError,
    commuting_hypothesis,
    gramian,
    gramian_factor,
    min_energy_control,
    null_bound,
    piecewise_null_policy,
)


def single_mode_system(A, B):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if B.shape[0] != A.shape[0]:
        B = B.T
    mode = Mode(id="s", embedding=np.zeros(1), rate=0.0, A=A, B0=B)
    return SwitchSystem(n=A.shape[0], d=B.shape[1], m=1, beta=np.zeros(1),
                        modes=(mode,), Q=np.zeros((1, 1)), C={})


def controllable_pair(rng, n):
    while True:
        A = rng.standard_normal((n, n))
        d = int(rng.integers(1, n + 1))
        B = rng.standard_normal((n, d))
        if kalman_rank(A, B) == n:
            return A, B


# ------------------------------------------------------------------- gramian


def test_gramian_zero_drift_closed_form():
    B = np.array([[1.0, 0.0], [0.0, 2.0]])
    G = gramian(np.zeros((2, 2)), B, 0.7)
    assert np.max(np.abs(G - 0.7 * B @ B.T)) <= 1e-12


def test_gramian_scalar_closed_form():
    for a in (-0.8, 0.5, 1.3):
        G = gramian(np.array([[a]]), np.array([[1.0]]), 1.0)
        expected = (np.exp(2 * a) - 1.0) / (2 * a)
        assert abs(G[0, 0] - expected) <= 1e-12


def test_gramian_matches_simpson_quadrature():
    # Oracle: composite Simpson on the defining convolution integral.
    rng = np.random.default_rng(73)
    for _ in range(8):
        n = int(rng.integers(1, 5))
        d = int(rng.integers(1, 3))
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, d))
        t = float(rng.uniform(0.3, 1.5))
        G = gramian(A, B, t)
        ts = np.linspace(0.0, t, 10_001)
        vals = np.array([expm(A * s) @ B @ B.T @ expm(A.T * s) for s in ts])
        Gq = simpson(vals, x=ts, axis=0)
        assert np.max(np.abs(G - Gq)) <= 1e-7


def test_gramian_psd_and_monotone_in_time():
    rng = np.random.default_rng(79)
    A = rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 1))
    prev = np.zeros((3, 3))
    for t in (0.2, 0.5, 0.9, 1.4):
        G = gramian(A, B, t)
        assert np.max(np.abs(G - G.T)) <= 1e-12
        eigs = np.linalg.eigvalsh(G - prev)
        assert eigs.min() >= -1e-10  # Loewner nondecreasing
        prev = G


def test_gramian_products_commute_under_hypothesis():
    sys_ = fixtures.cont_switch_bound()
    assert commuting_hypothesis(sys_)
    for i in range(2):
        mode = sys_.modes[i]
        for t, tp in [(0.25, 1.0), (0.5, 0.75), (0.1, 0.9)]:
            G = gramian(mode.A, mode.B0, t)
            Gp = gramian(mode.A, mode.B0, tp)
            Gp_inv = np.linalg.inv(Gp)
            comm = G @ Gp_inv - Gp_inv @ G
            assert np.linalg.norm(comm, 2) <= 1e-8


# ---------------------------------------------------------------- min energy


def test_min_energy_scalar_integrator():
    sys_ = single_mode_system([[0.0]], [[1.0]])
    ctrl = min_energy_control(sys_, 0, [1.0], 1.0)
    for t in (0.0, 0.3, 0.99):
        assert abs(ctrl(t) + 1.0) <= 1e-9  # u = -1 throughout
    assert np.allclose(ctrl(1.5), 0.0)


def test_min_energy_steers_random_controllable_pairs():
    rng = np.random.default_rng(83)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        A, B = controllable_pair(rng, n)
        sys_ = single_mode_system(A, B)
        y = rng.standard_normal(n)
        h = 1.0
        policy = MinEnergyRestartPolicy(
            sys_, 1, h, {0: gramian_factor(sys_, 0, h)},
            commuting_hypothesis(sys_))
        path = ModePath(h, np.array([]), (0,))
        xT = simulate_forward(sys_, y, policy, path, 1e-4, record=False)
        assert np.linalg.norm(xT) <= 1e-8 * max(np.linalg.norm(y), 1e-12)


def test_min_energy_control_values_consistent_with_adjoint_form():
    rng = np.random.default_rng(89)
    A, B = controllable_pair(rng, 3)
    sys_ = single_mode_system(A, B)
    y = rng.standard_normal(3)
    ctrl = min_energy_control(sys_, 0, y, 0.8)
    G = gramian(A, B, 0.8)
    for t in (0.0, 0.37, 0.8):
        direct = -B.T @ expm(A.T * (0.8 - t)) @ np.linalg.solve(G, expm(A * 0.8) @ y)
        assert np.max(np.abs(ctrl(t) - direct)) <= 1e-6


def test_singular_gramian_raises_with_mode_name():
    sys_ = single_mode_system([[0.0, 1.0], [0.0, 0.0]], [[1.0], [0.0]])
    with pytest.raises(SingularGramianError) as err:
        gramian_factor(sys_, 0, 1.0)
    assert err.value.mode_id == "s"


# ------------------------------------------------------------ restart policy


def test_restart_policy_zero_jump_realization_steers_and_stays():
    sys_ = fixtures.cont_switch_bound()
    policy = piecewise_null_policy(sys_, 4, 1.0)
    path = ModePath(1.0, np.array([]), (0,))
    traj = simulate_forward(sys_, np.array([1.0, -2.0]), policy, path, 1e-4)
    at_window = np.flatnonzero(np.isclose(traj.times, 0.25))
    assert at_window.size
    assert np.linalg.norm(traj.states[at_window[0]]) <= 1e-8 * np.linalg.norm([1, -2])
    assert np.linalg.norm(traj.final_state) <= 1e-6 * np.linalg.norm([1, -2])


def test_restart_policy_long_first_gap_steers_despite_later_jumps():
    sys_ = fixtures.cont_switch_bound()
    N, T = 4, 1.0
    policy = piecewise_null_policy(sys_, N, T)
    # first gap 0.3 >= T/N = 0.25, then two more jumps
    path = ModePath(T, np.array([0.3, 0.5, 0.9]), (0, 1, 0, 1))
    x0 = np.array([0.7, 1.1])
    xT = simulate_forward(sys_, x0, policy, path, 1e-4, record=False)
    assert np.linalg.norm(xT) <= 1e-6 * np.linalg.norm(x0)


def test_restart_policy_excursion_bound_under_commuting_hypothesis():
    sys_ = fixtures.cont_switch_bound()
    policy = piecewise_null_policy(sys_, 2, 1.0)
    assert policy.commuting
    path = ModePath(0.5, np.array([]), (0,))
    x0 = np.array([0.9, -0.4])
    traj = simulate_forward(sys_, x0, policy, path, 1e-4)
    norms = np.linalg.norm(traj.states, axis=1)
    bound = np.exp(sys_.a0 * traj.times) * np.linalg.norm(x0) * (1 + 1e-6)
    assert np.all(norms <= bound + 1e-12)


def test_restart_policy_refusals():
    with pytest.raises(RefusalError) as err:
        piecewise_null_policy(fixtures.nec1_not_det(), 2, 1.0)
    assert err.value.code == "C-nonzero"

    B0 = np.array([[1.0], [0.0]])
    A0 = np.array([[0.0, 1.0], [0.0, 0.0]])  # uncontrollable pair
    Z = np.zeros((2, 2))
    modes = (
        Mode(id="0", embedding=np.zeros(1), rate=1.0, A=A0, B0=B0),
        Mode(id="1", embedding=np.ones(1), rate=1.0, A=-A0, B0=B0),
    )
    sys_ = SwitchSystem(n=2, d=1, m=1, beta=np.zeros(1), modes=modes,
                        Q=np.array([[0.0, 1.0], [1.0, 0.0]]),
                        C={(0, 1): Z, (1, 0): Z})
    with pytest.raises(RefusalError) as err:
        piecewise_null_policy(sys_, 2, 1.0)
    assert err.value.code == "criterion-failed"

    base = fixtures.cont_switch_bound()
    m0, m1 = base.modes
    varied = Mode(id=m1.id, embedding=m1.embedding, rate=m1.rate, A=m1.A,
                  B0=2.0 * np.eye(2))
    sys_ = SwitchSystem(n=2, d=2, m=1, beta=base.beta, modes=(m0, varied),
                        Q=base.Q, C=dict(base.C))
    with pytest.raises(RefusalError) as err:
        piecewise_null_policy(sys_, 2, 1.0)
    assert err.value.code == "B0-mode-varying"


def test_null_bound_closed_form_value():
    sys_ = fixtures.cont_switch_bound()
    x0 = np.array([1.0, 0.0])
    b = null_bound(sys_, x0, 1.0, 64)
    assert b == pytest.approx(np.exp(2.0) * (1.0 - np.exp(-1.0 / 64.0)), rel=1e-12)


def test_commuting_hypothesis_rejects_asymmetric_drift():
    sys_ = fixtures.nec1_det_not_nec2()  # A symmetric but B0 rank one
    # swap drift is symmetric and commutes with diag(1, 0)? check explicitly:
    B = sys_.modes[0].B0
    BBt = B @ B.T
    A = sys_.modes[0].A
    assert np.max(np.abs(A @ BBt - BBt @ A)) > 1e-6
    assert not commuting_hypothesis(sys_)


def test_callable_policy_receives_restart_data():
    from switchctrl.pdmp import ForwardSegment, ZeroPolicy

    sys_ = fixtures.cont_switch_bound()
    seen = []

    class RecordingPolicy:
        def segment(self, system, seg_index, mode, x_start, beta_factor, b0_init):
            seen.append((system.modes[mode].id, np.array(x_start)))
            return ForwardSegment()

    path = ModePath(1.0, np.array([0.5]), (0, 1))
    x0 = np.array([1.0, 0.0])
    xT = simulate_forward(sys_, x0, RecordingPolicy(), path, 1e-2, record=False)
    # zero control: matches the zero policy exactly on the same grid
    ref = simulate_forward(sys_, x0, ZeroPolicy(), path, 1e-2, record=False)
    assert np.allclose(xT, ref, atol=1e-9)
    assert [m for m, _ in seen] == ["0", "1"]
    assert np.allclose(seen[0][1], x0)


def test_restart_policy_later_long_gap_also_steers():
    sys_ = fixtures.cont_switch_bound()
    N, T = 4, 1.0
    policy = piecewise_null_policy(sys_, N, T)
    # short first gap, then gap 2 of length 0.30 >= T/N = 0.25
    path = ModePath(T, np.array([0.1, 0.4, 0.6]), (0, 1, 0, 1))
    x0 = np.array([-0.8, 0.5])
    xT = simulate_forward(sys_, x0, policy, path, 1e-4, record=False)
    assert np.linalg.norm(xT) <= 1e-6 * np.linalg.norm(x0)


def test_min_energy_steering_with_growing_input():
    # beta != 0: the policy's decay factor exactly cancels the input growth,
    # so the steering segment behaves like the constant-input one.
    A = np.array([[0.2, 1.0], [0.0, -0.3]])
    B = np.array([[1.0], [0.4]])
    mode = Mode(id="g", embedding=np.array([1.0]), rate=0.0, A=A, B0=B)
    sys_ = SwitchSystem(n=2, d=1, m=1, beta=np.array([0.3]), modes=(mode,),
                        Q=np.zeros((1, 1)), C={})
    from switchctrl.synth import gramian_factor as gf

    y = np.array([1.3, -0.7])
    policy = MinEnergyRestartPolicy(sys_, 1, 1.0, {0: gf(sys_, 0, 1.0)},
                                    commuting_hypothesis(sys_))
    path = ModePath(1.0, np.array([]), (0,))
    xT = simulate_forward(sys_, y, policy, path, 1e-4, record=False)
    assert np.linalg.norm(xT) <= 1e-8 * np.linalg.norm(y)


def test_null_bound_check_warns_without_commuting_hypothesis():
    import pytest as _pytest

    from switchctrl.mc import null_bound_check

    A0 = np.array([[0.0, 1.0], [-1.0, 0.0]])   # rotation: not self-adjoint
    A1 = np.array([[0.0, 2.0], [-2.0, 0.0]])
    Z = np.zeros((2, 2))
    modes = (
        Mode(id="0", embedding=np.zeros(1), rate=1.0, A=A0, B0=np.eye(2)),
        Mode(id="1", embedding=np.ones(1), rate=1.0, A=A1, B0=np.eye(2)),
    )
    sys_ = SwitchSystem(n=2, d=2, m=1, beta=np.zeros(1), modes=modes,
                        Q=np.array([[0.0, 1.0], [1.0, 0.0]]),
                        C={(0, 1): Z, (1, 0): Z})
    assert not commuting_hypothesis(sys_)
    with _pytest.warns(UserWarning, match="commuting hypothesis"):
        report = null_bound_check(sys_, [1.0, 0.0], 1.0, [1, 4], 200, 0, dt=1e-2)
    assert not report.commuting
    assert all(c.passed is None for c in report.checks)
    assert report.monotone_ok
    assert report.all_passed  # only the monotone check is asserted
