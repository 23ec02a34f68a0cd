import dataclasses
import math

import numpy as np
import pytest

from conftest import random_switch_system
from switchctrl import fixtures, mc, pdmp
from switchctrl.criteria import feedback_witness
from switchctrl.mc import (
    CHUNK,
    McEstimate,
    dual_kernel_residual,
    dual_path_maxima,
    estimate_terminal,
    estimate_terminal_msq,
    null_bound_check,
    path_streams,
    trajectory_rng,
)
from switchctrl.model import Mode, SwitchSystem
from switchctrl.pdmp import ZeroPolicy, sample_mode_path, simulate_forward
from switchctrl.synth import ConstantPolicy, piecewise_null_policy
from test_pdmp import growing_input_system


def test_streams_are_reproducible_and_distinct():
    a = trajectory_rng(5, 0).random(4)
    b = trajectory_rng(5, 0).random(4)
    c = trajectory_rng(5, 1).random(4)
    d = trajectory_rng(6, 0).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_estimate_requires_minimum_samples():
    with pytest.raises(ValueError):
        McEstimate(0.0, 0.0, 1, 0, 1e-2)
    with pytest.raises(ValueError):
        estimate_terminal_msq(fixtures.nec1_not_det(), [1.0, 0.0], ZeroPolicy(),
                              1.0, 50, 0, 1e-2)


def test_deterministic_system_estimate_has_zero_error():
    from scipy.linalg import expm

    A = np.array([[0.2, 1.0], [0.0, -0.4]])
    mode = Mode(id="s", embedding=np.zeros(1), rate=0.0, A=A,
                B0=np.array([[1.0], [0.0]]))
    sys_ = SwitchSystem(n=2, d=1, m=1, beta=np.zeros(1), modes=(mode,),
                        Q=np.zeros((1, 1)), C={})
    x0 = np.array([0.3, -1.2])
    est = estimate_terminal_msq(sys_, x0, ZeroPolicy(), 1.0, 200, 0, 1e-3)
    expected = float(np.linalg.norm(expm(A) @ x0) ** 2)
    assert est.std_error <= 1e-15  # identical samples up to summation roundoff
    assert abs(est.mean - expected) <= 1e-8


def test_martingale_component_mean_preserved():
    # The second component's expectation is conserved on the zero-drift
    # fixture regardless of the control.
    sys_ = fixtures.nec1_not_det()
    x0 = np.array([0.0, 1.0])
    est = estimate_terminal(sys_, x0, ConstantPolicy([0.5]), 1.0, 2000, 11, 1e-2,
                            func=lambda xT: float(xT[1]))
    assert abs(est.mean - 1.0) <= 3.0 * est.std_error


def test_split_sample_consistency():
    sys_ = fixtures.nec1_not_det()
    x0 = np.array([0.4, 0.7])
    a = estimate_terminal_msq(sys_, x0, ZeroPolicy(), 1.0, 1500, 21, 1e-2)
    b = estimate_terminal_msq(sys_, x0, ZeroPolicy(), 1.0, 1500, 22, 1e-2)
    pooled = np.hypot(a.std_error, b.std_error)
    assert abs(a.mean - b.mean) <= 3.0 * pooled


def test_same_seed_is_bit_identical():
    sys_ = fixtures.nec1_det_not_nec2()
    x0 = np.array([1.0, -0.5])
    a, b, other = (
        estimate_terminal_msq(sys_, x0, ZeroPolicy(), 1.0, 400, seed, 1e-2)
        for seed in (3, 3, 4)
    )
    assert a.mean == b.mean
    assert a.std_error == b.std_error
    assert other.mean != a.mean


def test_null_bound_check_on_commuting_fixture():
    sys_ = fixtures.cont_switch_bound()
    report = null_bound_check(sys_, [1.0, 0.0], 1.0, [1, 4], 400, 7, dt=1e-2)
    assert report.commuting
    assert report.all_passed
    assert report.checks[0].bound == pytest.approx(
        np.exp(2.0) * (1.0 - np.exp(-1.0)))


def test_null_bound_check_zero_jump_system():
    # Single silent controllable mode with a self-adjoint drift: the N = 1
    # policy steers exactly, and both the bound and the noise vanish, so the
    # pass band reduces to the numerical floor.
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    mode = Mode(id="s", embedding=np.zeros(1), rate=0.0, A=A, B0=np.eye(2))
    sys_ = SwitchSystem(n=2, d=2, m=1, beta=np.zeros(1), modes=(mode,),
                        Q=np.zeros((1, 1)), C={})
    report = null_bound_check(sys_, [1.0, 1.0], 1.0, [1], 200, 0, dt=1e-3)
    check = report.checks[0]
    assert report.commuting
    assert check.bound == 0.0
    assert check.passed is True
    assert check.estimate.mean <= 1e-12 * 2.0
    assert report.all_passed


def test_dual_kernel_residual_small_under_witness_feedback():
    sys_ = fixtures.nec1_det_not_nec2()
    wit = feedback_witness(sys_, 0)
    y0 = wit.v_inf.basis[:, 0]
    worst = dual_kernel_residual(sys_, wit.F, y0, 1.0, 50, 13, 1e-3)
    assert worst <= 1e-6


def test_dual_kernel_residual_equals_fresh_stream_loop():
    # The shared re-keyed streams draw the same chains as one generator per
    # path.  Half the witness feedback from a point off the witness line
    # leaves the kernel, so the residual depends on every path's jumps
    # (another seed gives another value).
    sys_ = fixtures.nec1_det_not_nec2()
    F = {edge: 0.5 * Fe for edge, Fe in feedback_witness(sys_, 0).F.items()}
    y0 = np.array([0.6, 0.8])
    bstar = sys_.modes[0].B0.T
    ref = 0.0
    for i in range(40):
        path = sample_mode_path(sys_, 0, 1.0, trajectory_rng(21, i))
        traj = pdmp.simulate_dual(sys_, y0, pdmp.FeedbackDualControl(F), path, 1e-2)
        ref = max(ref, float(np.linalg.norm(traj.states @ bstar.T, axis=1).max()))
    assert dual_kernel_residual(sys_, F, y0, 1.0, 40, 21, 1e-2) == ref
    assert dual_kernel_residual(sys_, F, y0, 1.0, 40, 22, 1e-2) != ref


# ------------------------------------------------ batched paths vs the loop


def batched_terminal(system, x0, policy, T, n, seed, dt):
    """Terminal states as ``estimate_terminal`` sees them, and its mean."""
    states = []
    est = estimate_terminal(system, x0, policy, T, n, seed, dt,
                            func=lambda xT: (states.append(xT.copy()),
                                             float(xT @ xT))[1])
    return np.array(states), est.mean


def loop_terminal(system, x0, policy, T, n, seed, dt):
    """The per-path reference: one fresh stream and one scalar flow each."""
    states = np.array([
        simulate_forward(system, x0, policy,
                         sample_mode_path(system, 0, T, trajectory_rng(seed, i)),
                         dt, record=False)
        for i in range(n)])
    return states, float(np.sum([x @ x for x in states]) / n)


@pytest.mark.parametrize("N, n_paths", [(1, 1025), (4, 100), (16, 300)])
def test_batched_min_energy_bit_equal_to_loop(N, n_paths):
    sys_ = fixtures.cont_switch_bound()
    policy = piecewise_null_policy(sys_, N, 1.0)
    x0 = np.array([1.0, -0.5])
    batch, mean = batched_terminal(sys_, x0, policy, 1.0, n_paths, 5, 1e-2)
    loop, loop_mean = loop_terminal(sys_, x0, policy, 1.0, n_paths, 5, 1e-2)
    assert np.array_equal(batch, loop)
    assert mean == loop_mean


def test_batched_zero_policy_bit_equal_to_loop():
    # fine steps make step counts up to 1000, the deepest masked powers
    sys_ = fixtures.nec1_not_det()
    x0 = np.array([0.3, 1.0])
    n_paths = CHUNK + 88
    batch, mean = batched_terminal(sys_, x0, ZeroPolicy(), 1.0, n_paths, 9, 1e-3)
    loop, loop_mean = loop_terminal(sys_, x0, ZeroPolicy(), 1.0, n_paths, 9, 1e-3)
    assert np.array_equal(batch, loop)
    assert mean == loop_mean


def test_batched_constant_policy_under_input_growth():
    A0 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    A1 = np.array([[0.5, 0.0], [0.0, -0.5]])
    sys_ = growing_input_system([0.4, -0.2], [A0, A1], np.eye(2))
    x0 = np.array([1.0, 2.0])
    policy = ConstantPolicy([0.3, -0.2])
    batch, _ = batched_terminal(sys_, x0, policy, 1.0, 300, 2, 1e-2)
    loop, _ = loop_terminal(sys_, x0, policy, 1.0, 300, 2, 1e-2)
    assert np.max(np.abs(batch - loop)) <= 1e-12 * np.linalg.norm(x0)


@pytest.mark.parametrize("seed", [0, 7, -1, 2**64 - 1])
def test_path_streams_match_trajectory_rng(seed):
    indices = [0, 1, 10**6]
    for index, gen in zip(indices, path_streams(seed, indices)):
        ref = trajectory_rng(seed, index)
        assert np.array_equal(gen.random(3), ref.random(3))
        assert np.array_equal(gen.exponential(size=3), ref.exponential(size=3))
        assert gen.random() == ref.random()


def test_masked_powers_match_matrix_power():
    rng = np.random.default_rng(3)
    k = np.array([1, 2, 3, 4, 5, 7, 8, 1000, 3, 1, 1000, 5])
    P = np.eye(3) + 1e-3 * rng.standard_normal((k.size, 3, 3))
    out = pdmp._matrix_powers(P, k)
    for Pi, ki, oi in zip(P, k, out):
        assert np.array_equal(oi, np.linalg.matrix_power(Pi, int(ki)))


# ------------------------------------------------ batched dual vs the loop


def index_order_norms(states, B0):
    """|B0* y| per row with B0* y summed elementwise in index order."""
    Z = sum(states[:, i, None] * B0[i] for i in range(B0.shape[0]))
    return np.linalg.norm(Z, axis=1)


def loop_dual_maxima(system, F, y0, T, n, seed, dt, start=0, blas=False):
    """Per-path maxima of the recorded ``simulate_dual`` paths: the norms
    of ``states @ B0`` (a BLAS product) or of ``index_order_norms``."""
    B0 = system.modes[start].B0
    ctrl = pdmp.FeedbackDualControl(F)
    out = np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            path = sample_mode_path(system, start, T, trajectory_rng(seed, i))
            states = pdmp.simulate_dual(system, y0, ctrl, path, dt).states
            norms = (np.linalg.norm(states @ B0, axis=1) if blas
                     else index_order_norms(states, B0))
            out[i] = norms.max()
    return out


def half_feedback_case():
    sys_ = fixtures.nec1_det_not_nec2()
    F = {edge: 0.5 * Fe for edge, Fe in feedback_witness(sys_, 0).F.items()}
    return sys_, F, np.array([0.6, 0.8])


def generated_dual_case(seed):
    """A random multi-mode system (n <= 6), random edge feedback and a
    random start point, off any witness."""
    rng = np.random.default_rng(seed)
    sys_ = random_switch_system(rng, max_n=6, max_modes=4)
    F = {edge: 0.4 * rng.standard_normal((sys_.n, sys_.n)) for edge in sys_.C}
    return sys_, F, rng.standard_normal(sys_.n)


@pytest.mark.parametrize("seed", range(8))
def test_batched_dual_bit_equal_to_loop_on_generated_systems(seed):
    # Every batched state is bit-identical to the recorded one, so the
    # maxima equal the loop's when both sum B0* y in index order.  A BLAS
    # product rounds by where a row sits in the matrix, so against the
    # old states @ B0 loop the maxima agree to 1e-14 relative (3.6e-16
    # measured over 3600 paths).
    sys_, F, y0 = generated_dual_case(seed)
    dt = (1e-2, 3e-2)[seed % 2]
    batch = dual_path_maxima(sys_, F, y0, 1.0, 60, seed, dt)
    assert np.array_equal(batch, loop_dual_maxima(sys_, F, y0, 1.0, 60, seed, dt))
    blas = loop_dual_maxima(sys_, F, y0, 1.0, 60, seed, dt, blas=True)
    assert np.all(np.abs(batch - blas) <= 1e-14 * blas)


@pytest.mark.parametrize("n_paths", [1, CHUNK + 88])
def test_batched_dual_path_counts(n_paths):
    sys_, F, y0 = half_feedback_case()
    batch = dual_path_maxima(sys_, F, y0, 1.0, n_paths, 4, 1e-2)
    loop = loop_dual_maxima(sys_, F, y0, 1.0, n_paths, 4, 1e-2, blas=True)
    assert np.array_equal(batch, loop)
    assert dual_kernel_residual(sys_, F, y0, 1.0, n_paths, 4, 1e-2) == loop.max()


@pytest.mark.parametrize("size", [1, 7])
def test_batched_dual_independent_of_chunk_and_grid_cap(monkeypatch, size):
    sys_, F, y0 = generated_dual_case(3)
    ref = dual_path_maxima(sys_, F, y0, 1.0, 30, 5, 1e-2)
    monkeypatch.setattr(mc, "CHUNK", size)
    monkeypatch.setattr(pdmp, "GRID_FLOATS", size)
    assert np.array_equal(dual_path_maxima(sys_, F, y0, 1.0, 30, 5, 1e-2), ref)


def test_batched_dual_absorbing_start_mode():
    sys_, F, y0 = generated_dual_case(5)
    modes = (dataclasses.replace(sys_.modes[0], rate=0.0), *sys_.modes[1:])
    sys_ = dataclasses.replace(sys_, modes=modes)
    batch = dual_path_maxima(sys_, F, y0, 1.0, 20, 2, 1e-2)
    assert np.array_equal(batch, loop_dual_maxima(sys_, F, y0, 1.0, 20, 2, 1e-2))
    assert np.all(batch == batch[0])  # one jump-free path, drawn 20 times


def test_dual_kernel_residual_refuses_no_paths():
    sys_, F, y0 = half_feedback_case()
    for n_paths in (0, -5):
        with pytest.raises(ValueError):
            dual_kernel_residual(sys_, F, y0, 1.0, n_paths, 0, 1e-2)


def test_dual_kernel_residual_keeps_non_finite_paths():
    # A path whose dual state overflows used to drop out of the maximum
    # (max(worst, nan) keeps worst), so a long horizon certified 0.0.
    sys_ = fixtures.nec1_det_not_nec2()
    F = feedback_witness(sys_, 0).F
    y0 = np.array([0.6, 0.8])
    assert dual_kernel_residual(sys_, F, y0, 1.0, 5, 0, 1e-1) == pytest.approx(0.6)
    assert not math.isfinite(dual_kernel_residual(sys_, F, y0, 400.0, 5, 0, 1e-1))
    # Only the paths that spend long in the explosive absorbing mode 1
    # overflow; the others keep finite maxima, and the residual is
    # non-finite all the same.
    A = (np.zeros((2, 2)), -1e4 * np.eye(2))
    modes = tuple(dataclasses.replace(m, A=a, rate=r)
                  for m, a, r in zip(sys_.modes, A, (1.0, 0.0)))
    blowup = dataclasses.replace(sys_, modes=modes)
    maxima = dual_path_maxima(blowup, {}, y0, 1.0, 40, 3, 1e-2)
    assert np.isfinite(maxima).any() and not np.isfinite(maxima).all()
    loop = loop_dual_maxima(blowup, {}, y0, 1.0, 40, 3, 1e-2)
    assert np.array_equal(maxima, loop, equal_nan=True)
    assert not math.isfinite(dual_kernel_residual(blowup, {}, y0, 1.0, 40, 3, 1e-2))
