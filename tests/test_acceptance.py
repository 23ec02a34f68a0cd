"""Acceptance gate: one test per numbered criterion, at stated tolerances.

Each test prints a single PASS line (visible under ``pytest -s`` /
``pytest -v -s``) including its measured runtime, and fails loudly
otherwise.  Runtime limits are asserted, not just reported.
"""

import time

import numpy as np
import pytest
from conftest import random_switch_system

from switchctrl import fixtures
from switchctrl.criteria import (
    invariant_fixpoint,
    kalman_rank,
    nec1_check,
    nec2_check,
    suf1_check,
    unobservable_subspace,
)
from switchctrl.mc import null_bound_check, trajectory_rng
from switchctrl.model import as_constant
from switchctrl.pdmp import (
    FeedbackDualControl,
    sample_mode_path,
    simulate_dual,
    simulate_forward,
)
from switchctrl.riccati import viability_test
from switchctrl.subspace import kernel, pseudoinverse
from switchctrl.synth import ConstantPolicy, MinEnergyRestartPolicy, commuting_hypothesis, gramian_factor
from switchctrl.verify import verify_example


class gate:
    """Times a criterion and prints its PASS line on clean exit."""

    def __init__(self, label, limit_s):
        self.label = label
        self.limit = limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert elapsed < self.limit, \
                f"{self.label}: runtime {elapsed:.1f}s exceeds {self.limit}s"
            print(f"PASS {self.label} ({elapsed:.1f}s < {self.limit}s)")
        else:
            print(f"FAIL {self.label} ({elapsed:.1f}s)")
        return False


def assert_bundle(assertions):
    failed = [a for a in assertions if not a.ok]
    assert not failed, "failed assertions:\n" + "\n".join(a.line() for a in failed)


def test_a1_zero_drift_fixture_nec1_and_martingale_mean():
    with gate("A1 nec1-not-det: invariance verdicts + martingale mean", 10):
        sys_ = fixtures.nec1_not_det()
        assert kalman_rank(np.zeros((2, 2)), sys_.modes[0].B0) == 1
        assert_bundle(verify_example("nec1-not-det", seed=0))


def test_a2_swap_drift_fixture_chain_limit_and_dual_closed_form():
    with gate("A2 nec1-det-not-nec2: chain limit e2 + dual closed form", 30):
        sys_ = fixtures.nec1_det_not_nec2()
        assert kalman_rank(sys_.modes[0].A, sys_.modes[0].B0) == 2
        assert_bundle(verify_example("nec1-det-not-nec2", seed=0))


def test_a3_three_dim_fixture_strict_witnesses():
    with gate("A3 nec2-det-not-nec1: strict witnesses + nec1 failure", 1):
        assert_bundle(verify_example("nec2-det-not-nec1", seed=0))


def test_a4_constant_fixture_equivalence_vs_sufficient():
    with gate("A4 ctrl-not-suf1: equivalence passes, sufficient test fails", 1):
        assert_bundle(verify_example("ctrl-not-suf1", seed=0))


def test_a5_continuous_switching_terminal_bound():
    with gate("A5 restart policy: terminal mean-square bound over N", 60):
        sys_ = fixtures.cont_switch_bound()
        assert commuting_hypothesis(sys_)
        assert sys_.a0 == pytest.approx(1.0) and sys_.c0 == pytest.approx(1.0)
        x0 = np.array([1.0, 0.0])
        report = null_bound_check(sys_, x0, 1.0, [1, 2, 4, 8, 16],
                                  n_samples=10_000, seed=0, dt=1e-2)
        assert report.commuting
        for check in report.checks:
            assert check.passed, (check.N, check.estimate.mean, check.bound)
        assert report.monotone_ok
        # the bound itself is the claimed closed form
        assert report.checks[-1].bound == pytest.approx(
            np.exp(2.0) * (1.0 - np.exp(-1.0 / 16.0)))


def test_a6_riccati_viability_fixtures():
    with gate("A6 penalty flows: viable line vs nonviable line", 120):
        c2 = as_constant(fixtures.nec1_det_not_nec2())
        rep2 = viability_test(c2, [0.0, 1.0], 1.0)
        assert rep2.verdict == "viable", rep2
        assert rep2.local_powers[-1] < 0.5  # growth exponent has decayed

        c4 = as_constant(fixtures.ctrl_not_suf1())
        rep4 = viability_test(c4, [0.0, 0.0, 1.0], 1.0)
        assert rep4.verdict == "nonviable", rep4
        assert rep4.fitted_power >= 0.5


def test_a7a_unobservable_subspace_two_routes():
    with gate("A7a unobservable subspace: direct vs seeded fixed point", 30):
        rng = np.random.default_rng(201)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            d = int(rng.integers(1, 3))
            M = rng.standard_normal((n, n))
            Bstar = rng.standard_normal((d, n))
            if rng.random() < 0.3:
                M[:, 0] = 0.0
            direct = unobservable_subspace(M, Bstar)
            seeded, _ = invariant_fixpoint(M, kernel(Bstar))
            assert direct.isclose(seeded, tol=1e-7)


def test_a7b_implication_chain_on_random_systems():
    with gate("A7b sufficient pass implies both necessary passes (500 systems)", 60):
        rng = np.random.default_rng(202)
        suf_passes = 0
        for _ in range(500):
            sys_ = random_switch_system(rng, max_n=4, max_modes=3)
            sf = suf1_check(sys_)
            if not sf.overall:
                continue
            suf_passes += 1
            assert nec1_check(sys_).overall, "sufficient pass with nec1 failure"
            assert nec2_check(sys_).overall, "sufficient pass with nec2 failure"
        assert suf_passes >= 20  # the implication must actually be exercised


def test_a7c_duality_pairing_on_random_systems():
    with gate("A7c duality pairing identity (20 systems, 10^3 paths)", 120):
        rng = np.random.default_rng(203)
        dt = 1e-2
        tested = 0
        while tested < 20:
            sys_ = random_switch_system(rng, max_n=3, max_modes=2)
            if sys_.c0 > 1.5:  # keep jump counts desk-scale
                continue
            x0 = rng.standard_normal(sys_.n)
            y0 = rng.standard_normal(sys_.n)
            u = rng.standard_normal(sys_.d)
            b0 = sys_.modes[0].B0
            vals = np.empty(1000)
            for i in range(1000):
                path = sample_mode_path(sys_, 0, 1.0, trajectory_rng(1000 + tested, i))
                fwd = simulate_forward(sys_, x0, ConstantPolicy(u), path, dt)
                dua = simulate_dual(sys_, y0, FeedbackDualControl({}), path, dt)
                integral = np.trapezoid(dua.states @ (b0 @ u), fwd.times)
                vals[i] = float(fwd.states[-1] @ dua.states[-1]) - integral
            se = vals.std(ddof=1) / np.sqrt(vals.size)
            gap = abs(vals.mean() - float(x0 @ y0))
            assert gap <= 3.0 * se + 5.0 * dt, (tested, gap, se)
            tested += 1


def test_a7d_moore_penrose_conditions():
    with gate("A7d Moore-Penrose conditions on 100 random matrices", 10):
        rng = np.random.default_rng(204)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            d = int(rng.integers(1, 7))
            M = rng.standard_normal((n, d))
            if rng.random() < 0.35 and min(n, d) > 1:
                M[:, 0] = 3.0 * M[:, -1]
            P = pseudoinverse(M)
            assert np.max(np.abs(M @ P @ M - M)) < 1e-9
            assert np.max(np.abs(P @ M @ P - P)) < 1e-9
            assert np.max(np.abs((M @ P).T - M @ P)) < 1e-9
            assert np.max(np.abs((P @ M).T - P @ M)) < 1e-9


def test_a7e_minimal_energy_exact_steering():
    with gate("A7e exact steering on 50 random controllable pairs", 60):
        from switchctrl.model import Mode, SwitchSystem
        from switchctrl.pdmp import ModePath

        rng = np.random.default_rng(205)
        done = 0
        while done < 50:
            n = int(rng.integers(1, 5))
            d = int(rng.integers(1, n + 1))
            A = rng.standard_normal((n, n))
            B = rng.standard_normal((n, d))
            if kalman_rank(A, B) < n:
                continue
            mode = Mode(id="s", embedding=np.zeros(1), rate=0.0, A=A, B0=B)
            sys_ = SwitchSystem(n=n, d=d, m=1, beta=np.zeros(1), modes=(mode,),
                                Q=np.zeros((1, 1)), C={})
            try:
                factor = gramian_factor(sys_, 0, 1.0)
            except Exception:
                continue  # numerically singular pair: not a valid test case
            if factor.condition > 1e5:
                # the steering error floor is cond(G) * eps-level noise, so
                # the 1e-8 contract is only meaningful on conditioned pairs
                continue
            y = rng.standard_normal(n)
            policy = MinEnergyRestartPolicy(sys_, 1, 1.0)
            path = ModePath(1.0, np.array([]), (0,))
            xT = simulate_forward(sys_, y, policy, path, 1e-4, record=False)
            assert np.linalg.norm(xT) <= 1e-8 * max(np.linalg.norm(y), 1e-12), \
                (done, np.linalg.norm(xT) / np.linalg.norm(y))
            done += 1
