import numpy as np
import pytest
from scipy.linalg.lapack import dpotrf

from switchctrl import fixtures, riccati
from switchctrl.model import ConstantSystem, as_constant
from switchctrl.riccati import (RiccatiPositivityError, integrate_riccati, riccati_csv,
                                viability_test)


def scalar_system(a, b, marks=()):
    return ConstantSystem(n=1, d=1, A=np.array([[float(a)]]),
                          B=np.array([[float(b)]]), marks=marks)


# ----------------------------------------------------------------- integration


def test_zero_projector_keeps_flow_at_zero():
    run = integrate_riccati(scalar_system(0.0, 0.0), 7.0, 1.0)
    assert np.max(np.abs(run.K)) == 0.0


def test_linear_growth_closed_form():
    # Full-rank input, zero drift, no marks: K(t) = N t exactly.
    run = integrate_riccati(scalar_system(0.0, 1.0), 5.0, 1.0)
    assert np.max(np.abs(run.K[:, 0, 0] - 5.0 * run.grid)) <= 1e-10


def test_flow_is_symmetric_psd_and_monotone():
    c2 = as_constant(fixtures.nec1_det_not_nec2())
    run = integrate_riccati(c2, 10.0, 1.0)
    assert run.K[0].tolist() == [[0.0, 0.0], [0.0, 0.0]]
    sel = np.linspace(0, len(run.grid) - 1, 25).astype(int)
    for i in sel:
        K = run.K[i]
        assert np.max(np.abs(K - K.T)) <= 1e-9
        assert np.linalg.eigvalsh(K).min() >= -1e-9
    for a, b in zip(sel, sel[1:]):
        diff = run.K[b] - run.K[a]
        assert np.linalg.eigvalsh(diff).min() >= -1e-8  # Loewner nondecreasing


def test_monotone_in_penalty_weight():
    # Comparison oracle: K^N(t) <= K^N'(t) in the Loewner order for N <= N'.
    rng = np.random.default_rng(97)
    for _ in range(5):
        n = int(rng.integers(1, 4))
        marks = tuple(
            (float(rng.uniform(0.3, 1.5)), 0.6 * rng.standard_normal((n, n)))
            for _ in range(int(rng.integers(0, 3)))
        )
        cs = ConstantSystem(n=n, d=1, A=rng.standard_normal((n, n)),
                            B=rng.standard_normal((n, 1)), marks=marks)
        # the two flows take different steps, so compare terminal forms at
        # common horizons
        for T in np.linspace(0.1, 0.8, 8):
            diff = integrate_riccati(cs, 10.0, T).K[-1] - integrate_riccati(cs, 1.0, T).K[-1]
            assert np.linalg.eigvalsh(diff).min() >= -1e-8


def test_terminal_forms_match_seed_rk4():
    # Ladder tables and CSV terminal K of the former fixed-step RK4 path
    # (dt = 1e-4 T, T = 1).
    tables = {
        "nec1_det_not_nec2": ([0.0, 1.0], [
            (1.0, 0.36629267262679044), (10.0, 2.31416573397281),
            (100.0, 7.370630180123845), (1000.0, 16.48882551093228)]),
        "ctrl_not_suf1": ([0.0, 0.0, 1.0], [
            (1.0, 0.04064190854841858), (10.0, 0.28069117437074287),
            (100.0, 1.9569662009316737), (1000.0, 14.60295338370502)]),
    }
    for name, (y, table) in tables.items():
        cs = as_constant(getattr(fixtures, name)())
        for N, q in table:
            run = integrate_riccati(cs, N, 1.0)
            assert run.grid[-1] == 1.0
            assert abs(run.terminal_form(y) - q) <= 1e-9 * q
    terminal_K = {
        1.0: [1.284280378976094, -0.6206611595900056,
              -0.6206611595900056, 0.36629267262679044],
        1000.0: [200.77297384352573, -34.997264993825894,
                 -34.997264993825894, 16.48882551093228],
    }
    c2 = as_constant(fixtures.nec1_det_not_nec2())
    for N, K in terminal_K.items():
        got = integrate_riccati(c2, N, 1.0).K[-1].ravel()
        assert np.max(np.abs(got - K)) <= 1e-9 * np.max(np.abs(K))


def test_positivity_failure_rejects_the_step(monkeypatch):
    # A failed Cholesky factorization of I + K rejects the step and shrinks
    # it; the flow still reaches T with the same terminal K.
    c2 = as_constant(fixtures.nec1_det_not_nec2())
    ref = integrate_riccati(c2, 10.0, 1.0)
    real = riccati.cholesky
    calls = []

    def flaky(a):
        calls.append(None)
        if len(calls) == 40:
            raise np.linalg.LinAlgError("I + K is not positive definite")
        return real(a)

    monkeypatch.setattr(riccati, "cholesky", flaky)
    run = integrate_riccati(c2, 10.0, 1.0)
    assert run.grid.shape != ref.grid.shape or np.any(run.grid != ref.grid)
    assert run.grid[-1] == 1.0
    assert np.max(np.abs(run.K[-1] - ref.K[-1])) <= 1e-9 * np.max(np.abs(ref.K[-1]))


def test_positivity_error_on_step_underflow(monkeypatch):
    # Every factorization after the one at K(0) = 0 fails: the step shrinks
    # by 0.2 per rejection until it underflows 1e-14 T.
    real = riccati.cholesky
    calls = []

    def only_first(a):
        calls.append(None)
        if len(calls) > 1:
            raise np.linalg.LinAlgError("I + K is not positive definite")
        return real(a)

    monkeypatch.setattr(riccati, "cholesky", only_first)
    c2 = as_constant(fixtures.nec1_det_not_nec2())
    with pytest.raises(RiccatiPositivityError) as err:
        integrate_riccati(c2, 10.0, 2.0)
    assert err.value.t == 0.0
    assert 0.2e-14 * 2.0 <= err.value.h < 1e-14 * 2.0


def test_positivity_rule_matches_lapack_dpotrf():
    # Oracle: LAPACK's dpotrf, whose info > 0 was the former rejection rule.
    # I + K is built from a hand-picked spectrum, and the right-hand side
    # must refuse it exactly when dpotrf does.
    rng = np.random.default_rng(101)
    seen = {True: 0, False: 0}
    for smallest in (-1e-3, -1e-12, 1e-12, 1e-3, 0.5, 2.0):
        for _ in range(25):
            n = int(rng.integers(1, 6))
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            spectrum = np.concatenate([[smallest], rng.uniform(0.5, 3.0, n - 1)])
            K = Q @ np.diag(spectrum) @ Q.T - np.eye(n)
            K = 0.5 * (K + K.T)
            cs = ConstantSystem(n=n, d=1, A=rng.standard_normal((n, n)),
                                B=rng.standard_normal((n, 1)),
                                marks=((0.7, rng.standard_normal((n, n))),))
            rhs = riccati._rhs_builder(cs, 10.0, np.eye(n))
            lapack_refuses = dpotrf(np.eye(n) + K, lower=1, clean=0)[1] > 0
            assert lapack_refuses == (smallest < 0)
            try:
                rhs(K, np.empty((n, n)))
                refused = False
            except np.linalg.LinAlgError:
                refused = True
            assert refused == lapack_refuses, (smallest, n)
            seen[refused] += 1
    assert seen[True] == 50 and seen[False] == 100


def test_energy_bound_of_explicit_confining_control():
    # The terminal quadratic form can never exceed the energy of any
    # control that keeps the dual inside the kernel; for the swap-drift
    # fixture the unique confining control costs exactly e^4 - 1.
    c2 = as_constant(fixtures.nec1_det_not_nec2())
    e2 = np.array([0.0, 1.0])
    bound = np.exp(4.0) - 1.0
    for N in (1.0, 100.0, 1000.0):
        q = integrate_riccati(c2, N, 1.0).terminal_form(e2)
        assert 0.0 <= q <= bound + 1e-6


# ------------------------------------------------------------- viability test


def test_viable_direction_on_swap_drift_fixture():
    c2 = as_constant(fixtures.nec1_det_not_nec2())
    rep = viability_test(c2, [0.0, 1.0], 1.0)
    assert rep.verdict == "viable"
    assert rep.in_kernel
    assert len(rep.table) == 4
    # bounded sequence: decaying local exponent, well under the threshold
    assert rep.local_powers[-1] < 0.5


def test_nonviable_direction_on_shift_fixture():
    c4 = as_constant(fixtures.ctrl_not_suf1())
    rep = viability_test(c4, [0.0, 0.0, 1.0], 1.0)
    assert rep.verdict == "nonviable"
    assert rep.fitted_power is not None and rep.fitted_power >= 0.5


def test_every_kernel_direction_nonviable_when_equivalence_holds():
    # crit_equiv passes on the shift fixture, so its kernel vectors are
    # all nonviable.
    c4 = as_constant(fixtures.ctrl_not_suf1())
    for y in ([0.0, 1.0, 0.0], [0.0, 1.0, 1.0]):
        rep = viability_test(c4, np.array(y) / np.linalg.norm(y), 1.0)
        assert rep.verdict == "nonviable"


def test_zero_vector_is_viable_with_vanishing_forms():
    c2 = as_constant(fixtures.nec1_det_not_nec2())
    rep = viability_test(c2, [0.0, 0.0], 1.0)
    assert rep.verdict == "viable"
    assert all(q == 0.0 for _, q in rep.table)


def test_vector_outside_kernel_immediately_nonviable():
    c2 = as_constant(fixtures.nec1_det_not_nec2())
    rep = viability_test(c2, [1.0, 0.0], 1.0)
    assert rep.verdict == "nonviable"
    assert not rep.in_kernel
    assert rep.table == ()


def test_n_list_validation():
    c2 = as_constant(fixtures.nec1_det_not_nec2())
    with pytest.raises(ValueError):
        viability_test(c2, [0.0, 1.0], 1.0, N_list=(1.0, 10.0))
    with pytest.raises(ValueError):
        viability_test(c2, [0.0, 1.0], 1.0, N_list=(10.0, 1.0, 100.0))
    # a repeated rung gave a nan exponent and a false plateau
    with pytest.raises(ValueError, match="strictly increasing"):
        viability_test(c2, [0.0, 1.0], 1.0, N_list=(1.0, 10.0, 10.0, 100.0))


# ----------------------------------------------------------------------- csv


def test_riccati_csv_layout():
    import io

    run = integrate_riccati(scalar_system(0.0, 1.0), 2.0, 0.1)
    buf = io.StringIO()
    riccati_csv([run], buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "N,t,k11"
    assert len(lines) == 1 + len(run.grid)
    first = lines[1].split(",")
    assert float(first[0]) == 2.0 and float(first[1]) == 0.0
