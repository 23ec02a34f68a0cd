import numpy as np
import pytest

from switchctrl import criteria, fixtures
from switchctrl.criteria import (
    FeedbackWitness,
    RefusalError,
    accessible_modes,
    crit_cont_switch_check,
    crit_equiv_check,
    det_kalman_check,
    feedback_witness,
    invariant_fixpoint,
    kalman_rank,
    nec1_check,
    nec2_check,
    strict_invariant_fixpoint,
    suf1_check,
    unobservable_subspace,
)
from switchctrl.model import Mode, SwitchSystem, as_constant
from switchctrl.subspace import Subspace, kernel

E1, E2, E3 = np.eye(3)


def span(*vs):
    return Subspace.span_of(*vs)


# ---------------------------------------------------------------- kalman_rank


def test_kalman_rank_swap_drift():
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    B = np.array([[1.0], [0.0]])
    assert kalman_rank(A, B) == 2


def test_kalman_rank_zero_drift():
    assert kalman_rank(np.zeros((2, 2)), np.array([[1.0], [0.0]])) == 1


def test_kalman_rank_identity():
    for n in (1, 2, 4):
        assert kalman_rank(np.eye(n), np.eye(n)) == n


# ------------------------------------------------------ unobservable subspace


def test_unobservable_subspace_shift_pattern():
    M = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    W = unobservable_subspace(M, E1.reshape(1, 3))
    assert W.isclose(span(E3))


def test_unobservable_subspace_diagonal():
    M = np.diag([0.0, 1.0])
    W = unobservable_subspace(M, np.array([[1.0, 0.0]]))
    assert W.isclose(Subspace.span_of(np.array([0.0, 1.0])))


def test_unobservable_subspace_agrees_with_fixpoint_iteration():
    # Two independent algorithms for the same object must coincide.
    rng = np.random.default_rng(59)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        d = int(rng.integers(1, 3))
        M = rng.standard_normal((n, n))
        Bstar = rng.standard_normal((d, n))
        if rng.random() < 0.3:
            M[:, 0] = 0.0  # encourage nontrivial kernels
        direct = unobservable_subspace(M, Bstar)
        seeded, chain = invariant_fixpoint(M, kernel(Bstar))
        assert direct.isclose(seeded, tol=1e-7), (direct.dim, seeded.dim)
        dims = [s.dim for s in chain]
        assert dims == sorted(dims, reverse=True)
        assert dims[-1] == dims[-2]


# ------------------------------------------------------------------ acc modes


def test_accessible_modes_bimodal():
    sys_ = fixtures.nec1_not_det()
    assert accessible_modes(sys_, 0, 0) == {0}
    assert accessible_modes(sys_, 0, 1) == {0, 1}


def test_accessible_modes_closure_matches_boolean_powers():
    # Oracle: reachability via boolean matrix powers of the support graph.
    rng = np.random.default_rng(61)
    for _ in range(50):
        k = int(rng.integers(2, 6))
        Q = rng.random((k, k)) * (rng.random((k, k)) < 0.4)
        np.fill_diagonal(Q, 0.0)
        # normalize nonzero rows; zero rows stay (silent modes)
        sums = Q.sum(axis=1, keepdims=True)
        Q = np.divide(Q, sums, out=np.zeros_like(Q), where=sums > 0)
        modes = tuple(
            Mode(id=str(i), embedding=np.zeros(1), rate=1.0,
                 A=np.zeros((1, 1)), B0=np.ones((1, 1)))
            for i in range(k)
        )
        C = {(i, j): np.zeros((1, 1)) for i in range(k) for j in range(k)
             if Q[i, j] > 0}
        sys_ = SwitchSystem(n=1, d=1, m=1, beta=np.zeros(1), modes=modes, Q=Q, C=C)

        adj = Q > 1e-12
        reach = np.eye(k, dtype=bool)
        power = np.eye(k, dtype=bool)
        expected_by_k = []
        for _step in range(k + 2):
            expected_by_k.append(set(np.flatnonzero(reach[0]).tolist()))
            power = power @ adj
            reach = reach | power
        for kk in range(k + 2):
            assert accessible_modes(sys_, 0, kk) == expected_by_k[kk]
        assert accessible_modes(sys_, 0, k) == accessible_modes(sys_, 0, 5 * k)


def test_accessible_modes_stop_at_silent_modes():
    # A silent mode (rate 0) never jumps, even when its transition row is
    # stochastic, so nothing beyond it is accessible.
    modes = tuple(
        Mode(id=str(i), embedding=np.zeros(1), rate=rate,
             A=np.zeros((1, 1)), B0=np.ones((1, 1)))
        for i, rate in enumerate((0.0, 1.0, 1.0))
    )
    Q = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    C = {(0, 1): np.zeros((1, 1)), (1, 2): np.zeros((1, 1)),
         (2, 0): np.zeros((1, 1))}
    sys_ = SwitchSystem(n=1, d=1, m=1, beta=np.zeros(1), modes=modes, Q=Q, C=C)
    assert accessible_modes(sys_, 0, 3) == {0}
    assert accessible_modes(sys_, 1, 3) == {0, 1, 2}
    assert accessible_modes(sys_, 2, 3) == {0, 2}


# ------------------------------------------------- strict invariant fixpoints


def test_strict_fixpoint_three_dim_single_modes():
    sys_ = fixtures.nec2_det_not_nec1()
    seed = kernel(sys_.modes[0].B0.T)

    gens0 = [(sys_.modes[0].A.T, [sys_.C[(0, 1)].T])]
    v0, chain0 = strict_invariant_fixpoint(gens0, seed)
    assert v0.isclose(span(E3))

    gens1 = [(sys_.modes[1].A.T, [sys_.C[(1, 0)].T])]
    v1, _ = strict_invariant_fixpoint(gens1, seed)
    assert v1.isclose(span(E2))


def test_strict_fixpoint_constant_shift_system():
    const = as_constant(fixtures.ctrl_not_suf1())
    seed = kernel(const.B.T)
    gens = [(const.A.T, [c.T for _, c in const.marks])]
    v, _ = strict_invariant_fixpoint(gens, seed)
    assert v.is_zero


def test_strict_fixpoint_chain_decreasing_and_stable():
    rng = np.random.default_rng(67)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        seed = kernel(rng.standard_normal((1, n)))
        gens = [(rng.standard_normal((n, n)),
                 [rng.standard_normal((n, n))
                  for _ in range(int(rng.integers(0, 3)))])
                for _ in range(int(rng.integers(1, 3)))]
        v, chain = strict_invariant_fixpoint(gens, seed)
        dims = [s.dim for s in chain]
        assert dims == sorted(dims, reverse=True)
        assert dims[-1] == dims[-2]
        assert len(chain) <= n + 2
        for a, b in zip(chain, chain[1:]):
            assert a.contains(b, tol=1e-7)


# ----------------------------------------------------------------------- nec1


def test_nec1_passes_on_zero_drift_fixture():
    verdict = nec1_check(fixtures.nec1_not_det())
    assert verdict.overall
    assert all(v.passed for v in verdict.per_mode.values())
    assert verdict.details["consistent"]
    assert verdict.details["kalman_ranks"] == {"0": 2, "1": 2}


def test_nec1_fails_on_three_dim_fixture_with_line_witnesses():
    verdict = nec1_check(fixtures.nec2_det_not_nec1())
    assert not verdict.overall
    assert verdict.witness("0").isclose(span(E3))
    assert verdict.witness("1").isclose(span(E2))
    assert verdict.details["consistent"]


def test_nec1_trivial_for_full_rank_input():
    sys_ = fixtures.cont_switch_bound()
    verdict = nec1_check(sys_)
    assert verdict.overall
    for v in verdict.per_mode.values():
        assert v.witness.is_zero


# ----------------------------------------------------------------------- nec2


def test_nec2_passes_on_three_dim_fixture():
    verdict = nec2_check(fixtures.nec2_det_not_nec1())
    assert verdict.overall
    mode0 = verdict.per_mode["0"]
    assert mode0.chain[0].isclose(span(E3))
    assert mode0.chain[1].is_zero
    assert mode0.witness.is_zero
    mode1 = verdict.per_mode["1"]
    assert mode1.chain[0].isclose(span(E2))
    assert mode1.witness.is_zero
    assert not verdict.details["b0_mode_varying"]


def test_nec2_fails_on_swap_drift_fixture():
    verdict = nec2_check(fixtures.nec1_det_not_nec2())
    assert not verdict.overall
    e2 = np.array([0.0, 1.0])
    for v in verdict.per_mode.values():
        assert v.witness.isclose(Subspace.span_of(e2))
        assert v.witness.distance(Subspace.span_of(e2)) <= 1e-9


def test_nec2_computes_each_limit_once(monkeypatch):
    # Both start modes share B0 and reach the same set {0, 1}: three strict
    # fixpoints ({0}, {1}, {0, 1}), not four, with unchanged chains.
    sys_ = fixtures.nec1_det_not_nec2()
    expected = nec2_check(sys_)
    calls = []
    real = criteria.strict_invariant_fixpoint

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(criteria, "strict_invariant_fixpoint", counted)
    verdict = nec2_check(sys_)
    assert len(calls) == 3
    for mode_id, v in verdict.per_mode.items():
        assert [s.basis.tolist() for s in v.chain] == \
            [s.basis.tolist() for s in expected.per_mode[mode_id].chain]


def test_nec2_chain_is_monotone():
    for name in fixtures.FIXTURE_NAMES:
        verdict = nec2_check(fixtures.example_system(name))
        for v in verdict.per_mode.values():
            dims = [s.dim for s in v.chain]
            assert dims == sorted(dims, reverse=True)
            assert dims[-1] == dims[-2]


# ----------------------------------------------------------------------- suf1


def test_suf1_fails_on_zero_drift_fixture_with_kernel_witness():
    verdict = suf1_check(fixtures.nec1_not_det())
    assert not verdict.overall
    e2 = np.array([0.0, 1.0])
    for v in verdict.per_mode.values():
        assert v.witness.isclose(Subspace.span_of(e2))


def test_suf1_fails_on_constant_shift_fixture():
    verdict = suf1_check(fixtures.ctrl_not_suf1())
    assert not verdict.overall
    for v in verdict.per_mode.values():
        assert v.witness.contains(span(E3))


def test_suf1_passes_for_full_rank_input():
    verdict = suf1_check(fixtures.cont_switch_bound())
    assert verdict.overall


def test_suf1_silent_mode_reduces_to_plain_invariance():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    mode = Mode(id="s", embedding=np.zeros(1), rate=0.0, A=A,
                B0=np.array([[1.0], [0.0]]))
    sys_ = SwitchSystem(n=2, d=1, m=1, beta=np.zeros(1), modes=(mode,),
                        Q=np.zeros((1, 1)), C={})
    verdict = suf1_check(sys_)
    assert verdict.witness("s").isclose(
        unobservable_subspace(A.T, np.array([[1.0, 0.0]])))


# ------------------------------------------------------------------ crit_equiv


def test_crit_equiv_passes_on_ctrl_not_suf1():
    verdict = crit_equiv_check(as_constant(fixtures.ctrl_not_suf1()))
    assert verdict.overall
    assert verdict.witness("constant").is_zero


def test_crit_equiv_fails_on_swap_drift_constant_system():
    verdict = crit_equiv_check(as_constant(fixtures.nec1_det_not_nec2()))
    assert not verdict.overall
    assert verdict.witness("constant").isclose(
        Subspace.span_of(np.array([0.0, 1.0])))


def test_crit_equiv_no_marks_full_rank_passes():
    from switchctrl.model import ConstantSystem

    const = ConstantSystem(n=2, d=2, A=np.zeros((2, 2)), B=np.eye(2), marks=())
    assert crit_equiv_check(const).overall


# ------------------------------------------------------------ crit_cont_switch


def test_cont_switch_mixed_modes():
    B0 = np.array([[1.0], [0.0]])
    A0 = np.array([[0.0, 1.0], [0.0, 0.0]])  # rank 1 pair: fails
    A1 = np.array([[0.0, 0.0], [1.0, 0.0]])  # rank 2 pair: passes
    Z = np.zeros((2, 2))
    modes = (
        Mode(id="0", embedding=np.zeros(1), rate=1.0, A=A0, B0=B0),
        Mode(id="1", embedding=np.ones(1), rate=1.0, A=A1, B0=B0),
    )
    sys_ = SwitchSystem(n=2, d=1, m=1, beta=np.zeros(1), modes=modes,
                        Q=np.array([[0.0, 1.0], [1.0, 0.0]]),
                        C={(0, 1): Z, (1, 0): Z})
    verdict = crit_cont_switch_check(sys_)
    assert not verdict.overall
    assert not verdict.per_mode["0"].passed
    assert verdict.per_mode["1"].passed
    assert verdict.details["kalman_ranks"] == {"0": 1, "1": 2}


def test_cont_switch_rotation_generator_passes():
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    B0 = np.array([[1.0], [0.0]])
    Z = np.zeros((2, 2))
    modes = (
        Mode(id="0", embedding=np.zeros(1), rate=1.0, A=A, B0=B0),
        Mode(id="1", embedding=np.ones(1), rate=1.0, A=A, B0=B0),
    )
    sys_ = SwitchSystem(n=2, d=1, m=1, beta=np.zeros(1), modes=modes,
                        Q=np.array([[0.0, 1.0], [1.0, 0.0]]),
                        C={(0, 1): Z, (1, 0): Z})
    assert crit_cont_switch_check(sys_).overall


def test_cont_switch_full_rank_input_passes():
    assert crit_cont_switch_check(fixtures.cont_switch_bound()).overall


def test_cont_switch_refuses_nonzero_jumps():
    with pytest.raises(RefusalError) as err:
        crit_cont_switch_check(fixtures.nec1_not_det())
    assert err.value.code == "C-nonzero"
    assert "0->1" in err.value.detail


# ------------------------------------------------------------------ det_kalman


def test_det_kalman_ranks_on_counterexample_systems():
    assert det_kalman_check(fixtures.nec1_not_det()).details["kalman_ranks"] == \
        {"0": 1, "1": 1}
    assert det_kalman_check(fixtures.nec1_det_not_nec2()).details["kalman_ranks"] == \
        {"0": 2, "1": 2}
    assert det_kalman_check(fixtures.nec2_det_not_nec1()).details["kalman_ranks"] == \
        {"0": 3, "1": 3}


def _signature(v):
    """Per mode: the pass, the chain dimensions and the Kalman rank."""
    ranks = v.details.get("kalman_ranks", {})
    return {mid: (mv.passed, tuple(s.dim for s in mv.chain), ranks.get(mid))
            for mid, mv in v.per_mode.items()}


def test_jump_free_kalman_criteria_share_their_chains():
    # Without jumps the compensated drift is A (the jump compensator is
    # zero), so nec1, det_kalman and crit_cont_switch test the same pairs
    # (A(mode), B0(mode)): equal passes, chains and Kalman ranks, and inside
    # run_criteria one computed chain per mode.
    from conftest import random_switch_system
    from switchctrl.report import run_criteria

    rng = np.random.default_rng(11)
    systems = [fixtures.cont_switch_bound()]
    systems += [random_switch_system(rng, max_n=5, max_modes=4, zero_jump_prob=1.0)
                for _ in range(15)]
    for k, sys_ in enumerate(systems):
        verdicts, _ = run_criteria(sys_)
        sigs = [_signature(verdicts[name])
                for name in ("nec1", "det_kalman", "crit_cont_switch")]
        assert sigs[0] == sigs[1] == sigs[2], k
        for mid, mv in verdicts["det_kalman"].per_mode.items():
            assert verdicts["crit_cont_switch"].per_mode[mid].chain is mv.chain, k
            assert verdicts["nec1"].per_mode[mid].chain is mv.chain, k


def test_each_check_alone_gives_its_verdict_inside_run_criteria():
    from conftest import random_switch_system
    from switchctrl.report import run_criteria

    alone = {"nec1": nec1_check, "nec2": nec2_check, "suf1": suf1_check,
             "det_kalman": det_kalman_check, "crit_cont_switch": crit_cont_switch_check,
             "crit_equiv": lambda s: crit_equiv_check(as_constant(s))}
    # one drift with two inputs: equal drift bytes must not share a chain
    A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    Z = np.zeros((3, 3))
    modes = tuple(Mode(id=str(i), embedding=np.full(1, float(i)), rate=1.0, A=A,
                       B0=np.eye(3)[:, [i]]) for i in range(2))
    same_drift = SwitchSystem(n=3, d=1, m=1, beta=np.zeros(1), modes=modes,
                              Q=np.array([[0.0, 1.0], [1.0, 0.0]]),
                              C={(0, 1): Z, (1, 0): Z})
    assert _signature(det_kalman_check(same_drift)) == \
        {"0": (False, (2, 2, 2, 2), 1), "1": (False, (2, 1, 1, 1), 2)}
    rng = np.random.default_rng(12)
    systems = [same_drift] + [fixtures.example_system(name)
                              for name in fixtures.FIXTURE_NAMES]
    systems += [random_switch_system(rng, max_n=5, max_modes=4,
                                     zero_jump_prob=1.0 if k % 2 else 0.25)
                for k in range(16)]
    for k, sys_ in enumerate(systems):
        verdicts, _ = run_criteria(sys_)
        for name, v in verdicts.items():
            single = alone[name](sys_)
            assert _signature(single) == _signature(v), (k, name)
            for mid, mv in v.per_mode.items():
                assert [s.basis.tobytes() for s in single.per_mode[mid].chain] == \
                    [s.basis.tobytes() for s in mv.chain], (k, name, mid)


# ------------------------------------------------------------ feedback witness


def test_feedback_witness_matches_explicit_dual_gain():
    sys_ = fixtures.nec1_det_not_nec2()
    wit = feedback_witness(sys_, 0)
    assert isinstance(wit, FeedbackWitness)
    assert wit.v_inf.isclose(Subspace.span_of(np.array([0.0, 1.0])))
    assert wit.residual <= 1e-8
    e2 = np.array([0.0, 1.0])
    for F in wit.F.values():
        assert np.allclose(F @ e2, -2.0 * e2, atol=1e-9)


def test_feedback_witness_none_when_chain_collapses():
    assert feedback_witness(fixtures.nec2_det_not_nec1(), 0) is None
    assert feedback_witness(fixtures.cont_switch_bound(), 0) is None


def test_feedback_witness_residual_on_random_failures():
    # Whenever a witness exists its invariance residual must clear 1e-8.
    from conftest import random_switch_system

    rng = np.random.default_rng(71)
    found = 0
    for _ in range(200):
        sys_ = random_switch_system(rng)
        for i in range(sys_.n_modes):
            wit = feedback_witness(sys_, i)
            if wit is None:
                continue
            found += 1
            assert wit.residual <= 1e-8
    assert found > 10


def test_single_mode_strict_witness_contained_in_augmented_witness():
    # The gamma-only strictly invariant subspace is always swallowed by the
    # fixed-image iteration's witness, and the two nec1 routes agree.
    from conftest import random_switch_system
    from switchctrl.subspace import kernel as sub_kernel

    rng = np.random.default_rng(107)
    for _ in range(120):
        sys_ = random_switch_system(rng)
        sf = suf1_check(sys_)
        v1 = nec1_check(sys_)
        assert v1.details["consistent"]
        for i, mode in enumerate(sys_.modes):
            seed = sub_kernel(mode.B0.T)
            gens = [(mode.A.T, [sys_.C[(i, j)].T for j in sys_.support(i)])]
            w, _ = strict_invariant_fixpoint(gens, seed)
            assert sf.witness(mode.id).contains(w, tol=1e-7), (
                i, w.dim, sf.witness(mode.id).dim)
        for mv in sf.per_mode.values():
            dims = [s.dim for s in mv.chain]
            assert dims == sorted(dims, reverse=True)
            assert dims[-1] == dims[-2]
            assert len(mv.chain) <= sys_.n + 2


def test_strict_fixpoint_output_satisfies_defining_inclusion():
    # Direct post-condition: A* v stays in V + sum_j C*_j V for every
    # generator and every witness vector, within tolerance.
    rng = np.random.default_rng(109)
    for _ in range(80):
        n = int(rng.integers(1, 5))
        seed = kernel(rng.standard_normal((int(rng.integers(1, 3)), n)))
        gens = [(rng.standard_normal((n, n)),
                 [rng.standard_normal((n, n))
                  for _ in range(int(rng.integers(0, 3)))])
                for _ in range(int(rng.integers(1, 3)))]
        v, _ = strict_invariant_fixpoint(gens, seed)
        if v.is_zero:
            continue
        for astar, cstars in gens:
            cols = [v.basis] + [c @ v.basis for c in cstars]
            target = Subspace.span_of(*[col for m in cols for col in m.T])
            for j in range(v.dim):
                img = astar @ v.basis[:, j]
                assert target.contains_vector(img, tol=1e-7)


def test_suf1_witness_satisfies_defining_inclusion():
    from conftest import random_switch_system
    from switchctrl.subspace import image, kernel as sub_kernel

    rng = np.random.default_rng(113)
    checked = 0
    for _ in range(60):
        sys_ = random_switch_system(rng)
        sf = suf1_check(sys_)
        for i, mode in enumerate(sys_.modes):
            if mode.rate <= 0:
                continue
            w = sf.witness(mode.id)
            if w.is_zero:
                continue
            ker = sub_kernel(mode.B0.T)
            cols = [(sys_.C[(i, j)].T + np.eye(sys_.n)) @ ker.basis
                    for j in sys_.support(i)]
            U = image(np.hstack(cols)) if (cols and ker.dim) else None
            target = w.sum(U) if U is not None else w
            for j in range(w.dim):
                img = mode.A.T @ w.basis[:, j]
                assert target.contains_vector(img, tol=1e-7)
                checked += 1
    assert checked > 30
