"""Algebraic controllability criteria built from invariant-subspace fixed points.

Each criterion produces, per starting mode, a *witness* subspace inside
``ker(B0*)``; the criterion passes exactly when the witness is the zero
subspace.  All largest-subspace computations run the same decreasing
fixed-point iteration from their seed, so every verdict carries the full
inclusion chain down to stabilization.  Each step is one rank decision
(``restricted_preimage``); orthogonal changes of state or input coordinates
and mode relabellings move its singular values only by round-off.

Criterion names
---------------
``nec1``
    per-mode invariance of the compensated adjoint drift (necessary),
``nec2``
    strict invariance over modes accessible in ``k`` jumps, intersected
    over ``k`` (necessary),
``suf1``
    per-mode iteration with the augmented jump image held fixed at
    ``ker(B0*)`` (sufficient),
``crit_equiv``
    strict invariance for constant-coefficient systems (necessary and
    sufficient, for both approximate and approximate null-controllability),
``crit_cont_switch``
    plain adjoint invariance when no state jumps occur (necessary and
    sufficient),
``det_kalman``
    controllability of the per-mode deterministic pair, reported for
    information only and never folded into the stochastic verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .model import ConstantSystem, SwitchSystem
from .pdmp import effective_drift
from .subspace import (
    DEFAULT_RANK_TOL,
    Subspace,
    image,
    kernel,
    numerical_rank,
    orthonormalize,
    preimage,
    restricted_preimage,
    unit_norm,
)


class RefusalError(ValueError):
    """A criterion or synthesis step refused its input; ``code`` says why."""

    def __init__(self, code: str, detail: str = ""):
        self.code = code
        self.detail = detail
        super().__init__(f"{code}" + (f": {detail}" if detail else ""))


class WitnessInfeasibleError(RuntimeError):
    """Feedback-witness synthesis did not reach the required residual.

    This contradicts strict invariance of the witness subspace and signals
    an inconsistent numerical-rank decision upstream.
    """


@dataclass(frozen=True)
class ModeVerdict:
    """Per-mode outcome: a criterion's stabilized chain.  The witness is its
    last entry, and the mode passes exactly when the witness is {0}."""

    chain: tuple[Subspace, ...]

    @property
    def witness(self) -> Subspace:
        return self.chain[-1]

    @property
    def passed(self) -> bool:
        return self.witness.is_zero


@dataclass(frozen=True)
class CriterionVerdict:
    """Per-mode verdicts of one criterion; it passes when every mode does."""

    name: str
    per_mode: Mapping[str, ModeVerdict]
    details: Mapping[str, object] = field(default_factory=dict)

    @property
    def overall(self) -> bool:
        return all(v.passed for v in self.per_mode.values())

    def witness(self, mode_id: str) -> Subspace:
        return self.per_mode[mode_id].witness


# --------------------------------------------------------------------------
# primitive computations
# --------------------------------------------------------------------------


def kalman_rank(A, B, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Numerical rank of the controllability matrix [B, AB, ..., A^(n-1)B]."""
    A = np.asarray(A, dtype=float)
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if B.shape[0] != A.shape[0]:
        B = B.T
    blocks = [B]
    for _ in range(A.shape[0] - 1):
        blocks.append(A @ blocks[-1])
    return numerical_rank(np.hstack(blocks), rank_tol)


def _observability_chain(M, Bstar, rank_tol) -> tuple[Subspace, ...]:
    """Decreasing chain V_j = ker[Bstar; Bstar M; ...; Bstar M^j], j = 0..n.

    Built as V_0 = ker(Bstar), V_{j+1} = V_0 ∩ M^{-1} V_j, one restricted
    kernel per step and no power of M.  The first repeat is the fixed point,
    so it ends the recursion and fills the chain up to its n + 1 entries.
    """
    M = unit_norm(M)
    V0 = kernel(Bstar, rank_tol)
    chain = _decreasing_chain(lambda V: restricted_preimage(V0, [(M, V)], rank_tol), V0)
    return chain + chain[-1:] * (M.shape[0] + 1 - len(chain))


def unobservable_subspace(M, Bstar, rank_tol: float = DEFAULT_RANK_TOL) -> Subspace:
    """Largest M-invariant subspace in ker(Bstar): ker(Bstar M^k) over all k < n."""
    return _observability_chain(M, Bstar, rank_tol)[-1]


def _decreasing_chain(step, V: Subspace) -> tuple[Subspace, ...]:
    """Chain ``V, step(V), step(step(V)), ...`` up to the first step that
    keeps the dimension; that stabilized repeat ends the chain.

    ``step`` must map a subspace into itself, so the chain decreases and
    stalls within ``ambient_dim + 1`` steps.
    """
    chain = [V]
    for _ in range(V.ambient_dim + 1):
        W = step(V)
        chain.append(W)
        if W.dim == V.dim:
            break
        V = W
    return tuple(chain)


def invariant_fixpoint(M, seed: Subspace, rank_tol: float = DEFAULT_RANK_TOL):
    """Largest M-invariant subspace of ``seed`` by decreasing iteration.

    The cross-check route: a preimage then an intersection per step, not
    the criteria's restricted kernel.  Seeded at ``ker(Bstar)`` it must
    agree with :func:`unobservable_subspace`.
    """
    chain = _decreasing_chain(
        lambda V: V.intersect(preimage(M, V, rank_tol), rank_tol), seed)
    return chain[-1], chain


def accessible_modes(system: SwitchSystem, start: int, k: int) -> frozenset[int]:
    """Modes reachable from ``start`` by some chain of at most ``k`` positive
    transition probabilities (the start itself counts as zero steps)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    acc = {start}
    frontier = {start}
    for _ in range(k):
        frontier = {j for i in frontier for j in system.support(i)}
        if frontier <= acc:
            # a stalled union can never grow again
            break
        acc |= frontier
    return frozenset(acc)


Generator = tuple[np.ndarray, Sequence[np.ndarray]]


def strict_invariant_fixpoint(
    generators: Sequence[Generator],
    seed: Subspace,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> tuple[Subspace, tuple[Subspace, ...]]:
    """Largest V inside ``seed`` with A* V <= V + sum_j C*_j V for every generator.

    ``generators`` lists per-mode pairs ``(Astar, [Cstar_1, ...])``; the
    image term is rebuilt from the shrinking V at every round (strict
    invariance), and one stacked restricted kernel takes every generator's
    preimage.  The iteration is monotone decreasing and reaches its fixed
    point in at most ``dim(seed)`` strict steps; the returned chain ends
    with the stabilized repeat.
    """
    gens = [(unit_norm(Astar), cstars) for Astar, cstars in generators]

    def step(V: Subspace) -> Subspace:
        maps = []
        for Astar, cstars in gens:
            target = V
            if V.dim and cstars:
                cols = [V.basis] + [Cs @ V.basis for Cs in cstars]
                target = orthonormalize(np.hstack(cols), rank_tol)
            maps.append((Astar, target))
        return restricted_preimage(V, maps, rank_tol)

    chain = _decreasing_chain(step, seed)
    return chain[-1], chain


def _mode_generator(system: SwitchSystem, i: int) -> Generator:
    # Adjoint drift plus the adjoint jump matrices of every positive-rate
    # outgoing edge; a silent mode (rate 0) carries the zero jump measure,
    # so its image term is empty and only plain invariance remains.
    cstars = [system.C[(i, j)].T for j in system.support(i)]
    return (system.modes[i].A.T, cstars)


def _strict_limit(system: SwitchSystem, modes, seed: Subspace,
                  rank_tol: float) -> Subspace:
    """Largest subspace of ``seed`` strictly invariant under every mode in
    ``modes`` (the chain limit of nec2 and the feedback witness)."""
    gens = [_mode_generator(system, j) for j in modes]
    return strict_invariant_fixpoint(gens, seed, rank_tol)[0]


def _kalman_verdict(name: str, system: SwitchSystem, drifts,
                    rank_tol: float, chains: dict | None) -> CriterionVerdict:
    """Observability-chain verdicts of the per-mode pairs ``(drifts[i], B0(i))``,
    with their Kalman ranks in ``details['kalman_ranks']``.

    ``chains`` maps ``(drift bytes, B0 bytes, rank_tol)`` to the chain and
    rank already computed for that pair, so criteria sharing one dict (as
    in ``report.run_criteria``) compute each distinct pair once.
    """
    chains = {} if chains is None else chains
    per_mode = {}
    ranks = {}
    for mode, drift in zip(system.modes, drifts):
        key = (drift.tobytes(), mode.B0.tobytes(), rank_tol)
        if key not in chains:
            chains[key] = (_observability_chain(drift.T, mode.B0.T, rank_tol),
                           kalman_rank(drift, mode.B0, rank_tol))
        chain, ranks[mode.id] = chains[key]
        per_mode[mode.id] = ModeVerdict(chain)
    return CriterionVerdict(name, per_mode, {"kalman_ranks": ranks})


# --------------------------------------------------------------------------
# criteria
# --------------------------------------------------------------------------


def nec1_check(system: SwitchSystem, rank_tol: float = DEFAULT_RANK_TOL, *,
               chains: dict | None = None) -> CriterionVerdict:
    """Necessary test: no nontrivial invariant subspace of the compensated
    adjoint drift may survive inside ker(B0*), for any starting mode.

    The witness route (observability kernel) is cross-checked against the
    Kalman rank of the non-transposed pair; ``details['consistent']``
    records the agreement.  ``chains`` is the shared memo of
    :func:`_kalman_verdict`.
    """
    drifts = [effective_drift(system, i) for i in range(system.n_modes)]
    v = _kalman_verdict("nec1", system, drifts, rank_tol, chains)
    ranks = v.details["kalman_ranks"]
    consistent = all((ranks[mid] == system.n) == mv.passed
                     for mid, mv in v.per_mode.items())
    return CriterionVerdict("nec1", v.per_mode, {**v.details, "consistent": consistent})


def nec2_check(system: SwitchSystem, rank_tol: float = DEFAULT_RANK_TOL) -> CriterionVerdict:
    """Necessary test: the decreasing chain of largest strictly invariant
    subspaces over k-step accessible modes must hit {0}.

    The chain per starting mode lists V_0 .. V_{|E|}; accessibility
    stabilizes after |E| - 1 steps, so the tail repeats and the last entry
    is the full intersection V_inf.
    """
    per_mode = {}
    limits = {}  # V_k depends only on the accessible set and the seed's B0
    for i, mode in enumerate(system.modes):
        seed = kernel(mode.B0.T, rank_tol)
        chain = []
        for k in range(system.n_modes + 1):
            key = (tuple(sorted(accessible_modes(system, i, k))), mode.B0.tobytes())
            if key not in limits:
                limits[key] = _strict_limit(system, key[0], seed, rank_tol)
            chain.append(limits[key])
        per_mode[mode.id] = ModeVerdict(tuple(chain))
    return CriterionVerdict("nec2", per_mode,
                            {"b0_mode_varying": system.b0_mode_varying()})


def suf1_check(system: SwitchSystem, rank_tol: float = DEFAULT_RANK_TOL) -> CriterionVerdict:
    """Sufficient test: iterate inside ker(B0*) with the augmented image
    (C* + I) applied to the whole kernel, held fixed across rounds.

    A pass on every starting mode certifies approximate null-controllability.
    Silent modes (rate 0) evolve deterministically forever, so they reduce
    to the plain invariance test of the adjoint drift.
    """
    per_mode = {}
    n = system.n
    for i, mode in enumerate(system.modes):
        if mode.rate <= 0.0:
            per_mode[mode.id] = ModeVerdict(
                _observability_chain(mode.A.T, mode.B0.T, rank_tol))
            continue
        astar = unit_norm(mode.A.T)
        ker = kernel(mode.B0.T, rank_tol)
        cols = [(system.C[(i, j)].T + np.eye(n)) @ ker.basis for j in system.support(i)]
        fixed_image = image(np.hstack(cols), rank_tol) if (cols and ker.dim) \
            else Subspace.zero(n)

        def step(V: Subspace) -> Subspace:
            return restricted_preimage(
                V, [(astar, V.sum(fixed_image, rank_tol))], rank_tol)

        per_mode[mode.id] = ModeVerdict(_decreasing_chain(step, step(ker)))
    return CriterionVerdict("suf1", per_mode)


def crit_equiv_check(csystem: ConstantSystem,
                     rank_tol: float = DEFAULT_RANK_TOL) -> CriterionVerdict:
    """Constant-coefficient equivalence test (necessary and sufficient).

    The verdict decides approximate controllability and approximate
    null-controllability at once: both hold exactly when the largest
    strictly invariant subspace of ker(B*) is trivial.
    """
    seed = kernel(csystem.B.T, rank_tol)
    gens = [(csystem.A.T, [c.T for _, c in csystem.marks])]
    _, chain = strict_invariant_fixpoint(gens, seed, rank_tol)
    return CriterionVerdict("crit_equiv", {"constant": ModeVerdict(chain)})


def crit_cont_switch_check(system: SwitchSystem,
                           rank_tol: float = DEFAULT_RANK_TOL, *,
                           chains: dict | None = None) -> CriterionVerdict:
    """Continuous-switching equivalence test (necessary and sufficient).

    Only defined for systems whose state never jumps: every jump matrix
    must vanish, otherwise the check refuses with the offending edges.
    Passing means each pair (A(mode), B0(mode)) is controllable: the
    chains of :func:`det_kalman_check`, which ``chains`` can share.
    """
    ids = system.mode_ids
    offending = [f"{ids[i]}->{ids[j]}" for (i, j), c in sorted(system.C.items())
                 if np.any(c)]
    if offending:
        raise RefusalError("C-nonzero", ", ".join(offending))
    return _kalman_verdict("crit_cont_switch", system,
                           [m.A for m in system.modes], rank_tol, chains)


def det_kalman_check(system: SwitchSystem,
                     rank_tol: float = DEFAULT_RANK_TOL, *,
                     chains: dict | None = None) -> CriterionVerdict:
    """Controllability of each mode's deterministic pair (A, B0).

    Informational only: the counterexample systems show it is logically
    independent of the stochastic criteria, so it never contributes to the
    overall verdict.  ``chains`` is the shared memo of :func:`_kalman_verdict`.
    """
    return _kalman_verdict("det_kalman", system, [m.A for m in system.modes],
                           rank_tol, chains)


# --------------------------------------------------------------------------
# feedback witness
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FeedbackWitness:
    """Certificate that the strictly invariant chain limit is feedback invariant.

    ``F`` maps edges (i, j) to n-by-n matrices with range inside ``v_inf``
    such that, for every accessible mode i and every witness vector v,
    ``A*(i) v + sum_j weight(i, j) C*(i, j) F[i, j] v`` stays in ``v_inf``
    (residual at most ``residual``).  Feeding ``v(theta) = F Y`` to the
    dual simulation keeps it inside ``v_inf`` and therefore inside
    ker(B0*), which is exactly how a nonzero chain limit defeats
    null-controllability.
    """

    start_mode: str
    v_inf: Subspace
    F: Mapping[tuple[int, int], np.ndarray]
    accessible: tuple[int, ...]
    residual: float


#: Largest feedback residual a witness may leave (strict invariance gives 0).
WITNESS_RESIDUAL_TOL = 1e-8


def feedback_witness(system: SwitchSystem, start: int,
                     rank_tol: float = DEFAULT_RANK_TOL) -> FeedbackWitness | None:
    """Build per-edge feedback matrices certifying a nonzero chain limit.

    Returns ``None`` when the limit subspace is trivial.  The unknown
    feedback values are solved per witness basis vector by least squares
    over coefficients in the witness subspace; a residual above
    ``WITNESS_RESIDUAL_TOL`` raises :class:`WitnessInfeasibleError` because
    strict invariance guarantees an exact solution.
    """
    mode0 = system.modes[start]
    acc = tuple(sorted(accessible_modes(system, start, system.n_modes)))
    v_inf = _strict_limit(system, acc, kernel(mode0.B0.T, rank_tol), rank_tol)
    if v_inf.is_zero:
        return None

    n = system.n
    P = v_inf.basis
    r = v_inf.dim
    perp = np.eye(n) - v_inf.projector()
    F: dict[tuple[int, int], np.ndarray] = {}
    worst = 0.0
    for i in acc:
        astar = system.modes[i].A.T
        rhs = -perp @ astar @ P  # (n, r): off-subspace part to cancel
        sup = system.support(i)
        if not sup:
            worst = max(worst, float(np.linalg.norm(rhs, 2)))
            continue
        blocks = [system.edge_weight(i, j) * (perp @ system.C[(i, j)].T @ P)
                  for j in sup]
        M = np.hstack(blocks)  # (n, r * |sup|)
        sol, _, _, _ = np.linalg.lstsq(M, rhs, rcond=None)
        worst = max(worst, float(np.linalg.norm(M @ sol - rhs, 2)))
        for pos, j in enumerate(sup):
            coef = sol[pos * r:(pos + 1) * r]  # (r, r) coefficients in the basis
            F[(i, j)] = P @ coef @ P.T
    if worst > WITNESS_RESIDUAL_TOL:
        raise WitnessInfeasibleError(
            f"feedback residual {worst:.3e} exceeds {WITNESS_RESIDUAL_TOL:.1e}; "
            "numerical rank decisions are inconsistent"
        )
    return FeedbackWitness(mode0.id, v_inf, F, acc, worst)
