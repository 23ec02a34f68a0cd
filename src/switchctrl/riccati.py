"""Penalty Riccati flows and the kernel-viability test for constant systems.

For a constant-coefficient system, whether a dual state can be kept inside
``ker(B*)`` is encoded by the large-penalty limit of quadratic forms
``<K_T^N y, y>``: the matrices solve a forward Riccati flow whose source
``N P`` penalizes the component orthogonal to the kernel, and ``y`` is
viable exactly when the forms stay bounded as ``N`` grows.  Boundedness in
the limit is not decidable from finitely many ``N``, so the verdict here
is a numerical heuristic (plateau against fitted growth) and is labeled as
such wherever it is reported; the algebraic criteria remain authoritative.

Each flow is integrated by an adaptive Dormand-Prince 5(4) pair (Dormand &
Prince 1980) with error-per-step control at the fixed tolerances ``RTOL``
1e-11 and ``ATOL`` 1e-12; a run keeps K at every accepted step.  The jump
term's Cholesky factorization and solve are numpy's (``np.linalg.cholesky``
and ``np.linalg.solve``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import cholesky, solve

from .model import ConstantSystem, check_positive, format_float
from .subspace import DEFAULT_RANK_TOL, image, kernel

#: Default penalty ladder for the viability test.
DEFAULT_N_LIST = (1.0, 10.0, 100.0, 1000.0)

#: Plateau, power-growth and decay thresholds of :func:`viability_test`.
GROWTH_TOL = 0.05
POWER_THRESHOLD = 0.5
DECAY_FACTOR = 2.0 / 3.0


class RiccatiPositivityError(RuntimeError):
    """Step underflow at ``t``: every trial step down to ``h < 1e-14 T``
    was rejected because (I + K) was not positive definite at one of its
    stages (or its error estimate was not finite)."""

    def __init__(self, t: float, h: float):
        self.t = t
        self.h = h
        super().__init__(f"I + K lost positive definiteness at t={t:.6g} "
                         f"(step underflow, h={h:g})")


@dataclass(frozen=True)
class RiccatiRun:
    """One integrated penalty flow: symmetric PSD K at the solver's accepted
    steps (``grid[0] = 0``, ``grid[-1] = T``), K(0) = 0."""

    N: float
    grid: np.ndarray
    K: np.ndarray  # (len(grid), n, n)

    def terminal_form(self, y) -> float:
        y = np.asarray(y, dtype=float)
        return float(y @ self.K[-1] @ y)


def _rhs_builder(csystem: ConstantSystem, N: float, perp: np.ndarray):
    """Right-hand side of the flow, written into ``out``:
    ``N perp - K A* - A K - sum_w w K c* (I + K)^-1 c K`` over the marks.
    For symmetric K, ``A K`` is ``(K A*)*``; with ``L`` the Cholesky factor
    of ``I + K`` and ``X = L^-1 c``, a mark's term is ``w (X K)* (X K)``.
    Raises ``np.linalg.LinAlgError`` when (I + K) is not positive definite."""
    At = csystem.A.T
    n = csystem.n
    source = N * perp
    eye = np.eye(n)
    # the marks stacked as rows of sqrt(w) c, so that one solve serves all
    weighted = [math.sqrt(w) * np.asarray(c) for w, c in csystem.marks if w > 0.0]
    stacked = np.concatenate(weighted) if weighted else None
    shape = (len(weighted), n, n)

    def rhs(K, out):
        KAt = K @ At
        np.subtract(source, KAt, out=out)
        out -= KAt.T
        if stacked is not None:
            XK = solve(cholesky(eye + K), (stacked @ K).reshape(shape))
            XK = XK.reshape(-1, n)
            out -= XK.T @ XK

    return rhs


#: Error tolerances of the adaptive stepper (relative, absolute), per entry of K.
RTOL = 1e-11
ATOL = 1e-12

# Dormand & Prince (1980) 5(4) tableau: row s weighs the stage derivatives
# k_0 .. k_{s-1} of stage s (row 6 is the fifth-order solution, whose stage
# is the next step's first: FSAL), and _E holds the fifth- minus fourth-order
# weights.  The flow is autonomous, so the nodes are not needed.
_A = np.array([
    [0.0] * 7,
    [1 / 5] + [0.0] * 6,
    [3 / 40, 9 / 40] + [0.0] * 5,
    [44 / 45, -56 / 15, 32 / 9] + [0.0] * 4,
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729] + [0.0] * 3,
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
#: ``_A`` behind a leading column for K itself (see ``integrate_riccati``).
_STAGES = np.hstack([np.zeros((7, 1)), _A])
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])


def integrate_riccati(csystem: ConstantSystem, N: float, T: float,
                      rank_tol: float = DEFAULT_RANK_TOL) -> RiccatiRun:
    """Integrate the penalty flow forward from K(0) = 0 on [0, T].

    Adaptive Dormand-Prince 5(4) steps (Hairer, Norsett & Wanner, Solving
    ODEs I, II.4): the fifth-order solution is propagated, the embedded
    fourth-order one estimates the local error in the RMS norm with scale
    ``ATOL + RTOL |K|`` (``RTOL`` 1e-11, ``ATOL`` 1e-12), and the step is
    multiplied by ``0.9 err^(-1/5)`` clipped to [0.2, 10].  The first step
    is ``1e-3 T``; the last is clipped to land on ``T`` exactly.  Symmetry
    is re-enforced at every accepted step, and ``(I + K)`` is inverted by a
    symmetric (Cholesky) solve.  A stage at which ``(I + K)`` is not
    positive definite rejects the step and shrinks it by 0.2;
    ``RiccatiPositivityError`` is raised once the step falls below
    ``1e-14 T``.  The run holds every accepted step.
    """
    check_positive("T", T)
    check_positive("N", N)
    rhs = _rhs_builder(csystem, float(N), image(csystem.B, rank_tol).projector())
    n = csystem.n
    K = np.zeros((n, n))
    grid, out = [0.0], [K]
    t, h, h_min = 0.0, 1e-3 * T, 1e-14 * T
    # slot 0 holds K and slots 1-7 the stage derivatives k_0 .. k_6, so that
    # stage s is the product of row s of W = [1 | h _A] with slots 0 .. s
    slots = np.zeros((8, n, n))
    flat = slots.reshape(8, n * n)
    W = np.empty((7, 8))
    stages = [(W[s, :s + 1], flat[:s + 1], slots[s + 1], s == 6) for s in range(1, 7)]
    rhs(K, slots[1])
    absK = np.abs(K)
    while t < T:
        if h < h_min:
            raise RiccatiPositivityError(t, h)
        last = t + h >= T
        if last:
            h = T - t
        np.multiply(h, _STAGES, out=W)
        W[:, 0] = 1.0
        try:
            for w, prefix, deriv, final in stages:
                Ks = (w @ prefix).reshape(n, n)
                if final:
                    Ks = 0.5 * (Ks + Ks.T)
                rhs(Ks, deriv)
        except np.linalg.LinAlgError:
            h *= 0.2
            continue
        absKs = np.abs(Ks)
        r = (h * _E) @ flat[1:] / (ATOL + RTOL * np.maximum(absK, absKs)).ravel()
        err = math.sqrt(float(r @ r) / r.size)
        if not math.isfinite(err):
            h *= 0.2
            continue
        fac = min(10.0, max(0.2, 0.9 * err ** -0.2)) if err > 0.0 else 10.0
        if err <= 1.0:
            t = T if last else t + h
            K, absK = Ks, absKs
            grid.append(t)
            out.append(K)
            slots[0] = K
            slots[1] = slots[7]
        h *= fac
    return RiccatiRun(float(N), np.array(grid), np.array(out))


@dataclass(frozen=True)
class ViabilityReport:
    """Outcome of the heuristic boundedness test.

    ``table`` holds the (N, <K_T^N y, y>) pairs; ``fitted_power`` the
    global slope of log q against log N, ``local_powers`` the per-rung
    slopes.  ``verdict`` is one of ``viable``, ``nonviable``,
    ``indeterminate``.
    """

    verdict: str
    table: tuple[tuple[float, float], ...]
    fitted_power: float | None
    local_powers: tuple[float, ...]
    last_ratio: float | None
    in_kernel: bool
    notes: tuple[str, ...]


def viability_test(csystem: ConstantSystem, y, T: float,
                   N_list=DEFAULT_N_LIST,
                   rank_tol: float = DEFAULT_RANK_TOL) -> ViabilityReport:
    """Classify a kernel vector as viable or nonviable under the penalty ladder.

    Decision rule, on the local growth exponents
    ``p_k = log(q_{k+1}/q_k) / log(N_{k+1}/N_k)``:

    * ``viable`` when the final ratio stays below ``1 + GROWTH_TOL`` (the
      forms have plateaued), or when the final exponent has dropped below
      ``POWER_THRESHOLD`` *and* below ``DECAY_FACTOR`` times its maximum:
      a bounded sequence drives its exponent to zero, and on desk-scale
      ladders the decay is visible long before the ratio itself settles.
    * ``nonviable`` when the final exponent still reaches
      ``POWER_THRESHOLD``: sustained power growth in the penalty weight.
    * ``indeterminate`` otherwise; reported, never guessed.

    ``T`` and every weight must be positive and finite, and the ladder
    must hold at least three strictly increasing weights; otherwise
    ``ValueError``, before any flow runs.  A vector outside ``ker(B*)`` is
    nonviable outright.  All intermediate quantities land in the report;
    the verdict is a numerical heuristic.
    """
    y = np.asarray(y, dtype=float).reshape(csystem.n)
    check_positive("T", T)
    for N in N_list:
        check_positive("N", N)
    if len(N_list) < 3:
        raise ValueError("need at least three penalty weights")
    if any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ValueError("penalty weights must be strictly increasing")
    ker = kernel(csystem.B.T, rank_tol)
    ynorm = float(np.linalg.norm(y))
    if ynorm == 0.0:
        table = tuple((float(N), 0.0) for N in N_list)
        return ViabilityReport("viable", table, None, (), None, True,
                               ("zero vector: quadratic forms vanish identically",))
    if not ker.contains_vector(y, tol=1e-8):
        return ViabilityReport("nonviable", (), None, (), None, False,
                               ("vector lies outside ker(B*)",))

    qs = []
    for N in N_list:
        run = integrate_riccati(csystem, float(N), T, rank_tol)
        qs.append(max(run.terminal_form(y), 0.0))
    table = tuple((float(N), q) for N, q in zip(N_list, qs))

    floor = 1e-12 * ynorm * ynorm
    if max(qs) <= floor:
        return ViabilityReport("viable", table, None, (), None, True,
                               ("quadratic forms vanish",))
    logN = np.log(np.asarray(N_list, dtype=float))
    logq = np.log(np.maximum(qs, floor))
    local = tuple(float(p) for p in np.diff(logq) / np.diff(logN))
    power = float(np.polyfit(logN, logq, 1)[0])
    last_ratio = qs[-1] / max(qs[-2], floor)
    notes = [f"last ratio {last_ratio:.4g}", f"fitted power {power:.4g}",
             "local powers " + ", ".join(f"{p:.4g}" for p in local),
             "heuristic verdict: algebraic criteria remain authoritative"]
    p_last, p_max = local[-1], max(local)
    if last_ratio <= 1.0 + GROWTH_TOL:
        verdict = "viable"
        notes.append("plateau reached")
    elif p_last >= POWER_THRESHOLD:
        verdict = "nonviable"
        notes.append("sustained power growth in the penalty weight")
    elif p_last <= DECAY_FACTOR * p_max:
        verdict = "viable"
        notes.append("growth exponent decaying: forms saturate")
    else:
        verdict = "indeterminate"
        notes.append("growth falls between the plateau and power thresholds")
    return ViabilityReport(verdict, table, power, local, last_ratio, True,
                           tuple(notes))


def riccati_csv(runs, fh) -> None:
    """Write (N, t, vec(K)) rows for a non-empty list of runs."""
    n = runs[0].K.shape[1]
    header = "N,t," + ",".join(f"k{i + 1}{j + 1}" for i in range(n) for j in range(n))
    fh.write(header + "\n")
    for run in runs:
        N = format_float(run.N)
        for t, K in zip(run.grid.tolist(), run.K.reshape(len(run.K), -1).tolist()):
            fh.write(",".join([N, format_float(t), *map(format_float, K)]) + "\n")
