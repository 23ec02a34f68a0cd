"""The four benchmark workloads: their CLI calls and the generated population.

A workload is one cycle of ``switchctrl`` CLI calls; the worker repeats the
cycle for the measured time.  Every call names the check that judges its
output (see ``checks.py``).  All inputs derive from the workload seed: the
simulate calls take it as ``--seed``, and ``check-sweep`` writes a
population of systems drawn from it.  The ``verify-example`` bundles are
fixed built-in regression examples with 3-sigma Monte Carlo assertions, so
they run at the CLI's default seed 0; reseeding them would turn the
benchmark into a lottery on those assertions.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("mc-forward", "mc-dual", "riccati-ladder", "check-sweep")

#: Paths per simulate call.  At the seed commit one min-energy call takes
#: about 0.5 s and one feedback-dual call about 1.4 s at this size.
MC_PATHS = 2000

#: Trajectories simulated by the ``verify-example`` bundles of the mc workloads.
VERIFY_PATHS = {"nec1-not-det": 10_000, "nec1-det-not-nec2": 100}

#: Restart counts of the min-energy ladder on ``cont_switch_bound``.
RESTART_N = (1, 4, 16)

#: Penalty ladder of the dense ``riccati --format csv`` export.
CSV_LADDER = "1,1000"

#: Shipped specs and the verdict ``check`` must give on each.
SHIPPED_SPECS = ("cont_switch_bound", "ctrl_not_suf1", "nec1_det_not_nec2",
                 "nec1_not_det", "nec2_det_not_nec1")

#: Generated population: every (n, modes, kind) cell of this grid, so the
#: seed changes the entries but never the mix of sizes.
POP_N = (2, 3, 4, 5, 6, 8, 10, 12)
POP_MODES = (2, 3, 4, 5)
POP_KINDS = ("switching", "scaled-jumps", "mixing-jumps", "hidden-block")


@dataclass(frozen=True)
class Call:
    """One CLI call: its argv and the check (with arguments) for its output."""

    argv: tuple[str, ...]
    check: str
    params: dict = field(default_factory=dict)


def plan(workload: str, seed: int, popdir: str | None = None) -> list[Call]:
    """The calls of one cycle of ``workload``, in order."""
    s = str(seed)
    if workload == "mc-forward":
        calls = [Call(("simulate", "specs/cont_switch_bound.json", "--policy",
                       "min-energy", "--N", str(N), "--paths", str(MC_PATHS),
                       "--dt", "1e-2", "--seed", s),
                      "min_energy", {"N": N}) for N in RESTART_N]
        return calls + [Call(("verify-example", "nec1-not-det"), "verify")]
    if workload == "mc-dual":
        return [Call(("simulate", "specs/nec1_det_not_nec2.json", "--policy",
                      "feedback-dual", "--paths", str(MC_PATHS), "--dt", "1e-2",
                      "--seed", s), "feedback_dual"),
                Call(("verify-example", "nec1-det-not-nec2"), "verify")]
    if workload == "riccati-ladder":
        return [Call(("riccati", "specs/nec1_det_not_nec2.json", "--y", "0,1"),
                     "riccati", {"key": "nec1_det_not_nec2", "verdict": "viable"}),
                Call(("riccati", "specs/ctrl_not_suf1.json", "--y", "0,0,1"),
                     "riccati", {"key": "ctrl_not_suf1", "verdict": "nonviable"}),
                Call(("riccati", "specs/nec1_det_not_nec2.json", "--format", "csv",
                      "--riccati-N-list", CSV_LADDER),
                     "riccati_csv", {"key": "nec1_det_not_nec2", "n": 2})]
    if workload == "check-sweep":
        if popdir is None:
            raise ValueError("check-sweep needs the population directory")
        # the golden reports were written with --seed 0, which they record
        calls = [Call(("check", f"specs/{name}.json", "--seed", "0"), "shipped_report",
                      {"name": name}) for name in SHIPPED_SPECS]
        calls += [Call(("verify-example", name), "verify")
                  for name in ("nec2-det-not-nec1", "ctrl-not-suf1")]
        calls += [Call(("check", os.path.join(popdir, name), "--seed", s),
                       "generated_report")
                  for name in sorted(os.listdir(popdir))]
        return calls
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def latency_call(workload: str, argv) -> bool:
    """Whether a call counts in ``call_p50_ms`` and ``call_p90_ms``: on
    ``check-sweep`` only the ``check`` calls, elsewhere every call."""
    return workload != "check-sweep" or argv[0] == "check"


def paths_per_cycle(workload: str) -> int:
    """Monte Carlo trajectories one cycle of ``workload`` simulates."""
    if workload == "mc-forward":
        return len(RESTART_N) * MC_PATHS + VERIFY_PATHS["nec1-not-det"]
    if workload == "mc-dual":
        return MC_PATHS + VERIFY_PATHS["nec1-det-not-nec2"]
    return 0


# --------------------------------------------------------------- population


def _gauss_matrix(rng: random.Random, rows: int, cols: int, scale: float):
    return [[rng.gauss(0.0, scale) for _ in range(cols)] for _ in range(rows)]


def _transition_matrix(rng: random.Random, k: int):
    """Sparse row-stochastic Q with zero diagonal; the cycle i -> i+1 keeps
    every mode accessible, extra edges lengthen the accessibility chains."""
    Q = []
    for i in range(k):
        row = [0.0] * k
        row[(i + 1) % k] = rng.uniform(0.5, 1.5)
        for j in range(k):
            if j != i and row[j] == 0.0 and rng.random() < 0.3:
                row[j] = rng.uniform(0.1, 1.0)
        total = sum(row)
        Q.append([v / total for v in row])
    return Q


def generated_system(rng: random.Random, n: int, k: int, kind: str) -> dict:
    """One spec document.  Inputs enter through the first state only (rank 1
    of d = 2 columns), so ``ker(B0*)`` has dimension n - 1 and the
    inclusion chains run long.  The kind steers the verdict:

    * ``switching``: no state jumps; ``crit_cont_switch`` decides ``yes``;
    * ``scaled-jumps``: jumps ``x -> (1 + c) x``; both necessary tests pass
      but ``suf1``'s fixed jump image is too coarse beyond n = 2, so the
      verdict is mostly ``undetermined``;
    * ``mixing-jumps``: dense jump matrices let the dual stay in the kernel;
      ``nec2`` answers ``no``;
    * ``hidden-block``: the last third of the state is never driven by the
      rest, in the drifts and the jumps alike, so ``nec1`` answers ``no``.
    """
    scale = 1.0 / n ** 0.5
    hidden = max(1, n // 3) if kind == "hidden-block" else 0

    def block_triangular(M):
        for i in range(n - hidden, n):
            for j in range(n - hidden):
                M[i][j] = 0.0
        return M

    b0 = [[1.0, rng.uniform(-1.0, 1.0)]] + [[0.0, 0.0] for _ in range(n - 1)]
    Q = _transition_matrix(rng, k)
    modes = [{"id": str(i), "embedding": [float(i)], "lambda": rng.uniform(0.5, 2.0),
              "A": block_triangular(_gauss_matrix(rng, n, n, scale)), "B0": b0}
             for i in range(k)]
    C = {}
    for i in range(k):
        for j in range(k):
            if Q[i][j] <= 0.0:
                continue
            if kind == "switching":
                M = [[0.0] * n for _ in range(n)]
            elif kind == "scaled-jumps":
                c = rng.uniform(-0.5, 0.5)
                M = [[c if r == col else 0.0 for col in range(n)] for r in range(n)]
            else:
                M = block_triangular(_gauss_matrix(rng, n, n, 0.5 * scale))
            C[f"{i}->{j}"] = M
    return {"n": n, "d": 2, "m": 1, "beta": [0.0], "modes": modes, "Q": Q, "C": C}


def population(seed: int) -> list[tuple[str, bytes]]:
    """The ``check-sweep`` population as (file name, spec bytes); a pure
    function of ``seed``."""
    rng = random.Random(seed)
    out = []
    for n in POP_N:
        for k in POP_MODES:
            for kind in POP_KINDS:
                doc = generated_system(rng, n, k, kind)
                out.append((f"gen-n{n:02d}-k{k}-{kind}.json",
                            json.dumps(doc, separators=(",", ":")).encode()))
    return out


def write_population(seed: int, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for name in os.listdir(directory):
        os.remove(os.path.join(directory, name))
    for name, data in population(seed):
        with open(os.path.join(directory, name), "wb") as fh:
            fh.write(data)
