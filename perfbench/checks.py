"""Correctness checks on the output of each benchmark CLI call.

Every check takes the call's exit code, its captured standard output, the
call's parameters and a per-cycle context (for checks that relate calls of
one cycle), and returns a list of failure messages; an empty list passes.
A call with any failure counts as one failed operation.
"""

from __future__ import annotations

import json
import math
import os

#: Exit code of ``check`` for each overall verdict.
EXIT_FOR_VERDICT = {"yes": 0, "no": 2, "undetermined": 3}

#: Relative tolerance between a Riccati table or terminal K and the seed
#: commit's.  The seed commit integrates with fixed-step RK4 at dt = 1e-4;
#: an adaptive DOP853 solver at rtol 1e-11 agreed with it to 1.3e-12.
RICCATI_RTOL = 1e-9

#: Bound on |B0* Y_t| along the feedback-dual paths.
DUAL_RESIDUAL_MAX = 1e-8

#: Numerical floor of the restart bound (``mc.BOUND_FLOOR``), times |x0|^2.
BOUND_FLOOR = 1e-12


class Context:
    """What the checks of one cycle share, plus the inputs they compare with."""

    def __init__(self, root: str, reference: dict):
        self.root = root
        self.reference = reference
        self.cycle: dict = {}
        self.verdicts: dict[str, int] = {}  # verdict mix of the current cycle

    def new_cycle(self):
        self.cycle = {}
        self.verdicts = {}


def _json(out: str, fails: list) -> dict | None:
    try:
        doc = json.loads(out)
    except ValueError:
        fails.append("output is not JSON")
        return None
    if not isinstance(doc, dict):
        fails.append("output is not a JSON object")
        return None
    return doc


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check_verify(rc, out, params, ctx) -> list[str]:
    lines = [ln for ln in out.splitlines() if ln.strip()]
    fails = [f"assertion not passed: {ln}" for ln in lines if not ln.startswith("PASS")]
    if not lines:
        fails.append("no assertions printed")
    if rc != 0:
        fails.append(f"exit code {rc}")
    return fails


def check_min_energy(rc, out, params, ctx) -> list[str]:
    """bound_pass holds, and the estimate does not rise with N beyond joint
    3 sigma (compared with the previous N of the cycle)."""
    fails = [] if rc == 0 else [f"exit code {rc}"]
    doc = _json(out, fails)
    if doc is None:
        return fails
    if doc.get("bound_pass") is not True:
        fails.append(f"bound_pass is {doc.get('bound_pass')!r} at N={params['N']}")
    if doc.get("N") != params["N"]:
        fails.append(f"N is {doc.get('N')!r}, expected {params['N']}")
    try:
        mean = float(doc["terminal_msq"]["mean"])
        se = float(doc["terminal_msq"]["std_error"])
    except (KeyError, TypeError, ValueError):
        return fails + ["terminal_msq missing"]
    prev = ctx.cycle.get("min_energy")
    # x0 defaults to the ones vector of the 2-state spec: |x0|^2 = 2
    if prev is not None and mean > prev[0] + 3.0 * math.hypot(se, prev[1]) + 2.0 * BOUND_FLOOR:
        fails.append(f"estimate {mean:.6g} at N={params['N']} exceeds {prev[0]:.6g} "
                     "at the previous N beyond joint 3 sigma")
    ctx.cycle["min_energy"] = (mean, se)
    return fails


def check_feedback_dual(rc, out, params, ctx) -> list[str]:
    fails = [] if rc == 0 else [f"exit code {rc}"]
    doc = _json(out, fails)
    if doc is None:
        return fails
    res = doc.get("max_kernel_residual")
    if not isinstance(res, (int, float)) or not res <= DUAL_RESIDUAL_MAX:
        fails.append(f"max_kernel_residual {res!r} above {DUAL_RESIDUAL_MAX}")
    if doc.get("witness_dim") != 1:
        fails.append(f"witness_dim {doc.get('witness_dim')!r}, expected 1")
    return fails


def check_riccati(rc, out, params, ctx) -> list[str]:
    """Verdict as expected; table equal to the seed commit's within RICCATI_RTOL."""
    fails = [] if rc == 0 else [f"exit code {rc}"]
    doc = _json(out, fails)
    if doc is None:
        return fails
    if doc.get("verdict") != params["verdict"]:
        fails.append(f"verdict {doc.get('verdict')!r}, expected {params['verdict']!r}")
    ref = ctx.reference["riccati"][params["key"]]["table"]
    table = doc.get("table")
    try:
        ok = len(table) == len(ref) and all(
            float(N) == rN and _close(float(q), rq, RICCATI_RTOL)
            for (N, q), (rN, rq) in zip(table, ref))
    except (TypeError, ValueError):
        ok = False
    if not ok:
        fails.append(f"table {table!r} differs from the reference {ref!r}")
    else:
        ctx.cycle.setdefault("tables", {})[params["key"]] = dict(
            (float(N), float(q)) for N, q in table)
    return fails


def check_riccati_csv(rc, out, params, ctx) -> list[str]:
    """Header names vec(K); each rung ends at t = T with the terminal K of the
    seed commit, whose form <K y, y> matches the same cycle's table."""
    fails = [] if rc == 0 else [f"exit code {rc}"]
    n = params["n"]
    header = "N,t," + ",".join(f"k{i + 1}{j + 1}" for i in range(n) for j in range(n))
    lines = out.splitlines()
    if not lines or lines[0] != header:
        return fails + [f"header {lines[:1]!r}, expected {header!r}"]
    last: dict[float, list[float]] = {}
    order: list[float] = []
    try:
        for ln in lines[1:]:
            cells = [float(c) for c in ln.split(",")]
            if len(cells) != 2 + n * n:
                return fails + [f"row with {len(cells)} cells"]
            if cells[0] not in last:
                order.append(cells[0])
            last[cells[0]] = cells[1:]
    except ValueError:
        return fails + ["row with a non-numeric cell"]
    ref = ctx.reference["riccati"][params["key"]]
    if order != [float(N) for N in ref["csv_terminal_K"]]:
        return fails + [f"rungs {order}, expected {list(ref['csv_terminal_K'])}"]
    table = ctx.cycle.get("tables", {}).get(params["key"], {})
    y = ref["y"]
    for N in order:
        t, K = last[N][0], last[N][1:]
        refK = ref["csv_terminal_K"][repr(N)]
        scale = max(abs(v) for v in refK)
        if t != 1.0:
            fails.append(f"rung N={N:g} ends at t={t!r}, expected 1.0")
        if any(abs(a - b) > RICCATI_RTOL * scale for a, b in zip(K, refK)):
            fails.append(f"rung N={N:g} terminal K {K} differs from the reference")
        form = sum(y[i] * K[i * n + j] * y[j] for i in range(n) for j in range(n))
        if N not in table or not _close(form, table[N], RICCATI_RTOL):
            fails.append(f"rung N={N:g}: <K y, y> = {form!r} does not match the "
                         f"table value {table.get(N)!r}")
    return fails


def check_shipped_report(rc, out, params, ctx) -> list[str]:
    """Exit code matches the expected verdict; the four counterexample
    reports are byte-identical to the golden files under tests/data."""
    fails = []
    verdict = ctx.reference["shipped_verdicts"][params["name"]]
    if rc != EXIT_FOR_VERDICT[verdict]:
        fails.append(f"exit code {rc}, expected {EXIT_FOR_VERDICT[verdict]} ({verdict})")
    golden = os.path.join(ctx.root, "tests", "data", f"report_{params['name']}.json")
    if os.path.exists(golden):
        with open(golden, "rb") as fh:
            if out.encode() != fh.read():
                fails.append(f"report differs from {golden}")
    else:
        doc = _json(out, fails)
        if doc is not None and doc.get("overall", {}).get("verdict") != verdict:
            fails.append(f"verdict {doc.get('overall')!r}, expected {verdict!r}")
    return fails


def check_generated_report(rc, out, params, ctx) -> list[str]:
    """Exit code matches the reported verdict; nec1's two routes agree; a
    suf1 pass comes with nec1 and nec2 passes.  Records the verdict mix."""
    fails = []
    doc = _json(out, fails)
    if doc is None:
        return fails + [f"exit code {rc}"]
    try:
        verdict = doc["overall"]["verdict"]
        crit = {c["name"]: c for c in doc["criteria"]}
        if rc != EXIT_FOR_VERDICT[verdict]:
            fails.append(f"exit code {rc} for verdict {verdict!r}")
        if crit["nec1"]["details"]["consistent"] is not True:
            fails.append("nec1 witness and Kalman rank disagree")
        if crit["suf1"]["overall"] and not (crit["nec1"]["overall"]
                                            and crit["nec2"]["overall"]):
            fails.append("suf1 passes while nec1 or nec2 fails")
    except (KeyError, TypeError):
        return fails + ["report lacks verdict or criteria fields"]
    ctx.verdicts[verdict] = ctx.verdicts.get(verdict, 0) + 1
    return fails


CHECKS = {
    "verify": check_verify,
    "min_energy": check_min_energy,
    "feedback_dual": check_feedback_dual,
    "riccati": check_riccati,
    "riccati_csv": check_riccati_csv,
    "shipped_report": check_shipped_report,
    "generated_report": check_generated_report,
}
