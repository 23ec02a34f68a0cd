"""Switch-system data model, validation, and canonical on-disk format.

A switch system couples a finite-state Markov jump chain (modes, rates,
transition matrix) with per-mode linear dynamics on R^n.  The input matrix
evolves as ``B_t = exp(int_0^t beta . gamma_s ds) B0(gamma_0)`` where the
modes carry embedding vectors in R^m and ``beta`` is a row vector acting
on them; ``beta = 0`` keeps ``B_t`` constant.

The on-disk representation is JSON with a fixed key order and floats
rendered with 17 significant digits, so canonical files round-trip
byte-identically and hash stably.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

#: Transition probabilities at or below this threshold count as absent edges.
SUPPORT_TOL = 1e-12

#: Tolerance on row sums of the transition matrix.
ROW_SUM_TOL = 1e-12


class SpecFormatError(ValueError):
    """Malformed system spec; ``path`` locates the offending field."""

    def __init__(self, code: str, path: str, message: str = ""):
        self.code = code
        self.path = path
        super().__init__(f"{code} at {path}" + (f": {message}" if message else ""))


class NotConstantError(ValueError):
    """A system could not be reduced to constant coefficients.

    Carries the first witnessing pair of modes whose data disagree and the
    field on which they disagree.
    """

    def __init__(self, field_name: str, pair: tuple[str, str]):
        self.field = field_name
        self.pair = pair
        super().__init__(f"modes {pair[0]!r} and {pair[1]!r} disagree on {field_name}")


def _frozen(a) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Mode:
    """One regime of the switch system.

    ``embedding`` is the mode's point in R^m (used by the beta coupling of
    the input matrix), ``rate`` its jump intensity, ``A`` the drift matrix
    and ``B0`` the input matrix active when a trajectory starts here.
    """

    id: str
    embedding: np.ndarray  # (m,)
    rate: float
    A: np.ndarray  # (n, n)
    B0: np.ndarray  # (n, d)

    def __post_init__(self):
        object.__setattr__(self, "embedding", _frozen(self.embedding))
        object.__setattr__(self, "A", _frozen(self.A))
        object.__setattr__(self, "B0", _frozen(self.B0))
        object.__setattr__(self, "rate", float(self.rate))


@dataclass(frozen=True, eq=False)
class SwitchSystem:
    """Full switch-system model.

    ``Q`` is the row-stochastic transition matrix of the embedded jump
    chain (zero diagonal).  ``C`` maps ordered mode pairs ``(i, j)`` with
    ``Q[i, j] > 0`` (indices into ``modes``) to the n-by-n relative jump
    matrix: at a jump from mode i to mode j the state moves by
    ``x -> x + C[i, j] x``.
    """

    n: int
    d: int
    m: int
    beta: np.ndarray  # (m,)
    modes: tuple[Mode, ...]
    Q: np.ndarray  # (|E|, |E|)
    C: Mapping[tuple[int, int], np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "beta", _frozen(self.beta))
        object.__setattr__(self, "Q", _frozen(self.Q))
        object.__setattr__(self, "C", {k: _frozen(v) for k, v in self.C.items()})

    # -- derived quantities --------------------------------------------------

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @cached_property
    def mode_ids(self) -> tuple[str, ...]:
        return tuple(mode.id for mode in self.modes)

    @cached_property
    def a0(self) -> float:
        """Recorded bound: largest operator norm among the drift matrices."""
        return max((float(np.linalg.norm(m.A, 2)) for m in self.modes), default=0.0)

    @cached_property
    def c0(self) -> float:
        """Recorded bound: largest jump intensity."""
        return max((m.rate for m in self.modes), default=0.0)

    def mode_index(self, mode_id: str) -> int:
        try:
            return self.mode_ids.index(mode_id)
        except ValueError:
            raise KeyError(f"unknown mode id {mode_id!r}") from None

    def beta_rate(self, i: int) -> float:
        """Scalar growth rate beta . embedding of mode i."""
        return float(self.beta @ self.modes[i].embedding)

    def support(self, i: int) -> tuple[int, ...]:
        """Indices of modes reachable from mode i in one jump.

        Empty when the mode is absorbing (zero intensity): the jump measure
        ``rate * Q(i, .)`` is then the zero measure and no edge carries mass.
        """
        if self.modes[i].rate <= 0.0:
            return ()
        return tuple(int(j) for j in np.flatnonzero(self.Q[i] > SUPPORT_TOL))

    def edge_weight(self, i: int, j: int) -> float:
        """Intensity mass rate(i) * Q(i, j) carried by the edge."""
        return self.modes[i].rate * float(self.Q[i, j])

    def b0_mode_varying(self) -> bool:
        return any(not np.array_equal(m.B0, self.modes[0].B0) for m in self.modes[1:])


@dataclass(frozen=True, eq=False)
class ConstantSystem:
    """Constant-coefficient reduction: fixed (A, B) and a finite jump measure.

    ``marks`` lists ``(weight, C_i)`` pairs with positive weights; the jump
    part is a compound Poisson stream applying ``x -> x + C_i x`` at rate
    ``weight`` for each mark.
    """

    n: int
    d: int
    A: np.ndarray
    B: np.ndarray
    marks: tuple[tuple[float, np.ndarray], ...]

    def __post_init__(self):
        object.__setattr__(self, "A", _frozen(self.A))
        object.__setattr__(self, "B", _frozen(self.B))
        object.__setattr__(
            self, "marks", tuple((float(w), _frozen(c)) for w, c in self.marks)
        )

    @property
    def total_rate(self) -> float:
        return sum(w for w, _ in self.marks)


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    code: str
    message: str

    def __str__(self):
        return f"{self.code}: {self.message}"


def validate(system: SwitchSystem) -> list[Violation]:
    """Check every structural invariant; an empty list means the system is valid.

    Violations are data, not exceptions: each carries a machine-readable
    code such as ``row-not-stochastic`` or ``dim-mismatch:modes[0].A``.
    """
    out: list[Violation] = []
    n, d, m = system.n, system.d, system.m
    k = system.n_modes

    if k == 0:
        return [Violation("no-modes", "the mode list is empty")]
    if n < 1 or d < 1 or m < 1:
        out.append(Violation("bad-dimensions", f"n={n}, d={d}, m={m} must be >= 1"))

    seen: set[str] = set()
    for idx, mode in enumerate(system.modes):
        loc = f"modes[{idx}]"
        if mode.id in seen:
            out.append(Violation("duplicate-mode-id", f"{loc}.id={mode.id!r}"))
        seen.add(mode.id)
        if not mode.id or "->" in mode.id:
            out.append(Violation("bad-mode-id", f"{loc}.id={mode.id!r}"))
        if mode.embedding.shape != (m,):
            out.append(Violation(f"dim-mismatch:{loc}.embedding",
                                 f"expected ({m},), got {mode.embedding.shape}"))
        if mode.A.shape != (n, n):
            out.append(Violation(f"dim-mismatch:{loc}.A",
                                 f"expected ({n}, {n}), got {mode.A.shape}"))
        if mode.B0.shape != (n, d):
            out.append(Violation(f"dim-mismatch:{loc}.B0",
                                 f"expected ({n}, {d}), got {mode.B0.shape}"))
        if not np.isfinite(mode.rate) or mode.rate < 0:
            out.append(Violation("rate-negative", f"{loc}.lambda={mode.rate}"))
        for name, arr in (("embedding", mode.embedding), ("A", mode.A), ("B0", mode.B0)):
            if not np.all(np.isfinite(arr)):
                out.append(Violation(f"nonfinite:{loc}.{name}", "entries must be finite"))

    if system.beta.shape != (m,):
        out.append(Violation("dim-mismatch:beta",
                             f"expected ({m},), got {system.beta.shape}"))
    if system.Q.shape != (k, k):
        out.append(Violation("dim-mismatch:Q",
                             f"expected ({k}, {k}), got {system.Q.shape}"))
        return out  # remaining checks need a well-shaped Q

    if not np.all(np.isfinite(system.Q)):
        out.append(Violation("nonfinite:Q", "entries must be finite"))
        return out
    if np.any(system.Q < 0):
        out.append(Violation("negative-transition", "Q entries must be >= 0"))
    for i in range(k):
        row_sum = float(system.Q[i].sum())
        # A zero row is tolerated for silent modes (rate 0): their transition
        # measure never enters the dynamics, and a one-mode system cannot
        # carry a zero-diagonal stochastic row at all.
        silent_ok = system.modes[i].rate == 0.0 and abs(row_sum) <= ROW_SUM_TOL
        if abs(row_sum - 1.0) > ROW_SUM_TOL and not silent_ok:
            out.append(Violation("row-not-stochastic",
                                 f"Q row {i} sums to {row_sum!r}"))
        if system.Q[i, i] != 0.0:
            out.append(Violation("diagonal-nonzero",
                                 f"Q[{i},{i}]={system.Q[i, i]!r}"))

    ids = system.mode_ids
    for i in range(k):
        for j in range(k):
            key = (i, j)
            present = key in system.C
            needed = system.Q[i, j] > SUPPORT_TOL
            label = f"{ids[i]}->{ids[j]}"
            if needed and not present:
                out.append(Violation(f"C-missing:{label}",
                                     "edge has positive probability but no jump matrix"))
            elif present and not needed:
                out.append(Violation(f"C-unused:{label}",
                                     "jump matrix given for a zero-probability edge"))
            if present and system.C[key].shape != (n, n):
                out.append(Violation(f"dim-mismatch:C[{label}]",
                                     f"expected ({n}, {n}), got {system.C[key].shape}"))
            if present and not np.all(np.isfinite(system.C[key])):
                out.append(Violation(f"nonfinite:C[{label}]", "entries must be finite"))
    return out


# --------------------------------------------------------------------------
# canonical JSON format
# --------------------------------------------------------------------------


def format_float(x: float) -> str:
    """The one float format of reports, specs, summaries and CSVs: 17
    significant digits, an exact binary64 round trip."""
    return format(x, ".16e")


def _array_text(a) -> str:
    # ``a`` is ``ndarray.tolist()``: nested lists of Python floats
    if isinstance(a, list):
        return "[" + ",".join(map(_array_text, a)) + "]"
    return format_float(a)


def _canon(value) -> str:
    if isinstance(value, dict):
        items = ",".join(f"{json.dumps(k)}:{_canon(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in value) + "]"
    if isinstance(value, np.ndarray):
        if not np.isfinite(value).all():
            raise ValueError("cannot serialize an array with non-finite entries")
        return _array_text(value.tolist())
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"cannot serialize non-finite value {value!r}")
        return format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value)!r}")


def canonical_json(value) -> bytes:
    """Compact JSON with fixed key order and 17-significant-digit floats.

    A numpy array is written as nested lists (a 2-D array as its rows).
    """
    return (_canon(value) + "\n").encode("utf-8")


def serialize_spec(system: SwitchSystem) -> bytes:
    """Canonical byte representation of a system spec."""
    ids = system.mode_ids
    doc = {
        "n": system.n,
        "d": system.d,
        "m": system.m,
        "beta": system.beta,
        "modes": [
            {
                "id": mode.id,
                "embedding": mode.embedding,
                "lambda": mode.rate,
                "A": mode.A,
                "B0": mode.B0,
            }
            for mode in system.modes
        ],
        "Q": system.Q,
        "C": {
            f"{ids[i]}->{ids[j]}": system.C[(i, j)]
            for i in range(system.n_modes)
            for j in range(system.n_modes)
            if (i, j) in system.C
        },
    }
    return canonical_json(doc)


def system_digest(system: SwitchSystem) -> str:
    """SHA-256 of the canonical serialization."""
    return hashlib.sha256(serialize_spec(system)).hexdigest()


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise SpecFormatError("missing-field", f"{path}.{key}")
    return doc[key]


def _float_list(value, length: int, path: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != length:
        raise SpecFormatError("dim-mismatch:" + path.rsplit(".", 1)[-1], path,
                              f"expected {length} numbers")
    try:
        return np.array([float(x) for x in value])
    except (TypeError, ValueError):
        raise SpecFormatError("bad-number", path) from None


def _float_matrix(value, rows: int, cols: int, path: str, short: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != rows:
        raise SpecFormatError(f"dim-mismatch:{short}", path, f"expected {rows} rows")
    out = np.empty((rows, cols))
    for r, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise SpecFormatError(f"dim-mismatch:{short}", f"{path}[{r}]",
                                  f"expected {cols} columns")
        try:
            out[r] = [float(x) for x in row]
        except (TypeError, ValueError):
            raise SpecFormatError("bad-number", f"{path}[{r}]") from None
    return out


def parse_spec(text: bytes | str) -> SwitchSystem:
    """Parse a JSON system spec; raises :class:`SpecFormatError` on bad input.

    Structural problems (missing fields, wrong shapes, no modes) raise;
    semantic invariants (stochasticity, edge support) are left to
    :func:`validate`, which reports them as data.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError("invalid-json", f"line {exc.lineno}", exc.msg) from None
    if not isinstance(doc, dict):
        raise SpecFormatError("invalid-json", "$", "top level must be an object")

    n = _require(doc, "n", "$")
    d = _require(doc, "d", "$")
    m = _require(doc, "m", "$")
    for name, value in (("n", n), ("d", d), ("m", m)):
        if not isinstance(value, int) or value < 1:
            raise SpecFormatError("bad-dimension", f"$.{name}", "must be a positive integer")

    beta = _float_list(_require(doc, "beta", "$"), m, "$.beta")

    raw_modes = _require(doc, "modes", "$")
    if not isinstance(raw_modes, list) or not raw_modes:
        raise SpecFormatError("no-modes", "$.modes")
    modes = []
    for idx, raw in enumerate(raw_modes):
        path = f"$.modes[{idx}]"
        if not isinstance(raw, dict):
            raise SpecFormatError("bad-mode", path)
        mode_id = _require(raw, "id", path)
        if not isinstance(mode_id, str) or not mode_id or "->" in mode_id:
            # "->" is the edge-key separator and cannot appear inside an id
            raise SpecFormatError("bad-mode-id", f"{path}.id")
        if any(m.id == mode_id for m in modes):
            raise SpecFormatError("duplicate-mode-id", f"{path}.id")
        rate = _require(raw, "lambda", path)
        if not isinstance(rate, (int, float)):
            raise SpecFormatError("bad-number", f"{path}.lambda")
        modes.append(
            Mode(
                id=mode_id,
                embedding=_float_list(_require(raw, "embedding", path), m,
                                      f"{path}.embedding"),
                rate=float(rate),
                A=_float_matrix(_require(raw, "A", path), n, n, f"{path}.A", "A"),
                B0=_float_matrix(_require(raw, "B0", path), n, d, f"{path}.B0", "B0"),
            )
        )

    k = len(modes)
    Q = _float_matrix(_require(doc, "Q", "$"), k, k, "$.Q", "Q")

    raw_C = _require(doc, "C", "$")
    if not isinstance(raw_C, dict):
        raise SpecFormatError("bad-edge-map", "$.C")
    index = {mode.id: i for i, mode in enumerate(modes)}
    C: dict[tuple[int, int], np.ndarray] = {}
    for key, raw in raw_C.items():
        path = f"$.C[{key!r}]"
        src, sep, dst = key.partition("->")
        if not sep or src not in index or dst not in index:
            raise SpecFormatError("bad-edge-key", path)
        C[(index[src], index[dst])] = _float_matrix(raw, n, n, path, f"C[{key}]")

    return SwitchSystem(n=n, d=d, m=m, beta=beta, modes=tuple(modes), Q=Q, C=C)


# --------------------------------------------------------------------------
# constant-coefficient reduction
# --------------------------------------------------------------------------


def _matrices_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a, b)


def as_constant(system: SwitchSystem) -> ConstantSystem:
    """Reduce to constant coefficients, or raise :class:`NotConstantError`.

    The reduction succeeds when the drift, input matrix and input growth
    rate do not depend on the mode and the marked jump measure
    ``rate(gamma) Q(gamma, .) x delta_{C(gamma, .)}`` is the same from
    every mode.  With a zero-diagonal transition matrix the measures can
    only agree exactly when they vanish, so the operative case is the
    effectively-constant one: a single jump matrix shared by all edges and
    a common intensity, which makes the mark label irrelevant.
    """
    modes = system.modes
    first = modes[0]
    for other in modes[1:]:
        if not _matrices_equal(first.A, other.A):
            raise NotConstantError("A", (first.id, other.id))
        if not _matrices_equal(first.B0, other.B0):
            raise NotConstantError("B0", (first.id, other.id))
    for mode in modes:
        i = system.mode_index(mode.id)
        if system.beta_rate(i) != 0.0:
            raise NotConstantError("beta", (first.id, mode.id))

    # Exact mark-measure independence: rate(g) Q(g, j) equal for every g and
    # mark j.  Zero diagonal forces all mass to vanish, i.e. no jumps.
    weights = np.array([[m.rate * system.Q[i, j] for j in range(system.n_modes)]
                        for i, m in enumerate(modes)])
    if np.all(weights <= SUPPORT_TOL):
        return ConstantSystem(n=system.n, d=system.d, A=first.A, B=first.B0, marks=())

    # Effectively constant: one shared jump matrix and a common intensity.
    edges = [(i, system.C[(i, j)]) for i in range(system.n_modes)
             for j in system.support(i)]
    ref_src, ref_c = edges[0]
    for src, c in edges[1:]:
        if not _matrices_equal(ref_c, c):
            raise NotConstantError("C", (modes[ref_src].id, modes[src].id))
    for mode in modes[1:]:
        if mode.rate != first.rate:
            raise NotConstantError("lambda", (first.id, mode.id))
    return ConstantSystem(
        n=system.n, d=system.d, A=first.A, B=first.B0,
        marks=((first.rate, ref_c),),
    )
