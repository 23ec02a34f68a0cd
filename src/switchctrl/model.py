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


def check_positive(name: str, value) -> None:
    """The one positivity rule for horizons, steps and penalty weights:
    raise ``ValueError("<name> must be positive and finite")`` unless
    ``value`` is a finite number above zero (``nan`` and ``inf`` are not)."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite")


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


def _array_violations(name: str, arr: np.ndarray, shape: tuple[int, ...]) -> list[Violation]:
    """The one shape and finiteness rule, applied to every array of a system."""
    out = []
    if arr.shape != shape:
        out.append(Violation(f"dim-mismatch:{name}", f"expected {shape}, got {arr.shape}"))
    if not np.isfinite(arr).all():
        out.append(Violation(f"nonfinite:{name}", "entries must be finite"))
    return out


def validate(system: SwitchSystem) -> list[Violation]:
    """Check every structural invariant; an empty list means the system is valid.

    Violations are data, not exceptions: each carries a machine-readable
    code such as ``row-not-stochastic`` or ``dim-mismatch:modes[0].A``.
    This is the only place that checks the shape and finiteness of arrays.
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
        out += _array_violations(f"{loc}.embedding", mode.embedding, (m,))
        out += _array_violations(f"{loc}.A", mode.A, (n, n))
        out += _array_violations(f"{loc}.B0", mode.B0, (n, d))
        if not np.isfinite(mode.rate) or mode.rate < 0:
            out.append(Violation("rate-negative", f"{loc}.lambda={mode.rate}"))

    out += _array_violations("beta", system.beta, (m,))
    q_violations = _array_violations("Q", system.Q, (k, k))
    if q_violations:
        return out + q_violations  # remaining checks need a well-formed Q

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
            if present:
                out += _array_violations(f"C[{label}]", system.C[key], (n, n))
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


def _exact_floats(value, path: str):
    """``value`` as nested lists of floats, or ``bad-number`` at its first non-number."""
    if isinstance(value, list):
        return [_exact_floats(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if type(value) not in (int, float):  # bool is an int subclass
        raise SpecFormatError("bad-number", path, f"expected a number, got {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError:
        raise SpecFormatError("bad-number", path, "integer beyond the float range") from None


def _numbers(value, path: str, exact: bool) -> np.ndarray:
    """The one number conversion of a spec: JSON numbers, nested in lists of
    any shape, as a float array.  ``np.array`` reads well-formed input at
    once; the rest, and all input when ``exact`` is set, goes entry by entry
    through :func:`_exact_floats`, which locates the bad entry."""
    if not exact:
        try:
            arr = np.array(value)
            if arr.dtype.kind in "if":
                return arr.astype(float)
        except ValueError:  # ragged rows
            pass
    floats = _exact_floats(value, path)
    try:
        return np.array(floats)
    except ValueError:
        raise SpecFormatError("bad-number", path, "not a rectangular array") from None


def parse_spec(text: bytes | str) -> SwitchSystem:
    """Parse a JSON system spec; raises :class:`SpecFormatError` on bad input.

    Parsing owns the JSON structure only: the object, its required keys,
    positive integers ``n``, ``d`` and ``m``, the modes, their ids and the
    edge keys.  Numeric fields must hold JSON numbers and keep whatever
    shape they have: :func:`validate` checks shapes and finiteness and, like
    every invariant, reports them as data.
    """
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        # numpy reads a JSON boolean among numbers as 1 or 0; only a text
        # that spells one can hold one
        return _parse_doc(json.loads(text), exact="true" in text or "false" in text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError("invalid-json", f"line {exc.lineno}", exc.msg) from None
    except UnicodeDecodeError as exc:
        raise SpecFormatError("invalid-json", "$", str(exc)) from None
    except RecursionError:
        raise SpecFormatError("invalid-json", "$", "nested too deep") from None


def _parse_doc(doc, exact: bool) -> SwitchSystem:
    if not isinstance(doc, dict):
        raise SpecFormatError("invalid-json", "$", "top level must be an object")
    dims = [_require(doc, name, "$") for name in ("n", "d", "m")]
    for name, value in zip("ndm", dims):
        if type(value) is not int or value < 1:
            raise SpecFormatError("bad-dimension", f"$.{name}", "must be a positive integer")
    n, d, m = dims
    beta = _numbers(_require(doc, "beta", "$"), "$.beta", exact)

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
        fields = {key: _numbers(_require(raw, key, path), f"{path}.{key}", exact)
                  for key in ("lambda", "embedding", "A", "B0")}
        if fields["lambda"].shape != ():
            raise SpecFormatError("bad-number", f"{path}.lambda", "expected a number")
        modes.append(Mode(id=mode_id, embedding=fields["embedding"],
                          rate=float(fields["lambda"]), A=fields["A"], B0=fields["B0"]))
    Q = _numbers(_require(doc, "Q", "$"), "$.Q", exact)

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
        C[(index[src], index[dst])] = _numbers(raw, path, exact)

    return SwitchSystem(n=n, d=d, m=m, beta=beta, modes=tuple(modes), Q=Q, C=C)


# --------------------------------------------------------------------------
# constant-coefficient reduction
# --------------------------------------------------------------------------


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
        if not np.array_equal(first.A, other.A):
            raise NotConstantError("A", (first.id, other.id))
        if not np.array_equal(first.B0, other.B0):
            raise NotConstantError("B0", (first.id, other.id))
    for i, mode in enumerate(modes):
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
        if not np.array_equal(ref_c, c):
            raise NotConstantError("C", (modes[ref_src].id, modes[src].id))
    for mode in modes[1:]:
        if mode.rate != first.rate:
            raise NotConstantError("lambda", (first.id, mode.id))
    return ConstantSystem(
        n=system.n, d=system.d, A=first.A, B=first.B0,
        marks=((first.rate, ref_c),),
    )
