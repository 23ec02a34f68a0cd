"""Command-line surface: check, simulate, riccati, verify-example.

Exit codes follow the verdict they report: 0 for a positive outcome
(``yes`` / all assertions pass / simulation written), 2 for a negative or
refused one, 3 for ``undetermined``, and 1 for unusable input (parse or
validation failures, unknown flags, bad option values, unknown example
names, an unwritable ``--out``).  Every failure but an invalid spec is one
``error:`` or ``refusal:`` line on stderr, printed by ``_fail``.
``SWITCHCTRL_SEED`` presets the seed; an explicit ``--seed`` wins.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
from typing import NoReturn

import numpy as np

from . import __version__
from .criteria import RefusalError, feedback_witness
from .mc import dual_kernel_residual, estimate_terminal_msq, trajectory_rng, within_bound
from .model import (
    NotConstantError,
    SpecFormatError,
    as_constant,
    canonical_json,
    check_positive,
    parse_spec,
    system_digest,
    validate,
)
from .pdmp import (
    FeedbackDualControl,
    ZeroPolicy,
    sample_mode_path,
    simulate_dual,
    simulate_forward,
)
from .report import EXIT_FOR_VERDICT, check_report, report_bytes
from .riccati import DEFAULT_N_LIST, riccati_csv, integrate_riccati, viability_test
from .subspace import DEFAULT_RANK_TOL, kernel
from .synth import ConstantPolicy, SingularGramianError, null_bound, piecewise_null_policy
from .verify import BUNDLES, verify_example


def _default_seed() -> int:
    text = os.environ.get("SWITCHCTRL_SEED", "0")
    try:
        return int(text)
    except ValueError:
        _fail(f"SWITCHCTRL_SEED must be an integer, got {text!r}")


def _fail(message: str, code: int = 1, kind: str = "error") -> NoReturn:
    """Print one ``kind: message`` line and end the command with ``code``."""
    print(f"{kind}: {message}", file=sys.stderr)
    raise SystemExit(code)


def _float_vector(text: str, size: int | None, flag: str) -> np.ndarray:
    """Parse a comma-separated list of finite numbers, of ``size`` entries
    when given; an empty entry (``1,,2``, ``1,2,``, ``""``) is malformed."""
    try:
        vec = np.array([float(tok) for tok in text.split(",")])
    except ValueError:
        vec = None
    if vec is None or not np.isfinite(vec).all():
        _fail(f"{flag} expects comma-separated finite numbers, got {text!r}")
    if size is not None and vec.size != size:
        _fail(f"{flag} needs {size} entries")
    return vec


def _positive(name: str, value: float) -> None:
    """End the command with :func:`check_positive`'s line unless ``value``
    is positive and finite."""
    try:
        check_positive(name, value)
    except ValueError as exc:
        _fail(str(exc))


def _write_output(data: str, out_path: str | None) -> int:
    """Write ``data`` to ``out_path`` (stdout when None); returns exit code 0."""
    if out_path is None:
        sys.stdout.write(data)
        return 0
    try:
        with open(out_path, "w") as fh:
            fh.write(data)
    except OSError as exc:
        _fail(f"cannot write {out_path}: {exc}")
    return 0


def _write_csv(to_csv, out_path: str | None) -> int:
    buf = io.StringIO()
    to_csv(buf)
    return _write_output(buf.getvalue(), out_path)


def _write_summary(command: str, system, out_path: str | None, fields: dict) -> int:
    summary = {"command": command, "tool_version": __version__,
               "system_digest": system_digest(system), **fields}
    return _write_output(canonical_json(summary).decode(), out_path)


def _load_system(spec_path: str):
    try:
        with open(spec_path, "rb") as fh:
            system = parse_spec(fh.read())
    except OSError as exc:
        _fail(f"cannot read {spec_path}: {exc}")
    except SpecFormatError as exc:
        _fail(str(exc))
    violations = validate(system)
    if violations:
        for v in violations:
            print(f"violation: {v}", file=sys.stderr)
        raise SystemExit(1)
    return system


def _mode_index(system, label: str | None) -> int:
    if label is None:
        return 0
    try:
        return system.mode_index(label)
    except KeyError as exc:
        _fail(exc.args[0])


# ----------------------------------------------------------------- commands


def cmd_check(args) -> int:
    system = _load_system(args.spec)
    report = check_report(system, rank_tol=args.tol_rank, seed=args.seed)
    _write_output(report_bytes(report).decode(), args.out)
    return EXIT_FOR_VERDICT[report["overall"]["verdict"]]


def _forward_policy(args, system):
    if args.policy == "zero":
        return ZeroPolicy()
    if args.policy == "constant":
        u = _float_vector(args.u, system.d, "--u") if args.u else np.zeros(system.d)
        return ConstantPolicy(u)
    return piecewise_null_policy(system, args.N, args.T, rank_tol=args.tol_rank)


def cmd_simulate(args) -> int:
    if args.paths < 1:
        _fail("--paths must be at least 1")
    if args.policy != "feedback-dual" and 1 < args.paths < 100:
        _fail("--paths must be 1 (one trajectory) or at least 100 (a terminal estimate)")
    if args.policy == "min-energy" and args.N < 1:
        _fail("--N must be at least 1")
    _positive("--T", args.T)
    _positive("--dt", args.dt)
    system = _load_system(args.spec)
    start = _mode_index(system, args.start_mode)
    try:
        if args.policy == "feedback-dual":
            return _simulate_dual_witness(args, system, start)
        policy = _forward_policy(args, system)
    except (RefusalError, SingularGramianError) as exc:
        _fail(str(exc), 2, "refusal")
    x0 = _float_vector(args.x0, system.n, "--x0") if args.x0 else np.ones(system.n)
    if args.paths == 1:
        path = sample_mode_path(system, start, args.T, trajectory_rng(args.seed, 0))
        traj = simulate_forward(system, x0, policy, path, args.dt)
        return _write_csv(traj.to_csv, args.out)
    est = estimate_terminal_msq(system, x0, policy, args.T, args.paths,
                                args.seed, args.dt, start_mode=start)
    fields = {"policy": args.policy, "T": args.T, "paths": args.paths,
              "seed": args.seed, "dt": args.dt,
              "terminal_msq": {"mean": est.mean, "std_error": est.std_error}}
    if args.policy == "min-energy":
        bound = null_bound(system, x0, args.T, args.N)
        passed = within_bound(est, bound, x0) if policy.commuting else None
        fields.update(N=args.N, bound=bound, bound_pass=passed)
    return _write_summary("simulate", system, args.out, fields)


def _simulate_dual_witness(args, system, start) -> int:
    wit = feedback_witness(system, start, rank_tol=args.tol_rank)
    if wit is None:
        _fail("witness-empty (the strictly invariant chain limit is trivial; "
              "there is no kernel-confined dual family to exhibit)", 2, "refusal")
    y0 = _float_vector(args.y0, system.n, "--y0") if args.y0 else wit.v_inf.basis[:, 0]
    if args.paths == 1:
        path = sample_mode_path(system, start, args.T, trajectory_rng(args.seed, 0))
        traj = simulate_dual(system, y0, FeedbackDualControl(wit.F), path, args.dt)
        return _write_csv(traj.to_csv, args.out)
    worst = dual_kernel_residual(system, wit.F, y0, args.T, args.paths,
                                 args.seed, args.dt, start_mode=start)
    if not math.isfinite(worst):
        _fail("the dual state left the finite range, so no kernel residual "
              "can be certified; shorten --T")
    return _write_summary("simulate", system, args.out, {
        "policy": "feedback-dual", "T": args.T, "paths": args.paths,
        "seed": args.seed, "dt": args.dt, "witness_dim": wit.v_inf.dim,
        "max_kernel_residual": worst})


def cmd_riccati(args) -> int:
    _positive("--T", args.T)
    n_list = tuple(_float_vector(args.riccati_N_list, None, "--riccati-N-list").tolist())
    for N in n_list:
        _positive("--riccati-N-list weights", N)
    ladder = len(n_list) >= 3 and sorted(set(n_list)) == list(n_list)
    if args.format == "json" and not ladder:
        _fail("--riccati-N-list needs at least three strictly increasing weights")
    system = _load_system(args.spec)
    try:
        const = as_constant(system)
    except NotConstantError as exc:
        _fail(str(exc), 2, "refusal")
    if args.y:
        y = _float_vector(args.y, const.n, "--y")
    else:
        ker = kernel(const.B.T, args.tol_rank)
        if ker.is_zero:
            _fail("ker(B*) is trivial; give --y explicitly")
        y = ker.basis[:, 0]
    if args.format == "csv":
        runs = [integrate_riccati(const, N, args.T, args.tol_rank) for N in n_list]
        return _write_csv(lambda fh: riccati_csv(runs, fh), args.out)
    rep = viability_test(const, y, args.T, N_list=n_list, rank_tol=args.tol_rank)
    return _write_summary("riccati", system, args.out, {
        "T": args.T, "y": y, "verdict": rep.verdict, "in_kernel": rep.in_kernel,
        "table": rep.table, "fitted_power": rep.fitted_power,
        "local_powers": rep.local_powers, "last_ratio": rep.last_ratio,
        "notes": rep.notes})


def cmd_verify_example(args) -> int:
    if args.name not in BUNDLES:
        _fail(f"unknown example {args.name!r}; known: {', '.join(sorted(BUNDLES))}")
    assertions = verify_example(args.name, seed=args.seed)
    for a in assertions:
        print(a.line())
    return 0 if all(a.ok for a in assertions) else 2


# -------------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:  # one error: line, exit 1
        _fail(message)

    def parse_known_args(self, args=None, namespace=None):
        # SWITCHCTRL_SEED is read only when no --seed was given
        args, extras = super().parse_known_args(args, namespace)
        if "seed" in vars(args) and args.seed is None:
            args.seed = _default_seed()
        return args, extras


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="switchctrl",
        description="Approximate null-controllability analysis of "
                    "piecewise-linear Markov switch systems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec=True):
        if spec:
            p.add_argument("spec", help="path to a system spec (JSON)")
        p.add_argument("--tol-rank", type=float, default=DEFAULT_RANK_TOL,
                       help="relative singular-value cutoff in (0, 1) "
                       "(default 1e-9)")
        p.add_argument("--seed", type=int, default=None,
                       help="base seed (default $SWITCHCTRL_SEED or 0)")
        p.add_argument("--out", default=None, help="write output here "
                       "instead of stdout")

    p = sub.add_parser("check", help="run every applicable criterion")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", help="simulate trajectories or estimate "
                       "terminal moments")
    common(p)
    p.add_argument("--policy", required=True,
                   choices=["zero", "constant", "min-energy", "feedback-dual"])
    p.add_argument("--x0", default=None, help="initial state, comma separated")
    p.add_argument("--y0", default=None, help="initial dual state (feedback-dual)")
    p.add_argument("--u", default=None, help="control vector (constant policy)")
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--N", type=int, default=8, help="restart count (min-energy)")
    p.add_argument("--paths", type=int, default=1)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--start-mode", default=None, help="initial mode id")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("riccati", help="penalty Riccati study of kernel viability")
    common(p)
    p.add_argument("--y", default=None, help="kernel vector to classify")
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--riccati-N-list",
                   default=",".join(f"{N:g}" for N in DEFAULT_N_LIST),
                   help="penalty ladder, comma separated")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_riccati)

    p = sub.add_parser("verify-example", help="re-derive a built-in example")
    p.add_argument("name", help=f"one of: {', '.join(sorted(BUNDLES))}")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_verify_example)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if "tol_rank" in vars(args) and not 0 < args.tol_rank < 1:
            _fail(f"--tol-rank must lie in (0, 1), got {args.tol_rank!r}")
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    except BrokenPipeError:
        # the downstream consumer (head, less, ...) closed the stream;
        # silence the shutdown flush and exit like any well-behaved filter
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
