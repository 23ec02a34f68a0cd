"""Command-line surface: check, simulate, riccati, verify-example.

Exit codes follow the verdict they report: 0 for a positive outcome
(``yes`` / all assertions pass / simulation written), 2 for a negative or
refused one, 3 for ``undetermined``, and 1 for unusable input (parse or
validation failures, unknown example names).  ``SWITCHCTRL_SEED`` presets
the seed; an explicit ``--seed`` wins.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys

import numpy as np

from . import __version__
from .criteria import RefusalError, feedback_witness
from .mc import dual_kernel_residual, estimate_terminal_msq, trajectory_rng
from .model import (
    NotConstantError,
    SpecFormatError,
    as_constant,
    canonical_json,
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
from .riccati import riccati_csv, integrate_riccati, viability_test
from .subspace import DEFAULT_RANK_TOL
from .synth import ConstantPolicy, SingularGramianError, null_bound, piecewise_null_policy
from .verify import BUNDLES, verify_example


def _default_seed() -> int:
    return int(os.environ.get("SWITCHCTRL_SEED", "0"))


def _float_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",") if tok.strip() != ""])
    except ValueError:
        print(f"error: expected comma-separated numbers, got {text!r}",
              file=sys.stderr)
        raise SystemExit(1) from None


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _positive(value: float) -> bool:
    return math.isfinite(value) and value > 0


def _write_output(data: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(data)
        if not data.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out_path, "w") as fh:
            fh.write(data)


def _load_system(spec_path: str):
    try:
        with open(spec_path, "rb") as fh:
            system = parse_spec(fh.read())
    except OSError as exc:
        print(f"error: cannot read {spec_path}: {exc}", file=sys.stderr)
        raise SystemExit(1)
    except SpecFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)
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
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)


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
        u = _float_vector(args.u) if args.u else np.zeros(system.d)
        if u.size != system.d:
            print(f"error: --u needs {system.d} entries", file=sys.stderr)
            raise SystemExit(1)
        return ConstantPolicy(u)
    return piecewise_null_policy(system, args.N, args.T, rank_tol=args.tol_rank)


def cmd_simulate(args) -> int:
    if args.paths < 1:
        return _usage_error("--paths must be at least 1")
    if args.policy != "feedback-dual" and 1 < args.paths < 100:
        return _usage_error("--paths must be 1 (one trajectory) or at least "
                            "100 (a terminal estimate)")
    if args.policy == "min-energy" and args.N < 1:
        return _usage_error("--N must be at least 1")
    if not _positive(args.T):
        return _usage_error("--T must be positive and finite")
    if not _positive(args.dt):
        return _usage_error("--dt must be positive and finite")
    system = _load_system(args.spec)
    start = _mode_index(system, args.start_mode)
    try:
        if args.policy == "feedback-dual":
            return _simulate_dual_witness(args, system, start)
        policy = _forward_policy(args, system)
    except (RefusalError, SingularGramianError) as exc:
        print(f"refusal: {exc}", file=sys.stderr)
        return 2
    x0 = _float_vector(args.x0) if args.x0 else np.ones(system.n)
    if x0.size != system.n:
        print(f"error: --x0 needs {system.n} entries", file=sys.stderr)
        return 1
    if args.paths == 1:
        path = sample_mode_path(system, start, args.T, trajectory_rng(args.seed, 0))
        traj = simulate_forward(system, x0, policy, path, args.dt)
        buf = io.StringIO()
        traj.to_csv(buf)
        _write_output(buf.getvalue(), args.out)
        return 0
    est = estimate_terminal_msq(system, x0, policy, args.T, args.paths,
                                args.seed, args.dt, start_mode=start)
    summary = {
        "command": "simulate",
        "tool_version": __version__,
        "system_digest": system_digest(system),
        "policy": args.policy,
        "T": args.T,
        "paths": args.paths,
        "seed": args.seed,
        "dt": args.dt,
        "terminal_msq": {"mean": est.mean, "std_error": est.std_error},
    }
    if args.policy == "min-energy":
        bound = null_bound(system, x0, args.T, args.N)
        summary["N"] = args.N
        summary["bound"] = bound
        summary["bound_pass"] = bool(est.mean <= bound + 3.0 * est.std_error
                                     + 1e-12 * float(x0 @ x0))
    _write_output(canonical_json(summary).decode(), args.out)
    return 0


def _simulate_dual_witness(args, system, start) -> int:
    wit = feedback_witness(system, start, rank_tol=args.tol_rank)
    if wit is None:
        print("refusal: witness-empty (the strictly invariant chain limit is "
              "trivial; there is no kernel-confined dual family to exhibit)",
              file=sys.stderr)
        return 2
    y0 = _float_vector(args.y0) if args.y0 else wit.v_inf.basis[:, 0]
    if y0.size != system.n:
        print(f"error: --y0 needs {system.n} entries", file=sys.stderr)
        return 1
    if args.paths == 1:
        path = sample_mode_path(system, start, args.T, trajectory_rng(args.seed, 0))
        traj = simulate_dual(system, y0, FeedbackDualControl(wit.F), path, args.dt)
        buf = io.StringIO()
        traj.to_csv(buf)
        _write_output(buf.getvalue(), args.out)
        return 0
    worst = dual_kernel_residual(system, wit.F, y0, args.T, args.paths,
                                 args.seed, args.dt, start_mode=start)
    summary = {
        "command": "simulate",
        "tool_version": __version__,
        "system_digest": system_digest(system),
        "policy": "feedback-dual",
        "T": args.T,
        "paths": args.paths,
        "seed": args.seed,
        "dt": args.dt,
        "witness_dim": wit.v_inf.dim,
        "max_kernel_residual": worst,
    }
    _write_output(canonical_json(summary).decode(), args.out)
    return 0


def cmd_riccati(args) -> int:
    if not _positive(args.T):
        return _usage_error("--T must be positive and finite")
    n_list = tuple(float(v) for v in _float_vector(args.riccati_N_list))
    if not all(_positive(N) for N in n_list):
        return _usage_error("--riccati-N-list weights must be positive and finite")
    ladder = len(n_list) >= 3 and sorted(set(n_list)) == list(n_list)
    if args.format == "json" and not ladder:
        return _usage_error("--riccati-N-list needs at least three strictly "
                            "increasing weights")
    system = _load_system(args.spec)
    try:
        const = as_constant(system)
    except NotConstantError as exc:
        print(f"refusal: {exc}", file=sys.stderr)
        return 2
    if args.y:
        y = _float_vector(args.y)
        if y.size != const.n:
            print(f"error: --y needs {const.n} entries", file=sys.stderr)
            return 1
    else:
        from .subspace import kernel

        ker = kernel(const.B.T, args.tol_rank)
        if ker.is_zero:
            print("error: ker(B*) is trivial; give --y explicitly", file=sys.stderr)
            return 1
        y = ker.basis[:, 0]
    if args.format == "csv":
        runs = [integrate_riccati(const, N, args.T, args.tol_rank) for N in n_list]
        buf = io.StringIO()
        riccati_csv(runs, buf)
        _write_output(buf.getvalue(), args.out)
        return 0
    rep = viability_test(const, y, args.T, N_list=n_list, rank_tol=args.tol_rank)
    summary = {
        "command": "riccati",
        "tool_version": __version__,
        "system_digest": system_digest(system),
        "T": args.T,
        "y": [float(v) for v in y],
        "verdict": rep.verdict,
        "in_kernel": rep.in_kernel,
        "table": [[N, q] for N, q in rep.table],
        "fitted_power": rep.fitted_power,
        "local_powers": list(rep.local_powers),
        "last_ratio": rep.last_ratio,
        "notes": list(rep.notes),
    }
    _write_output(canonical_json(summary).decode(), args.out)
    return 0


def cmd_verify_example(args) -> int:
    if args.name not in BUNDLES:
        print(f"error: unknown example {args.name!r}; known: "
              f"{', '.join(sorted(BUNDLES))}", file=sys.stderr)
        return 1
    assertions = verify_example(args.name, seed=args.seed)
    for a in assertions:
        print(a.line())
    return 0 if all(a.ok for a in assertions) else 2


# -------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
                       help="relative singular-value cutoff (default 1e-9)")
        p.add_argument("--seed", type=int, default=_default_seed(),
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
    p.add_argument("--riccati-N-list", default="1,10,100,1000",
                   help="penalty ladder, comma separated")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_riccati)

    p = sub.add_parser("verify-example", help="re-derive a built-in example")
    p.add_argument("name", help=f"one of: {', '.join(sorted(BUNDLES))}")
    p.add_argument("--seed", type=int, default=_default_seed())
    p.set_defaults(func=cmd_verify_example)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
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
