"""Layered benchmark of the switchctrl CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed).  The workload process calls
``switchctrl.cli.main`` in-process, single-threaded (BLAS and OpenMP pinned
to one thread), for about S seconds of whole cycles, and checks every
output.  With ``--trace 0`` the last line of standard output is the result
with the end-to-end metrics; with ``--trace 1`` the workload runs under the
span tracer and the result holds the per-layer metrics instead.  The line
before it is the run record: environment, raw and scaled cycle times,
failures and the verdict mix.  Scratch files go to ``.perfbench/`` in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

#: Time to import the CLI's dependencies (``worker.DEPENDENCIES``) on the
#: reference machine at its undisturbed speed.
DEPS_NOMINAL_S = 0.40

#: Whole-run limit; a worker still running then is killed.
DEADLINE_S = 170.0

PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.pop("SWITCHCTRL_SEED", None)
    env.update({var: "1" for var in PINNED_THREADS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _launch(args: list, deadline: float) -> None:
    """Run the workload process to completion."""
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *args],
                            cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("the workload process exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"the workload process exited with code {proc.returncode}")


def _source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "switchctrl")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _setup_s(pairs: list) -> float:
    """Set-up time at the reference speed, from (CLI, dependencies) probe
    pairs: the median ratio of the two import times, times ``DEPS_NOMINAL_S``.
    Import time does not follow the calibration kernel of ``calib.py``, but
    it does follow the import time of the CLI's dependencies measured just
    before or after, so the ratio stays steady while the host's speed does
    not."""
    return DEPS_NOMINAL_S * statistics.median(cli / deps for cli, deps in pairs)


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    for needed in ("src/switchctrl/cli.py", "specs", "tests/data"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError(f"{needed} is missing: run from a switchctrl checkout")
    workdir = os.path.join(ROOT, ".perfbench", f"{workload}-seed{seed}-trace{int(trace)}")
    os.makedirs(workdir, exist_ok=True)

    if workload == "check-sweep":
        workloads.write_population(seed, os.path.join(workdir, "population"))
    _launch([workload, str(seed), str(seconds), str(int(trace)), workdir], deadline)
    with open(os.path.join(workdir, "result.json")) as fh:
        res = json.load(fh)

    # each call's median over the cycles, at the reference machine speed
    per_call = [statistics.median(ts) for ts in zip(*res["scaled_cycles"])]
    run_s = sum(per_call)
    latency = [t for t, argv in zip(per_call, res["argv"])
               if workloads.latency_call(workload, argv)]
    if trace:
        metrics = dict(res["layers"])
        metrics["traced.run_s"] = {"value": run_s, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": _setup_s(res["probes_s"]), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "call_p50_ms": {"value": 1e3 * statistics.median(latency), "unit": "ms"},
            "call_p90_ms": {"value": 1e3 * statistics.quantiles(
                latency, n=10, method="inclusive")[8], "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    paths = workloads.paths_per_cycle(workload)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            **res["versions"],
            "threads": {var: "1" for var in PINNED_THREADS},
            "git_commit": _git_commit(),
            "source_sha256": _source_digest(),
        },
        "cycles": len(res["cycles"]),
        "calls_per_cycle": len(res["argv"]),
        "setup_probes_s": res["probes_s"],
        "cycle_s_raw": [sum(c) for c in res["cycles"]],
        "cycle_s_scaled": [sum(c) for c in res["scaled_cycles"]],
        "kernel_s": {"min": min(res["kernel_s"]),
                     "median": statistics.median(res["kernel_s"]),
                     "max": max(res["kernel_s"]), "samples": len(res["kernel_s"])},
        "attempted": res["attempted"],
        "failed": res["failed"],
        "fail_frac": res["failed"] / res["attempted"],
        "failures": res["failures"],
        "verdict_mix": res["verdict_mix"],
        "paths_per_cycle": paths,
        "paths_per_s": paths / run_s if paths else None,
    }
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    with open(os.path.join(workdir, "record.json"), "w") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
