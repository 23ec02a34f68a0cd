"""One workload process: import the CLI, then run cycles of CLI calls.

``worker.py --probe`` only imports ``switchctrl.cli`` and reports when it
is ready; ``worker.py --probe-deps`` does the same for the CLI's
third-party dependencies alone.  An untraced workload process launches
``PROBE_PAIRS`` pairs of them (one of each, in alternating order), spread
over the run between two calls, to measure set-up across the whole run;
``run.py`` turns the pairs into ``setup_s``.

``worker.py WORKLOAD SEED SECONDS TRACE WORKDIR`` also reports readiness,
then calls ``switchctrl.cli.main`` in this process for every call of the
workload's cycle, timing each call, and checks each output after its
timer stops.  A timer samples the calibration kernel (``calib.py``)
throughout, so that each call can be scaled to the reference machine
speed.  It starts another cycle only while the previous cycle's duration
still fits in SECONDS (at least one cycle always runs).  With TRACE = 1 it
first installs the span tracer, and fails if a traced name is missing.
Results go to WORKDIR/result.json, spans to WORKDIR/spans.json.
"""

import contextlib
import importlib
import io
import json
import os
import resource
import subprocess
import sys
import time

#: Pairs of set-up probes per untraced run.  One comes due every
#: SECONDS / PROBE_PAIRS of workload; due pairs run before the next call,
#: and those still missing when the workload ends run after it.
PROBE_PAIRS = 6

#: The third-party modules ``switchctrl.cli`` imports.
DEPENDENCIES = ("numpy", "scipy.linalg")


def _ready(modules):
    for name in modules:
        importlib.import_module(name)
    print(f"READY {time.monotonic()!r}", flush=True)


def _probe(flag: str) -> float:
    """Seconds from launching ``worker.py FLAG`` until it was ready."""
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, os.path.abspath(__file__), flag],
                         stdout=subprocess.PIPE, text=True, check=True, timeout=60).stdout
    if not out.startswith("READY "):
        raise RuntimeError(f"a {flag} process did not report readiness")
    return float(out.split()[1]) - t0


def probe_pair(swap: bool) -> list[float]:
    """Set-up time of the CLI and that of its dependencies alone, launched
    in the opposite order if ``swap``, so that neither always runs first
    after a call."""
    if swap:
        deps = _probe("--probe-deps")
        return [_probe("--probe"), deps]
    return [_probe("--probe"), _probe("--probe-deps")]


def main(argv):
    if argv[1:] == ["--probe-deps"]:
        _ready(DEPENDENCIES)
        return 0
    _ready(["switchctrl.cli"])  # set-up ends here
    if argv[1:] == ["--probe"]:
        return 0
    workload, seed, seconds, trace, workdir = argv[1:]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"

    import numpy
    import scipy

    import checks
    import workloads
    from calib import SpeedLog
    from switchctrl import cli

    root = os.getcwd()
    with open(os.path.join(os.path.dirname(__file__), "reference.json")) as fh:
        ctx = checks.Context(root, json.load(fh))
    calls = workloads.plan(workload, seed, os.path.join(workdir, "population"))
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    speed = SpeedLog()
    speed.start()
    intervals, failures, probes = [], [], []
    attempted = failed = cycles = 0
    probe_s = 0.0  # time spent in probes, outside the workload's time budget

    def clock():
        return time.perf_counter() - probe_s

    start = clock()
    while True:
        ctx.new_cycle()
        cycle_start = clock()
        for call in calls:
            due = 0 if trace else min(PROBE_PAIRS,
                                      1 + int((clock() - start) * PROBE_PAIRS / seconds))
            if len(probes) < due:
                t = time.perf_counter()
                speed.pause()
                while len(probes) < due:
                    probes.append(probe_pair(len(probes) % 2 == 1))
                speed.resume()
                probe_s += time.perf_counter() - t
            if tracer is not None:
                tracer.op = attempted
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(call.argv))
            intervals.append((t0, time.perf_counter()))
            fails = checks.CHECKS[call.check](rc, buf.getvalue(), call.params, ctx)
            attempted += 1
            if fails:
                failed += 1
                failures.append({"argv": list(call.argv), "failures": fails})
        cycles += 1
        now = clock()
        if now - start + (now - cycle_start) > seconds:
            break
    speed.wait_for_sample()
    speed.stop()
    while not trace and len(probes) < PROBE_PAIRS:
        probes.append(probe_pair(len(probes) % 2 == 1))

    raw = [t1 - t0 - speed.busy(t0, t1) for t0, t1 in intervals]
    scaled = [t * speed.factor(t0, t1) for t, (t0, t1) in zip(raw, intervals)]
    n = len(calls)
    result = {
        "argv": [list(c.argv) for c in calls],
        "cycles": [raw[i:i + n] for i in range(0, len(raw), n)],
        "scaled_cycles": [scaled[i:i + n] for i in range(0, len(scaled), n)],
        "kernel_s": speed.kernel_s,
        "probes_s": probes,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "verdict_mix": ctx.verdicts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(
            cycles, sum(scaled) / sum(raw),
            hidden=lambda t0, t1: 1e9 * speed.busy(t0 / 1e9, t1 / 1e9))
        tracer.dump(os.path.join(workdir, "spans.json"))
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
