"""Repeat the benchmark over seeds and summarize it per workload.

    python3 perfbench/baseline.py [--seeds 1-10] [--out FILE]

For every workload of ``BENCHMARK.json``, runs ``run.py --trace 0`` at its
``run_seconds`` once per seed and reports each end-to-end metric's median,
quartiles (``statistics.quantiles``, n=4) and spread (interquartile
distance over the median), with the attempted and failed operation counts
of every run.  Then one traced run
(first seed) gives the per-layer metrics, the tracing overhead (traced
minus untraced ``run_s``) and the share of ``traced.run_s`` spent in each
per-layer time metric.  Writes the summary as JSON (default: stdout).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, check=True,
                         timeout=300).stdout.splitlines()
    return json.loads(out[-2])["record"], json.loads(out[-1])


def _summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    seeds, seconds = _seeds(args.seeds), bench["run_seconds"]

    report = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in seeds:
            record, result = _run(workload, seed, seconds, 0)
            runs.append((record, result))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                file=sys.stderr)
        report.setdefault("env", runs[0][0]["env"])
        metrics = runs[0][1]["metrics"]
        entry = {
            "end_to_end": {name: {"unit": m["unit"], **_summary(
                [r[1]["metrics"][name]["value"] for r in runs])}
                for name, m in metrics.items()},
            "attempted": [r[1]["attempted"] for r in runs],
            "failed": [r[1]["failed"] for r in runs],
            "cycles": [r[0]["cycles"] for r in runs],
            "verdict_mix": runs[0][0]["verdict_mix"],
            "paths_per_cycle": runs[0][0]["paths_per_cycle"],
        }
        record, traced = _run(workload, seeds[0], seconds, 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        traced_run = layers["traced.run_s"]
        untraced = entry["end_to_end"]["run_s"]["median"]
        entry["traced"] = {
            "seed": seeds[0],
            "correct": traced["correct"],
            "per_layer": layers,
            "overhead_s": traced_run - untraced,
            "overhead_frac": (traced_run - untraced) / untraced,
            "share_of_traced_run_s": {
                k: v / traced_run for k, v in layers.items()
                if k.endswith("_s") and k != "traced.run_s" and v / traced_run >= 0.05},
        }
        report["workloads"][workload] = entry

    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
