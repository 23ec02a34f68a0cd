#!/usr/bin/env python3
"""Batched Monte Carlo terminal states against the per-path loop.

Runs the Monte Carlo calls of the ``mc-forward`` benchmark workload (the
min-energy restart policy on ``cont_switch_bound`` at N = 1, 4, 16 with
2000 paths at dt 1e-2, and the ``nec1-not-det`` martingale check with
10 000 paths at dt 1e-3) once through ``estimate_terminal`` and once as a
``sample_mode_path(trajectory_rng(seed, i))`` plus ``simulate_forward``
loop.  Prints, per call and seed, how many terminal states are bit-equal
and the largest absolute difference.  Exits 2 unless every path agrees
bit for bit.
"""

import argparse
import sys

import numpy as np

from switchctrl import fixtures
from switchctrl.mc import estimate_terminal, trajectory_rng
from switchctrl.pdmp import ZeroPolicy, sample_mode_path, simulate_forward
from switchctrl.synth import piecewise_null_policy

T = 1.0


def calls(max_paths):
    """(label, system, x0, policy, paths, dt) of the workload's Monte Carlo."""
    bound = fixtures.cont_switch_bound()
    for N in (1, 4, 16):
        yield (f"min-energy N={N}", bound, np.ones(bound.n),
               piecewise_null_policy(bound, N, T), min(2000, max_paths), 1e-2)
    yield ("nec1-not-det zero", fixtures.nec1_not_det(), np.array([0.0, 1.0]),
           ZeroPolicy(), min(10_000, max_paths), 1e-3)


def batched_states(system, x0, policy, paths, seed, dt):
    states = []
    estimate_terminal(system, x0, policy, T, paths, seed, dt,
                      func=lambda xT: states.append(xT.copy()) or 0.0)
    return np.array(states)


def loop_states(system, x0, policy, paths, seed, dt):
    return np.array([
        simulate_forward(system, x0, policy,
                         sample_mode_path(system, 0, T, trajectory_rng(seed, i)),
                         dt, record=False)
        for i in range(paths)])


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated seeds")
    parser.add_argument("--max-paths", type=int, default=10_000,
                        help="cap on the paths of each call")
    args = parser.parse_args()

    all_equal = True
    for seed in (int(v) for v in args.seeds.split(",")):
        for label, system, x0, policy, paths, dt in calls(args.max_paths):
            batch = batched_states(system, x0, policy, paths, seed, dt)
            loop = loop_states(system, x0, policy, paths, seed, dt)
            equal = int(np.sum(np.all(batch == loop, axis=1)))
            worst = float(np.max(np.abs(batch - loop)))
            all_equal = all_equal and equal == paths
            print(f"seed={seed} {label}: {equal}/{paths} paths bit-equal, "
                  f"max |delta| = {worst:.3e}")
    return 0 if all_equal else 2


if __name__ == "__main__":
    sys.exit(main())
