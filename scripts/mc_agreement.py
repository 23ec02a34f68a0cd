#!/usr/bin/env python3
"""Batched Monte Carlo against the per-path loop.

Forward: runs the Monte Carlo calls of the ``mc-forward`` benchmark
workload (the min-energy restart policy on ``cont_switch_bound`` at
N = 1, 4, 16 with 2000 paths at dt 1e-2, and the ``nec1-not-det``
martingale check with 10 000 paths at dt 1e-3) once through
``estimate_terminal`` and once as a
``sample_mode_path(trajectory_rng(seed, i))`` plus ``simulate_forward``
loop, and compares the terminal states.

Dual: runs the ``mc-dual`` call (``nec1_det_not_nec2`` under its witness
feedback from the witness vector, 2000 paths at dt 1e-2) and the same
system under half the witness feedback from y0 = (0.6, 0.8), which leaves
ker(B0*), once through ``dual_path_maxima`` and once as a
``simulate_dual`` loop taking ``max |B0* Y_t|`` over each recorded path
(as ``dual_kernel_residual`` did path by path), and compares the per-path
maxima.

Prints, per call and seed, how many paths are bit-equal and the largest
absolute difference.  Exits 2 unless every path agrees bit for bit.
"""

import argparse
import sys

import numpy as np

from switchctrl import fixtures
from switchctrl.criteria import feedback_witness
from switchctrl.mc import dual_path_maxima, estimate_terminal, trajectory_rng
from switchctrl.pdmp import (
    FeedbackDualControl,
    ZeroPolicy,
    sample_mode_path,
    simulate_dual,
    simulate_forward,
)
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


def dual_calls(max_paths):
    """(label, system, F, y0, paths, dt) of the feedback-dual comparisons."""
    system = fixtures.nec1_det_not_nec2()
    wit = feedback_witness(system, 0)
    half = {edge: 0.5 * Fe for edge, Fe in wit.F.items()}
    paths = min(2000, max_paths)
    yield "feedback-dual witness", system, wit.F, wit.v_inf.basis[:, 0], paths, 1e-2
    yield "feedback-dual half", system, half, np.array([0.6, 0.8]), paths, 1e-2


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


def loop_maxima(system, F, y0, paths, seed, dt):
    bstar = system.modes[0].B0.T
    ctrl = FeedbackDualControl(F)
    return np.array([
        np.linalg.norm(simulate_dual(
            system, y0, ctrl,
            sample_mode_path(system, 0, T, trajectory_rng(seed, i)),
            dt).states @ bstar.T, axis=1).max()
        for i in range(paths)])


def compare(label, seed, batch, loop):
    """Print one agreement line; whether every path is bit-equal."""
    equal = int(np.sum(np.all((batch == loop).reshape(len(loop), -1), axis=1)))
    worst = float(np.max(np.abs(batch - loop)))
    print(f"seed={seed} {label}: {equal}/{len(loop)} paths bit-equal, "
          f"max |delta| = {worst:.3e}")
    return equal == len(loop)


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
            all_equal &= compare(label, seed, batch, loop)
        for label, system, F, y0, paths, dt in dual_calls(args.max_paths):
            batch = dual_path_maxima(system, F, y0, T, paths, seed, dt)
            loop = loop_maxima(system, F, y0, paths, seed, dt)
            all_equal &= compare(label, seed, batch, loop)
    return 0 if all_equal else 2


if __name__ == "__main__":
    sys.exit(main())
