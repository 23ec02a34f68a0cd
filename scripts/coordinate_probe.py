#!/usr/bin/env python3
"""Criterion verdicts under random orthogonal changes of coordinates.

The criteria are invariance conditions: they do not depend on the basis of
the state space or of the input space, or on the order of the modes.  For
every system of the ``check-sweep`` population of each seed, this applies
K random transforms (state ``x -> S x`` and input ``u -> R^T u`` with S and
R orthogonal, modes listed in a random order) and prints, per criterion,
how many per-mode passes and chain dimensions changed.  Exits 2 when any
did.

    PYTHONPATH=src python scripts/coordinate_probe.py --seeds 1,2,3 --transforms 4
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from switchctrl.model import parse_spec
from switchctrl.report import CRITERIA_REPORT_ORDER, run_criteria


def random_orthogonal(rng, n):
    """Haar-distributed orthogonal n-by-n matrix."""
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def transformed(system, S, R, order):
    """``system`` in state coordinates ``S x`` and input coordinates
    ``R^T u`` (S and R orthogonal), with its modes listed in ``order``."""
    pos = {old: new for new, old in enumerate(order)}
    modes = tuple(dataclasses.replace(m, A=S @ m.A @ S.T, B0=S @ m.B0 @ R)
                  for m in (system.modes[i] for i in order))
    C = {(pos[i], pos[j]): S @ c @ S.T for (i, j), c in system.C.items()}
    return dataclasses.replace(system, modes=modes,
                               Q=system.Q[np.ix_(order, order)], C=C)


def random_transform(rng, system):
    return transformed(system, random_orthogonal(rng, system.n),
                       random_orthogonal(rng, system.d),
                       rng.permutation(system.n_modes).tolist())


def signature(system):
    """Per criterion and mode id: the pass and the chain dimensions."""
    verdicts, _ = run_criteria(system)
    return {name: {mid: (mv.passed, tuple(s.dim for s in mv.chain))
                   for mid, mv in v.per_mode.items()}
            for name, v in verdicts.items()}


def changes(ref, other):
    """Per criterion: (per-mode passes that differ, chains whose
    dimensions differ) between two signatures of one system."""
    return {name: (sum(ref[name][m][0] != other[name][m][0] for m in ref[name]),
                   sum(ref[name][m][1] != other[name][m][1] for m in ref[name]))
            for name in ref}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated seeds")
    parser.add_argument("--transforms", type=int, default=1,
                        help="random transforms per system")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from perfbench.workloads import population

    rng = np.random.default_rng(0)
    totals = {name: [0, 0] for name in CRITERIA_REPORT_ORDER}
    changed_systems = 0
    for seed in (int(v) for v in args.seeds.split(",")):
        for name, data in population(seed):
            system = parse_spec(data)
            ref = signature(system)
            changed = False
            for _ in range(args.transforms):
                for crit, (flips, dims) in changes(
                        ref, signature(random_transform(rng, system))).items():
                    totals[crit][0] += flips
                    totals[crit][1] += dims
                    if flips or dims:
                        changed = True
                        print(f"seed={seed} {name} {crit}: {flips} pass flips, "
                              f"{dims} chain-dimension changes")
            changed_systems += changed
    for crit, (flips, dims) in totals.items():
        print(f"{crit}: {flips} per-mode pass flips, {dims} chain-dimension changes")
    print(f"systems with any change: {changed_systems}")
    return 2 if changed_systems else 0


if __name__ == "__main__":
    sys.exit(main())
