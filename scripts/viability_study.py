#!/usr/bin/env python3
"""Penalty-ladder tables for the kernel-viability test on the constant fixtures.

Prints the (N, <K_T^N y, y>) table, local growth exponents, and verdict for
the viable line of the swap-drift system and the nonviable line of the
shift system.
"""

import argparse
import sys

import numpy as np

from switchctrl.fixtures import ctrl_not_suf1, nec1_det_not_nec2
from switchctrl.model import as_constant
from switchctrl.riccati import viability_test


def show(label, csystem, y, args):
    rep = viability_test(csystem, y, args.T,
                         N_list=tuple(float(v) for v in args.N.split(",")))
    print(f"== {label} (y = {np.asarray(y).tolist()}) ==")
    for N, q in rep.table:
        print(f"  N = {N:>8g}   q = {q:12.6f}")
    if rep.local_powers:
        print("  local growth exponents:",
              ", ".join(f"{p:.3f}" for p in rep.local_powers))
    print(f"  fitted power {rep.fitted_power}  last ratio {rep.last_ratio}")
    print(f"  verdict: {rep.verdict}")
    return rep.verdict


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--T", type=float, default=1.0)
    parser.add_argument("--N", default="1,10,100,1000")
    args = parser.parse_args()

    try:
        v1 = show("swap drift, kernel line", as_constant(nec1_det_not_nec2()),
                  [0.0, 1.0], args)
        v2 = show("shift drift, kernel line", as_constant(ctrl_not_suf1()),
                  [0.0, 0.0, 1.0], args)
    except ValueError as exc:  # a horizon or ladder viability_test refuses
        parser.error(str(exc))
    return 0 if (v1, v2) == ("viable", "nonviable") else 2


if __name__ == "__main__":
    sys.exit(main())
