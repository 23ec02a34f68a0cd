#!/usr/bin/env python3
"""Digests of the ``check`` output, for byte-identity checks across commits.

Runs ``switchctrl check`` in process on the shipped specs (``--seed 0``, the
seed the golden reports record) and on the ``check-sweep`` population of
each seed (``--seed`` that seed), and prints one line per group:

    shipped 5 <sha256>
    seed 1 128 <sha256>

Each hash runs over the group's specs in order; a spec adds its report
bytes followed by the line ``exit <code>``.  Equal lines on two commits mean
equal reports and exit codes.  The population comes from
``perfbench.workloads.population``, as the benchmark writes it.

    PYTHONPATH=src python scripts/report_digest.py --seeds 1,2,3
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from switchctrl.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]


def check_output(spec_path, seed: int) -> bytes:
    """Report bytes and exit line of one ``check`` call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["check", str(spec_path), "--seed", str(seed)])
    return out.getvalue().encode() + f"exit {code}\n".encode()


def digest(spec_paths, seed: int) -> str:
    h = hashlib.sha256()
    for path in spec_paths:
        h.update(check_output(path, seed))
    return h.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="",
                        help="population seeds, comma separated (default none)")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",") if s]

    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import SHIPPED_SPECS, population

    shipped = [ROOT / "specs" / f"{name}.json" for name in SHIPPED_SPECS]
    print(f"shipped {len(shipped)} {digest(shipped, 0)}")
    for seed in seeds:
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, data in population(seed):
                path = Path(tmp) / name
                path.write_bytes(data)
                paths.append(path)
            print(f"seed {seed} {len(paths)} {digest(paths, seed)}")


if __name__ == "__main__":
    main()
