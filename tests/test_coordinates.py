"""Coordinate independence of the criteria (a metamorphic test).

The criteria are invariance conditions, so an orthogonal change of state
coordinates, an orthogonal change of input coordinates and a relabelling
of the modes must leave every per-mode pass and every chain dimension as
it was.  The transforms come from ``scripts/coordinate_probe.py``, which
runs the same comparison over the benchmark population.

``spec_gen_n02_k5_hidden_block.json`` is the seed-3 population system
``gen-n02-k5-hidden-block``: ker(B0*) = span{e2} is A*-invariant in every
mode, so every mode fails ``suf1`` and ``det_kalman``.  In rotated
coordinates mode 2's preimage step keeps a singular value of only 9.5e-5;
chains that decide by two SVDs per step, or that rescale powers of A*,
lose the line there.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_switch_system
from switchctrl import fixtures
from switchctrl.model import parse_spec

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
from coordinate_probe import random_transform, signature  # noqa: E402


def assert_chains_end_in_repeat(sig):
    for name, per_mode in sig.items():
        for mode_id, (_, dims) in per_mode.items():
            assert dims[-1] == dims[-2], (name, mode_id, dims)


def assert_invariant(system, transforms, rng):
    ref = signature(system)
    assert_chains_end_in_repeat(ref)
    for _ in range(transforms):
        sig = signature(random_transform(rng, system))
        assert sig == ref
        assert_chains_end_in_repeat(sig)
    return ref


def small_systems():
    systems = [fixtures.example_system(name) for name in fixtures.FIXTURE_NAMES]
    rng = np.random.default_rng(1981)
    return systems + [random_switch_system(rng, max_n=5, max_modes=4)
                      for _ in range(20)]


@pytest.mark.parametrize("index", range(25))
def test_small_system_verdicts_do_not_depend_on_coordinates(index):
    assert_invariant(small_systems()[index], 5, np.random.default_rng(index))


def test_hidden_block_system_under_300_rotations():
    system = parse_spec((ROOT / "tests" / "data"
                         / "spec_gen_n02_k5_hidden_block.json").read_bytes())
    ref = assert_invariant(system, 300, np.random.default_rng(3))
    assert not ref["det_kalman"]["2"][0] and not ref["suf1"]["2"][0]
