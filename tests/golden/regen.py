"""Regenerate the frozen density snapshot used by the golden-file test.

The reference is the block-evolution pipeline itself, run once and frozen:
the test guards against regressions in the mode energies, the block
propagator and the density sampling, not against this script. Rerun only
when the physical conventions intentionally change, and say so in the
commit message.

Usage: python3 tests/golden/regen.py
"""

import os
import sys

import numpy as np

from ringqpe import (
    EnergyProblem,
    RingPhysicalParams,
    encode_as_gauge,
    initial_localized_state,
    evolve_block,
    position_density,
    return_time,
)
from ringqpe.ring import write_density_csv

MODE_CUTOFF = 50
GRID = 512


def main() -> int:
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    ground = np.array([1, -1]) / np.sqrt(2)
    problem = EnergyProblem(2.0 * sx, 1.0, ground)
    params = RingPhysicalParams()

    gauge = encode_as_gauge(problem, params)
    state = initial_localized_state(MODE_CUTOFF, ground)
    evolved = evolve_block(state, gauge, return_time(params))
    density = position_density(evolved, GRID)

    out = os.path.join(os.path.dirname(__file__), "evolved_density.csv")
    write_density_csv(density, out)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
