"""Regenerate the frozen files used by the golden-file tests.

The references are the pipelines themselves, run once and frozen: the
tests guard against regressions in the ring's mode-to-mode recurrence,
free phases and density sampling, and in the register's closed-form
read-out and CSV writer, not against this script. Rerun only when the
physical conventions intentionally change, and say so in the commit
message.

- `evolved_density.csv`: the ring density of the sigma_x ground state at
  the return time, l = 50, N = 512. The script writes `phi,density`, the
  two columns write_density_csv writes. The frozen file predates that and
  keeps two per-color columns after them; the test reads only its density
  column, so the file stays as it is until a convention change calls for
  a rerun. A rerun writes each value as format(x, ".16e") (17 significant
  digits), where the frozen file holds each value's repr; both parse back
  to the same floats.
- `qpe_distribution.csv`: what `qpe --t-bits 10` writes for
  problems/sigma_z_superposition.json, compared byte for byte.

Usage: python3 tests/golden/regen.py
"""

import os
import sys

import numpy as np

from ringqpe import (
    RETURN_TIME,
    EnergyProblem,
    QpeConfig,
    encode_as_gauge,
    evolve_block,
    load_problem,
    position_density,
    qpe_estimate,
)
from ringqpe.qpe import write_distribution_csv
from ringqpe.ring import write_density_csv

HERE = os.path.dirname(os.path.abspath(__file__))
MODE_CUTOFF = 50
GRID = 512
T_BITS = 10


def density(out: str) -> None:
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    ground = np.array([1, -1]) / np.sqrt(2)
    problem = EnergyProblem(2.0 * sx, 1.0, ground)

    gauge = encode_as_gauge(problem)
    evolved = evolve_block(gauge, ground, MODE_CUTOFF, RETURN_TIME)
    write_density_csv(position_density(evolved, GRID), out)


def register(out: str) -> None:
    problem = load_problem(os.path.join(HERE, "..", "..", "problems",
                                        "sigma_z_superposition.json"))
    est = qpe_estimate(problem.spectrum.eigenvalues, problem.weights,
                       QpeConfig(T_BITS))
    write_distribution_csv(est.distribution, out)


def main() -> int:
    for name, write in (("evolved_density.csv", density),
                        ("qpe_distribution.csv", register)):
        out = os.path.join(HERE, name)
        write(out)
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
