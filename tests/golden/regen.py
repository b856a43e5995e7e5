"""Regenerate the frozen files used by the golden-file tests.

The references are the pipelines themselves, run once and frozen: the
tests guard against regressions in the ring's mode-to-mode recurrence,
density sampling and peak read-out, in the register's closed-form
read-out and CSV writer, and in what each command prints and writes, not
against this script. Rerun only for a golden that a change is meant to
move, name it on the command line, and state the moved digits with the
change.

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
- `cli/<case>.json`: one command of CLI_CASES run through cli.main on a
  shipped problem: its argv, exit code, stdout and stderr in full (the
  output directory taken out of every path), each JSON and text file it
  writes in full and each CSV by sha256.

Usage: python3 tests/golden/regen.py [GOLDEN ...], where GOLDEN is a path
under tests/golden, such as cli/sigma_x_ground_state.compare.json; with
none, every golden is rewritten.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

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
from ringqpe.cli import main as cli_main
from ringqpe.qpe import write_distribution_csv
from ringqpe.ring import write_density_csv

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
CLI_DIR = os.path.join(HERE, "cli")
MODE_CUTOFF = 50
GRID = 512
T_BITS = 10


# (case, argv) run on every shipped problem
COMMANDS = (("ring-sim", ["ring-sim"]), ("qpe", ["qpe"]), ("compare", ["compare"]),
            ("qpe-sampled", ["qpe", "--t-bits", "16", "--shots", "500",
                             "--seed", "3"]))

# commands that show a known defect, each with the ROADMAP direction that
# freezes it: a wrong answer is not frozen as the expected one
LEFT_OUT = {
    f"{stem}.compare": "direction 2: exit 4, since compare checks one phase "
                       "per route and the second component weighs 0.2 or 0.3"
    for stem in ("one_lobe_pair", "seam_pair", "sigma_z_superposition")
}


def _cli_cases() -> dict:
    """{case name: argv} for every shipped problem: ring-sim, qpe and
    compare at their defaults, and qpe sampled at t = 16, but for the
    LEFT_OUT cases."""
    cases = {}
    for name in sorted(os.listdir(os.path.join(ROOT, "problems"))):
        stem, problem = name[:-len(".json")], ["--problem", f"problems/{name}"]
        for case, argv in COMMANDS:
            if f"{stem}.{case}" not in LEFT_OUT:
                cases[f"{stem}.{case}"] = argv + problem
    return cases


CLI_CASES = _cli_cases()


def run_cli(argv: list, out_dir: str) -> dict:
    """Run cli.main(argv) from the repository root, writing into out_dir.

    Returns the record a golden holds: argv, exit code, stdout and stderr
    with `out_dir/` taken out, and each file written, a CSV as its sha256
    and anything else as its text.
    """
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv + ["--out-dir", out_dir])
    finally:
        os.chdir(cwd)
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        files[name] = ({"sha256": hashlib.sha256(data).hexdigest()}
                       if name.endswith(".csv") else data.decode("utf-8"))
    prefix = os.path.join(out_dir, "")
    return {"argv": argv, "exit": code,
            "stdout": out.getvalue().replace(prefix, ""),
            "stderr": err.getvalue().replace(prefix, ""), "files": files}


def density(out: str) -> None:
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    ground = np.array([1, -1]) / np.sqrt(2)
    problem = EnergyProblem(2.0 * sx, 1.0, ground)

    gauge = encode_as_gauge(problem)
    evolved = evolve_block(gauge, ground, MODE_CUTOFF, RETURN_TIME)
    write_density_csv(position_density(evolved, GRID), out)


def register(out: str) -> None:
    problem = load_problem(os.path.join(ROOT, "problems",
                                        "sigma_z_superposition.json"))
    est = qpe_estimate(problem.spectrum.eigenvalues, problem.weights,
                       QpeConfig(T_BITS))
    write_distribution_csv(est.distribution, out)


def cli_case(case: str):
    def write(out: str) -> None:
        with tempfile.TemporaryDirectory() as out_dir:
            record = run_cli(CLI_CASES[case], out_dir)
        with open(out, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return write


def main(names) -> int:
    goldens = {"evolved_density.csv": density, "qpe_distribution.csv": register}
    goldens.update((f"cli/{case}.json", cli_case(case)) for case in CLI_CASES)
    unknown = sorted(set(names) - set(goldens))
    if unknown:
        print(f"unknown goldens: {unknown}; choose from {sorted(goldens)}",
              file=sys.stderr)
        return 1
    os.makedirs(CLI_DIR, exist_ok=True)
    for name, write in goldens.items():
        if not names or name in names:
            out = os.path.join(HERE, name)
            write(out)
            print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
