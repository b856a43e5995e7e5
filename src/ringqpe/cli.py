"""Command line front end.

Subcommands: ring-sim (gauge-field read-out and density snapshots), qpe
(register pipeline), compare (both routes against direct
diagonalization), bench (scaling measurements). _OPTIONS declares each
option once, and each subcommand's _DEFAULTS row names the options it
takes. Options resolve as command-line flags over --config JSON values
(null meaning the default) over built-in defaults, each through its one
cast; RINGQPE_OUT_DIR supplies the output directory when no flag or
config value names one. A warning prints as one "ringqpe: warning:" line.

Exit codes:
  0  success
  1  usage error or violated invariant (grids too coarse, bad values)
  2  unreadable problem file, malformed JSON, or unwritable output
  3  compare: routes disagree beyond the combined resolution bound
  4  compare: ambiguous spectrum (secondary ring peak above threshold)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import asdict

import numpy as np

from .angles import TWO_PI, circular_distance, wrap_to_signed
from .encode import EnergyProblem, encode_as_gauge, load_problem, read_json
from .errors import (
    PreconditionError,
    ProblemFormatError,
    RingQpeError,
)

PROG = "ringqpe"
OUT_DIR_ENV = "RINGQPE_OUT_DIR"

# compare flags the spectrum as ambiguous when a secondary relocalization
# peak carries at least this much weight
AMBIGUITY_WEIGHT = 0.1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_MISMATCH = 3
EXIT_AMBIGUOUS = 4


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; our taxonomy reserves 2 for I/O."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        # each parser refuses what it left over, so an option a subcommand
        # does not take is reported under that subcommand's usage
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _list_of(kind):
    """Caster for a list given as a JSON array or a comma-separated string."""
    def cast(value) -> tuple:
        if not isinstance(value, (list, tuple)):
            value = [v for v in str(value).split(",") if v.strip()]
        return tuple(kind(v) for v in value)
    return cast


def _real(value) -> float:
    """float(), but a bool is refused."""
    if isinstance(value, bool):
        raise TypeError("expected a number, got a boolean")
    return float(value)


def _integer(value) -> int:
    """int(), but a bool or a number with a fractional part is refused."""
    if isinstance(value, bool):
        raise TypeError("expected an integer, got a boolean")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("expected an integer")
    return int(value)


def _seed(value) -> int:
    """An integer seed; numpy's generators refuse negative ones."""
    seed = _integer(value)
    if seed < 0:
        raise ValueError("expected a non-negative integer")
    return seed


def _path(value) -> str:
    if not isinstance(value, str):
        raise TypeError("expected a path")
    if "\0" in value:
        raise ValueError("a path cannot hold a NUL byte")
    return value


# option key (also its config key): its flags, the one cast that a flag value
# and a config value both go through, and its help. Every option takes a
# value.
_OPTIONS = {
    "problem": (("--problem",), _path, "problem JSON file"),
    "out_dir": (("--out-dir",), _path,
                f"output directory (default: ${OUT_DIR_ENV} or cwd)"),
    "seed": (("--seed",), _seed, "seed for any sampling"),
    "mode_cutoff_l": (("-l", "--mode-cutoff"), _integer,
                      "angular momentum cutoff (modes -l..l)"),
    "grid_size_n": (("-N", "--grid-size"), _integer,
                    "position grid size (N >= 4l+1, for the peak read-out)"),
    "times": (("--times",), _list_of(_real),
              "comma-separated snapshot times as fractions of the return time"),
    "t_bits": (("--t-bits",), _integer, "read-out register width"),
    "shots": (("--shots",), _integer, "samples to draw (0 = exact distribution)"),
    "sizes": (("--sizes",), _list_of(_integer), "comma-separated matrix dimensions"),
    "repeats": (("--repeats",), _integer, "timed repeats per point"),
}

# one row per subcommand: the default of exactly the options it reads, so a
# flag or config key outside its row is refused (bench reads no problem,
# ring-sim samples nothing and takes no seed)
_DEFAULTS = {
    "ring-sim": {"problem": None, "out_dir": None, "mode_cutoff_l": 50,
                 "grid_size_n": 512, "times": (0.0, 0.5, 1.0)},
    "qpe": {"problem": None, "out_dir": None, "seed": 0, "t_bits": 10, "shots": 0},
    "compare": {"problem": None, "out_dir": None, "seed": 0, "mode_cutoff_l": 200,
                "grid_size_n": 1024, "t_bits": 10, "shots": 0},
    "bench": {"out_dir": None, "seed": 0, "sizes": (64, 128, 256, 512),
              "repeats": 5},
}
# each subcommand's help and description, in the rows' order
_ABOUT = {
    "ring-sim": ("evolve a localized packet and read eigenphases from its peaks",
                 "Writes density_XX.csv snapshots, peaks.json and summary.txt "
                 "into the output directory."),
    "qpe": ("estimate an eigenphase with the register pipeline",
            "Writes qpe_distribution.csv and qpe_estimate.json."),
    "compare": ("cross-validate ring, register and direct diagonalization",
                "Writes compare.json; exits 3 when the routes disagree beyond "
                "2 pi/2^t + 2 pi/(2l+1), 4 when the ring sees an ambiguous "
                "spectrum."),
    "bench": ("measure wall-time scaling of the evolution routes",
              "Appends bench.csv and writes bench_fits.json."),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog=PROG,
        description="Eigenphase read-out on a gauge-threaded ring, and by "
                    "register-level phase estimation.",
        epilog="Exit codes: 0 ok, 1 usage or invariant violation, 2 I/O, "
               "3 route mismatch, 4 ambiguous spectrum (secondary ring peak "
               f"weight >= {AMBIGUITY_WEIGHT}).",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, row in _DEFAULTS.items():
        summary, description = _ABOUT[name]
        sub = subparsers.add_parser(name, help=summary, description=description)
        # no type=: _resolve_config casts flag and config values alike
        for key in row:
            flags, _, help_text = _OPTIONS[key]
            sub.add_argument(*flags, dest=key, default=None, help=help_text)
        sub.add_argument("--config", help="JSON file of default option values")
    return parser


def _resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill every option as flag, else config value, else default.

    A JSON null in the config means "use the default". Flag, config and
    default values go through the option's one cast. Returns `args` with
    each option cast and `out_dir` resolved.
    """
    defaults = _DEFAULTS[args.subcommand]
    file_values = read_json(args.config) if args.config else {}
    if not isinstance(file_values, dict):
        raise PreconditionError("--config file must hold a JSON object")
    unknown = set(file_values) - set(defaults)
    if unknown:
        raise PreconditionError(
            f"--config has keys not used by {args.subcommand}: {sorted(unknown)}"
        )

    for key, default in defaults.items():
        value = getattr(args, key)
        if value is None:
            value = file_values.get(key)
        if value is None:
            value = default
        if value is not None:
            try:
                value = _OPTIONS[key][1](value)
            except (TypeError, ValueError, OverflowError) as exc:
                # a string's line breaks are escaped as repr escapes them
                shown = repr(value)[1:-1] if isinstance(value, str) else value
                raise PreconditionError(f"bad {key} value {shown}: {exc}") from exc
        setattr(args, key, value)

    if args.out_dir is None:
        args.out_dir = os.environ.get(OUT_DIR_ENV) or os.getcwd()
    return args


def _require_problem(cfg: argparse.Namespace):
    if not cfg.problem:
        raise PreconditionError(
            f"{cfg.subcommand} needs --problem (or a 'problem' config entry)"
        )
    return load_problem(cfg.problem)


def cmd_ring_sim(cfg: argparse.Namespace) -> int:
    # each handler imports only its own route, so ring-sim never loads qpe
    from . import ring

    problem = _require_problem(cfg)
    # only the snapshots read the field; the largest |t| checks every one
    # before any is evolved, and a NaN among the times makes the maximum NaN
    if cfg.times:
        gauge = encode_as_gauge(problem)
        ring.require_finite_phase(gauge, cfg.mode_cutoff_l, float(
            np.max(np.abs(cfg.times))) * ring.RETURN_TIME)
    peaks = ring.estimate_phase_via_ring(problem.u_matrix, problem.state,
                                         cfg.mode_cutoff_l, cfg.grid_size_n)

    # made only once every refusal is past, so a refused run leaves nothing
    os.makedirs(cfg.out_dir, exist_ok=True)
    snapshot_paths = [os.path.join(cfg.out_dir, f"density_{i:02d}.csv")
                      for i in range(len(cfg.times))]
    for fraction, path in zip(cfg.times, snapshot_paths):
        # one snapshot is held at a time: no name keeps the evolved state,
        # so it is freed once its density exists, before the CSV is written
        ring.write_density_csv(ring.position_density(ring.evolve_block(
            gauge, problem.state, cfg.mode_cutoff_l,
            fraction * ring.RETURN_TIME), cfg.grid_size_n), path)
    peaks_path = os.path.join(cfg.out_dir, "peaks.json")
    with open(peaks_path, "w") as fh:
        json.dump(ring.peak_set_to_json(peaks), fh, indent=2)

    lines = [
        f"problem: {cfg.problem}",
        f"mode cutoff l = {cfg.mode_cutoff_l}, grid N = {cfg.grid_size_n}",
        f"return time t_R = {ring.RETURN_TIME!r}",
        f"peaks found: {len(peaks)}",
    ]
    for i, p in enumerate(peaks):
        lines.append(f"  peak {i}: phi = {p.phi:.6f}, weight = {p.weight:.4f}")
    if len(peaks):
        signed = wrap_to_signed(peaks.dominant.phi)
        lines.append(f"dominant eigenphase (signed) = {signed:.6f}")
        if isinstance(problem, EnergyProblem):
            radius = problem.spectral_radius
            # past pi a wrapped phase names the energy only up to whole turns
            lines.append(
                f"energy = E_R * phase = {problem.E_R * signed:.6f}"
                if radius < np.pi else
                f"energy: known only modulo 2 pi E_R = {TWO_PI * problem.E_R:.6f} "
                f"(H/E_R has spectral radius {radius:.6g} >= pi)")
    summary = "\n".join(lines) + "\n"
    with open(os.path.join(cfg.out_dir, "summary.txt"), "w") as fh:
        fh.write(summary)
    sys.stdout.write(summary)
    for path in snapshot_paths + [peaks_path]:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_qpe(cfg: argparse.Namespace) -> int:
    from . import qpe

    problem = _require_problem(cfg)
    qpe_cfg = qpe.QpeConfig(cfg.t_bits, shots=cfg.shots, rng_seed=cfg.seed)
    estimate = qpe.qpe_estimate(problem.spectrum.eigenvalues, problem.weights,
                                qpe_cfg)

    os.makedirs(cfg.out_dir, exist_ok=True)
    dist_path = os.path.join(cfg.out_dir, "qpe_distribution.csv")
    qpe.write_distribution_csv(estimate.distribution, dist_path)
    est_path = os.path.join(cfg.out_dir, "qpe_estimate.json")
    with open(est_path, "w") as fh:
        json.dump(qpe.estimate_to_json(estimate, qpe_cfg), fh, indent=2)

    print(
        f"k = {estimate.k_best} of 2^{cfg.t_bits}, "
        f"phi = {estimate.phi_estimate:.6f} "
        f"({estimate.distribution.mode}, seed {cfg.seed})"
    )
    print(f"wrote {dist_path}")
    print(f"wrote {est_path}")
    return EXIT_OK


def cmd_compare(cfg: argparse.Namespace) -> int:
    from . import qpe, ring

    problem = _require_problem(cfg)
    # built before the ring runs, so a bad t_bits is refused first
    qpe_cfg = qpe.QpeConfig(cfg.t_bits, shots=cfg.shots, rng_seed=cfg.seed)

    peaks = ring.estimate_phase_via_ring(
        problem.u_matrix, problem.state, cfg.mode_cutoff_l, cfg.grid_size_n
    )
    if not len(peaks):
        raise PreconditionError("ring read-out found no relocalization peak")

    ambiguous = len(peaks) > 1 and peaks.peaks[1].weight >= AMBIGUITY_WEIGHT

    theta = problem.spectrum.eigenvalues
    estimate = qpe.qpe_estimate(theta, problem.weights, qpe_cfg)
    phi_ring = peaks.dominant.phi
    phi_qpe = estimate.phi_estimate
    # the heaviest cluster of eigenphases, merged as the ring merges its
    # poles: an eigenvalue's weight may be split over several eigenvectors
    phi_eig = ring.merge_components(theta, problem.weights,
                                    cfg.mode_cutoff_l)[0].phi

    bound = TWO_PI / (1 << cfg.t_bits) + TWO_PI / (2 * cfg.mode_cutoff_l + 1)
    distances = {
        "ring_qpe": circular_distance(phi_ring, phi_qpe),
        "ring_eig": circular_distance(phi_ring, phi_eig),
        "qpe_eig": circular_distance(phi_qpe, phi_eig),
    }
    ok = not ambiguous and all(d <= bound for d in distances.values())

    report = {
        "phi_ring": phi_ring,
        "phi_qpe": phi_qpe,
        "phi_eig": phi_eig,
        "distances": distances,
        "bound": bound,
        "ambiguous": ambiguous,
        "secondary_weight": peaks.peaks[1].weight if len(peaks) > 1 else 0.0,
        "ok": ok,
    }
    os.makedirs(cfg.out_dir, exist_ok=True)
    report_path = os.path.join(cfg.out_dir, "compare.json")
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2)

    print(f"phi_ring = {phi_ring:.6f}")
    print(f"phi_qpe  = {phi_qpe:.6f}")
    print(f"phi_eig  = {phi_eig:.6f}")
    print(f"max distance = {max(distances.values()):.6f}, bound = {bound:.6f}")
    print(f"wrote {report_path}")
    if ambiguous:
        print(
            f"ambiguous spectrum: secondary peak weight "
            f"{report['secondary_weight']:.3f} >= {AMBIGUITY_WEIGHT}",
            file=sys.stderr,
        )
        return EXIT_AMBIGUOUS
    if not ok:
        print("routes disagree beyond the resolution bound", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_bench(cfg: argparse.Namespace) -> int:
    # imported here so that the other subcommands never load bench
    from .bench import (
        ALL_METHODS,
        append_bench_csv,
        fit_scaling,
        run_scaling_suite,
    )

    points = run_scaling_suite(cfg.sizes, repeats=cfg.repeats, seed=cfg.seed)
    os.makedirs(cfg.out_dir, exist_ok=True)
    csv_path = os.path.join(cfg.out_dir, "bench.csv")
    append_bench_csv(points, csv_path, cfg.seed)

    fits = []
    for method in ALL_METHODS:
        mine = [p for p in points if p.method == method]
        if len(mine) >= 4:
            fits.append(fit_scaling(mine))
    fits_path = os.path.join(cfg.out_dir, "bench_fits.json")
    with open(fits_path, "w") as fh:
        json.dump([asdict(f) for f in fits], fh, indent=2)

    for p in points:
        print(
            f"{p.method:16s} size={p.size_param:<6d} median={p.wall_time_s:.6e}s "
            f"spread={p.spread:.3f} ops={p.op_count}"
        )
    for f in fits:
        print(f"{f.method:16s} slope={f.slope:.3f} r2={f.r_squared:.4f}")
    print(f"wrote {csv_path}")
    print(f"wrote {fits_path}")
    return EXIT_OK


_HANDLERS = {
    "ring-sim": cmd_ring_sim,
    "qpe": cmd_qpe,
    "compare": cmd_compare,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    # a warning reaches the user as one line, not as Python's report of the
    # source line; the caller's warning state is restored on return
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(
            f"{PROG}: warning: {message}", file=sys.stderr)
        try:
            cfg = _resolve_config(args)
            return _HANDLERS[args.subcommand](cfg)
        except (ProblemFormatError, OSError) as exc:
            print(f"{PROG}: I/O error: {exc}", file=sys.stderr)
            return EXIT_IO
        except RingQpeError as exc:
            print(f"{PROG}: error: {exc}", file=sys.stderr)
            return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
