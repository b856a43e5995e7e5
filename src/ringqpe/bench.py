"""Wall-time scaling of the dense exponential against the block route.

Both ring methods run the same seeded workload, a packet in a random gauge
field evolved for one return time, differing only in the evolution
routine: `dense_expm` builds the packet, squares the 2l+1 blocks,
assembles the full (2l+1)n matrix and exponentiates it, `block_evolve`
takes two n x n exponentials and steps the packet from mode to mode with
them. `qpe_statevector` times the register pipeline on
the spectrum of exp(i H), with the read-out width t chosen so the register
matches the requested size. Every timed result is validated against the block
oracle before being recorded; a benchmark that returns wrong numbers is
worthless no matter how fast.
"""

from __future__ import annotations

import csv
import functools
import logging
import math
import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

from . import opcount
from .errors import PreconditionError, ResourceLimitError
from .linalg import eig_hermitian
from .qpe import QpeConfig, qpe_estimate
from .ring import RETURN_TIME, GaugeField, evolve_block, evolve_dense

log = logging.getLogger(__name__)

METHOD_DENSE = "dense_expm"
METHOD_BLOCK = "block_evolve"
METHOD_QPE = "qpe_statevector"
ALL_METHODS = (METHOD_DENSE, METHOD_BLOCK, METHOD_QPE)

# timed results must agree with the block oracle to this tolerance; looser
# than the small-dimension contract because squaring counts grow with l^2
_VALIDATION_ATOL = 1e-6
# colors of every workload: the gauge field's and register 2's dimension
_N_COLORS = 2


@dataclass(frozen=True)
class BenchPoint:
    """One measured configuration: median wall time over `repeats` runs."""

    method: str
    size_param: int
    wall_time_s: float
    op_count: int | None
    repeats: int
    spread: float

    def __post_init__(self):
        if self.method not in ALL_METHODS:
            raise PreconditionError(f"unknown bench method {self.method!r}")
        if self.size_param < 1:
            raise PreconditionError("size_param must be positive")
        if not (self.wall_time_s > 0):
            raise PreconditionError("wall time must be positive")
        if self.repeats < 3:
            raise PreconditionError(f"need >= 3 repeats, got {self.repeats}")
        if self.spread < 0:
            raise PreconditionError("spread must be non-negative")


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares slope of log(time) against the documented x axis."""

    method: str
    slope: float
    intercept: float
    r_squared: float
    x_axis: str


def _random_hermitian(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (m + m.conj().T)


def _ring_workload(size: int, n_colors: int, rng: np.random.Generator):
    """(gauge, color, l) of the largest (2l+1)*n_colors ring in `size` dims."""
    l = ((size // n_colors) - 1) // 2
    if l < 1:
        return None
    # keep gauge amplitudes ~1/(2 pi) so read-out phases spread over the circle
    gauge = GaugeField(_random_hermitian(rng, n_colors, 1.0 / (2.0 * np.pi)))
    color = rng.standard_normal(n_colors) + 1j * rng.standard_normal(n_colors)
    color = color / np.linalg.norm(color)
    return gauge, color, l


def _qpe_workload(size: int, n_colors: int, rng: np.random.Generator):
    t_bits = min(24, max(1, round(math.log2(size))))
    # the eigenpairs (w, V) of H are the eigenphases and basis of exp(i H)
    spectrum = eig_hermitian(_random_hermitian(rng, n_colors, 1.0))
    return spectrum, spectrum.eigenvectors[:, 0], QpeConfig(t_bits)


def _warmed_jobs(method: str, sizes, seed: int) -> list:
    """(size, size_param, runner, ring workload or None) per size that runs.

    Each runner is called once here, untimed, as its warm-up; sizes the
    resource guards reject or too small to host a ring are logged and left
    out.
    """
    jobs = []
    for size_index, size in enumerate(sizes):
        rng = np.random.default_rng([seed, size_index, ALL_METHODS.index(method)])
        workload = None
        if method == METHOD_QPE:
            spectrum, color, cfg = _qpe_workload(size, _N_COLORS, rng)
            runner = functools.partial(qpe_estimate, spectrum, color, cfg)
            size_param = cfg.t_bits
        else:
            workload = _ring_workload(size, _N_COLORS, rng)
            if workload is None:
                log.warning("skipping %s at size %d: no ring fits", method, size)
                continue
            size_param = (2 * workload[2] + 1) * _N_COLORS
            evolve = evolve_dense if method == METHOD_DENSE else evolve_block
            runner = functools.partial(evolve, *workload, RETURN_TIME)
        try:
            runner()
        except ResourceLimitError as exc:
            log.warning("skipping %s at size %d: %s", method, size, exc)
            continue
        jobs.append((size, size_param, runner, workload))
    return jobs


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def run_scaling_suite(
    sizes,
    repeats: int = 5,
    seed: int = 0,
    methods=ALL_METHODS,
    count_ops: bool = False,
) -> list[BenchPoint]:
    """Measure each method at each size on seeded random inputs.

    Points the resource guards reject (or sizes too small to host a ring)
    are skipped with a logged reason rather than recorded. After one
    untimed warm-up per point, a method's timed repeats go round-robin over
    its sizes, so one stall window cannot hit every repeat of one size;
    each point records the median of its repeats. Measurements run
    strictly sequentially; validation happens outside the timed region.
    """
    # every count is checked as QpeConfig checks rng_seed: an integer, not a
    # bool; numpy and range() would refuse the rest with bare errors, and
    # int() would truncate a fractional size
    sizes = list(sizes)
    if not sizes or not all(_is_integer(s) and s >= 1 for s in sizes):
        raise PreconditionError(f"sizes must be positive integers, got {sizes!r}")
    sizes = [int(s) for s in sizes]
    if not _is_integer(repeats) or repeats < 3:
        raise PreconditionError(f"need an integer >= 3 repeats, got {repeats!r}")
    if not _is_integer(seed) or seed < 0:
        raise PreconditionError(f"seed must be a non-negative integer, got {seed!r}")
    unknown = set(methods) - set(ALL_METHODS)
    if unknown:
        raise PreconditionError(f"unknown bench methods: {sorted(unknown)}")

    points: list[BenchPoint] = []
    for method in methods:
        jobs = _warmed_jobs(method, sizes, seed)
        times = [[] for _ in jobs]
        for _ in range(repeats):
            for (_, _, runner, _), runs in zip(jobs, times):
                start = time.perf_counter()
                runner()
                runs.append(time.perf_counter() - start)

        for (size, size_param, runner, workload), runs in zip(jobs, times):
            if workload is not None:
                reference = evolve_block(*workload, RETURN_TIME)
                drift = float(np.max(np.abs(runner().coeffs - reference.coeffs)))
                if drift > _VALIDATION_ATOL:
                    raise PreconditionError(
                        f"{method} at size {size} drifted {drift:.3e} from the "
                        f"block oracle; refusing to record a wrong timing"
                    )

            ops = None
            if count_ops:
                with opcount.count_macs() as counter:
                    runner()
                ops = counter.total

            median = statistics.median(runs)
            spread = (max(runs) - min(runs)) / median if median > 0 else 0.0
            points.append(BenchPoint(method, size_param, median, ops, repeats, spread))
    return points


def fit_scaling(points) -> ScalingFit:
    """Fit log(median time) linearly in the method's documented size axis."""
    points = list(points)
    if len(points) < 4:
        raise PreconditionError(f"need >= 4 points to fit, got {len(points)}")
    methods = {p.method for p in points}
    if len(methods) != 1:
        raise PreconditionError(f"fit expects one method, got {sorted(methods)}")
    method = points[0].method
    if method == METHOD_QPE:
        # size_param stores t; the register grows like 2^t
        x = np.array([p.size_param * math.log(2.0) for p in points])
        x_axis = "log(2**size_param)"
    else:
        x = np.array([math.log(p.size_param) for p in points])
        x_axis = "log(size_param)"
    y = np.array([math.log(p.wall_time_s) for p in points])
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ScalingFit(method, float(slope), float(intercept), r_squared, x_axis)


def append_bench_csv(points, path, seed: int) -> None:
    """Append `method,size,median_s,spread,op_count,seed` rows."""
    write_header = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if write_header:
            writer.writerow(["method", "size", "median_s", "spread", "op_count", "seed"])
        for p in points:
            writer.writerow([
                p.method,
                p.size_param,
                repr(p.wall_time_s),
                repr(p.spread),
                "" if p.op_count is None else p.op_count,
                seed,
            ])


def fits_to_json(fits) -> list[dict]:
    return [
        {
            "method": f.method,
            "slope": f.slope,
            "intercept": f.intercept,
            "r_squared": f.r_squared,
            "x_axis": f.x_axis,
        }
        for f in fits
    ]
