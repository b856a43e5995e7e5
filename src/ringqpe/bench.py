"""Wall-time scaling of the dense exponential against the block route.

Both ring methods run the same seeded workload, a packet in a random gauge
field evolved for one return time, differing only in the evolution
routine: `dense_expm` builds the packet, forms the 2l+1 blocks
m (m / 2 - A_phi), assembles the full (2l+1)n matrix and exponentiates it,
`block_evolve` takes one n x n exponential, W = exp(i t A_phi), and steps
the packet from mode to mode with it; both leave out the color-only
A_phi^2 / 2 (ringqpe.ring). After timing, every point of both is checked
against the packet evolved in A_phi's eigenbasis, a closed form in that
frame that shares no code with either route; a benchmark that returns
wrong numbers is worthless no matter how fast. That untimed run also
counts the point's multiply-accumulates (opcount).
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
from .linalg import is_integer
from .ring import RETURN_TIME, GaugeField, evolve_block, evolve_dense

log = logging.getLogger(__name__)

METHOD_DENSE = "dense_expm"
METHOD_BLOCK = "block_evolve"
ALL_METHODS = (METHOD_DENSE, METHOD_BLOCK)

# timed results must agree with the eigenbasis oracle to this tolerance;
# looser than the small-dimension contract because the free phase t m^2 / 2
# and the dense squaring count both grow with l^2
_VALIDATION_ATOL = 1e-6
# colors of every workload: the gauge field's dimension
_N_COLORS = 2


@dataclass(frozen=True)
class BenchPoint:
    """One measured configuration: median wall time over `repeats` runs,
    and the multiply-accumulates of one run."""

    method: str
    size_param: int
    wall_time_s: float
    op_count: int
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
    """Least-squares slope of log(time) against log(size_param)."""

    method: str
    slope: float
    intercept: float
    r_squared: float


def _ring_workload(size: int, rng: np.random.Generator):
    """(gauge, color, l) of the largest (2l+1)*_N_COLORS ring in `size` dims."""
    n, l = _N_COLORS, ((size // _N_COLORS) - 1) // 2
    if l < 1:
        return None
    # keep gauge amplitudes ~1/(2 pi) so read-out phases spread over the circle
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    gauge = GaugeField(0.25 / np.pi * (m + m.conj().T))
    color = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return gauge, color / np.linalg.norm(color), l


def _eigenbasis_evolve(gauge: GaugeField, color, mode_cutoff_l: int,
                       t: float) -> np.ndarray:
    """The packet evolved in A_phi's eigenbasis: both routes' oracle.

    With A_phi = V diag(lam) V^dagger, mode m's block m (m / 2 - A_phi) is
    diagonal on the columns of V, so the packet's row c / sqrt(2l+1) is
    projected onto V, scaled by exp(-i m (m / 2 - lam) t) and mapped back.
    """
    lam, v = np.linalg.eigh(gauge.a_phi)
    modes = np.arange(-mode_cutoff_l, mode_cutoff_l + 1)[:, None]
    phases = np.exp(-1j * (modes * (modes / 2.0 - lam) * t))
    return (phases * (v.conj().T @ color)) @ v.T / math.sqrt(2 * mode_cutoff_l + 1)


def _warmed_jobs(method: str, sizes, seed: int) -> list:
    """(size, size_param, runner, ring workload) per size that runs.

    Each runner is called once here, untimed, as its warm-up; sizes the
    resource guards reject or too small to host a ring are logged and left
    out.
    """
    jobs = []
    for size_index, size in enumerate(sizes):
        rng = np.random.default_rng([seed, size_index, ALL_METHODS.index(method)])
        workload = _ring_workload(size, rng)
        if workload is None:
            log.warning("skipping %s at size %d: no ring fits", method, size)
            continue
        evolve = evolve_dense if method == METHOD_DENSE else evolve_block
        runner = functools.partial(evolve, *workload, RETURN_TIME)
        try:
            runner()
        except ResourceLimitError as exc:
            log.warning("skipping %s at size %d: %s", method, size, exc)
            continue
        jobs.append((size, (2 * workload[2] + 1) * _N_COLORS, runner, workload))
    return jobs


def run_scaling_suite(
    sizes,
    repeats: int = 5,
    seed: int = 0,
    methods=ALL_METHODS,
) -> list[BenchPoint]:
    """Measure each method at each size on seeded random inputs.

    Points the resource guards reject (or sizes too small to host a ring)
    are skipped with a logged reason rather than recorded. After one
    untimed warm-up per point, a method's timed repeats go round-robin over
    its sizes, so one stall window cannot hit every repeat of one size;
    each point records the median of its repeats. Measurements run
    strictly sequentially; validation happens outside the timed region,
    on one more run whose multiply-accumulates the point records.
    """
    # every count must pass is_integer, as QpeConfig's do; numpy and range()
    # would refuse the rest with bare errors, and int() would truncate a
    # fractional size
    sizes = list(sizes)
    if not sizes or not all(is_integer(s) and s >= 1 for s in sizes):
        raise PreconditionError(f"sizes must be positive integers, got {sizes!r}")
    sizes = [int(s) for s in sizes]
    if not is_integer(repeats) or repeats < 3:
        raise PreconditionError(f"need an integer >= 3 repeats, got {repeats!r}")
    if not is_integer(seed) or seed < 0:
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
            reference = _eigenbasis_evolve(*workload, RETURN_TIME)
            with opcount.count_macs() as counter:
                coeffs = runner().coeffs
            drift = float(np.max(np.abs(coeffs - reference)))
            if drift > _VALIDATION_ATOL:
                raise PreconditionError(
                    f"{method} at size {size} drifted {drift:.3e} from the "
                    f"eigenbasis oracle; refusing to record a wrong timing"
                )

            median = statistics.median(runs)
            spread = (max(runs) - min(runs)) / median if median > 0 else 0.0
            points.append(BenchPoint(method, size_param, median, counter.total,
                                     repeats, spread))
    return points


def fit_scaling(points) -> ScalingFit:
    """Fit log(median time) linearly in log(size_param)."""
    points = list(points)
    if len(points) < 4:
        raise PreconditionError(f"need >= 4 points to fit, got {len(points)}")
    methods = {p.method for p in points}
    if len(methods) != 1:
        raise PreconditionError(f"fit expects one method, got {sorted(methods)}")
    x = np.array([math.log(p.size_param) for p in points])
    y = np.array([math.log(p.wall_time_s) for p in points])
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ScalingFit(points[0].method, float(slope), float(intercept), r_squared)


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
                p.op_count,
                seed,
            ])
