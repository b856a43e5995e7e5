"""Register-level simulation of quantum phase estimation.

Register 1 is a t-bit read-out register indexed by m in [0, 2^t); register 2
is an n-dimensional system prepared in a candidate eigenstate. qpe_estimate
runs the textbook circuit on the exact statevector, in one register:

    uniform register 1  ->  controlled U^m  ->  inverse Fourier transform,

after which register 1 concentrates near k = 2^t phi_u / (2 pi). U enters
as its eigendecomposition (theta, V), the spectrum a problem computed once
on construction. Each controlled U^(2^j) is diagonal in U's eigenbasis: the
phase e^(i 2^j theta) on the rows whose index m has bit j set. There the t
diagonals multiply into two small phase tables, one over the low half of
m's bits and one over the high half, so the cost is one multiply per table
per amplitude rather than 2^t matrix powers.

Register 2 is never measured, so the read-out does not depend on its basis,
and the register stays in the eigenbasis throughout. The uniform register
is u / sqrt(2^t) on every row, so it is never built: w = V^dagger u /
sqrt(2^t) is rotated once, written into the register times the low table,
and the high table is multiplied in after. The inverse Fourier transform
then runs in place, and the read-out sums |amplitude|^2 a block of rows at
a time, so the run holds one register, the size REGISTER_BYTES_GUARD
bounds, and its 2^t probabilities. The register is freed once they are
summed, before a sampled read-out draws its counts.

The register keeps the shape (2^t, n), amplitudes[m, a], but is stored
column-major: each color's 2^t amplitudes are contiguous, which is the axis
the phases and the Fourier transform run along.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import opcount
from .angles import TWO_PI
from .errors import PreconditionError, ResourceLimitError
from .linalg import (
    BLOCK_ROWS,
    BYTES_GUARD,
    readonly,
    require_eigenbasis,
    require_unit_norm,
    require_unit_vector,
    write_csv_rows,
)

T_BITS_GUARD = 24
# largest register, 2^t * n complex128 amplitudes, qpe_estimate allocates
REGISTER_BYTES_GUARD = BYTES_GUARD
_SHOTS_MAX = int(np.iinfo(np.int64).max)  # the most numpy's multinomial takes

_PROB_SUM_TOL = 1e-9


@dataclass(frozen=True)
class QpeConfig:
    """Read-out register width, shot count (0 = exact), and sampling seed."""

    t_bits: int
    shots: int = 0
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("t_bits", "shots", "rng_seed"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise PreconditionError(f"{name} must be an integer")
        if not (1 <= self.t_bits <= T_BITS_GUARD):
            raise PreconditionError(
                f"t_bits must be in [1, {T_BITS_GUARD}], got {self.t_bits}"
            )
        if not (0 <= self.shots <= _SHOTS_MAX):
            raise PreconditionError(
                f"shots must be in [0, {_SHOTS_MAX}], got {self.shots}"
            )
        if self.rng_seed < 0:
            raise PreconditionError(f"rng_seed must be >= 0, got {self.rng_seed}")

    @property
    def register_size(self) -> int:
        return 1 << self.t_bits


@dataclass(frozen=True, eq=False)
class Register1Distribution:
    """Probabilities over read-out values k, exact or shot-sampled."""

    probs: np.ndarray
    mode: str
    shots: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.mode not in ("exact", "sampled"):
            raise PreconditionError(f"mode must be 'exact' or 'sampled', got {self.mode!r}")
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 1 or p.size < 1:
            raise PreconditionError("probabilities must be a 1-D array")
        if np.any(p < -1e-15):
            raise PreconditionError("probabilities must be non-negative")
        total = float(p.sum())
        if not abs(total - 1.0) <= _PROB_SUM_TOL:
            raise PreconditionError(
                f"probabilities sum to {total!r}, expected 1 within {_PROB_SUM_TOL}"
            )
        if self.mode == "sampled" and (self.shots is None or self.shots < 1):
            raise PreconditionError("sampled distributions must record shots >= 1")
        object.__setattr__(self, "probs", readonly(p))

    @property
    def register_size(self) -> int:
        return self.probs.size


class QpeEstimate(NamedTuple):
    k_best: int
    phi_estimate: float
    distribution: Register1Distribution


def _phase_table(theta: np.ndarray, first: int, stop: int) -> np.ndarray:
    """Products of the diagonals e^(i 2^j theta) for bits j in [first, stop).

    Column c of the (n, 2^(stop-first)) table multiplies the diagonals of
    the bits set in c << first; each bit doubles the table.
    """
    n = theta.size
    table = np.empty((n, 1 << (stop - first)), dtype=np.complex128)
    table[:, 0] = 1.0
    for j in range(first, stop):
        width = 1 << (j - first)
        # scaling by 2^j is exact in floating point
        factor = np.exp(1j * ((1 << j) * theta))
        np.multiply(table[:, :width], factor[:, None], out=table[:, width:2 * width])
    opcount.add(n * (table.shape[1] - 1))
    return table


def _probabilities(amps: np.ndarray) -> np.ndarray:
    """sum_a |amps[m, a]|^2 for each m, summed a block of rows at a time."""
    probs = np.empty(amps.shape[0])
    for start in range(0, probs.size, BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        np.sum(np.abs(amps[rows]) ** 2, axis=1, out=probs[rows])
    return probs


def _read_out(probs: np.ndarray, cfg: QpeConfig) -> Register1Distribution:
    """The distribution of cfg's read-out, taking over the writable probs.

    Sampling uses numpy's default PCG64 generator seeded from cfg.rng_seed,
    so a fixed config reproduces its histogram exactly; the histogram
    overwrites the probabilities it was drawn from, so it holds only the
    counts beside them.
    """
    if cfg.shots == 0:
        probs.setflags(write=False)
        return Register1Distribution(probs, "exact")
    probs /= probs.sum()
    counts = np.random.default_rng(cfg.rng_seed).multinomial(cfg.shots, probs)
    np.divide(counts, cfg.shots, out=probs)
    probs.setflags(write=False)
    return Register1Distribution(probs, "sampled", shots=cfg.shots, seed=cfg.rng_seed)


def qpe_estimate(spectrum, color, cfg: QpeConfig) -> QpeEstimate:
    """Full pipeline; returns the modal read-out and its phase 2 pi k / 2^t.

    U comes as its spectrum (theta, V), with V orthonormal. The circuit
    runs in one register held in U's eigenbasis (see the module docstring).
    A register above REGISTER_BYTES_GUARD is refused before anything is
    allocated, and the register's norm is checked to within 1e-10 after the
    controlled powers and after the QFT. Ties in the distribution break
    toward the smallest k, which makes the estimate deterministic in both
    exact and sampled modes.
    """
    u = require_unit_vector(color, "register-2 state")
    t_bits, n = cfg.t_bits, u.size
    size, lo = cfg.register_size, t_bits // 2
    nbytes = size * n * np.dtype(np.complex128).itemsize
    if nbytes > REGISTER_BYTES_GUARD:
        raise ResourceLimitError(
            f"register of 2^{t_bits} x {n} amplitudes needs {nbytes} bytes, "
            f"above the guard {REGISTER_BYTES_GUARD}"
        )
    theta, v = require_eigenbasis(spectrum)
    if theta.size != n:
        raise PreconditionError(
            f"unitary dimension {theta.size} does not match register-2 "
            f"dimension {n}"
        )
    # the phases stay unitary to rounding at any t, where repeated squaring
    # would compound it
    low, high = _phase_table(theta, 0, lo), _phase_table(theta, lo, t_bits)
    w = v.conj().T @ (u / math.sqrt(size))
    amps = np.empty((size, n), dtype=np.complex128, order="F")
    # amps.T[a, m] split as (m >> lo, m mod 2^lo), one table per index;
    # w times low, then times high
    split = amps.T.reshape(n, -1, 1 << lo)
    np.multiply(w[:, None, None], low[:, None, :], out=split)
    split *= high[:, :, None]
    opcount.add(n * n + 2 * size * n)
    require_unit_norm(amps, "register")
    # the inverse QFT, out[k] = 2^(-t/2) sum_m e^(-2 pi i k m / 2^t) in[m]
    # per color: np.fft.fft's kernel, scaled by 2^(-t/2) inside the transform
    np.fft.fft(amps, axis=0, norm="ortho", out=amps)
    opcount.add(n * (size // 2) * t_bits)
    require_unit_norm(amps, "register")
    probs = _probabilities(amps)
    # nothing reads the register after its probabilities, so it is freed
    # before a sampled read-out allocates its counts
    del amps, split
    dist = _read_out(probs, cfg)
    # np.argmax would copy the read-only probabilities; the first k at the
    # maximum is the same read-out
    probs = dist.probs
    k_best = int(np.flatnonzero(probs == probs.max())[0])
    phi = TWO_PI * k_best / dist.register_size
    return QpeEstimate(k_best, phi, dist)


def write_distribution_csv(dist: Register1Distribution, path) -> None:
    """Write `k,probability` rows at full precision."""
    write_csv_rows(path, "k,probability", (range(dist.register_size), dist.probs))


def estimate_to_json(estimate: QpeEstimate, cfg: QpeConfig) -> dict:
    return {
        "k": int(estimate.k_best),
        "phi": float(estimate.phi_estimate),
        "t": int(cfg.t_bits),
        "mode": estimate.distribution.mode,
        "seed": int(cfg.rng_seed),
    }
