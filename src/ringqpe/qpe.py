"""Register-level simulation of quantum phase estimation.

Register 1 is a t-bit read-out register indexed by m in [0, 2^t); register 2
is an n-dimensional system prepared in a candidate eigenstate. The pipeline
is the textbook circuit run on the exact statevector:

    uniform register 1  ->  controlled U^m  ->  inverse Fourier transform,

after which register 1 concentrates near k = 2^t phi_u / (2 pi). U enters
as its eigendecomposition (theta, V), the spectrum a problem computed once
on construction. The controlled stage follows the circuit, one controlled
U^(2^j) per bit j of m, applied in U's eigenbasis where each is diagonal.
There the t diagonals multiply into two small phase tables, one over the
low half of m's bits and one over the high half, so the cost is one
multiply per table per amplitude rather than 2^t matrix powers. The stage
streams the register through blocks of rows: each block is rotated into
the eigenbasis, takes both tables and is rotated back into its place in
the result while it is still in cache, so the only full-size array the
stage makes is that result.

qpe_prepare, controlled_unitary_all, qft_inverse and measure_register1 run
the circuit step by step, each stage returning a new read-only register.
qpe_estimate runs the same steps in one register and reads it out in U's
eigenbasis. Register 2 is never measured, so the read-out does not depend
on its basis, and the rotation back is skipped. The uniform register is
u / sqrt(2^t) on every row, so it is never built: w = V^dagger u /
sqrt(2^t) is rotated once, written into the register times the low table,
and the high table is multiplied in after. The inverse Fourier transform
then runs in place, and the read-out sums |amplitude|^2 a block of rows at
a time, so the run holds one register, the size REGISTER_BYTES_GUARD
bounds, and its 2^t probabilities. The register is freed once they are
summed, before a sampled read-out draws its counts.

The statevector keeps the shape (2^t, n), amplitudes[m, a], but is stored
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
    readonly,
    require_eigenbasis,
    require_unit_norm,
    require_unit_vector,
    write_csv_rows,
)

T_BITS_GUARD = 24
# largest joint statevector, 2^t * n complex128 amplitudes, that qpe_prepare,
# the controlled stage and qpe_estimate allocate; the same 256 MiB a
# DENSE_DIMENSION_GUARD-sized matrix takes
REGISTER_BYTES_GUARD = 1 << 28

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
        if self.shots < 0:
            raise PreconditionError(f"shots must be >= 0, got {self.shots}")
        if self.rng_seed < 0:
            raise PreconditionError(f"rng_seed must be >= 0, got {self.rng_seed}")

    @property
    def register_size(self) -> int:
        return 1 << self.t_bits


@dataclass(frozen=True, eq=False)
class QpeRegisters:
    """Joint statevector, amplitudes[m, a] for read-out index m, color a."""

    t_bits: int
    n_colors: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        expected = (1 << self.t_bits, self.n_colors)
        if amps.shape != expected:
            raise PreconditionError(
                f"amplitude array shape {amps.shape} does not match {expected}"
            )
        require_unit_norm(amps, "register")
        object.__setattr__(self, "amplitudes", readonly(amps))

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


def _require_register_fits(t_bits: int, n: int) -> None:
    """Refuse a 2^t x n register above REGISTER_BYTES_GUARD before it exists."""
    nbytes = (1 << t_bits) * n * np.dtype(np.complex128).itemsize
    if nbytes > REGISTER_BYTES_GUARD:
        raise ResourceLimitError(
            f"register of 2^{t_bits} x {n} amplitudes needs {nbytes} bytes, "
            f"above the guard {REGISTER_BYTES_GUARD}"
        )


class QpeEstimate(NamedTuple):
    k_best: int
    phi_estimate: float
    distribution: Register1Distribution


def qpe_prepare(t_bits: int, color) -> QpeRegisters:
    """Uniform read-out register against a unit-norm register-2 state."""
    cfg_check = QpeConfig(t_bits)  # reuse the guard on t_bits
    u = require_unit_vector(color, "register-2 state")
    size = cfg_check.register_size
    _require_register_fits(t_bits, u.size)
    amps = np.empty((size, u.size), dtype=np.complex128, order="F")
    amps[...] = u / math.sqrt(size)
    amps.setflags(write=False)
    return QpeRegisters(t_bits, u.size, amps)


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


def _eigenbasis_tables(t_bits: int, n: int, spectrum):
    """V and the low and high phase tables of a 2^t x n register's stage.

    The register guard runs first, so an oversized register is refused
    before anything is allocated.
    """
    _require_register_fits(t_bits, n)
    theta, v = require_eigenbasis(spectrum)
    if theta.size != n:
        raise PreconditionError(
            f"unitary dimension {theta.size} does not match register-2 "
            f"dimension {n}"
        )
    lo = t_bits // 2
    return v, _phase_table(theta, 0, lo), _phase_table(theta, lo, t_bits)


def controlled_unitary_all(regs: QpeRegisters, spectrum) -> QpeRegisters:
    """Apply |m>|c> -> |m> U^m |c> across the register.

    U = V diag(e^(i theta)) V^dagger comes as its spectrum (theta, V), with
    V orthonormal. The circuit's controlled gates run in that eigenbasis:
    register 2 is rotated once into it, where each controlled U^(2^j) is
    the diagonal e^(i 2^j theta) on the rows whose index has bit j set,
    and is rotated back at the end. The t diagonals are folded into two
    tables, split at lo = t // 2: low[a, m mod 2^lo] multiplies the factors
    of m's low lo bits and high[a, m >> lo] those of its high bits, each
    table built one bit at a time, (2^lo + 2^(t-lo) - 2) n multiplies.

    The register is streamed through blocks of BLOCK_ROWS rows, or of one
    low-table period 2^lo if that is longer, so every block starts at a
    multiple of 2^lo. A block is rotated in, viewed as (n, rows / 2^lo,
    2^lo), takes one broadcast multiply per table and is rotated back
    straight into its columns of the column-major result: no full-size
    temporary, and each amplitude leaves memory once and comes back once.
    The phases stay unitary to rounding at any t, where repeated squaring
    would compound it.
    """
    t_bits, n = regs.t_bits, regs.n_colors
    v, low, high = _eigenbasis_tables(t_bits, n, spectrum)
    size, lo = regs.register_size, t_bits // 2
    rows = min(size, max(BLOCK_ROWS, 1 << lo))
    amps = np.empty((size, n), dtype=np.complex128, order="F")
    eig = np.empty((n, rows), dtype=np.complex128)
    vh = v.conj().T
    # src[a, m]: one row of 2^t amplitudes per color, so column m is the
    # register-2 state at m and V^dagger rotates it
    src, dst = regs.amplitudes.T, amps.T
    # split each block's m as (m >> lo, m mod 2^lo), one table per index
    split = eig.reshape(n, -1, 1 << lo)
    for start in range(0, size, rows):
        stop = start + rows
        np.matmul(vh, src[:, start:stop], out=eig)
        split *= low[:, None, :]
        split *= high[:, start >> lo:stop >> lo, None]
        np.matmul(v, eig, out=dst[:, start:stop])
    opcount.add(2 * size * n * n + 2 * size * n)
    amps.setflags(write=False)
    return QpeRegisters(t_bits, n, amps)


def _fourier(amps: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The inverse QFT of each color's column, into `out` (new if None)."""
    size, n = amps.shape
    # np.fft.fft matches the e^(-2 pi i k m / N) kernel, scaled by
    # 2^(-t/2) inside the transform
    out = np.fft.fft(amps, axis=0, norm="ortho", out=out)
    opcount.add(n * (size // 2) * (size.bit_length() - 1))
    return out


def qft_inverse(regs: QpeRegisters) -> QpeRegisters:
    """out[k] = 2^(-t/2) sum_m e^(-2 pi i k m / 2^t) in[m], per color."""
    amps = _fourier(regs.amplitudes)
    amps.setflags(write=False)
    return QpeRegisters(regs.t_bits, regs.n_colors, amps)


def measure_register1(regs: QpeRegisters, cfg: QpeConfig) -> Register1Distribution:
    """Trace out register 2; exact probabilities or multinomial samples.

    |amplitude|^2 is summed over the colors a block of rows at a time, so
    the read-out holds one block beside its result. Sampling uses numpy's
    default PCG64 generator seeded from cfg.rng_seed, so a fixed config
    reproduces its histogram exactly; the histogram overwrites the
    probabilities it was drawn from, so it holds only the counts beside
    them.
    """
    if regs.t_bits != cfg.t_bits:
        raise PreconditionError(
            f"register width {regs.t_bits} does not match config {cfg.t_bits}"
        )
    return _read_out(_probabilities(regs.amplitudes), cfg)


def _probabilities(amps: np.ndarray) -> np.ndarray:
    """sum_a |amps[m, a]|^2 for each m, summed a block of rows at a time."""
    probs = np.empty(amps.shape[0])
    for start in range(0, probs.size, BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        np.sum(np.abs(amps[rows]) ** 2, axis=1, out=probs[rows])
    return probs


def _read_out(probs: np.ndarray, cfg: QpeConfig) -> Register1Distribution:
    """The distribution of cfg's read-out, taking over the writable probs."""
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

    U comes as its spectrum (theta, V), as controlled_unitary_all takes it.
    The circuit runs in one register held in U's eigenbasis (see the module
    docstring), with the step-by-step pipeline's guard before it is
    allocated and its norm check after the controlled stage and after the
    QFT. Ties in the distribution break toward the smallest k, which makes
    the estimate deterministic in both exact and sampled modes.
    """
    u = require_unit_vector(color, "register-2 state")
    t_bits, n = cfg.t_bits, u.size
    v, low, high = _eigenbasis_tables(t_bits, n, spectrum)
    size, lo = cfg.register_size, t_bits // 2
    w = v.conj().T @ (u / math.sqrt(size))
    amps = np.empty((size, n), dtype=np.complex128, order="F")
    # amps.T[a, m] split as (m >> lo, m mod 2^lo), one table per index;
    # w times low, then times high, as each block of the stage takes them
    split = amps.T.reshape(n, -1, 1 << lo)
    np.multiply(w[:, None, None], low[:, None, :], out=split)
    split *= high[:, :, None]
    opcount.add(n * n + 2 * size * n)
    require_unit_norm(amps, "register")
    _fourier(amps, out=amps)
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
