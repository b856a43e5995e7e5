"""Register-level simulation of quantum phase estimation.

Register 1 is a t-bit read-out register indexed by m in [0, 2^t); register 2
is an n-dimensional system prepared in a candidate eigenstate. The pipeline
is the textbook circuit run on the exact statevector:

    uniform register 1  ->  controlled U^m  ->  inverse Fourier transform,

after which register 1 concentrates near k = 2^t phi_u / (2 pi). U enters
as its eigendecomposition (theta, V), the spectrum a problem computed once
on construction. The controlled stage follows the circuit, one controlled
U^(2^j) per bit j of m, applied in U's eigenbasis where each is diagonal:
its cost is two basis rotations of the statevector and t passes of phases
over it, rather than 2^t matrix powers.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import opcount
from .angles import TWO_PI
from .errors import PreconditionError, ResourceLimitError
from .linalg import UNIT_NORM_TOL, require_eigenbasis, require_unit_vector

T_BITS_GUARD = 24
# largest joint statevector, 2^t * n complex128 amplitudes, that qpe_prepare
# allocates; the same 256 MiB a DENSE_DIMENSION_GUARD-sized matrix takes
REGISTER_BYTES_GUARD = 1 << 28

_PROB_SUM_TOL = 1e-9
_CSV_BLOCK_ROWS = 1 << 12


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
        norm = float(np.linalg.norm(amps))
        # written so that a NaN norm fails too
        if not abs(norm - 1.0) <= UNIT_NORM_TOL:
            raise PreconditionError(
                f"register norm {norm!r} deviates from 1 beyond {UNIT_NORM_TOL}"
            )
        # an owned read-only array is kept as is, so a stage hands over its
        # result without a copy; anything a caller could still write is copied
        if amps.flags.writeable or not amps.flags.owndata:
            amps = np.array(amps)
            amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

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
        p = np.array(p)
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def register_size(self) -> int:
        return self.probs.size


class QpeEstimate(NamedTuple):
    k_best: int
    phi_estimate: float
    distribution: Register1Distribution


def qpe_prepare(t_bits: int, color) -> QpeRegisters:
    """Uniform read-out register against a unit-norm register-2 state."""
    cfg_check = QpeConfig(t_bits)  # reuse the guard on t_bits
    u = require_unit_vector(color, "register-2 state")
    size = cfg_check.register_size
    nbytes = size * u.size * np.dtype(np.complex128).itemsize
    if nbytes > REGISTER_BYTES_GUARD:
        raise ResourceLimitError(
            f"register of 2^{t_bits} x {u.size} amplitudes needs {nbytes} bytes, "
            f"above the guard {REGISTER_BYTES_GUARD}"
        )
    amps = np.empty((size, u.size), dtype=np.complex128)
    amps[...] = u / math.sqrt(size)
    amps.setflags(write=False)
    return QpeRegisters(t_bits, u.size, amps)


def controlled_unitary_all(regs: QpeRegisters, spectrum) -> QpeRegisters:
    """Apply |m>|c> -> |m> U^m |c> across the register.

    U = V diag(e^(i theta)) V^dagger comes as its spectrum (theta, V), with
    V orthonormal. The circuit's controlled gates run in that eigenbasis:
    register 2 is rotated once into it, where each controlled U^(2^j) is
    the diagonal e^(i 2^j theta) applied to every statevector row whose
    index has bit j set, and is rotated back at the end. A bit costs
    (2^t / 2) n multiplies, and the phases stay unitary to rounding at any
    t, where repeated squaring would compound it.
    """
    theta, v = require_eigenbasis(spectrum)
    if theta.size != regs.n_colors:
        raise PreconditionError(
            f"unitary dimension {theta.size} does not match register-2 "
            f"dimension {regs.n_colors}"
        )
    size = regs.register_size
    n = regs.n_colors
    # row convention: row m holds a register-2 state c as c^T, so its
    # eigen-coordinates V^dagger c are the row c^T conj(V)
    amps = regs.amplitudes @ v.conj()
    opcount.add(size * n * n)
    for j in range(regs.t_bits):
        # the rows whose index has bit j set, as a view into amps
        rows = amps.reshape(-1, 2, 1 << j, n)[:, 1]
        # scaling by 2^j is exact in floating point
        rows *= np.exp(1j * ((1 << j) * theta))
        opcount.add((size // 2) * n)
    # back to the computational basis one half at a time, so the product
    # never holds a second full-size register beside amps
    for half in amps.reshape(2, -1, n):
        half[...] = half @ v.T
    opcount.add(size * n * n)
    amps.setflags(write=False)
    return QpeRegisters(regs.t_bits, n, amps)


def qft_inverse(regs: QpeRegisters) -> QpeRegisters:
    """out[k] = 2^(-t/2) sum_m e^(-2 pi i k m / 2^t) in[m], per color."""
    size = regs.register_size
    # np.fft.fft matches the e^(-2 pi i k m / N) kernel; only normalization differs
    amps = np.fft.fft(regs.amplitudes, axis=0)
    amps /= math.sqrt(size)
    amps.setflags(write=False)
    opcount.add(regs.n_colors * (size // 2) * regs.t_bits)
    return QpeRegisters(regs.t_bits, regs.n_colors, amps)


def measure_register1(regs: QpeRegisters, cfg: QpeConfig) -> Register1Distribution:
    """Trace out register 2; exact probabilities or multinomial samples.

    Sampling uses numpy's default PCG64 generator seeded from cfg.rng_seed,
    so a fixed config reproduces its histogram exactly.
    """
    if regs.t_bits != cfg.t_bits:
        raise PreconditionError(
            f"register width {regs.t_bits} does not match config {cfg.t_bits}"
        )
    probs = np.sum(np.abs(regs.amplitudes) ** 2, axis=1)
    if cfg.shots == 0:
        return Register1Distribution(probs, "exact")
    rng = np.random.default_rng(cfg.rng_seed)
    counts = rng.multinomial(cfg.shots, probs / probs.sum())
    return Register1Distribution(
        counts / cfg.shots, "sampled", shots=cfg.shots, seed=cfg.rng_seed
    )


def qpe_estimate(spectrum, color, cfg: QpeConfig) -> QpeEstimate:
    """Full pipeline; returns the modal read-out and its phase 2 pi k / 2^t.

    U comes as its spectrum (theta, V), as controlled_unitary_all takes it.
    Ties in the distribution break toward the smallest k, which makes the
    estimate deterministic in both exact and sampled modes.
    """
    regs = qpe_prepare(cfg.t_bits, color)
    regs = controlled_unitary_all(regs, spectrum)
    regs = qft_inverse(regs)
    dist = measure_register1(regs, cfg)
    k_best = int(np.argmax(dist.probs))
    phi = TWO_PI * k_best / dist.register_size
    return QpeEstimate(k_best, phi, dist)


def success_tail_bound(e: int) -> float:
    """Upper bound 1 / (2 (e - 1)) on landing more than e bins away."""
    if not isinstance(e, (int, np.integer)) or isinstance(e, bool):
        raise PreconditionError("e must be an integer")
    if e <= 1:
        raise PreconditionError(f"tail bound needs e >= 2, got {e}")
    return 1.0 / (2.0 * (e - 1))


def write_distribution_csv(dist: Register1Distribution, path) -> None:
    """Write `k,probability` rows at full precision."""
    probs = dist.probs
    # csv.writer's bytes (\r\n rows), joined a block of rows at a time so
    # the text never holds more than one block
    with open(path, "w", newline="") as fh:
        fh.write("k,probability\r\n")
        for start in range(0, probs.size, _CSV_BLOCK_ROWS):
            block = probs[start:start + _CSV_BLOCK_ROWS].tolist()
            fh.write("".join(f"{k},{p!r}\r\n" for k, p in enumerate(block, start)))


def read_distribution_csv(path, mode: str = "exact",
                          shots: int | None = None,
                          seed: int | None = None) -> Register1Distribution:
    """Parse a distribution CSV written by write_distribution_csv."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["k", "probability"]:
            raise PreconditionError(f"unrecognized distribution CSV header in {path}")
        rows = [(int(k), float(p)) for k, p in (r for r in reader if r)]
    if not rows:
        raise PreconditionError(f"distribution CSV {path} has no data rows")
    if [k for k, _ in rows] != list(range(len(rows))):
        raise PreconditionError(f"distribution CSV {path} ks must be 0..2^t-1 in order")
    return Register1Distribution(
        np.asarray([p for _, p in rows]), mode, shots=shots, seed=seed
    )


def estimate_to_json(estimate: QpeEstimate, cfg: QpeConfig) -> dict:
    return {
        "k": int(estimate.k_best),
        "phi": float(estimate.phi_estimate),
        "t": int(cfg.t_bits),
        "mode": estimate.distribution.mode,
        "seed": int(cfg.rng_seed),
    }
