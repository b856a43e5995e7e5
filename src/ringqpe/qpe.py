"""Register-level simulation of quantum phase estimation.

Register 1 is a t-bit read-out register indexed by m in [0, 2^t); register 2
is an n-dimensional system prepared in a candidate eigenstate u. The
textbook circuit, uniform register 1 -> controlled U^m -> inverse Fourier
transform, leaves register 1 concentrated near k = 2^t phi_u / (2 pi).
qpe_estimate returns that read-out distribution exactly, from the
spectral measure of U and u alone: the eigenphases theta_a and the Born
weights |w_a|^2 = |<v_a|u>|^2. Register 2 is never measured, so its basis
does not matter; in U's eigenbasis color a of the register is the geometric
sequence w_a e^(i m theta_a) / sqrt(M), with M = 2^t, its inverse Fourier
transform is a Dirichlet kernel, and the colors add in probability
(Cleve, Ekert, Macchiavello and Mosca, Proc. R. Soc. A 454, 339 (1998)):

    P(k) = sum_a |w_a|^2 sin^2(M d / 2) / (M^2 sin^2(d / 2)),
    d = theta_a - 2 pi k / M.

It agrees with the transformed circuit to about 1e-15 at any t, costs
n 2^t operations, and holds the 2^t probabilities and three blocks
of BLOCK_ROWS rows, for any n.
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
    is_integer,
    readonly,
    require_unit_norm,
    write_csv_rows,
)

T_BITS_GUARD = 24
_SHOTS_MAX = int(np.iinfo(np.int64).max)  # the most numpy's multinomial takes

_PROB_SUM_TOL = 1e-9
# 2 pi - fl(2 pi), the part of 2 pi that TWO_PI drops
_TWO_PI_LOW = 2.4492935982947064e-16


@dataclass(frozen=True)
class QpeConfig:
    """Read-out register width, shot count (0 = exact), and sampling seed."""

    t_bits: int
    shots: int = 0
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("t_bits", "shots", "rng_seed"):
            if not is_integer(getattr(self, name)):
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


def _fejer_rows(theta: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """P(k) of the module docstring, M = size, weights[a] = |w_a|^2.

    Each theta is split exactly into its nearest row k0 and r = theta -
    2 pi k0 / M. At row k0 + j, sin^2(M d / 2) = sin^2(M r / 2) and
    sin(d / 2) = cos(r / 2) cos(o) (tan(r / 2) - tan(o)), o = pi j / M, so
    the colors share tan(o) and cos(o), made a block of j at a time.
    """
    step = TWO_PI / size
    probs = np.zeros(size)
    colors = []
    for phase, weight in zip(theta.tolist(), weights.tolist()):
        # math.remainder is exact against fl(2 pi) and fl(2 pi) / M; r then
        # takes off what each turn and step drops of 2 pi, which moves r out
        # of its bin only past |theta| ~ 1e16 / M
        wrapped = math.remainder(phase, TWO_PI)
        r = math.remainder(wrapped, step)
        k0 = round((wrapped - r) / step)
        r -= ((phase - wrapped) / TWO_PI + k0 / size) * _TWO_PI_LOW
        shift = round(r / step)
        k0, r = (k0 + shift) % size, r - shift * step
        # scaling by size, a power of two, is exact
        edge = math.sin(0.5 * size * r)
        numerator = weight * (edge / (size * math.cos(0.5 * r))) ** 2
        colors.append((k0, math.tan(0.5 * r), numerator))
        # the kernel at j = 0 is 0/0 at r == 0, and 1 to rounding wherever
        # halving r may round
        if abs(r) >= 1e-300:
            weight *= (edge / (size * math.sin(0.5 * r))) ** 2
        probs[k0] += weight
    opcount.add(theta.size * size)

    # size and BLOCK_ROWS are powers of two, so every block is full
    x = np.empty(min(size, BLOCK_ROWS))
    for start in range(-(size // 2), size // 2, x.size):
        # each o is pi / M times its own exact j; an o added to the block
        # start's can round by ulp(pi), 1e-12 of the kernel next to j = 0
        offsets = np.arange(start, start + x.size, dtype=np.float64) * (math.pi / size)
        tangents = np.tan(offsets)
        cosines = np.cos(offsets, out=offsets)
        if -x.size < start <= 0:
            tangents[-start] = math.inf  # j = 0 takes no term here
        for k0, tan_half_r, numerator in colors:
            np.subtract(tan_half_r, tangents, out=x)
            x *= cosines
            np.square(x, out=x)
            np.divide(numerator, x, out=x)
            row = (k0 + start) % size
            head = min(x.size, size - row)
            probs[row:row + head] += x[:head]
            probs[:x.size - head] += x[head:]
        # freed before the next block's tables are made
        del offsets, tangents, cosines
    return probs


def qpe_estimate(theta, weights, cfg: QpeConfig) -> QpeEstimate:
    """Full pipeline; returns the modal read-out and its phase 2 pi k / 2^t.

    theta holds U's eigenphases and weights[a] = |<v_a|u>|^2 the Born
    weights of the register-2 state u over U's eigenvectors: finite, >= 0
    and of norm sqrt(sum w) = 1 within 1e-10. A problem whose 2^t x n
    register would pass BYTES_GUARD is refused before anything is allocated.
    Ties in the distribution break toward the smallest k, which makes the
    estimate deterministic in both exact and sampled modes.
    """
    theta, weights = np.asarray(theta), np.asarray(weights)
    if theta.ndim != 1 or not np.isrealobj(theta) or not np.all(np.isfinite(theta)):
        raise PreconditionError("eigenphases must be a 1-D array of finite reals")
    if weights.shape != theta.shape:
        raise PreconditionError(
            f"{weights.shape} weights do not match {theta.shape} eigenphases")
    if not np.isrealobj(weights) or not np.all(np.isfinite(weights) & (weights >= 0)):
        raise PreconditionError("weights must be finite reals >= 0")
    t_bits, n = cfg.t_bits, theta.size
    # the 2^t * n kernel evaluations are bounded at the bytes a (2^t, n)
    # complex128 register of them would take
    nbytes = cfg.register_size * n * np.dtype(np.complex128).itemsize
    if nbytes > BYTES_GUARD:
        raise ResourceLimitError(
            f"register of 2^{t_bits} x {n} amplitudes needs {nbytes} bytes, "
            f"above the guard {BYTES_GUARD}"
        )
    # the amplitudes |<v_a|u>| have u's norm
    require_unit_norm(np.sqrt(weights), "register")
    # the blocks are freed on return, before a sampled read-out allocates
    # its counts
    dist = _read_out(_fejer_rows(theta, weights, cfg.register_size), cfg)
    # np.argmax would copy the read-only probabilities; the first k at the
    # maximum is the same read-out
    probs = dist.probs
    k_best = int(np.flatnonzero(probs == probs.max())[0])
    phi = TWO_PI * k_best / dist.register_size
    return QpeEstimate(k_best, phi, dist)


def write_distribution_csv(dist: Register1Distribution, path) -> None:
    """Write `k,probability` rows, each probability as format(p, ".16e")."""
    write_csv_rows(path, "k,probability", (range(dist.register_size), dist.probs))


def estimate_to_json(estimate: QpeEstimate, cfg: QpeConfig) -> dict:
    return {
        "k": int(estimate.k_best),
        "phi": float(estimate.phi_estimate),
        "t": int(cfg.t_bits),
        "mode": estimate.distribution.mode,
        "seed": int(cfg.rng_seed),
    }
