"""Charged particle on a ring threaded by a constant U(n) gauge potential.

Units are natural, hbar = q = r = m_q = 1: encoders scale the potential so
that those constants cancel from every eigenphase the ring reads.

The state is a truncated angular-momentum expansion psi(phi) =
sum_m c_{m,a} e^{i m phi} / sqrt(2 pi) with a color index a for the internal
n-dimensional space. A phi-independent Hermitian gauge potential couples
only to color, so the Hamiltonian splits into n x n blocks
(m I - A_phi)^2 / 2, one per mode. Their A_phi^2 / 2 is one color-only
term in every block: it turns the whole state by G = exp(-i t A_phi^2 / 2)
and moves no density at any t. The ring leaves it out and evolves with

    H'_m = m^2 / 2 - m A_phi,  exp(-i H'_m t) = e^{-i t m^2 / 2} W^m,
                               W = exp(i t A_phi),

so a RingState from either route is the state up to G, with the same
density and read-out. The packet localized at phi = 0 holds one color c in
every mode, and its mode m evolves to e^{-i t m^2 / 2} W^m c / sqrt(2l+1):
a recurrence on powers of W, with nothing diagonalized. At the return time
t_R = 4 pi the free phase -2 pi m^2 is a multiple of 2 pi for every mode,
so the packet relocalizes, and an eigencolor of A_phi with eigenvalue lam
reappears at

    phi = -VELOCITY_FACTOR * 2 pi lam   (mod 2 pi),

which is the eigenphase read-out. The factor of two is kinematic: by t_R
each mode has classically completed two laps, so the accumulated holonomy
angle is twice the single-lap one, and encoders divide by VELOCITY_FACTOR
to compensate.

There the ring sees only its holonomy (Aharonov-Bohm): W is U^dagger for
the U the field encodes. So the read-out takes U itself, the rows
U^(-m) c / sqrt(2l+1) of the time-series view of phase estimation (Somma,
New J. Phys. 21, 123025 (2019)), with no field, exponential or eigensolver.

A run records where the particle is on the ring, never its color, so
position_density gives |psi|^2 summed over the colors: the one distribution
the peak read-out and the density snapshots both take. That sum is a
trigonometric polynomial of degree 2l, fixed by any 4l+1 equispaced
samples, so it is computed on about that many points and resampled to the
grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import opcount
from .angles import TWO_PI, wrap_to_signed, wrap_to_unit
from .errors import PreconditionError, ResolutionError, ResourceLimitError
from .linalg import (
    BYTES_GUARD,
    expm_dense,
    hold_unitary,
    readonly,
    require_hermitian,
    require_state,
    require_unit_norm,
    require_unit_vector,
    require_unitary,
    unitary_exp,
    write_csv_rows,
)

# Relocalization shift at t_R is this multiple of the single-lap holonomy
# phase (the classical angular velocity is twice the quantum phase velocity).
VELOCITY_FACTOR = 2.0

# t_R = 4 pi m_q r^2 / hbar, the packet revival time
RETURN_TIME = 4.0 * np.pi

_DENSITY_INTEGRAL_TOL = 1e-8
# The ring route's working set, bytes per mode and color plus bytes per
# grid point, peaks measured under tracemalloc and rounded up: 82 at
# l = 1024, n = 64, N = 8192 for the evolved state beside the density's
# (L, n) transform (96 dates from when the packet was held too, and keeps
# the refusals where they were), and 28.9 for ring-sim at l = 3, N = 2^16,
# its density and grid while a snapshot is written (writing a CSV peaks at
# 25.6). The whole read-out, moments, one QR of their Hankel matrix and the
# Vandermonde solve, peaks at 0.55 of this budget at l = 100000, n = 1,
# N = 400001, and at 0.39 at l = 1000, n = 32, N = 65536.
_BYTES_PER_MODE_COLOR = 96
_BYTES_PER_POINT = 32

# the peak read-out merges poles closer than this many lobes 2 pi/(2l+1)
# and drops weights at or below the floor
_MERGE_LOBES = 0.25
_WEIGHT_FLOOR = 1e-9


@dataclass(frozen=True, eq=False)
class GaugeField:
    """Constant gauge potential A_phi: one n x n matrix, checked Hermitian
    within 1e-10, kept read-only and never diagonalized."""

    a_phi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a_phi", readonly(require_hermitian(self.a_phi)))

    @property
    def n_colors(self) -> int:
        return self.a_phi.shape[0]


@dataclass(frozen=True, eq=False)
class RingState:
    """Mode-space coefficients c_{m,a}, rows ordered m = -l ... +l.

    The cutoff l and the color count n are read off the (2l+1, n) shape.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.ndim != 2 or c.shape[0] < 3 or c.shape[0] % 2 == 0 or c.shape[1] < 1:
            raise PreconditionError(
                f"coefficients must be a (2l+1, n) array with l >= 1 and "
                f"n >= 1, got shape {c.shape}"
            )
        require_unit_norm(c, "state")  # NaN or inf fails too
        object.__setattr__(self, "coeffs", readonly(c))

    @property
    def mode_cutoff_l(self) -> int:
        return self.coeffs.shape[0] // 2

    @property
    def n_colors(self) -> int:
        return self.coeffs.shape[1]


@dataclass(frozen=True, eq=False)
class PositionDensity:
    """|psi|^2 summed over the colors, sampled on phi_j = 2 pi j / N; the
    grid follows from the N samples and is not stored."""

    density: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.density, dtype=np.float64)
        if d.ndim != 1 or d.size == 0:
            raise PreconditionError("density must be a non-empty 1-D array")
        if np.any(d < -1e-12):
            raise PreconditionError("density must be non-negative")
        integral = float(np.sum(d)) * TWO_PI / d.size
        if not abs(integral - 1.0) <= _DENSITY_INTEGRAL_TOL:
            raise PreconditionError(
                f"density integrates to {integral!r}, expected 1 within "
                f"{_DENSITY_INTEGRAL_TOL}"
            )
        object.__setattr__(self, "density", readonly(d))

    @property
    def grid_size_N(self) -> int:
        return self.density.size

    @property
    def phi_grid(self) -> np.ndarray:
        return TWO_PI * np.arange(self.grid_size_N) / self.grid_size_N


@dataclass(frozen=True)
class Peak:
    """One relocalization peak: its eigenphase and weight."""

    phi: float
    weight: float

    def __post_init__(self):
        if not (0.0 <= self.phi < TWO_PI):
            raise PreconditionError(f"peak phase {self.phi} outside [0, 2*pi)")
        if not (-1e-12 <= self.weight <= 1.0 + 1e-6):
            raise PreconditionError(f"peak weight {self.weight} outside [0, 1]")


@dataclass(frozen=True)
class PeakSet:
    """Peaks sorted by descending weight, plus the grid resolution."""

    peaks: tuple
    resolution: float

    def __post_init__(self):
        object.__setattr__(self, "peaks", tuple(self.peaks))
        total = sum(p.weight for p in self.peaks)
        if total > 1.0 + 1e-6:
            raise PreconditionError(f"peak weights sum to {total}, above 1")
        weights = [p.weight for p in self.peaks]
        if weights != sorted(weights, reverse=True):
            raise PreconditionError("peaks must be sorted by descending weight")
        if self.resolution <= 0:
            raise PreconditionError("resolution must be positive")

    def __len__(self) -> int:
        return len(self.peaks)

    def __iter__(self):
        return iter(self.peaks)

    @property
    def dominant(self) -> Peak:
        if not self.peaks:
            raise PreconditionError("peak set is empty")
        return self.peaks[0]


def _require_mode_cutoff(mode_cutoff_l: int) -> None:
    if mode_cutoff_l < 1:
        raise PreconditionError(f"mode cutoff must be >= 1, got {mode_cutoff_l}")


def initial_localized_state(mode_cutoff_l: int, color) -> RingState:
    """Packet at phi = 0: every mode carries the same unit color vector."""
    _require_mode_cutoff(mode_cutoff_l)
    c = require_unit_vector(color, "color")
    count = 2 * mode_cutoff_l + 1
    coeffs = np.tile(c / math.sqrt(count), (count, 1))
    return RingState(coeffs)


def require_ring_grid(mode_cutoff_l: int, n_colors: int, grid_size_N: int) -> None:
    """Refuse a cutoff below 1, a grid with fewer than 2l+1 points, one
    frequency per mode, or a ring route whose working set, modes x colors
    plus grid points, would take more than BYTES_GUARD bytes."""
    _require_mode_cutoff(mode_cutoff_l)
    count = 2 * mode_cutoff_l + 1
    if grid_size_N < count:
        raise ResolutionError(
            f"grid of {grid_size_N} points cannot resolve {count} modes; "
            f"need N >= 2l+1"
        )
    nbytes = _BYTES_PER_MODE_COLOR * count * n_colors + _BYTES_PER_POINT * grid_size_N
    if nbytes > BYTES_GUARD:
        raise ResourceLimitError(
            f"{count} modes x {n_colors} colors on a grid of {grid_size_N} "
            f"points need {nbytes} bytes, above the guard {BYTES_GUARD}"
        )


def require_finite_phase(gauge: GaugeField, mode_cutoff_l: int, t: float) -> None:
    """Refuse a time, or a phase E t, that is not finite: every block
    energy is at most (l + ||A_phi||_1)^2 / 2, and that bound times |t| must
    be finite, which then holds at any smaller |t| too."""
    if not math.isfinite(t):
        raise PreconditionError(f"time {t!r} is not finite")
    _require_mode_cutoff(mode_cutoff_l)
    with np.errstate(over="ignore"):
        reach = mode_cutoff_l + float(np.linalg.norm(gauge.a_phi, 1))
    # float products overflow to inf silently, and inf * 0 is NaN
    if not math.isfinite(reach * reach * abs(t) / 2.0):
        raise PreconditionError(f"phase E t is not finite at t = {t!r}")


def _mode_rows(w: np.ndarray, first: np.ndarray, mode_cutoff_l: int) -> np.ndarray:
    """Rows m = -l..l of W^m first, each from its neighbor by one product
    with W or W^dagger."""
    l = mode_cutoff_l
    # on row vectors W x is x W^T, and W^dagger x is x conj(W)
    up, down = np.ascontiguousarray(w.T), w.conj()
    rows = np.empty((2 * l + 1, len(first)), dtype=np.complex128)
    rows[l] = first
    for m in range(1, l + 1):
        np.dot(rows[l + m - 1], up, out=rows[l + m])
        np.dot(rows[l - m + 1], down, out=rows[l - m])
    opcount.add(2 * l * len(first) ** 2)
    return rows


def evolve_block(gauge: GaugeField, color, mode_cutoff_l: int,
                 t: float) -> RingState:
    """Evolve the packet localized at phi = 0 with color `color` for time t.

    Row m = 0 is c / sqrt(2l+1), the rows above and below are _mode_rows
    of W, and each takes its free phase e^{-i t m^2 / 2}: the state under
    H'_m, up to the color-only G (module docstring). One n x n exponential
    and 2l matrix-vector products, the route the dense one is timed
    against.
    """
    require_finite_phase(gauge, mode_cutoff_l, t)
    c = require_state(color, gauge.n_colors, "color", "gauge field")
    l = mode_cutoff_l
    rows = _mode_rows(unitary_exp(gauge.a_phi, t), c / math.sqrt(2 * l + 1), l)
    rows *= np.exp(-1j * (t * (np.arange(-l, l + 1) ** 2 / 2.0)))[:, None]
    # read-only and owned, so RingState keeps it without a copy; unitary per
    # mode: renormalization would only mask a bug
    rows.setflags(write=False)
    return RingState(rows)


def _mode_blocks(gauge: GaugeField, mode_cutoff_l: int) -> np.ndarray:
    """Per-mode blocks H'_m = m (m / 2 I - A_phi), formed directly."""
    modes = np.arange(-mode_cutoff_l, mode_cutoff_l + 1)[:, None, None]
    return modes * (modes / 2.0 * np.eye(gauge.n_colors) - gauge.a_phi)


def evolve_dense(gauge: GaugeField, color, mode_cutoff_l: int,
                 t: float) -> RingState:
    """Assemble the full (2l+1)n matrix and exponentiate it densely.

    Same map as evolve_block, in the same frame (up to G), deliberately
    ignoring the block structure: it builds the packet, forms the blocks
    H'_m directly from the A_phi matrix and exponentiates the whole by
    Pade. Exists as the brute-force cross-check and cost baseline.
    """
    packet = initial_localized_state(
        mode_cutoff_l, require_state(color, gauge.n_colors, "color", "gauge field"))
    blocks = _mode_blocks(gauge, mode_cutoff_l)
    count, n, _ = blocks.shape
    # block i on the diagonal: full[i, :, i, :] for every i at once
    full = np.zeros((count, n, count, n), dtype=np.complex128)
    full[np.arange(count), :, np.arange(count)] = blocks
    flat = expm_dense(full.reshape(count * n, -1), t) @ packet.coeffs.reshape(-1)
    opcount.add(flat.size ** 2)
    return RingState(flat.reshape(count, n))


def _fft_macs(size: int) -> int:
    return (size // 2) * max(1, int(math.log2(size)))


def position_density(state: RingState, grid_size_N: int) -> PositionDensity:
    """Sample |psi|^2 summed over the colors on phi_j = 2 pi j / N.

    Summed over the colors, |psi|^2 is a trigonometric polynomial of degree
    2l, so any 4l+1 equispaced samples fix it. The density is computed on
    L = min(N, the power of two at or above 4l+1) points: every color's
    modes go into one zero-padded (L, n) array, one inverse FFT runs down
    all its columns in place, and the squares are summed over the colors.
    When L < N the sum is carried to the N-point grid by zero-padding its
    spectrum, which is exact for a band limit 2l < L/2. Requires N >= 2l+1
    so every mode maps to a distinct frequency; the sampled density then
    integrates to exactly the state norm.
    """
    l, n = state.mode_cutoff_l, state.n_colors
    require_ring_grid(l, n, grid_size_N)
    size_L = min(grid_size_N, 1 << (4 * l).bit_length())
    # mode m goes to row m mod L: 0..l at the top, -l..-1 at the bottom
    psi = np.zeros((size_L, n), dtype=np.complex128, order="F")
    psi[:l + 1] = state.coeffs[l:]
    psi[size_L - l:] = state.coeffs[:l]
    # the unscaled inverse transform is sum_m c_m e^{+i m phi_j}, with the
    # e^{i m phi} convention
    np.fft.ifft(psi, axis=0, norm="forward", out=psi)
    density = np.einsum("ij,ij->i", psi.real, psi.real)
    density += np.einsum("ij,ij->i", psi.imag, psi.imag)
    del psi
    macs = n * _fft_macs(size_L)
    if size_L < grid_size_N:
        density = np.fft.irfft(np.fft.rfft(density), n=grid_size_N)
        # where the density vanishes the resample's rounding can leave a
        # sample a few ulps of the peak below zero, which no sum of squares
        # gives and PositionDensity would refuse
        np.maximum(density, 0.0, out=density)
        macs += _fft_macs(size_L) + _fft_macs(grid_size_N)
    density *= grid_size_N / size_L / TWO_PI
    opcount.add(macs)
    density.setflags(write=False)
    return PositionDensity(density)


def extract_peaks(density: PositionDensity, mode_cutoff_l: int,
                  n_colors: int) -> PeakSet:
    """Read the eigenphases and their weights off the density at t_R.

    There the density is sum_k w_k F(phi - phi_k), one Fejer kernel of the
    2l+1 modes per eigenphase, so its Fourier moments with the kernel's
    triangle divided out are y_q = sum_k w_k e^{i q phi_k}, q = 0..2l. A
    matrix pencil (Hua and Sarkar, IEEE TASSP 1990) inverts them exactly:
    the singular values of their Hankel matrix, K+1 = min(l, 2 n_colors)+1
    columns, above (2l+1)^2 eps of the largest count at most n_colors
    components; the shift invariance of the top right singular vectors
    gives the poles e^{i phi_k}, and least squares of y on them the
    weights. The SVD runs on R from one QR of the Hankel matrix, and the
    weights come from one least-squares solve on the (2l+1) x order
    Vandermonde matrix of the poles; both fit the ring guard's budget. The
    cut sits above the moments' rounding: the read-out's, against
    <c|U^q|c> on random unitaries, is 1.3 to 1.6 times 2l eps (7.3e-13 at
    l = 1000, n = 32), and evolve_block's at t_R, which rounds each free
    phase t m^2 / 2 once, is of order (2l+1)^2 eps. merge_components then
    joins poles within a quarter lobe. The moments alias unless N >= 4l+1,
    so a coarser grid is refused.
    """
    l = mode_cutoff_l
    y = _moments(density, l)

    hankel = np.lib.stride_tricks.sliding_window_view(y, min(l, 2 * n_colors) + 1)
    _, sv, vh = np.linalg.svd(np.linalg.qr(hankel, mode="r"))
    cut = len(y) ** 2 * np.finfo(float).eps * sv[0]
    order = min(n_colors, int(np.count_nonzero(sv > cut)))
    # the top rows of vh span the Hankel rows (z_k^j)_j, so one shift maps
    # that span onto itself with eigenvalues z_k
    basis = vh[:order].T
    shift = np.linalg.lstsq(basis[:-1], basis[1:], rcond=None)[0]
    phases = np.angle(np.linalg.eigvals(shift))
    vandermonde = np.exp(1j * np.outer(np.arange(len(y)), phases))
    weights = np.linalg.lstsq(vandermonde, y, rcond=None)[0].real

    return PeakSet(tuple(merge_components(phases, weights, l)),
                   TWO_PI / density.grid_size_N)


def _moments(density: PositionDensity, mode_cutoff_l: int) -> np.ndarray:
    """extract_peaks' y_q, q = 0..2l: the density's Fourier moments with the
    Fejer kernel's triangle divided out, refused where N < 4l+1 aliases them."""
    _require_read_out_grid(mode_cutoff_l, density.grid_size_N)
    count = 2 * mode_cutoff_l + 1
    y = np.fft.rfft(density.density)[:count].conj()
    return y * (TWO_PI * count / (density.grid_size_N * (count - np.arange(count))))


def merge_components(phases, weights, mode_cutoff_l: int) -> list:
    """Peaks of (phase, weight) components, by descending weight, then phase.

    Heaviest first, each joins the first group whose heaviest member is
    within a quarter lobe 2 pi/(2l+1), or starts one; a group is its summed
    weight at its weighted circular mean, or at its one member's phase bit
    for bit. Groups at or below the weight floor are dropped. Each member
    is tested against every group's head in one vector fold.
    """
    tolerance = _MERGE_LOBES * TWO_PI / (2 * mode_cutoff_l + 1)
    members = sorted(zip(weights, phases), reverse=True)
    heads = np.empty(len(members))  # each group's heaviest phase
    groups = []  # lists of (weight, phase), heaviest first
    for member in members:
        near = np.flatnonzero(np.abs(wrap_to_signed(
            member[1] - heads[:len(groups)])) < tolerance)
        if len(near):
            groups[near[0]].append(member)
        else:
            heads[len(groups)] = member[1]
            groups.append([member])
    peaks = []
    for group in groups:
        weight = sum(w for w, _ in group)
        if weight > _WEIGHT_FLOOR:
            phi = group[0][1] if len(group) == 1 else np.angle(
                sum(w * np.exp(1j * phi) for w, phi in group))
            peaks.append(Peak(wrap_to_unit(phi), float(weight)))
    peaks.sort(key=lambda p: (-p.weight, p.phi))
    return peaks


def _require_read_out_grid(mode_cutoff_l: int, grid_size_N: int) -> None:
    if grid_size_N < 4 * mode_cutoff_l + 1:
        raise ResolutionError(
            f"grid of {grid_size_N} points aliases the density's moments up "
            f"to 2l = {2 * mode_cutoff_l}; the peak read-out needs N >= 4l+1"
        )


def estimate_phase_via_ring(u_matrix, color, mode_cutoff_l: int,
                            grid_size_N: int) -> PeakSet:
    """Read U's eigenphases as the state `color` sees them off the density
    at t_R, that of the rows U^(-m) c / sqrt(2l+1) (module docstring); the
    one read-out both ring-sim and compare run.

    U passes require_unitary and one hold_unitary step, since a defect the
    check admits would grow over l powers. Both grid rules are checked
    before any row is made, the read-out's N >= 4l+1 first, since it
    implies N >= 2l+1, and the rows are freed once their density exists.
    """
    l = mode_cutoff_l
    _require_read_out_grid(l, grid_size_N)
    u = require_unitary(u_matrix)
    require_ring_grid(l, len(u), grid_size_N)
    c = require_state(color, len(u), "color", "unitary")
    rows = _mode_rows(hold_unitary(u).conj().T, c / math.sqrt(2 * l + 1), l)
    # read-only and owned, so RingState keeps it without a copy
    rows.setflags(write=False)
    density = position_density(RingState(rows), grid_size_N)
    del rows
    return extract_peaks(density, l, len(u))


def write_density_csv(density: PositionDensity, path) -> None:
    """Write `phi,density` rows, each value as format(x, ".16e")."""
    write_csv_rows(path, "phi,density", (density.phi_grid, density.density))


def peak_set_to_json(peak_set: PeakSet) -> dict:
    return {
        "peaks": [
            {"phi": p.phi, "weight": p.weight} for p in peak_set.peaks
        ],
        "resolution": peak_set.resolution,
    }
