"""Charged particle on a ring threaded by a constant U(n) gauge potential.

The state is a truncated angular-momentum expansion psi(phi) =
sum_m c_{m,a} e^{i m phi} / sqrt(2 pi) with a color index a for the internal
n-dimensional space. A phi-independent Hermitian gauge potential couples
only to color, so the Hamiltonian splits into independent n x n blocks

    H_m = ((hbar m / r) I - q A_phi)^2 / (2 m_q),

one per mode. Every block is a polynomial in A_phi, so all of them share its
eigenvectors: with A_phi = V diag(lam) V^dagger the block energies are

    E_{m,k} = (hbar m / r - q lam_k)^2 / (2 m_q),

and evolution is a projection onto V, one phase per (mode, eigencolor), and
the map back. At the return time t_R = 4 pi m_q r^2 / hbar the free part of
the phase, -2 pi m^2, is a multiple of 2 pi for every mode, so a packet that
started localized at phi = 0 relocalizes. The surviving mode-linear phase
shifts each gauge eigencolor to its own angle: an eigencolor with A_phi
eigenvalue lam reappears at

    phi = -VELOCITY_FACTOR * 2 pi r (q / hbar) lam   (mod 2 pi),

which is the eigenphase read-out. The factor of two is kinematic: by t_R
each mode has classically completed two laps, so the accumulated holonomy
angle is twice the single-lap one, and encoders divide by VELOCITY_FACTOR
to compensate.

A run records where the particle is on the ring, never its color, so
position_density gives |psi|^2 summed over the colors: the one distribution
the peak read-out and the density snapshots both take.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import opcount
from .angles import TWO_PI, wrap_to_signed, wrap_to_unit
from .errors import PreconditionError, ResolutionError, ResourceLimitError
from .linalg import (
    BYTES_GUARD,
    expm_dense,
    readonly,
    require_eigenbasis,
    require_unit_norm,
    require_unit_vector,
    write_csv_rows,
)

# Relocalization shift at t_R is this multiple of the single-lap holonomy
# phase (the classical angular velocity is twice the quantum phase velocity).
VELOCITY_FACTOR = 2.0

_DENSITY_INTEGRAL_TOL = 1e-8
# colors position_density transforms at a time; 4 MiB of spectrum at N = 2^16
_BLOCK_COLORS = 4
# position_density's bytes per grid point at most: a block of colors, each
# with a padded spectrum and its transform (complex) and two squares (real),
# plus the density and its grid
_DENSITY_BYTES_PER_POINT = _BLOCK_COLORS * (16 + 16 + 8 + 8) + 8 + 8


@dataclass(frozen=True)
class RingPhysicalParams:
    """Ring constants; natural units (all ones) unless set otherwise."""

    hbar: float = 1.0
    charge_q: float = 1.0
    radius_r: float = 1.0
    mass_mq: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "charge_q", "radius_r", "mass_mq"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise PreconditionError(f"{name} must be finite")
        if self.hbar <= 0 or self.radius_r <= 0 or self.mass_mq <= 0:
            raise PreconditionError("hbar, radius_r and mass_mq must be positive")
        if self.charge_q == 0:
            raise PreconditionError("charge_q must be non-zero")


@dataclass(frozen=True, eq=False)
class GaugeField:
    """Constant Hermitian gauge potential A_phi = V diag(lam) V^dagger.

    Built from its eigendecomposition, which it keeps read-only as
    `eigenvalues` and `eigenvectors`; nothing here diagonalizes. The
    eigenvalues must be real and finite and V orthonormal.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    params: RingPhysicalParams = field(default_factory=RingPhysicalParams)

    def __post_init__(self):
        w, v = require_eigenbasis((self.eigenvalues, self.eigenvectors))
        object.__setattr__(self, "eigenvalues", readonly(w))
        object.__setattr__(self, "eigenvectors", readonly(v))

    @property
    def a_phi(self) -> np.ndarray:
        """The potential as a matrix, assembled for the dense oracle."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T

    @property
    def n_colors(self) -> int:
        return self.eigenvalues.size

    def mode_energies(self, mode_cutoff_l: int) -> np.ndarray:
        """E_{m,k} = (hbar m / r - q lam_k)^2 / (2 m_q), rows m = -l ... +l."""
        if mode_cutoff_l < 1:
            raise PreconditionError(f"mode cutoff must be >= 1, got {mode_cutoff_l}")
        p = self.params
        modes = np.arange(-mode_cutoff_l, mode_cutoff_l + 1)
        momentum = (p.hbar * modes / p.radius_r)[:, None] \
            - p.charge_q * self.eigenvalues
        return momentum ** 2 / (2.0 * p.mass_mq)


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
        if not np.all(np.isfinite(c)):
            raise PreconditionError("coefficients must be finite")
        require_unit_norm(c, "state")
        object.__setattr__(self, "coeffs", readonly(c))

    @property
    def mode_cutoff_l(self) -> int:
        return self.coeffs.shape[0] // 2

    @property
    def n_colors(self) -> int:
        return self.coeffs.shape[1]

    @property
    def modes(self) -> np.ndarray:
        return np.arange(-self.mode_cutoff_l, self.mode_cutoff_l + 1)


@dataclass(frozen=True, eq=False)
class PositionDensity:
    """|psi|^2 summed over the colors, sampled on phi_j = 2 pi j / N."""

    phi_grid: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi_grid, dtype=np.float64)
        d = np.asarray(self.density, dtype=np.float64)
        if phi.ndim != 1 or d.shape != phi.shape:
            raise PreconditionError("phi grid and density must be matching 1-D arrays")
        if np.any(d < -1e-12):
            raise PreconditionError("density must be non-negative")
        integral = float(np.sum(d)) * TWO_PI / phi.size
        if not abs(integral - 1.0) <= _DENSITY_INTEGRAL_TOL:
            raise PreconditionError(
                f"density integrates to {integral!r}, expected 1 within "
                f"{_DENSITY_INTEGRAL_TOL}"
            )
        object.__setattr__(self, "phi_grid", readonly(phi))
        object.__setattr__(self, "density", readonly(d))

    @property
    def grid_size_N(self) -> int:
        return self.phi_grid.size


@dataclass(frozen=True)
class Peak:
    """One relocalization peak: position, integrated weight, spread."""

    phi: float
    weight: float
    width: float

    def __post_init__(self):
        if not (0.0 <= self.phi < TWO_PI):
            raise PreconditionError(f"peak phase {self.phi} outside [0, 2*pi)")
        if not (-1e-12 <= self.weight <= 1.0 + 1e-6):
            raise PreconditionError(f"peak weight {self.weight} outside [0, 1]")
        if self.width < 0:
            raise PreconditionError("peak width must be non-negative")


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


def return_time(params: RingPhysicalParams) -> float:
    """t_R = 4 pi m_q r^2 / hbar, the packet revival time; refused when it
    is not a finite number."""
    try:
        t_r = 4.0 * np.pi * params.mass_mq * params.radius_r ** 2 / params.hbar
    except OverflowError:
        t_r = math.inf
    if not math.isfinite(t_r):
        raise PreconditionError(
            f"return time 4 pi m_q r^2 / hbar is not finite at radius = "
            f"{params.radius_r!r}, mass = {params.mass_mq!r}, hbar = {params.hbar!r}"
        )
    return t_r


def initial_localized_state(mode_cutoff_l: int, color) -> RingState:
    """Packet at phi = 0: every mode carries the same unit color vector."""
    c = require_unit_vector(color, "color")
    count = 2 * mode_cutoff_l + 1
    coeffs = np.tile(c / math.sqrt(count), (count, 1))
    return RingState(coeffs)


def require_ring_grid(mode_cutoff_l: int, grid_size_N: int) -> None:
    """Refuse a cutoff below 1, a grid with fewer than 2l+1 points, one
    frequency per mode, or one whose density would take more than
    BYTES_GUARD bytes to compute."""
    if mode_cutoff_l < 1:
        raise PreconditionError(f"mode cutoff must be >= 1, got {mode_cutoff_l}")
    count = 2 * mode_cutoff_l + 1
    if grid_size_N < count:
        raise ResolutionError(
            f"grid of {grid_size_N} points cannot resolve {count} modes; "
            f"need N >= 2l+1"
        )
    nbytes = grid_size_N * _DENSITY_BYTES_PER_POINT
    if nbytes > BYTES_GUARD:
        raise ResourceLimitError(
            f"grid of {grid_size_N} points needs {nbytes} bytes for its "
            f"density, above the guard {BYTES_GUARD}"
        )


def _require_same_colors(state: RingState, gauge: GaugeField) -> None:
    if state.n_colors != gauge.n_colors:
        raise PreconditionError(
            f"state has {state.n_colors} colors, gauge field has {gauge.n_colors}"
        )


def evolve_block(state: RingState, gauge: GaugeField, t: float) -> RingState:
    """Apply exp(-i H_m t / hbar) to every mode in the gauge eigenbasis.

    Projects the coefficients onto the eigenvectors of A_phi, multiplies by
    exp(-i E_{m,k} t / hbar) and maps back. The eigendecomposition is the
    one GaugeField was built from, so the cost is two (2l+1) x n x n
    products. This is the structure-exploiting route the dense path is
    benchmarked against.
    """
    _require_same_colors(state, gauge)
    if not math.isfinite(t):
        raise PreconditionError("time must be finite")
    hbar = gauge.params.hbar
    # extreme constants overflow here; the check below names the cause
    with np.errstate(over="ignore", invalid="ignore"):
        angles = gauge.mode_energies(state.mode_cutoff_l) * (t / hbar)
    if not np.all(np.isfinite(angles)):
        raise PreconditionError(
            f"phase E t / hbar is not finite at t = {t!r}, hbar = {hbar!r}"
        )
    phases = np.exp(-1j * angles)
    v = gauge.eigenvectors
    # (V^dagger c_m) per mode, scale by the phases, map back with V
    rotated = (phases * (state.coeffs @ v.conj())) @ v.T
    count, n = rotated.shape
    opcount.add(2 * count * n * n)
    # unitary per mode: renormalization would only mask a bug
    return RingState(rotated)


def _squared_blocks(gauge: GaugeField, mode_cutoff_l: int) -> np.ndarray:
    """Per-mode blocks ((hbar m / r) I - q A_phi)^2 / (2 m_q), squared directly."""
    p = gauge.params
    modes = np.arange(-mode_cutoff_l, mode_cutoff_l + 1)
    eye = np.eye(gauge.n_colors, dtype=np.complex128)
    base = (p.hbar * modes / p.radius_r)[:, None, None] * eye - p.charge_q * gauge.a_phi
    return (base @ base) / (2.0 * p.mass_mq)


def evolve_dense(state: RingState, gauge: GaugeField, t: float) -> RingState:
    """Assemble the full (2l+1)n matrix and exponentiate it densely.

    Same map as evolve_block, deliberately ignoring the block structure:
    the blocks are squared directly from the A_phi matrix and the whole is
    exponentiated by Pade, never evolved in the gauge eigenbasis. Exists as
    the brute-force cross-check and cost baseline.
    """
    _require_same_colors(state, gauge)
    blocks = _squared_blocks(gauge, state.mode_cutoff_l)
    count, n, _ = blocks.shape
    dim = count * n
    full = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(count):
        full[i * n:(i + 1) * n, i * n:(i + 1) * n] = blocks[i]
    propagator = expm_dense(full, t / gauge.params.hbar)
    flat = propagator @ state.coeffs.reshape(-1)
    opcount.add(dim * dim)
    return RingState(flat.reshape(count, n))


def position_density(state: RingState, grid_size_N: int) -> PositionDensity:
    """Sample |psi|^2 on phi_j = 2 pi j / N via zero-padded inverse FFT.

    Requires N >= 2l+1 so every mode maps to a distinct grid frequency;
    the sampled density then integrates to exactly the state norm. The
    colors go through the transform _BLOCK_COLORS at a time, one color per
    row of a reused padded block, and each color's |psi|^2 / 2 pi is added
    into the density in color order, so the only full-size arrays made are
    the density and its grid.
    """
    require_ring_grid(state.mode_cutoff_l, grid_size_N)
    n = state.n_colors
    block = min(n, _BLOCK_COLORS)
    # only the mode columns are ever written, so the padding stays zero
    padded = np.zeros((block, grid_size_N), dtype=np.complex128)
    psi = np.empty_like(padded)
    square = np.empty((block, grid_size_N))
    spare = np.empty_like(square)
    density = np.zeros(grid_size_N)
    columns = state.modes % grid_size_N
    for first in range(0, n, block):
        count = min(block, n - first)
        padded[:count, columns] = state.coeffs[:, first:first + count].T
        # the unscaled inverse transform is sum_m c_m e^{+i m phi_j}, with
        # the e^{i m phi} convention
        np.fft.ifft(padded[:count], axis=1, norm="forward", out=psi[:count])
        re, im = psi[:count].real, psi[:count].imag
        out = np.multiply(re, re, out=square[:count])
        out += np.multiply(im, im, out=spare[:count])
        out /= TWO_PI
        for color in out:
            density += color
    opcount.add(n * (grid_size_N // 2) * max(1, int(math.log2(grid_size_N))))
    density.setflags(write=False)
    phi_grid = TWO_PI * np.arange(grid_size_N) / grid_size_N
    phi_grid.setflags(write=False)
    return PositionDensity(phi_grid, density)


def extract_peaks(density: PositionDensity, max_peaks: int, window: int) -> PeakSet:
    """Locate up to max_peaks local maxima and weigh them by window mass.

    Peaks are circular local maxima of the sampled density, accepted in
    descending height order subject to a minimum separation of `window`
    bins, so their windows never overlap. Each accepted peak is refined to
    the circular centroid of the density over its window; its weight is the
    integrated density over the window and its width the weighted circular
    spread. Choose `window` wide enough to cover the resolution lobe when
    weights matter.
    """
    if max_peaks < 1:
        raise PreconditionError(f"max_peaks must be >= 1, got {max_peaks}")
    if window < 1 or window % 2 == 0:
        raise PreconditionError(f"window must be a positive odd integer, got {window}")
    n_bins = density.grid_size_N
    if window > n_bins:
        raise PreconditionError(
            f"window of {window} bins exceeds the {n_bins}-point grid"
        )
    d = density.density
    half = (window - 1) // 2
    bin_width = TWO_PI / n_bins

    # strict on one side so flat stretches contribute no candidates
    is_max = (d > np.roll(d, 1)) & (d >= np.roll(d, -1))
    cand = np.flatnonzero(is_max)
    # candidates by descending height; ties resolve to the lower index
    order = cand[np.argsort(-d[cand], kind="stable")]

    # a bin is blocked once it lies closer than `window` to an accepted peak
    blocked = np.zeros(n_bins, dtype=bool)
    reach = np.arange(-(window - 1), window)
    accepted: list[int] = []
    for j in order.tolist():
        if blocked[j]:
            continue
        accepted.append(j)
        if len(accepted) == max_peaks:
            break
        blocked[(j + reach) % n_bins] = True

    peaks = []
    for j in accepted:
        idx = (j + np.arange(-half, half + 1)) % n_bins
        mass = float(d[idx].sum())
        weight = mass * bin_width
        if mass <= 0.0:
            phi = float(density.phi_grid[j])
            width = 0.0
        else:
            z = np.sum(d[idx] * np.exp(1j * density.phi_grid[idx]))
            phi = float(wrap_to_unit(np.angle(z)))
            dev = wrap_to_signed(density.phi_grid[idx] - phi)
            width = float(math.sqrt(np.sum(d[idx] * dev ** 2) / mass))
        peaks.append(Peak(phi, min(weight, 1.0 + 1e-9), width))

    peaks.sort(key=lambda p: (-p.weight, p.phi))
    return PeakSet(tuple(peaks), bin_width)


def default_peak_window(mode_cutoff_l: int, grid_size_N: int) -> int:
    """Odd window covering +-8 resolution lobes of the kernel.

    The localized packet's density lobe first touches zero 2 pi/(2l+1) away
    from its center, i.e. N/(2l+1) bins. Integrating +-8 of those captures
    about 99 percent of a lobe's mass, enough for weights good to 0.01.
    """
    lobe_bins = grid_size_N / (2 * mode_cutoff_l + 1)
    w = 2 * math.ceil(8 * lobe_bins) + 1
    cap = grid_size_N // 2
    if cap % 2 == 0:
        cap -= 1
    return max(1, min(w, cap))


def estimate_phase_via_ring(gauge: GaugeField, color, mode_cutoff_l: int,
                            grid_size_N: int) -> PeakSet:
    """Full read-out: localize, evolve for t_R, locate relocalization peaks.

    The grid is checked before anything evolves; peaks are read as
    revival_peaks reads them.
    """
    require_ring_grid(mode_cutoff_l, grid_size_N)
    state = initial_localized_state(mode_cutoff_l, color)
    evolved = evolve_block(state, gauge, return_time(gauge.params))
    density = position_density(evolved, grid_size_N)
    return revival_peaks(density, mode_cutoff_l, gauge.n_colors)


def revival_peaks(density: PositionDensity, mode_cutoff_l: int,
                  n_colors: int) -> PeakSet:
    """Peaks of the density at t_R, as the read-out takes them.

    One candidate peak per color, n_colors in all, each over a window
    matched to the mode-cutoff resolution, so peak weights track the color
    overlaps |c_k|^2 with the gauge eigencolors.
    """
    window = default_peak_window(mode_cutoff_l, density.grid_size_N)
    return extract_peaks(density, n_colors, window)


def write_density_csv(density: PositionDensity, path) -> None:
    """Write `phi,density` rows at full precision."""
    write_csv_rows(path, "phi,density", (density.phi_grid, density.density))


def peak_set_to_json(peak_set: PeakSet) -> dict:
    return {
        "peaks": [
            {"phi": p.phi, "weight": p.weight, "width": p.width}
            for p in peak_set.peaks
        ],
        "resolution": peak_set.resolution,
    }
