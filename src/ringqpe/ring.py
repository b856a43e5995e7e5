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
the peak read-out and the density snapshots both take. That sum is a
trigonometric polynomial of degree 2l, fixed by any 4l+1 equispaced
samples, so it is computed on about that many points and resampled to the
grid.
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
# The ring route's working set, bytes per mode and color plus bytes per
# grid point, each the largest peak measured under tracemalloc rounded up:
# 94.5 at l = 1024, n = 64, N = 8192 for a caller that holds the packet and
# the evolved state beside the density's (L, n) transform (ring-sim and
# estimate_phase_via_ring free the packet first and, with the peak
# read-out's R factor and SVD, peak at 86), and
# 28.9 for ring-sim at l = 3, N = 2^16, its density and grid while the next
# snapshot is made, beside the CSV writer's tables (writing a CSV peaks at
# 25.6; the read-out's transform takes under 25).
_BYTES_PER_MODE_COLOR = 96
_BYTES_PER_POINT = 32

# the peak read-out factors its Hankel matrix this many rows at a time,
# merges poles closer than this many lobes 2 pi/(2l+1) and drops weights
# at or below the floor
_QR_BLOCK_ROWS = 256
_MERGE_LOBES = 0.25
_WEIGHT_FLOOR = 1e-9


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
        _require_mode_cutoff(mode_cutoff_l)
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


def _require_same_colors(state: RingState, gauge: GaugeField) -> None:
    if state.n_colors != gauge.n_colors:
        raise PreconditionError(
            f"state has {state.n_colors} colors, gauge field has {gauge.n_colors}"
        )


def phase_angles(gauge: GaugeField, mode_cutoff_l: int, t: float) -> np.ndarray:
    """E_{m,k} t / hbar per mode m and gauge eigencolor k; refuses a time or
    phase that is not finite, which holds for every smaller |t| too."""
    if not math.isfinite(t):
        raise PreconditionError("time must be finite")
    hbar = gauge.params.hbar
    # extreme constants overflow here; the check below names the cause
    with np.errstate(over="ignore", invalid="ignore"):
        angles = gauge.mode_energies(mode_cutoff_l) * (t / hbar)
    if not np.all(np.isfinite(angles)):
        raise PreconditionError(
            f"phase E t / hbar is not finite at t = {t!r}, hbar = {hbar!r}"
        )
    return angles


def evolve_block(state: RingState, gauge: GaugeField, t: float) -> RingState:
    """Apply exp(-i H_m t / hbar) to every mode in the gauge eigenbasis.

    Projects the coefficients onto the eigenvectors of A_phi, multiplies by
    exp(-i E_{m,k} t / hbar) and maps back. The eigendecomposition is the
    one GaugeField was built from, so the cost is two (2l+1) x n x n
    products. This is the structure-exploiting route the dense path is
    benchmarked against.
    """
    _require_same_colors(state, gauge)
    phases = np.exp(-1j * phase_angles(gauge, state.mode_cutoff_l, t))
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
    phi_grid = TWO_PI * np.arange(grid_size_N) / grid_size_N
    phi_grid.setflags(write=False)
    return PositionDensity(phi_grid, density)


def _stacked_r(rows: int, block) -> np.ndarray:
    """R of the QR of a tall matrix given as block(start, stop) row slices.

    Each slice of up to _QR_BLOCK_ROWS rows is stacked under the running R
    and factored again, so only one slice and R are held at a time.
    """
    r = None
    for start in range(0, rows, _QR_BLOCK_ROWS):
        part = block(start, min(rows, start + _QR_BLOCK_ROWS))
        r = np.linalg.qr(part if r is None else np.vstack((r, part)), mode="r")
    return r


def extract_peaks(density: PositionDensity, mode_cutoff_l: int,
                  n_colors: int) -> PeakSet:
    """Read the eigenphases and their weights off the density at t_R.

    There the density is sum_k w_k F(phi - phi_k), one Fejer kernel of the
    2l+1 modes per eigenphase, so its Fourier moments with the kernel's
    triangle divided out are y_q = sum_k w_k e^{i q phi_k}, q = 0..2l. A
    matrix pencil (Hua and Sarkar, IEEE TASSP 1990) inverts them exactly:
    the singular values of their Hankel matrix, K+1 = min(l, 2 n_colors)+1
    columns, above (2l+1)^2 eps of the largest (the rounding of the
    2 pi m^2 phase at the top mode) count at most n_colors components; the
    shift invariance of the top right singular vectors gives the poles
    e^{i phi_k}, and least squares of y on them the weights. Poles closer
    than a quarter lobe 2 pi/(2l+1) are one component, of their summed
    weight at the weighted circular mean. The moments alias unless
    N >= 4l+1, so a coarser grid is refused.
    """
    l = mode_cutoff_l
    _require_read_out_grid(l, density.grid_size_N)
    count = 2 * l + 1
    q = np.arange(count)
    y = np.fft.rfft(density.density)[:count].conj()
    y *= TWO_PI * count / (density.grid_size_N * (count - q))

    hankel = np.lib.stride_tricks.sliding_window_view(y, min(l, 2 * n_colors) + 1)
    _, sv, vh = np.linalg.svd(_stacked_r(len(hankel), lambda a, b: hankel[a:b]))
    cut = count ** 2 * np.finfo(float).eps * sv[0]
    order = min(n_colors, int(np.count_nonzero(sv > cut)))
    # the top rows of vh span the Hankel rows (z_k^j)_j, so one shift maps
    # that span onto itself with eigenvalues z_k
    basis = vh[:order].T
    shift = np.linalg.lstsq(basis[:-1], basis[1:], rcond=None)[0]
    phases = np.angle(np.linalg.eigvals(shift))
    r = _stacked_r(count, lambda a, b: np.column_stack(
        (np.exp(1j * np.outer(q[a:b], phases)), y[a:b])))
    weights = np.linalg.solve(r[:order, :order], r[:order, order]).real

    tolerance = _MERGE_LOBES * TWO_PI / count
    clusters = []  # [phase of its heaviest pole, weight, sum of w e^{i phi}]
    for w, phi in sorted(zip(weights, phases), reverse=True):
        home = next((c for c in clusters
                     if abs(wrap_to_signed(phi - c[0])) < tolerance), None)
        if home is None:
            home = [phi, 0.0, 0j]
            clusters.append(home)
        home[1] += w
        home[2] += w * np.exp(1j * phi)
    peaks = [Peak(wrap_to_unit(np.angle(z)), float(w))
             for _, w, z in clusters if w > _WEIGHT_FLOOR]
    peaks.sort(key=lambda p: (-p.weight, p.phi))
    return PeakSet(tuple(peaks), TWO_PI / density.grid_size_N)


def _require_read_out_grid(mode_cutoff_l: int, grid_size_N: int) -> None:
    if grid_size_N < 4 * mode_cutoff_l + 1:
        raise ResolutionError(
            f"grid of {grid_size_N} points aliases the density's moments up "
            f"to 2l = {2 * mode_cutoff_l}; the peak read-out needs N >= 4l+1"
        )


def estimate_phase_via_ring(gauge: GaugeField, color, mode_cutoff_l: int,
                            grid_size_N: int) -> PeakSet:
    """Full read-out: localize, evolve for t_R, read the peaks.

    Both grid rules are checked before anything evolves, and the packet and
    the evolved state are freed once used.
    """
    require_ring_grid(mode_cutoff_l, gauge.n_colors, grid_size_N)
    _require_read_out_grid(mode_cutoff_l, grid_size_N)
    density = position_density(evolve_block(
        initial_localized_state(mode_cutoff_l, color), gauge, return_time(gauge.params)
    ), grid_size_N)
    return extract_peaks(density, mode_cutoff_l, gauge.n_colors)


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
