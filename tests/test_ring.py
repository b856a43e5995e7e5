"""Ring dynamics: mode energies, revival, relocalization, peaks."""

import json
import math
import warnings

import numpy as np
import pytest

import ringqpe as rq
import ringqpe.linalg as linalg_module
import ringqpe.ring as ring_module
from ringqpe.ring import (
    _squared_blocks,
    default_peak_window,
    peak_set_to_json,
    write_density_csv,
)

from conftest import (
    SIGMA_X,
    SIGMA_Z,
    gauge_from,
    random_hermitian,
    random_state,
    read_csv,
)

TWO_PI = 2.0 * np.pi


class TestReturnTime:
    def test_natural_units(self, natural_params):
        assert abs(rq.return_time(natural_params) - 4.0 * np.pi) < 1e-12

    def test_parameter_scaling(self):
        params = rq.RingPhysicalParams(hbar=2.0, charge_q=1.0, radius_r=3.0, mass_mq=5.0)
        assert abs(rq.return_time(params) - 4.0 * np.pi * 5.0 * 9.0 / 2.0) < 1e-12

    @pytest.mark.parametrize("radius,mass,hbar", [
        (1e200, 1.0, 1.0),  # r^2 overflows
        (1e150, 1e100, 1.0),  # the product overflows
        (1.0, 1.0, 1e-310),  # dividing by a subnormal hbar overflows
    ])
    def test_non_finite_return_time_is_refused(self, radius, mass, hbar):
        params = rq.RingPhysicalParams(hbar=hbar, radius_r=radius, mass_mq=mass)
        with pytest.raises(rq.PreconditionError,
                           match="not finite at radius = .*, mass = .*, hbar = "):
            rq.return_time(params)


class TestBuildHamiltonian:
    """Mode-block spectrum: eigenbasis energies and the dense oracle's blocks."""

    def test_free_spectrum_without_gauge(self, natural_params):
        gauge = gauge_from(np.zeros((1, 1), dtype=complex), natural_params)
        energies = gauge.mode_energies(3)
        for row, m in enumerate(range(-3, 4)):
            expected = m * m / 2.0  # hbar^2 m^2 / (2 m_q r^2) in natural units
            assert abs(energies[row, 0] - expected) < 1e-12

    def test_symbolic_expansion_single_mode(self, natural_params):
        a = 0.3 * SIGMA_X
        gauge = gauge_from(a, natural_params)
        blocks = _squared_blocks(gauge, 1)
        m = 1
        expected = (np.eye(2) * (m * m) - 2.0 * m * a + a @ a) / 2.0
        row = m + 1  # rows ordered -l..l
        assert np.max(np.abs(blocks[row] - expected)) < 1e-12

    def test_blocks_hermitian_and_counted(self, natural_params):
        rng = np.random.default_rng(7)
        gauge = gauge_from(random_hermitian(rng, 3), natural_params)
        blocks = _squared_blocks(gauge, 5)
        assert blocks.shape == (11, 3, 3)
        assert gauge.mode_energies(5).shape == (11, 3)
        stack_dagger = np.conj(np.transpose(blocks, (0, 2, 1)))
        assert np.max(np.abs(blocks - stack_dagger)) < 1e-12

    def test_cross_term_breaks_mode_reflection(self, natural_params):
        # E_{-m,k} differs from E_{m,k} exactly by the sign of the linear term
        gauge = gauge_from(0.2 * SIGMA_Z, natural_params)
        energies = gauge.mode_energies(2)
        e_plus, e_minus = energies[2 + 1], energies[2 - 1]
        assert np.max(np.abs(gauge.eigenvalues - [-0.2, 0.2])) < 1e-15
        assert np.max(np.abs(e_plus - e_minus - (-2.0 * gauge.eigenvalues))) < 1e-12

    def test_rejects_bad_cutoff(self, natural_params):
        gauge = gauge_from(np.zeros((1, 1)), natural_params)
        with pytest.raises(rq.PreconditionError):
            gauge.mode_energies(0)


class TestGaugeField:
    def test_built_from_its_basis_without_eigh(self, natural_params, monkeypatch):
        v = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)

        def forbidden(*args, **kwargs):
            raise AssertionError("GaugeField called eigh")

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        gauge = rq.GaugeField(np.array([-0.1, 0.3]), v, natural_params)
        assert gauge.n_colors == 2
        assert np.max(np.abs(gauge.a_phi - (0.1 * np.eye(2) - 0.2 * SIGMA_X))) < 1e-15
        for arr in (gauge.eigenvalues, gauge.eigenvectors):
            assert not arr.flags.writeable

    def test_a_phi_is_derived_and_read_only(self, natural_params):
        gauge = gauge_from(0.3 * SIGMA_X, natural_params)
        assert np.max(np.abs(gauge.a_phi - 0.3 * SIGMA_X)) < 1e-15
        with pytest.raises(AttributeError):
            gauge.a_phi = np.zeros((2, 2))

    # require_eigenbasis's own cases live in tests/test_linalg.py
    @pytest.mark.parametrize("w,v,message", [
        ([0.1 + 1e-3j, 0.2], np.eye(2), "finite reals"),
        ([0.1, 0.2], [[1.0, 0.0], [1.0, 1.0]], "not unitary"),
    ])
    def test_rejects_a_bad_basis(self, natural_params, w, v, message):
        with pytest.raises(rq.PreconditionError, match=message):
            rq.GaugeField(np.asarray(w), np.asarray(v), natural_params)


class TestRingState:
    def test_norm_tolerance_is_fixed(self):
        coeffs = 1.001 * np.ones((3, 1)) / math.sqrt(3.0)
        with pytest.raises(rq.PreconditionError,
                           match="state norm .* deviates from 1 beyond tolerance 1e-10"):
            rq.RingState(coeffs)
        # the tolerance is a constant, not a field a caller can loosen
        with pytest.raises(TypeError):
            rq.RingState(coeffs, norm_tol=0.01)

    def test_sizes_come_from_the_coefficients(self):
        coeffs = np.ones((7, 2)) / math.sqrt(14.0)
        state = rq.RingState(coeffs)
        assert (state.mode_cutoff_l, state.n_colors) == (3, 2)
        assert np.array_equal(state.modes, np.arange(-3, 4))
        # the sizes are read off the array, not fields that could disagree
        with pytest.raises(AttributeError):
            state.mode_cutoff_l = 4

    @pytest.mark.parametrize("shape", [(7,), (1, 1), (4, 2), (7, 0), (3, 1, 1)],
                             ids=["1-d", "l0", "even-rows", "no-colors", "3-d"])
    def test_rejects_a_shape_that_is_not_2l_plus_1_by_n(self, shape):
        coeffs = np.zeros(shape, dtype=complex)
        coeffs.flat[:1] = 1.0
        with pytest.raises(rq.PreconditionError, match="2l\\+1, n"):
            rq.RingState(coeffs)


class TestInitialLocalizedState:
    def test_uniform_coefficients(self):
        color = np.array([0.6, 0.8j])
        state = rq.initial_localized_state(4, color)
        assert state.coeffs.shape == (9, 2)
        expected = color / 3.0
        assert np.max(np.abs(state.coeffs - expected)) < 1e-14

    def test_density_peaks_at_origin(self):
        state = rq.initial_localized_state(20, np.array([1.0]))
        density = rq.position_density(state, 128)
        assert int(np.argmax(density.density)) == 0
        peak_value = (2 * 20 + 1) / TWO_PI
        assert abs(density.density[0] - peak_value) < 1e-10

    def test_rejects_unnormalized_color(self):
        with pytest.raises(rq.PreconditionError, match="norm"):
            rq.initial_localized_state(3, np.array([1.0, 1.0]))


class TestEvolveBlock:
    def test_zero_time_is_identity(self, natural_params):
        rng = np.random.default_rng(41)
        gauge = gauge_from(random_hermitian(rng, 2), natural_params)
        state = rq.initial_localized_state(8, random_state(rng, 2))
        evolved = rq.evolve_block(state, gauge, 0.0)
        assert np.max(np.abs(evolved.coeffs - state.coeffs)) < 1e-12

    def test_revival_at_return_time(self, natural_params):
        gauge = gauge_from(np.zeros((2, 2), dtype=complex), natural_params)
        state = rq.initial_localized_state(12, np.array([0.6, 0.8]))
        evolved = rq.evolve_block(state, gauge, rq.return_time(natural_params))
        # free phases e^{-i 2 pi m^2} are exactly 1: the packet reassembles
        assert np.max(np.abs(evolved.coeffs - state.coeffs)) < 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_norm_conserved(self, seed, natural_params):
        rng = np.random.default_rng(400 + seed)
        n = int(rng.integers(1, 4))
        l = int(rng.integers(1, 20))
        gauge = gauge_from(random_hermitian(rng, n), natural_params)
        state = rq.initial_localized_state(l, random_state(rng, n))
        evolved = rq.evolve_block(state, gauge, rng.uniform(0.0, 20.0))
        assert abs(np.linalg.norm(evolved.coeffs) - 1.0) < 1e-10

    def test_abelian_shift_matches_dense_oracle(self, natural_params):
        # scalar gauge tuned so the packet relocalizes at phi_u = 1.0
        phi_u = 1.0
        a = -phi_u / (2.0 * TWO_PI)  # (q/hbar) 2 pi r a = -phi_u/2
        gauge = gauge_from([[a]])
        l, n_grid = 24, 256
        state = rq.initial_localized_state(l, np.array([1.0]))
        t_r = rq.return_time(natural_params)
        block = rq.evolve_block(state, gauge, t_r)
        dense = rq.evolve_dense(state, gauge, t_r)
        d_block = rq.position_density(block, n_grid)
        d_dense = rq.position_density(dense, n_grid)
        assert int(np.argmax(d_block.density)) == int(np.argmax(d_dense.density))
        nearest = round(phi_u / (TWO_PI / n_grid)) % n_grid
        assert int(np.argmax(d_block.density)) == nearest

    def test_grid_aligned_shift_is_exact_rotation(self, natural_params):
        # pick the relocalization angle on the grid: the evolved density is
        # the initial one rolled by that many bins
        n_grid = 128
        shift_bins = 24
        phi_u = TWO_PI * shift_bins / n_grid
        gauge = gauge_from([[-phi_u / (2.0 * TWO_PI)]])
        l = 20
        state = rq.initial_localized_state(l, np.array([1.0]))
        evolved = rq.evolve_block(state, gauge, rq.return_time(natural_params))
        before = rq.position_density(state, n_grid).density
        after = rq.position_density(evolved, n_grid).density
        assert np.max(np.abs(after - np.roll(before, shift_bins))) < 1e-6

    def test_gauge_squared_term_does_not_move_the_peak(self, natural_params):
        # for an eigencolor the A_phi^2 block term only contributes a global
        # phase; dropping it must leave the relocalization angle unchanged
        lam = 0.07
        gauge = gauge_from(lam * SIGMA_Z)
        l, n_grid = 30, 512
        color = np.array([1.0, 0.0])
        state = rq.initial_localized_state(l, color)
        t_r = rq.return_time(natural_params)
        full = rq.evolve_block(state, gauge, t_r)
        # blocks without the A^2 term, (m^2 - 2 m lam) / 2, on this eigencolor
        modes = np.arange(-l, l + 1)
        stripped_energies = (modes ** 2 - 2.0 * modes * lam) / 2.0
        stripped = rq.RingState(
            np.exp(-1j * stripped_energies * t_r)[:, None] * state.coeffs
        )
        global_phase = np.exp(-1j * lam ** 2 / 2.0 * t_r)
        assert np.max(np.abs(full.coeffs - global_phase * stripped.coeffs)) < 1e-9
        d_full = rq.position_density(full, n_grid)
        d_stripped = rq.position_density(stripped, n_grid)
        assert int(np.argmax(d_full.density)) == int(np.argmax(d_stripped.density))

    def test_incompatible_shapes_rejected(self, natural_params):
        gauge = gauge_from(np.zeros((3, 3)))
        state = rq.initial_localized_state(3, np.array([1.0, 0.0]))
        with pytest.raises(rq.PreconditionError, match="colors"):
            rq.evolve_block(state, gauge, 1.0)
        with pytest.raises(rq.PreconditionError, match="colors"):
            rq.evolve_dense(state, gauge, 1.0)

    @pytest.mark.parametrize("hbar,t", [(1e-300, 1e10), (1e300, 0.0)])
    def test_non_finite_phase_is_refused_without_a_warning(self, hbar, t):
        # t / hbar overflows at hbar = 1e-300; at 1e300 the energies do, and
        # inf * 0 is NaN; numpy warned before the state check named neither
        params = rq.RingPhysicalParams(hbar=hbar)
        gauge = gauge_from(SIGMA_X, params)
        state = rq.initial_localized_state(4, np.array([1.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(rq.PreconditionError, match="E t / hbar is not finite"):
                rq.evolve_block(state, gauge, t)

    def test_makes_no_eigendecomposition(self, natural_params, monkeypatch):
        rng = np.random.default_rng(44)
        gauge = gauge_from(random_hermitian(rng, 3), natural_params)
        state = rq.initial_localized_state(5, random_state(rng, 3))

        def forbidden(*args, **kwargs):
            raise AssertionError("evolve_block called eigh")

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        evolved = rq.evolve_block(state, gauge, 1.3)
        assert abs(np.linalg.norm(evolved.coeffs) - 1.0) < 1e-10


class TestEvolveDense:
    def test_zero_time_is_identity(self, natural_params):
        rng = np.random.default_rng(43)
        gauge = gauge_from(random_hermitian(rng, 2), natural_params)
        state = rq.initial_localized_state(6, random_state(rng, 2))
        evolved = rq.evolve_dense(state, gauge, 0.0)
        assert np.max(np.abs(evolved.coeffs - state.coeffs)) < 1e-12

    def test_matches_block_route_at_contract_dimension(self, natural_params):
        rng = np.random.default_rng(99)
        l = 50  # dimension (2l+1)*2 = 202
        gauge = gauge_from(random_hermitian(rng, 2, scale=0.2), natural_params)
        state = rq.initial_localized_state(l, random_state(rng, 2))
        t_r = rq.return_time(natural_params)
        block = rq.evolve_block(state, gauge, t_r)
        dense = rq.evolve_dense(state, gauge, t_r)
        assert np.max(np.abs(block.coeffs - dense.coeffs)) < 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_block_route_in_physical_units(self, seed):
        rng = np.random.default_rng(950 + seed)
        params = rq.RingPhysicalParams(
            hbar=0.7, charge_q=-1.3, radius_r=1.6, mass_mq=0.45
        )
        n = int(rng.integers(2, 5))
        l = int(rng.integers(5, 21))
        gauge = gauge_from(random_hermitian(rng, n, scale=0.3), params)
        # eigenbasis energies are the spectra of the directly squared blocks
        blocks = _squared_blocks(gauge, l)
        energies = np.sort(gauge.mode_energies(l), axis=1)
        assert np.max(np.abs(energies - np.linalg.eigvalsh(blocks))) < 1e-10
        state = rq.initial_localized_state(l, random_state(rng, n))
        t = float(rng.uniform(0.0, rq.return_time(params)))
        block = rq.evolve_block(state, gauge, t)
        dense = rq.evolve_dense(state, gauge, t)
        assert np.max(np.abs(block.coeffs - dense.coeffs)) < 1e-8

    def test_dimension_guard(self, natural_params, monkeypatch):
        monkeypatch.setattr(linalg_module, "DENSE_DIMENSION_GUARD", 8)
        gauge = gauge_from(np.zeros((2, 2)))
        state = rq.initial_localized_state(5, np.array([1.0, 0.0]))
        with pytest.raises(rq.ResourceLimitError):
            rq.evolve_dense(state, gauge, 1.0)


class TestPositionDensity:
    def test_single_mode_is_flat(self):
        coeffs = np.zeros((11, 1), dtype=complex)
        coeffs[7, 0] = 1.0
        state = rq.RingState(coeffs)
        density = rq.position_density(state, 64)
        assert np.max(np.abs(density.density - 1.0 / TWO_PI)) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_integrates_to_one(self, seed):
        rng = np.random.default_rng(500 + seed)
        l = int(rng.integers(1, 30))
        n = int(rng.integers(1, 4))
        coeffs = rng.standard_normal((2 * l + 1, n)) + 1j * rng.standard_normal((2 * l + 1, n))
        coeffs /= np.linalg.norm(coeffs)
        state = rq.RingState(coeffs)
        n_grid = int(rng.integers(2 * l + 1, 4 * l + 64))
        density = rq.position_density(state, n_grid)
        integral = density.density.sum() * TWO_PI / n_grid
        assert abs(integral - 1.0) < 1e-10

    def test_peak_memory_stays_below_one_per_color_table(self):
        import tracemalloc

        rng = np.random.default_rng(10)
        l, n_grid, n = 1000, 65536, 32
        gauge = gauge_from(random_hermitian(rng, n))
        state = rq.evolve_block(rq.initial_localized_state(l, random_state(rng, n)),
                                gauge, 1.0)
        tracemalloc.start()
        try:
            density = rq.position_density(state, n_grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the density and its grid plus blocks of a few colors; an (N, n)
        # float table of the colors alone is 16 MiB here
        assert peak < 16 * 2 ** 20

    def test_owned_read_only_density_is_kept_writeable_one_copied(self):
        phi = TWO_PI * np.arange(4) / 4
        frozen = np.full(4, 1.0 / TWO_PI)
        frozen.setflags(write=False)
        assert rq.PositionDensity(phi, frozen).density is frozen
        writeable = np.full(4, 1.0 / TWO_PI)
        kept = rq.PositionDensity(phi, writeable).density
        assert kept is not writeable and not kept.flags.writeable
        writeable[0] = 0.0
        assert kept[0] == 1.0 / TWO_PI

    @pytest.mark.parametrize("n_grid", [64, 1000, 77, 3001])
    def test_matches_a_dense_sum_over_modes(self, n_grid):
        # colors run in blocks of four, so n = 9 ends on a partial block
        rng = np.random.default_rng(13)
        l, n = 10, 9
        coeffs = rng.standard_normal((2 * l + 1, n)) + 1j * rng.standard_normal((2 * l + 1, n))
        coeffs /= np.linalg.norm(coeffs)
        state = rq.RingState(coeffs)
        phi = TWO_PI * np.arange(n_grid) / n_grid
        psi = np.exp(1j * np.outer(phi, state.modes)) @ coeffs
        expected = np.abs(psi) ** 2 / TWO_PI
        density = rq.position_density(state, n_grid)
        assert np.max(np.abs(density.density - expected.sum(axis=1))) < 1e-13

    def test_too_coarse_grid_rejected(self):
        state = rq.initial_localized_state(10, np.array([1.0]))
        with pytest.raises(rq.ResolutionError, match="N >= 2l\\+1"):
            rq.position_density(state, 20)

    @pytest.mark.parametrize("l", [0, -2])
    def test_cutoff_below_one_rejected(self, l):
        with pytest.raises(rq.PreconditionError, match="mode cutoff must be >= 1"):
            ring_module.require_ring_grid(l, 64)

    def test_grid_above_the_memory_guard_is_refused(self):
        # a 4-color block of padded spectrum, transform and two squares, 192
        # bytes a point, and the density and its grid, 16: the guard admits
        # about 1.29 M points, ring-wide's 65536 with room to spare
        ring_module.require_ring_grid(50, 1_290_555)
        with pytest.raises(rq.ResourceLimitError, match="guard"):
            ring_module.require_ring_grid(50, 1_290_556)

    def test_oversized_grid_is_refused_before_allocating(self, monkeypatch):
        # 2^40 points used to die in np.zeros with numpy's memory error; a
        # few 2^30 could be granted and then killed
        state = rq.initial_localized_state(10, np.array([1.0]))

        def forbidden(*args, **kwargs):
            raise AssertionError("density allocated before the guard")

        monkeypatch.setattr(np, "zeros", forbidden)
        monkeypatch.setattr(np, "empty", forbidden)
        with pytest.raises(rq.ResourceLimitError, match="guard"):
            rq.position_density(state, 2 ** 40)

    def test_nan_density_rejected(self):
        phi = TWO_PI * np.arange(4) / 4
        d = np.full(4, np.nan)
        with pytest.raises(rq.PreconditionError, match="integrates"):
            rq.PositionDensity(phi, d)

    def test_first_zero_at_kernel_width(self):
        l, n_grid = 16, 330  # grid multiple of 2l+1: zeros land on grid points
        state = rq.initial_localized_state(l, np.array([1.0]))
        density = rq.position_density(state, n_grid)
        zero_bin = n_grid // (2 * l + 1)
        assert density.density[zero_bin] < 1e-10


def spike_density(n_grid, spikes):
    """Artificial normalized density with given (bin, mass) spikes."""
    d = np.zeros(n_grid)
    total = sum(mass for _, mass in spikes)
    for j, mass in spikes:
        d[j] = mass / total * n_grid / TWO_PI
    phi = TWO_PI * np.arange(n_grid) / n_grid
    return rq.PositionDensity(phi, d)


def extract_peaks_by_full_sort(density, max_peaks, window):
    """extract_peaks as it was written first: every bin sorted by height.

    The reference for the candidate sort; the window refinement is the same.
    """
    d = density.density
    n_bins = d.size
    half = (window - 1) // 2
    bin_width = TWO_PI / n_bins
    is_max = (d > np.roll(d, 1)) & (d >= np.roll(d, -1))
    accepted = []
    for j in np.argsort(-d, kind="stable"):
        if not is_max[j]:
            continue
        if all(min(abs(j - a), n_bins - abs(j - a)) >= window for a in accepted):
            accepted.append(int(j))
            if len(accepted) == max_peaks:
                break
    peaks = []
    for j in accepted:
        idx = (j + np.arange(-half, half + 1)) % n_bins
        mass = float(d[idx].sum())
        if mass <= 0.0:
            phi, width = float(density.phi_grid[j]), 0.0
        else:
            z = np.sum(d[idx] * np.exp(1j * density.phi_grid[idx]))
            phi = float(rq.wrap_to_unit(np.angle(z)))
            dev = rq.wrap_to_signed(density.phi_grid[idx] - phi)
            width = float(math.sqrt(np.sum(d[idx] * dev ** 2) / mass))
        peaks.append(rq.Peak(phi, min(mass * bin_width, 1.0 + 1e-9), width))
    peaks.sort(key=lambda p: (-p.weight, p.phi))
    return rq.PeakSet(tuple(peaks), bin_width)


def quantized_density(levels):
    """Normalized density proportional to small integers: ties everywhere."""
    d = np.asarray(levels, dtype=float)
    d *= d.size / (TWO_PI * d.sum())
    phi = TWO_PI * np.arange(d.size) / d.size
    return rq.PositionDensity(phi, d)


class TestExtractPeaks:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("max_peaks,window", [(1, 1), (3, 5), (8, 3), (64, 7)])
    def test_matches_the_full_sort(self, seed, max_peaks, window):
        # plateaus, equal maxima and maxima across the seam at bin 0
        rng = np.random.default_rng(600 + seed)
        levels = rng.integers(0, 4, size=97)
        levels[10:14] = 5  # a plateau at the top height
        levels[40] = levels[70] = levels[0] = levels[-1] = 5
        density = quantized_density(levels)
        assert rq.extract_peaks(density, max_peaks, window) \
            == extract_peaks_by_full_sort(density, max_peaks, window)

    def test_single_spike_carries_unit_weight(self):
        density = spike_density(64, [(10, 1.0)])
        peaks = rq.extract_peaks(density, max_peaks=3, window=5)
        assert len(peaks) >= 1
        top = peaks.dominant
        assert abs(top.phi - TWO_PI * 10 / 64) < 1e-9
        assert abs(top.weight - 1.0) < 1e-9

    def test_two_spikes_sorted_by_weight(self):
        density = spike_density(64, [(8, 0.3), (40, 0.7)])
        peaks = rq.extract_peaks(density, max_peaks=2, window=5)
        assert len(peaks) == 2
        assert abs(peaks.peaks[0].phi - TWO_PI * 40 / 64) < 1e-9
        assert abs(peaks.peaks[0].weight - 0.7) < 1e-9
        assert abs(peaks.peaks[1].weight - 0.3) < 1e-9

    def test_flat_density_yields_only_trivial_weights(self):
        n_grid = 64
        phi = TWO_PI * np.arange(n_grid) / n_grid
        d = np.full(n_grid, 1.0 / TWO_PI)
        density = rq.PositionDensity(phi, d)
        peaks = rq.extract_peaks(density, max_peaks=4, window=5)
        assert all(p.weight <= 2.0 * 5 / n_grid + 1e-12 for p in peaks)

    def test_minimum_separation_enforced(self):
        # the secondary spike inside the exclusion zone must be absorbed
        density = spike_density(64, [(10, 0.6), (12, 0.4)])
        peaks = rq.extract_peaks(density, max_peaks=2, window=7)
        assert len(peaks) == 1

    def test_weight_sum_bounded(self, sigma_z_problem, natural_params):
        gauge = rq.encode_as_gauge(sigma_z_problem, natural_params)
        peaks = rq.estimate_phase_via_ring(
            gauge, sigma_z_problem.state, 50, 512
        )
        assert sum(p.weight for p in peaks) <= 1.0 + 1e-6

    def test_bad_window_rejected(self):
        density = spike_density(32, [(4, 1.0)])
        with pytest.raises(rq.PreconditionError):
            rq.extract_peaks(density, max_peaks=1, window=4)
        with pytest.raises(rq.PreconditionError):
            rq.extract_peaks(density, max_peaks=0, window=5)


class TestEstimatePhaseViaRing:
    def test_zero_gauge_relocalizes_at_origin(self, natural_params):
        gauge = gauge_from(np.zeros((2, 2), dtype=complex), natural_params)
        peaks = rq.estimate_phase_via_ring(
            gauge, np.array([1.0, 0.0]), 40, 256
        )
        assert rq.circular_distance(peaks.dominant.phi, 0.0) < TWO_PI / 256
        assert peaks.dominant.weight > 0.9

    def test_two_level_ground_state_read_out(self, sigma_x_problem, natural_params):
        gauge = rq.encode_as_gauge(sigma_x_problem, natural_params)
        peaks = rq.estimate_phase_via_ring(
            gauge, sigma_x_problem.state, 50, 512
        )
        expected = TWO_PI - 2.0
        assert abs(peaks.dominant.phi - expected) < TWO_PI / 512
        assert peaks.dominant.weight > 0.9

    def test_superposition_weights_track_overlaps(self, sigma_z_problem, natural_params):
        gauge = rq.encode_as_gauge(sigma_z_problem, natural_params)
        peaks = rq.estimate_phase_via_ring(
            gauge, sigma_z_problem.state, 50, 512
        )
        assert len(peaks) == 2
        first, second = peaks.peaks
        assert abs(first.weight - 0.8) < 0.02
        assert abs(second.weight - 0.2) < 0.02
        assert rq.circular_distance(first.phi, 2.0) < 2 * TWO_PI / 512
        assert rq.circular_distance(second.phi, TWO_PI - 2.0) < 2 * TWO_PI / 512

    @pytest.mark.parametrize("seed", range(8))
    def test_eigencolor_lands_at_predicted_angle(self, seed, natural_params):
        rng = np.random.default_rng(700 + seed)
        n = int(rng.integers(1, 5))
        gauge = gauge_from(random_hermitian(rng, n, scale=0.1), natural_params)
        lam, vec = gauge.eigenvalues, gauge.eigenvectors
        pick = int(rng.integers(0, n))
        color = vec[:, pick]
        l = 60
        peaks = rq.estimate_phase_via_ring(gauge, color, l, 512)
        # two laps by t_R: the eigencolor lands at -2 * 2 pi r (q / hbar) lam
        p = gauge.params
        predicted = rq.wrap_to_unit(
            -2.0 * TWO_PI * p.radius_r * (p.charge_q / p.hbar) * float(lam[pick])
        )
        assert rq.circular_distance(peaks.dominant.phi, predicted) < TWO_PI / (2 * l + 1)
        assert peaks.dominant.weight > 0.9

    def test_non_natural_units_same_read_out(self, sigma_x_problem):
        params = rq.RingPhysicalParams(hbar=3.0, charge_q=-0.5, radius_r=2.0, mass_mq=0.7)
        gauge = rq.encode_as_gauge(sigma_x_problem, params)
        peaks = rq.estimate_phase_via_ring(
            gauge, sigma_x_problem.state, 50, 512
        )
        assert abs(peaks.dominant.phi - (TWO_PI - 2.0)) < TWO_PI / 512

    def test_resolution_check(self, sigma_x_problem, natural_params, monkeypatch):
        gauge = rq.encode_as_gauge(sigma_x_problem, natural_params)

        def forbidden(*args, **kwargs):
            raise AssertionError("evolved before the grid check")

        # a coarse grid is refused before the state evolves
        monkeypatch.setattr(ring_module, "evolve_block", forbidden)
        with pytest.raises(rq.ResolutionError, match="N >= 2l\\+1"):
            rq.estimate_phase_via_ring(gauge, sigma_x_problem.state, 50, 64)


class TestDefaultPeakWindow:
    def test_odd_and_resolution_scaled(self):
        w = default_peak_window(50, 512)
        assert w % 2 == 1
        assert w >= 2 * math.ceil(8 * 512 / 101)  # covers +-8 kernel lobes

    def test_capped_on_tiny_grids(self):
        w = default_peak_window(3, 16)
        assert w % 2 == 1
        assert w <= 8


class TestGoldenDensity:
    def test_evolved_density_matches_frozen_reference(
        self, sigma_x_problem, natural_params, tmp_path
    ):
        gauge = rq.encode_as_gauge(sigma_x_problem, natural_params)
        state = rq.initial_localized_state(50, sigma_x_problem.state)
        evolved = rq.evolve_block(state, gauge, rq.return_time(natural_params))
        density = rq.position_density(evolved, 512)

        import os
        golden_path = os.path.join(
            os.path.dirname(__file__), "golden", "evolved_density.csv"
        )
        header, golden = read_csv(golden_path)
        assert header == ["phi", "density", "density_color_0", "density_color_1"]
        assert len(golden) == density.grid_size_N
        assert np.max(np.abs(golden[:, 1] - density.density)) < 1e-6


class TestSerialization:
    def test_density_csv_round_trip(self, tmp_path):
        state = rq.initial_localized_state(9, np.array([0.6, 0.8j]))
        density = rq.position_density(state, 64)
        path = tmp_path / "density.csv"
        write_density_csv(density, path)
        header, back = read_csv(path)
        assert header == ["phi", "density"]
        assert np.array_equal(back[:, 0], density.phi_grid)
        assert np.array_equal(back[:, 1], density.density)

    def test_peak_set_json_round_trip(self):
        peaks = rq.PeakSet(
            (rq.Peak(1.5, 0.75, 0.01), rq.Peak(4.0, 0.25, 0.02)), 0.01
        )
        obj = json.loads(json.dumps(peak_set_to_json(peaks)))
        back = rq.PeakSet(
            tuple(rq.Peak(p["phi"], p["weight"], p["width"]) for p in obj["peaks"]),
            obj["resolution"],
        )
        assert back.peaks == peaks.peaks
        assert back.resolution == peaks.resolution

    def test_peak_set_rejects_overweight(self):
        with pytest.raises(rq.PreconditionError):
            rq.PeakSet((rq.Peak(1.0, 0.8, 0.0), rq.Peak(2.0, 0.4, 0.0)), 0.1)
