"""Ring dynamics: mode energies, revival, relocalization, peaks."""

import math

import numpy as np
import pytest

import ringqpe as rq
import ringqpe.ring as ring_module
from ringqpe.ring import (
    _squared_blocks,
    default_peak_window,
    eigenvalue_to_peak_phase,
    peak_set_from_json,
    peak_set_to_json,
    read_density_csv,
    write_density_csv,
)

from conftest import SIGMA_X, SIGMA_Z, gauge_from, random_hermitian, random_state

TWO_PI = 2.0 * np.pi


class TestReturnTime:
    def test_natural_units(self, natural_params):
        assert abs(rq.return_time(natural_params) - 4.0 * np.pi) < 1e-12

    def test_parameter_scaling(self):
        params = rq.RingPhysicalParams(hbar=2.0, charge_q=1.0, radius_r=3.0, mass_mq=5.0)
        assert abs(rq.return_time(params) - 4.0 * np.pi * 5.0 * 9.0 / 2.0) < 1e-12


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
            l, 2, np.exp(-1j * stripped_energies * t_r)[:, None] * state.coeffs
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

    def test_dimension_guard(self, natural_params):
        gauge = gauge_from(np.zeros((2, 2)))
        state = rq.initial_localized_state(5, np.array([1.0, 0.0]))
        with pytest.raises(rq.ResourceLimitError):
            rq.evolve_dense(state, gauge, 1.0, max_dim=8)


class TestPositionDensity:
    def test_single_mode_is_flat(self):
        coeffs = np.zeros((11, 1), dtype=complex)
        coeffs[7, 0] = 1.0
        state = rq.RingState(5, 1, coeffs)
        density = rq.position_density(state, 64)
        assert np.max(np.abs(density.density - 1.0 / TWO_PI)) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_integrates_to_one(self, seed):
        rng = np.random.default_rng(500 + seed)
        l = int(rng.integers(1, 30))
        n = int(rng.integers(1, 4))
        coeffs = rng.standard_normal((2 * l + 1, n)) + 1j * rng.standard_normal((2 * l + 1, n))
        coeffs /= np.linalg.norm(coeffs)
        state = rq.RingState(l, n, coeffs)
        n_grid = int(rng.integers(2 * l + 1, 4 * l + 64))
        density = rq.position_density(state, n_grid)
        integral = density.density.sum() * TWO_PI / n_grid
        assert abs(integral - 1.0) < 1e-10

    def test_per_color_sums_to_total(self):
        rng = np.random.default_rng(8)
        coeffs = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
        coeffs /= np.linalg.norm(coeffs)
        state = rq.RingState(3, 3, coeffs)
        density = rq.position_density(state, 32)
        assert np.max(np.abs(density.per_color.sum(axis=1) - density.density)) < 1e-12

    def test_too_coarse_grid_rejected(self):
        state = rq.initial_localized_state(10, np.array([1.0]))
        with pytest.raises(rq.ResolutionError, match="N >= 2l\\+1"):
            rq.position_density(state, 20)

    def test_nan_density_rejected(self):
        phi = TWO_PI * np.arange(4) / 4
        d = np.full(4, np.nan)
        with pytest.raises(rq.PreconditionError, match="integrates"):
            rq.PositionDensity(phi, d, d[:, None])

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
    return rq.PositionDensity(phi, d, d[:, None])


class TestExtractPeaks:
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
        density = rq.PositionDensity(phi, d, d[:, None])
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
        predicted = eigenvalue_to_peak_phase(gauge, float(lam[pick]))
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
        golden = read_density_csv(golden_path)
        assert golden.grid_size_N == density.grid_size_N
        assert np.max(np.abs(golden.density - density.density)) < 1e-6
        assert np.max(np.abs(golden.per_color - density.per_color)) < 1e-6


class TestSerialization:
    def test_density_csv_round_trip(self, tmp_path):
        state = rq.initial_localized_state(9, np.array([0.6, 0.8j]))
        density = rq.position_density(state, 64)
        path = tmp_path / "density.csv"
        write_density_csv(density, path)
        back = read_density_csv(path)
        assert np.array_equal(back.phi_grid, density.phi_grid)
        assert np.array_equal(back.density, density.density)
        assert np.array_equal(back.per_color, density.per_color)

    def test_peak_set_json_round_trip(self):
        peaks = rq.PeakSet(
            (rq.Peak(1.5, 0.75, 0.01), rq.Peak(4.0, 0.25, 0.02)), 0.01
        )
        back = peak_set_from_json(peak_set_to_json(peaks))
        assert back.peaks == peaks.peaks
        assert back.resolution == peaks.resolution

    def test_peak_set_rejects_overweight(self):
        with pytest.raises(rq.PreconditionError):
            rq.PeakSet((rq.Peak(1.0, 0.8, 0.0), rq.Peak(2.0, 0.4, 0.0)), 0.1)
