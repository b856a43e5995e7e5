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
    _mode_blocks,
    peak_set_to_json,
    write_density_csv,
)

from conftest import (
    SIGMA_X,
    SIGMA_Z,
    eigenbasis_evolve,
    forbid_spectra,
    holonomy,
    random_hermitian,
    random_state,
    random_unitary,
    read_csv,
)

TWO_PI = 2.0 * np.pi


class TestReturnTime:
    def test_natural_units(self):
        assert abs(rq.RETURN_TIME - 4.0 * np.pi) < 1e-12


class TestBuildHamiltonian:
    """Mode blocks H'_m = m (m / 2 - A_phi), as the dense oracle forms
    them: (m I - A_phi)^2 / 2 less its color-only A_phi^2 / 2."""

    def test_free_spectrum_without_gauge(self):
        gauge = rq.GaugeField(np.zeros((1, 1), dtype=complex))
        blocks = _mode_blocks(gauge, 3)
        for row, m in enumerate(range(-3, 4)):
            expected = m * m / 2.0
            assert abs(blocks[row, 0, 0] - expected) < 1e-12

    def test_symbolic_expansion_single_mode(self):
        a = 0.3 * SIGMA_X
        gauge = rq.GaugeField(a)
        blocks = _mode_blocks(gauge, 1)
        m = 1
        expected = (np.eye(2) * (m * m) - 2.0 * m * a) / 2.0
        row = m + 1  # rows ordered -l..l
        assert np.max(np.abs(blocks[row] - expected)) < 1e-12
        # the full block differs by the color-only A^2 / 2 alone
        full = (m * np.eye(2) - a) @ (m * np.eye(2) - a) / 2.0
        assert np.max(np.abs(full - blocks[row] - a @ a / 2.0)) < 1e-12

    def test_blocks_hermitian_and_counted(self):
        rng = np.random.default_rng(7)
        gauge = rq.GaugeField(random_hermitian(rng, 3))
        blocks = _mode_blocks(gauge, 5)
        assert blocks.shape == (11, 3, 3)
        stack_dagger = np.conj(np.transpose(blocks, (0, 2, 1)))
        assert np.max(np.abs(blocks - stack_dagger)) < 1e-12

    def test_cross_term_breaks_mode_reflection(self):
        # H_{-m} differs from H_{+m} exactly by the sign of the linear term
        a = 0.2 * SIGMA_Z
        blocks = _mode_blocks(rq.GaugeField(a), 2)
        for m in (1, 2):
            assert np.max(np.abs(blocks[2 + m] - blocks[2 - m] + 2.0 * m * a)) < 1e-12

    def test_rejects_bad_cutoff(self):
        gauge = rq.GaugeField(np.zeros((1, 1)))
        with pytest.raises(rq.PreconditionError, match="mode cutoff must be >= 1"):
            rq.evolve_block(gauge, np.array([1.0]), 0, 1.0)


class TestGaugeField:
    def test_built_from_its_basis_without_eigh(self, monkeypatch):
        # the matrix V diag(lam) V^dagger is all the field keeps
        v = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)

        def forbidden(*args, **kwargs):
            raise AssertionError("GaugeField called eigh")

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        gauge = rq.GaugeField((v * [-0.1, 0.3]) @ v.T)
        assert gauge.n_colors == 2
        assert np.max(np.abs(gauge.a_phi - (0.1 * np.eye(2) - 0.2 * SIGMA_X))) < 1e-15
        assert gauge.a_phi.dtype == np.complex128
        assert not gauge.a_phi.flags.writeable

    def test_a_phi_is_derived_and_read_only(self):
        # derived from the caller's matrix as a read-only copy of it
        a = 0.3 * SIGMA_X
        gauge = rq.GaugeField(a)
        assert np.array_equal(gauge.a_phi, a) and gauge.a_phi is not a
        a[0, 1] = 1.0
        assert gauge.a_phi[0, 1] == 0.3
        with pytest.raises(ValueError):
            gauge.a_phi[0, 1] = 1.0
        with pytest.raises(AttributeError):
            gauge.a_phi = np.zeros((2, 2))

    # require_hermitian's own cases live in tests/test_linalg.py
    @pytest.mark.parametrize("a,message", [
        ([[0.1, 1e-3], [0.0, 0.2]], "not Hermitian"),
        ([[np.inf, 0.0], [0.0, 0.2]], "finite"),
        ([[0.1, 0.0]], "square"),
    ], ids=["asymmetric", "non-finite", "non-square"])
    def test_rejects_a_matrix_that_is_not_hermitian(self, a, message):
        with pytest.raises(rq.PreconditionError, match=message):
            rq.GaugeField(np.asarray(a))


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
        # the sizes are read off the array, not fields that could disagree
        with pytest.raises(AttributeError):
            state.mode_cutoff_l = 4

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficients_fail_the_norm_check(self, bad):
        # one check: a NaN or infinite entry makes the norm NaN or inf
        coeffs = np.ones((3, 1), dtype=complex) / math.sqrt(3.0)
        coeffs[1, 0] = bad
        with pytest.raises(rq.PreconditionError, match="state norm (nan|inf)"):
            rq.RingState(coeffs)

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

    @pytest.mark.parametrize("l", [0, -1])
    def test_rejects_a_cutoff_below_one(self, l):
        # -1 died in math.sqrt with a bare "math domain error"
        with pytest.raises(rq.PreconditionError, match="mode cutoff must be >= 1"):
            rq.initial_localized_state(l, np.array([1.0]))


class TestEvolveBlock:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(41)
        gauge = rq.GaugeField(random_hermitian(rng, 2))
        color = random_state(rng, 2)
        evolved = rq.evolve_block(gauge, color, 8, 0.0)
        packet = rq.initial_localized_state(8, color)
        assert np.max(np.abs(evolved.coeffs - packet.coeffs)) < 1e-12

    def test_revival_at_return_time(self):
        gauge = rq.GaugeField(np.zeros((2, 2), dtype=complex))
        color = np.array([0.6, 0.8])
        evolved = rq.evolve_block(gauge, color, 12, rq.RETURN_TIME)
        # free phases e^{-i 2 pi m^2} are exactly 1: the packet reassembles
        packet = rq.initial_localized_state(12, color)
        assert np.max(np.abs(evolved.coeffs - packet.coeffs)) < 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_norm_conserved(self, seed):
        rng = np.random.default_rng(400 + seed)
        n = int(rng.integers(1, 4))
        l = int(rng.integers(1, 20))
        gauge = rq.GaugeField(random_hermitian(rng, n))
        evolved = rq.evolve_block(gauge, random_state(rng, n), l,
                                  rng.uniform(0.0, 20.0))
        assert abs(np.linalg.norm(evolved.coeffs) - 1.0) < 1e-10

    # (32, 1000) is ring-wide's shape; at (4, 20000) the dense route's
    # 160004-dimensional matrix is far past its guard
    @pytest.mark.parametrize("n,l,atol", [(32, 1000, 1e-10), (4, 20000, 1e-8)],
                             ids=["n32-l1000", "n4-l20000"])
    def test_matches_the_eigenbasis_formula(self, n, l, atol):
        # the rounding of the free phase t m^2 / 2 at the top mode, about
        # 2 pi l^2 eps rad times a coefficient of 1/sqrt(2l+1), sets atol
        rng = np.random.default_rng([1800, n])
        spec = rq.UnitarySpec(random_unitary(rng, n), random_state(rng, n))
        gauge = rq.encode_as_gauge(spec)
        for t in rng.uniform(0.0, 2.0 * rq.RETURN_TIME, 3):
            got = rq.evolve_block(gauge, spec.state, l, t).coeffs
            want = eigenbasis_evolve(gauge.a_phi, spec.state, l, t)
            assert np.max(np.abs(got - want)) < atol, f"t = {t}"

    @pytest.mark.parametrize("n,l", [(3, 40), (8, 200), (32, 1000)])
    def test_density_is_that_of_the_full_blocks(self, n, l):
        # evolve_block leaves out the color-only A^2 / 2 of (m - A)^2 / 2,
        # which moves no density: against the full blocks in A's eigenbasis
        # the two differ only by the rounding of a top-mode phase of about
        # 2 pi f l^2 at t = f t_R, f <= 2.71, once in each. Relative to the
        # peak the worst was 0.96 (n = 3), 0.80 and 0.61 times 2 pi l^2 eps
        # over five seeds; the bound is twice that
        bound = 4.0 * np.pi * l * l * np.finfo(float).eps
        n_grid = 1 << (4 * l).bit_length()
        modes = np.arange(-l, l + 1)[:, None]
        for seed in range(3):
            rng = np.random.default_rng([3400, n, seed])
            spec = rq.UnitarySpec(random_unitary(rng, n), random_state(rng, n))
            gauge = rq.encode_as_gauge(spec)
            lam, v = np.linalg.eigh(gauge.a_phi)
            for f in (0.0, 0.37, 0.5, 1.0, 2.71):
                t = f * rq.RETURN_TIME
                full = (np.exp(-1j * (modes - lam) ** 2 / 2.0 * t)
                        * (v.conj().T @ spec.state)) @ v.T / math.sqrt(2 * l + 1)
                want = rq.position_density(rq.RingState(full), n_grid).density
                got = rq.position_density(
                    rq.evolve_block(gauge, spec.state, l, t), n_grid).density
                assert np.max(np.abs(got - want)) < bound * np.max(want), \
                    f"seed {seed}, t = {f} t_R"

    def test_one_exponential_of_the_field_itself(self, monkeypatch):
        # W = exp(i t A) is the only exponential: no A^2 is formed, so the
        # count is W's and the 2l row products, and nothing else
        rng = np.random.default_rng(46)
        n, l, t = 3, 7, 1.3
        gauge = rq.GaugeField(random_hermitian(rng, n))
        calls, exponential = [], ring_module.unitary_exp

        def recording(a, time):
            calls.append((a, time))
            return exponential(a, time)

        monkeypatch.setattr(ring_module, "unitary_exp", recording)
        with rq.count_macs() as total:
            rq.evolve_block(gauge, random_state(rng, n), l, t)
        assert len(calls) == 1
        assert calls[0][0] is gauge.a_phi and calls[0][1] == t
        with rq.count_macs() as alone:
            exponential(gauge.a_phi, t)
        assert total.total == alone.total + 2 * l * n * n

    def test_abelian_shift_matches_dense_oracle(self):
        # scalar gauge tuned so the packet relocalizes at phi_u = 1.0
        phi_u = 1.0
        a = -phi_u / (2.0 * TWO_PI)  # 2 pi a = -phi_u/2
        gauge = rq.GaugeField([[a]])
        l, n_grid = 24, 256
        color = np.array([1.0])
        t_r = rq.RETURN_TIME
        block = rq.evolve_block(gauge, color, l, t_r)
        dense = rq.evolve_dense(gauge, color, l, t_r)
        d_block = rq.position_density(block, n_grid)
        d_dense = rq.position_density(dense, n_grid)
        assert int(np.argmax(d_block.density)) == int(np.argmax(d_dense.density))
        nearest = round(phi_u / (TWO_PI / n_grid)) % n_grid
        assert int(np.argmax(d_block.density)) == nearest

    def test_grid_aligned_shift_is_exact_rotation(self):
        # pick the relocalization angle on the grid: the evolved density is
        # the initial one rolled by that many bins
        n_grid = 128
        shift_bins = 24
        phi_u = TWO_PI * shift_bins / n_grid
        gauge = rq.GaugeField([[-phi_u / (2.0 * TWO_PI)]])
        l = 20
        color = np.array([1.0])
        evolved = rq.evolve_block(gauge, color, l, rq.RETURN_TIME)
        packet = rq.initial_localized_state(l, color)
        before = rq.position_density(packet, n_grid).density
        after = rq.position_density(evolved, n_grid).density
        assert np.max(np.abs(after - np.roll(before, shift_bins))) < 1e-6

    def test_gauge_squared_term_does_not_move_the_peak(self):
        # for an eigencolor the A_phi^2 block term only contributes a global
        # phase: the full blocks (m - lam)^2 / 2 give evolve_block's state,
        # which leaves that term out, times G = e^{-i lam^2 t / 2}
        lam = 0.07
        gauge = rq.GaugeField(lam * SIGMA_Z)
        l, n_grid = 30, 512
        color = np.array([1.0, 0.0])
        packet = rq.initial_localized_state(l, color)
        t_r = rq.RETURN_TIME
        stripped = rq.evolve_block(gauge, color, l, t_r)
        modes = np.arange(-l, l + 1)
        full = rq.RingState(
            np.exp(-1j * (modes - lam) ** 2 / 2.0 * t_r)[:, None] * packet.coeffs
        )
        global_phase = np.exp(-1j * lam ** 2 / 2.0 * t_r)
        assert np.max(np.abs(full.coeffs - global_phase * stripped.coeffs)) < 1e-9
        d_full = rq.position_density(full, n_grid)
        d_stripped = rq.position_density(stripped, n_grid)
        assert int(np.argmax(d_full.density)) == int(np.argmax(d_stripped.density))

    def test_incompatible_shapes_rejected(self):
        gauge = rq.GaugeField(np.zeros((3, 3)))
        color = np.array([1.0, 0.0])
        message = "color dimension 2 does not match gauge field dimension 3"
        with pytest.raises(rq.PreconditionError, match=message):
            rq.evolve_block(gauge, color, 3, 1.0)
        with pytest.raises(rq.PreconditionError, match=message):
            rq.evolve_dense(gauge, color, 3, 1.0)

    @pytest.mark.parametrize("scale,t", [(1.0, 1e308), (1e300, 0.0), (1.0, -1e308)])
    def test_non_finite_phase_is_refused_without_a_warning(self, scale, t):
        # E t overflows at |t| = 1e308; at a gauge of 1e300 the energies do,
        # and inf * 0 is NaN; numpy warned before the state check named neither
        gauge = rq.GaugeField(scale * SIGMA_X)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(rq.PreconditionError, match="E t is not finite"):
                rq.evolve_block(gauge, np.array([1.0, 0.0]), 4, t)

    def test_phase_bound_is_the_cutoff_plus_the_gauge_one_norm(self):
        # (l + ||A_phi||_1)^2 |t| / 2 is 6.05e305 at t = 1e302, and past
        # the largest float at |t| = 1e305
        gauge = rq.GaugeField(10.0 * SIGMA_X)
        ring_module.require_finite_phase(gauge, 100, 1e302)
        with pytest.raises(rq.PreconditionError,
                           match="phase E t is not finite at t = -1e\\+305"):
            ring_module.require_finite_phase(gauge, 100, -1e305)
        with pytest.raises(rq.PreconditionError, match="time nan is not finite"):
            ring_module.require_finite_phase(gauge, 100, float("nan"))

    def test_norm_survives_a_late_snapshot(self):
        # W from plain Pade squarings left the unitary group by about 2^s
        # eps; at t = 1e6 its 1000th power moved the norm by 4.5e-9, past
        # RingState's 1e-10, and by 1e20 its squarings overflowed
        rng = np.random.default_rng(45)
        spec = rq.UnitarySpec(random_unitary(rng, 32), random_state(rng, 32))
        gauge = rq.encode_as_gauge(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (1e6, 1e12, 1e250):
                evolved = rq.evolve_block(gauge, spec.state, 1000, t)
                assert abs(np.linalg.norm(evolved.coeffs) - 1.0) < 1e-10

    def test_makes_no_eigendecomposition(self, monkeypatch):
        rng = np.random.default_rng(44)
        gauge = rq.GaugeField(random_hermitian(rng, 3))
        color = random_state(rng, 3)

        def forbidden(*args, **kwargs):
            raise AssertionError("evolve_block decomposed a matrix")

        for name in ("eigh", "eig", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        evolved = rq.evolve_block(gauge, color, 5, 1.3)
        assert abs(np.linalg.norm(evolved.coeffs) - 1.0) < 1e-10

    def test_state_is_kept_without_a_copy(self):
        import tracemalloc

        rng = np.random.default_rng(45)
        gauge = rq.GaugeField(random_hermitian(rng, 8))
        color = random_state(rng, 8)
        tracemalloc.start()
        try:
            evolved = rq.evolve_block(gauge, color, 4000, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the rows and their free phases; a copy of the rows would double it
        assert peak < 1.5 * evolved.coeffs.nbytes


class TestEvolveDense:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(43)
        gauge = rq.GaugeField(random_hermitian(rng, 2))
        color = random_state(rng, 2)
        evolved = rq.evolve_dense(gauge, color, 6, 0.0)
        packet = rq.initial_localized_state(6, color)
        assert np.max(np.abs(evolved.coeffs - packet.coeffs)) < 1e-12

    def test_matches_block_route_at_contract_dimension(self):
        rng = np.random.default_rng(99)
        l = 50  # dimension (2l+1)*2 = 202
        gauge = rq.GaugeField(random_hermitian(rng, 2, scale=0.2))
        color = random_state(rng, 2)
        t_r = rq.RETURN_TIME
        block = rq.evolve_block(gauge, color, l, t_r)
        dense = rq.evolve_dense(gauge, color, l, t_r)
        assert np.max(np.abs(block.coeffs - dense.coeffs)) < 1e-8

    def test_dimension_guard(self, monkeypatch):
        monkeypatch.setattr(linalg_module, "DENSE_DIMENSION_GUARD", 8)
        gauge = rq.GaugeField(np.zeros((2, 2)))
        with pytest.raises(rq.ResourceLimitError):
            rq.evolve_dense(gauge, np.array([1.0, 0.0]), 5, 1.0)


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
        gauge = rq.GaugeField(random_hermitian(rng, n))
        state = rq.evolve_block(gauge, random_state(rng, n), l, 1.0)
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
        frozen = np.full(4, 1.0 / TWO_PI)
        frozen.setflags(write=False)
        assert rq.PositionDensity(frozen).density is frozen
        writeable = np.full(4, 1.0 / TWO_PI)
        kept = rq.PositionDensity(writeable).density
        assert kept is not writeable and not kept.flags.writeable
        writeable[0] = 0.0
        assert kept[0] == 1.0 / TWO_PI

    # the density is computed on L = min(N, 2^k >= 4l+1) points: L = N from
    # N = 2l+1 up to that power of two, and a resample from L < N points above
    @pytest.mark.parametrize("l,n_grid", [
        pytest.param(l, n_grid, id=f"{n_grid}" if l == 10 else f"l{l}-{n_grid}")
        for l, grids in [(10, (21, 31, 41, 64, 77, 1000, 3001)),
                         (37, (75, 111, 149, 256, 1000, 3001))]
        for n_grid in grids
    ])
    def test_matches_a_dense_sum_over_modes(self, l, n_grid):
        rng = np.random.default_rng(13)
        n = 9
        coeffs = rng.standard_normal((2 * l + 1, n)) + 1j * rng.standard_normal((2 * l + 1, n))
        coeffs /= np.linalg.norm(coeffs)
        state = rq.RingState(coeffs)
        phi = TWO_PI * np.arange(n_grid) / n_grid
        psi = np.exp(1j * np.outer(phi, np.arange(-l, l + 1))) @ coeffs
        expected = np.abs(psi) ** 2 / TWO_PI
        density = rq.position_density(state, n_grid)
        assert np.max(np.abs(density.density - expected.sum(axis=1))) < 1e-13

    def test_resampled_packet_at_a_large_cutoff_is_not_refused(self):
        # resampled from L = 2^19 points, the packet's density rounds to
        # -3.6e-12 (a few ulps of its peak) at its zeros unless clipped, and
        # PositionDensity refuses anything below -1e-12
        l, n_grid = 65536, 1 << 20
        state = rq.initial_localized_state(l, np.array([1.0]))
        density = rq.position_density(state, n_grid).density
        assert density.min() >= 0.0
        assert abs(density[0] - (2 * l + 1) / TWO_PI) < 1e-15 * density[0]

    def test_too_coarse_grid_rejected(self):
        state = rq.initial_localized_state(10, np.array([1.0]))
        with pytest.raises(rq.ResolutionError, match="N >= 2l\\+1"):
            rq.position_density(state, 20)

    @pytest.mark.parametrize("l", [0, -2])
    def test_cutoff_below_one_rejected(self, l):
        with pytest.raises(rq.PreconditionError, match="mode cutoff must be >= 1"):
            ring_module.require_ring_grid(l, 1, 64)

    def test_grid_above_the_memory_guard_is_refused(self):
        # the largest grid the working set A (2l+1) n + B N admits, where
        # ring-wide's l = 1000, n = 32, N = 65536 fits with room to spare
        for l, n in [(50, 4), (1000, 32)]:
            fixed = ring_module._BYTES_PER_MODE_COLOR * (2 * l + 1) * n
            largest = (linalg_module.BYTES_GUARD - fixed) // ring_module._BYTES_PER_POINT
            assert largest > 40 * 65536
            ring_module.require_ring_grid(l, n, largest)
            with pytest.raises(rq.ResourceLimitError, match="guard"):
                ring_module.require_ring_grid(l, n, largest + 1)

    def test_large_cutoff_times_colors_is_refused_before_allocating(
            self, monkeypatch):
        # 1290555 modes x 32 colors: evolve_block alone would take about
        # 2.8 GiB, though the grid, N = 4l+1 as the read-out needs, is by
        # itself well inside the guard
        rng = np.random.default_rng(14)
        u = holonomy(rq.GaugeField(random_hermitian(rng, 32)))
        color = random_state(rng, 32)

        def forbidden(*args, **kwargs):
            raise AssertionError("allocated before the guard")

        for name in ("tile", "zeros", "empty"):
            monkeypatch.setattr(np, name, forbidden)
        with pytest.raises(rq.ResourceLimitError, match="guard"):
            rq.estimate_phase_via_ring(u, color, 645277, 2581109)

    @pytest.mark.parametrize("l,n,n_grid", [
        (1024, 64, 8192), (1000, 32, 65536), (20000, 4, 40001), (10, 2, 1 << 20),
    ], ids=["transform-bound", "ring-wide", "grid-equals-L", "grid-bound"])
    def test_route_peak_stays_under_the_guard(self, l, n, n_grid):
        # the evolved state is held while the density's (L, n) transform
        # runs; at l = 1024, L = 8192 is the worst ratio
        import tracemalloc

        rng = np.random.default_rng(15)
        gauge = rq.GaugeField(random_hermitian(rng, n))
        color = random_state(rng, n)
        tracemalloc.start()
        try:
            evolved = rq.evolve_block(gauge, color, l, 1.0)
            rq.position_density(evolved, n_grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = (ring_module._BYTES_PER_MODE_COLOR * (2 * l + 1) * n
                 + ring_module._BYTES_PER_POINT * n_grid)
        assert peak <= bound

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
        d = np.full(4, np.nan)
        with pytest.raises(rq.PreconditionError, match="integrates"):
            rq.PositionDensity(d)

    def test_first_zero_at_kernel_width(self):
        l, n_grid = 16, 330  # grid multiple of 2l+1: zeros land on grid points
        state = rq.initial_localized_state(l, np.array([1.0]))
        density = rq.position_density(state, n_grid)
        zero_bin = n_grid // (2 * l + 1)
        assert density.density[zero_bin] < 1e-10


def revival_density(l, n_grid, phases, weights):
    """The colour-summed density at t_R of eigencolours at `phases`.

    Colour k carries sqrt(w_k / (2l+1)) e^{-i m phi_k} in every mode m, so
    its density is w_k times the Fejer kernel of the 2l+1 modes at phi_k.
    """
    modes = np.arange(-l, l + 1)[:, None]
    coeffs = np.sqrt(np.asarray(weights) / (2 * l + 1)) \
        * np.exp(-1j * modes * np.asarray(phases))
    return rq.position_density(rq.RingState(coeffs), n_grid)


def separated_phases(rng, count, lobe, pinned):
    """`count` phases on the circle at least one lobe apart, the first at `pinned`."""
    while True:
        phases = np.concatenate(([pinned], rng.uniform(0.0, TWO_PI, count - 1)))
        gaps = rq.circular_distance(phases[:, None], phases[None, :])
        if np.all(gaps[np.triu_indices(count, 1)] >= lobe):
            return phases


class TestExtractPeaks:
    def test_flat_density_yields_only_trivial_weights(self):
        n_grid = 64
        d = np.full(n_grid, 1.0 / TWO_PI)
        density = rq.PositionDensity(d)
        peaks = rq.extract_peaks(density, 15, 4)
        assert all(p.weight <= 2.0 * 5 / n_grid + 1e-12 for p in peaks)

    @pytest.mark.parametrize("seed", range(6))
    def test_separated_components_are_read_exactly(self, seed):
        # the seam at 0 = 2 pi (from either side) and pi are pinned in turn
        rng = np.random.default_rng(1700 + seed)
        pins = (0.0, TWO_PI * (1.0 - 1e-16), np.pi, -np.pi % TWO_PI)
        for l in (10, 50, 200):
            lobe = TWO_PI / (2 * l + 1)
            for case in range(12):
                n = int(rng.integers(2, 5))
                count = int(rng.integers(2, n + 1))
                phases = separated_phases(rng, count, lobe, pins[case % 4])
                weights = rng.dirichlet(np.ones(count))
                n_grid = int(rng.choice([4 * l + 1, 4 * l + 2, 8 * l, 1024]))
                peaks = rq.extract_peaks(
                    revival_density(l, n_grid, phases, weights), l, n)
                assert len(peaks) == count
                for phi, w in zip(phases, weights):
                    nearest = min(peaks, key=lambda p: rq.circular_distance(p.phi, phi))
                    assert rq.circular_distance(nearest.phi, phi) < 1e-9
                    assert abs(nearest.weight - w) < 1e-6

    @pytest.mark.parametrize("l,first", [(10, 0.5), (50, 0.7), (50, 0.3), (200, 0.99)])
    def test_pair_closer_than_resolution_is_one_component(self, l, first):
        phases = np.array([1.0, 1.0 + 1e-6])
        density = revival_density(l, 4 * l + 1, phases, [first, 1.0 - first])
        peaks = rq.extract_peaks(density, l, 2)
        assert len(peaks) == 1
        assert abs(peaks.dominant.weight - 1.0) < 1e-9
        assert abs(peaks.dominant.phi - (1.0 + (1.0 - first) * 1e-6)) < 1e-9

    def test_grid_that_aliases_the_moments_is_refused(self):
        density = revival_density(10, 40, [1.0], [1.0])
        with pytest.raises(rq.ResolutionError, match="N >= 4l\\+1"):
            rq.extract_peaks(density, 10, 1)
        assert len(rq.extract_peaks(revival_density(10, 41, [1.0], [1.0]), 10, 1)) == 1

    def test_weight_sum_bounded(self, sigma_z_problem):
        peaks = rq.estimate_phase_via_ring(
            sigma_z_problem.u_matrix, sigma_z_problem.state, 50, 512
        )
        assert sum(p.weight for p in peaks) <= 1.0 + 1e-6


class TestEstimatePhaseViaRing:
    def test_admitted_defect_is_held_on_the_group(self):
        # a defect of 9.8e-11 passes require_unitary; carried through 200
        # powers it would put the rows' norm 4.9e-9 off 1, which RingState
        # refuses, so one Newton-Schulz step holds U on the group first
        rng = np.random.default_rng(18)
        q = random_unitary(rng, 3)
        theta = np.array([0.4, -1.7, 2.9])
        u = (q * np.exp(1j * theta)) @ q.conj().T * (1.0 + 4.9e-11)
        assert 9.7e-11 < linalg_module.unitarity_defect(u) <= 1e-10
        peaks = rq.estimate_phase_via_ring(u, q @ np.sqrt([0.5, 0.3, 0.2]), 200, 1024)
        for phi, weight in zip(theta, (0.5, 0.3, 0.2)):
            nearest = min(peaks, key=lambda p: rq.circular_distance(p.phi, phi))
            assert rq.circular_distance(nearest.phi, phi) < 1e-9
            assert abs(nearest.weight - weight) < 1e-9

    def test_refuses_a_gauge_field_in_place_of_u(self, sigma_x_problem):
        gauge = rq.encode_as_gauge(sigma_x_problem)
        with pytest.raises(rq.PreconditionError, match="cannot read GaugeField"):
            rq.estimate_phase_via_ring(gauge, sigma_x_problem.state, 50, 512)

    def test_zero_gauge_relocalizes_at_origin(self):
        gauge = rq.GaugeField(np.zeros((2, 2), dtype=complex))
        peaks = rq.estimate_phase_via_ring(
            holonomy(gauge), np.array([1.0, 0.0]), 40, 256
        )
        assert rq.circular_distance(peaks.dominant.phi, 0.0) < TWO_PI / 256
        assert peaks.dominant.weight > 0.9

    def test_two_level_ground_state_read_out(self, sigma_x_problem):
        peaks = rq.estimate_phase_via_ring(
            sigma_x_problem.u_matrix, sigma_x_problem.state, 50, 512
        )
        expected = TWO_PI - 2.0
        assert abs(peaks.dominant.phi - expected) < TWO_PI / 512
        assert peaks.dominant.weight > 0.9

    def test_superposition_weights_track_overlaps(self, sigma_z_problem):
        peaks = rq.estimate_phase_via_ring(
            sigma_z_problem.u_matrix, sigma_z_problem.state, 50, 512
        )
        assert len(peaks) == 2
        first, second = peaks.peaks
        assert abs(first.weight - 0.8) < 0.02
        assert abs(second.weight - 0.2) < 0.02
        assert rq.circular_distance(first.phi, 2.0) < 2 * TWO_PI / 512
        assert rq.circular_distance(second.phi, TWO_PI - 2.0) < 2 * TWO_PI / 512

    @pytest.mark.parametrize("seed", range(8))
    def test_eigencolor_lands_at_predicted_angle(self, seed):
        rng = np.random.default_rng(700 + seed)
        n = int(rng.integers(1, 5))
        a = random_hermitian(rng, n, scale=0.1)
        gauge = rq.GaugeField(a)
        lam, vec = np.linalg.eigh(a)
        pick = int(rng.integers(0, n))
        color = vec[:, pick]
        l = 60
        peaks = rq.estimate_phase_via_ring(holonomy(gauge), color, l, 512)
        # two laps by t_R: the eigencolor lands at -2 * 2 pi lam
        predicted = rq.wrap_to_unit(-2.0 * TWO_PI * float(lam[pick]))
        assert rq.circular_distance(peaks.dominant.phi, predicted) < TWO_PI / (2 * l + 1)
        assert peaks.dominant.weight > 0.9

    def test_resolution_check(self, sigma_x_problem, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("evolved before the grid check")

        # a coarse grid is refused before the state evolves, and named by the
        # read-out's rule, which implies the modes' N >= 2l+1: a grid too
        # coarse for the modes, and one that resolves them but aliases the
        # read-out's moments
        monkeypatch.setattr(ring_module, "_mode_rows", forbidden)
        for grid_size_N in (64, 150):
            with pytest.raises(rq.ResolutionError, match="N >= 4l\\+1"):
                rq.estimate_phase_via_ring(sigma_x_problem.u_matrix,
                                           sigma_x_problem.state, 50,
                                           grid_size_N)

    @pytest.mark.parametrize("l,n,n_grid", [
        (100000, 1, 400001), (1000, 32, 65536), (20000, 4, 80001),
    ], ids=["moment-bound", "ring-wide", "four-colors"])
    def test_read_out_peak_stays_under_the_guard(self, l, n, n_grid):
        # the route test stops at the density; this one runs the moments,
        # the one QR of their Hankel matrix and the Vandermonde solve too
        import tracemalloc

        rng = np.random.default_rng(17)
        gauge = rq.GaugeField(random_hermitian(rng, n))
        color = random_state(rng, n)
        tracemalloc.start()
        try:
            rq.estimate_phase_via_ring(holonomy(gauge), color, l, n_grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = (ring_module._BYTES_PER_MODE_COLOR * (2 * l + 1) * n
                 + ring_module._BYTES_PER_POINT * n_grid)
        assert peak <= bound

    @pytest.mark.filterwarnings("ignore::ringqpe.PhaseAliasingWarning")
    @pytest.mark.parametrize("kind", ["energy", "aliased-energy", "unitary"])
    def test_reads_u_alone(self, monkeypatch, kind):
        # no eigensolver runs and no spectrum is read once the problem is
        # built: the read-out shares no computation with the direct route
        color = np.array([0.6, 0.8])
        if kind == "unitary":
            theta = np.array([0.5, -2.0])
            problem = rq.UnitarySpec(np.diag(np.exp(1j * theta)), color)
        else:
            # H / E_R = diag(4, -1) wraps 4 to 4 - 2 pi
            energies = [1.0, -2.5] if kind == "energy" else [4.0, -1.0]
            problem = rq.EnergyProblem(np.diag(energies), 1.0, color)
            theta = rq.wrap_to_signed(np.array(energies))
        forbid_spectra(monkeypatch, problem)
        with pytest.raises(AssertionError, match="spectrum"):
            problem.spectrum
        peaks = rq.estimate_phase_via_ring(problem.u_matrix, problem.state,
                                           50, 512)
        assert len(peaks) == 2
        for phi, weight in zip(theta, (0.36, 0.64)):
            nearest = min(peaks, key=lambda p: rq.circular_distance(p.phi, phi))
            assert rq.circular_distance(nearest.phi, phi) < 1e-9
            assert abs(nearest.weight - weight) < 1e-9


def merge_by_pairs(phases, weights, mode_cutoff_l):
    """merge_components as first written, one scalar fold per member and
    group: the oracle of its vector form."""
    tolerance = 0.25 * TWO_PI / (2 * mode_cutoff_l + 1)
    groups = []
    for member in sorted(zip(weights, phases), reverse=True):
        home = next((g for g in groups
                     if abs(rq.wrap_to_signed(member[1] - g[0][1])) < tolerance), [])
        if not home:
            groups.append(home)
        home.append(member)
    peaks = []
    for group in groups:
        weight = sum(w for w, _ in group)
        if weight > 1e-9:
            phi = group[0][1] if len(group) == 1 else np.angle(
                sum(w * np.exp(1j * phi) for w, phi in group))
            peaks.append(rq.Peak(rq.wrap_to_unit(phi), float(weight)))
    peaks.sort(key=lambda p: (-p.weight, p.phi))
    return peaks


def planted_components(rng):
    """(phases, weights, l): clusters spread 1e-12 to a lobe, some centred
    on the 0/2 pi seam or at +-pi so they straddle it, some weights zero."""
    l = int(rng.choice([10, 50, 200]))
    lobe = TWO_PI / (2 * l + 1)
    phases, weights = [], []
    for _ in range(int(rng.integers(1, 6))):
        centre = rng.choice([0.0, np.pi, -np.pi, rng.uniform(-np.pi, TWO_PI)])
        spread = 10 ** rng.uniform(-12, 0) * lobe
        k = int(rng.integers(1, 7))
        phases.extend(centre + rng.uniform(-spread, spread, k))
        weights.extend(rng.dirichlet(np.ones(k)) * rng.uniform(0, 1)
                       * (rng.uniform(size=k) > 0.2))
    return np.array(phases), np.array(weights) / max(1.0, sum(weights)), l


class TestMergeComponents:
    def test_vector_fold_groups_as_the_pairwise_rule(self):
        rng = np.random.default_rng(3300)
        for case in range(600):
            phases, weights, l = planted_components(rng)
            assert ring_module.merge_components(phases, weights, l) \
                == merge_by_pairs(phases, weights, l), f"case {case}"

    def test_one_fold_per_member(self, monkeypatch):
        # each member was folded against each earlier group, O(n^2) scalar
        # numpy calls
        calls = []

        def counting(phi):
            calls.append(np.size(phi))
            return rq.wrap_to_signed(phi)

        monkeypatch.setattr(ring_module, "wrap_to_signed", counting)
        rng = np.random.default_rng(3301)
        phases = rng.uniform(0, TWO_PI, 300)
        peaks = ring_module.merge_components(phases, rng.dirichlet(np.ones(300)), 5000)
        assert len(calls) <= 300
        assert len(peaks) > 250  # mostly apart, so most groups are tested


class TestGoldenDensity:
    def test_evolved_density_matches_frozen_reference(
        self, sigma_x_problem, tmp_path
    ):
        gauge = rq.encode_as_gauge(sigma_x_problem)
        evolved = rq.evolve_block(gauge, sigma_x_problem.state, 50, rq.RETURN_TIME)
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
            (rq.Peak(1.5, 0.75), rq.Peak(4.0, 0.25)), 0.01
        )
        obj = json.loads(json.dumps(peak_set_to_json(peaks)))
        back = rq.PeakSet(
            tuple(rq.Peak(p["phi"], p["weight"]) for p in obj["peaks"]),
            obj["resolution"],
        )
        assert back.peaks == peaks.peaks
        assert back.resolution == peaks.resolution

    def test_peak_set_rejects_overweight(self):
        with pytest.raises(rq.PreconditionError):
            rq.PeakSet((rq.Peak(1.0, 0.8), rq.Peak(2.0, 0.4)), 0.1)
