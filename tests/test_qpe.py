"""Phase-estimation register pipeline against dense circuit oracles."""

import numpy as np
import pytest

import ringqpe as rq
from ringqpe.qpe import (
    estimate_to_json,
    write_distribution_csv,
)

from conftest import SIGMA_X, random_hermitian, random_state, random_unitary, read_csv

TWO_PI = 2.0 * np.pi


def dense_controlled_operator(t_bits, u):
    """Sum_m |m><m| (x) U^m built literally, for small t and n."""
    size = 1 << t_bits
    n = u.shape[0]
    op = np.zeros((size * n, size * n), dtype=complex)
    power = np.eye(n, dtype=complex)
    for m in range(size):
        op[m * n:(m + 1) * n, m * n:(m + 1) * n] = power
        power = power @ u
    return op


def fejer_probability(t_bits, phi_u, k):
    """Closed-form read-out probability for an eigencolor input."""
    delta = phi_u - TWO_PI * k / (1 << t_bits)
    if abs(np.sin(delta / 2.0)) < 1e-300:
        return 1.0
    num = np.sin((1 << (t_bits - 1)) * delta) ** 2
    return num / ((1 << (2 * t_bits)) * np.sin(delta / 2.0) ** 2)


class TestQpeConfig:
    def test_register_size(self):
        assert rq.QpeConfig(10).register_size == 1024

    @pytest.mark.parametrize("bad", [0, -3, 25, True, 2.0])
    def test_rejects_bad_widths(self, bad):
        with pytest.raises(rq.PreconditionError):
            rq.QpeConfig(bad)

    def test_rejects_negative_shots(self):
        with pytest.raises(rq.PreconditionError, match="shots"):
            rq.QpeConfig(4, shots=-1)

    @pytest.mark.parametrize("bad", [2.5, 2.0, True])
    def test_rejects_non_integer_shots(self, bad):
        # 2.5 used to fail later as "probabilities sum to 0.8", and True ran
        # one shot
        with pytest.raises(rq.PreconditionError, match="shots must be an integer"):
            rq.QpeConfig(4, shots=bad)

    def test_accepts_numpy_integer_shots(self):
        assert rq.QpeConfig(4, shots=np.int64(3)).shots == 3

    @pytest.mark.parametrize("bad,message", [
        (-1, "rng_seed must be >= 0"),
        (True, "rng_seed must be an integer"),
        (2.0, "rng_seed must be an integer"),
    ])
    def test_rejects_bad_seeds(self, bad, message):
        # numpy's generators would refuse a negative seed with a bare ValueError
        with pytest.raises(rq.PreconditionError, match=message):
            rq.QpeConfig(4, shots=10, rng_seed=bad)

    def test_accepts_numpy_integer_seed(self):
        assert rq.QpeConfig(4, rng_seed=np.int64(7)).rng_seed == 7


class TestPrepare:
    def test_single_bit_register(self):
        color = np.array([0.6, 0.8j])
        regs = rq.qpe_prepare(1, color)
        expected = np.array([color, color]) / np.sqrt(2.0)
        assert np.max(np.abs(regs.amplitudes - expected)) < 1e-15

    def test_rejects_unnormalized_color(self):
        with pytest.raises(rq.PreconditionError, match="norm"):
            rq.qpe_prepare(3, np.array([1.0, 1.0]))

    def test_refuses_oversized_register_before_allocating(self, monkeypatch):
        from ringqpe.qpe import REGISTER_BYTES_GUARD

        # the defect-probe shape (t = 20, n = 4) fits; t = 24, n = 64 is 16 GiB
        assert (1 << 20) * 4 * 16 <= REGISTER_BYTES_GUARD < (1 << 24) * 64 * 16

        def forbidden(*args, **kwargs):
            raise AssertionError("register allocated before the guard")

        monkeypatch.setattr(np, "empty", forbidden)
        with pytest.raises(rq.ResourceLimitError, match="guard"):
            rq.qpe_prepare(24, np.eye(64)[0])

    def test_register_is_allocated_once(self):
        import tracemalloc

        t, n = 12, 8
        nbytes = (1 << t) * n * 16
        color = np.eye(n)[3]
        tracemalloc.start()
        try:
            regs = rq.qpe_prepare(t, color)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a built-then-copied register would peak at twice its size
        assert peak < 1.5 * nbytes
        amps = regs.amplitudes
        assert amps.flags.owndata and not amps.flags.writeable
        assert np.array_equal(amps, np.tile(color / 2 ** (t / 2), (1 << t, 1)))

    def test_amplitudes_read_only(self):
        regs = rq.qpe_prepare(2, np.array([1.0]))
        with pytest.raises(ValueError):
            regs.amplitudes[0, 0] = 0.0

    def test_writable_input_is_copied_owned_read_only_input_kept(self):
        amps = np.full((2, 1), np.sqrt(0.5), dtype=complex)
        regs = rq.QpeRegisters(1, 1, amps)
        amps[0, 0] = 0.0
        assert regs.amplitudes[0, 0] == np.sqrt(0.5)

        frozen = np.full((2, 1), np.sqrt(0.5), dtype=complex)
        frozen.setflags(write=False)
        assert rq.QpeRegisters(1, 1, frozen).amplitudes is frozen
        view = frozen[:]
        assert rq.QpeRegisters(1, 1, view).amplitudes is not view


class TestColumnMajorLayout:
    def test_each_stage_keeps_colors_contiguous(self):
        # amplitudes[m, a] keeps its shape; each color's 2^t amplitudes are
        # contiguous, the axis the phases and the Fourier transform run along
        rng = np.random.default_rng(3300)
        t, n = 6, 3
        spectrum = rq.eig_unitary(random_unitary(rng, n))
        prepared = rq.qpe_prepare(t, random_state(rng, n))
        controlled = rq.controlled_unitary_all(prepared, spectrum)
        transformed = rq.qft_inverse(controlled)
        for regs in (prepared, controlled, transformed):
            assert regs.amplitudes.shape == (1 << t, n)
            assert regs.amplitudes.flags.f_contiguous


class TestControlledStage:
    @pytest.mark.parametrize("seed", [*range(6), "dft8", "perm8"])
    def test_matches_dense_operator(self, seed):
        if isinstance(seed, int):
            rng = np.random.default_rng(3000 + seed)
            t = int(rng.integers(1, 7))
            n = int(rng.integers(1, 5))
            u = random_unitary(rng, n)
        else:
            # degenerate spectra: the DFT has eigenvalues +-1, +-i with
            # multiplicities 3, 2, 2, 1; two 4-cycles have each fourth root
            # of unity twice
            rng = np.random.default_rng(3100)
            t, n = 4, 8
            if seed == "dft8":
                u = np.fft.fft(np.eye(n)) / np.sqrt(n)
            else:
                u = np.eye(n)[[1, 2, 3, 0, 5, 6, 7, 4]]
        size = 1 << t
        amps = rng.standard_normal((size, n)) + 1j * rng.standard_normal((size, n))
        amps /= np.linalg.norm(amps)
        regs = rq.QpeRegisters(t, n, amps)
        got = rq.controlled_unitary_all(regs, rq.eig_unitary(u)).amplitudes
        want = (dense_controlled_operator(t, u) @ amps.reshape(-1)).reshape(size, n)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_eigencolor_picks_up_mode_phases(self):
        phi_u = 0.9
        u = np.array([[np.exp(1j * phi_u)]])
        regs = rq.qpe_prepare(4, np.array([1.0]))
        out = rq.controlled_unitary_all(regs, rq.eig_unitary(u)).amplitudes[:, 0]
        m = np.arange(16)
        want = np.exp(1j * m * phi_u) / 4.0
        assert np.max(np.abs(out - want)) < 1e-12

    def test_deep_register_keeps_its_norm(self):
        # repeated squaring left this problem's register norm 2.2e-10 off 1
        # at t = 20, past the 1e-10 check; eigenbasis powers keep it unitary
        rng = np.random.default_rng(0)
        v = random_unitary(rng, 4)
        phases = rng.uniform(-np.pi, np.pi, 4)
        u = (v * np.exp(1j * phases)) @ v.conj().T
        t = 20
        est = rq.qpe_estimate(rq.eig_unitary(u), v[:, 0], rq.QpeConfig(t))
        k_true = (phases[0] % TWO_PI) * (1 << t) / TWO_PI
        assert abs(est.k_best - k_true) <= 1.0

    def test_dimension_mismatch_rejected(self):
        regs = rq.qpe_prepare(2, np.array([1.0, 0.0]))
        with pytest.raises(rq.PreconditionError, match="dimension"):
            rq.controlled_unitary_all(regs, rq.eig_unitary(np.eye(3)))

    def test_refuses_a_basis_that_is_not_orthonormal(self):
        regs = rq.qpe_prepare(2, np.array([1.0, 0.0]))
        skew = rq.EigenDecomposition(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(rq.PreconditionError, match="not unitary"):
            rq.controlled_unitary_all(regs, skew)

    def test_makes_no_decomposition(self, monkeypatch):
        rng = np.random.default_rng(3200)
        spectrum = rq.eig_unitary(random_unitary(rng, 3))
        color = random_state(rng, 3)

        def forbidden(*args, **kwargs):
            raise AssertionError("decomposed U again")

        for name in ("eigh", "eigvals", "eig"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        est = rq.qpe_estimate(spectrum, color, rq.QpeConfig(6))
        assert abs(est.distribution.probs.sum() - 1.0) < 1e-12

    def test_operation_count_formula(self):
        # t = 1 leaves the low table one entry (lo = 0); t = 5 splits the
        # bits 2 + 3 and t = 6 splits them 3 + 3
        n = 3
        spectrum = rq.eig_unitary(random_unitary(np.random.default_rng(0), n))
        for t in (1, 2, 5, 6):
            regs = rq.qpe_prepare(t, np.array([1.0, 0.0, 0.0]))
            with rq.count_macs() as counter:
                rq.controlled_unitary_all(regs, spectrum)
            size, lo = 1 << t, t // 2
            # two basis rotations of the register, one multiply per amplitude
            # for each of the two phase tables, and one product per color for
            # each table entry past the first; the spectrum comes in already
            # decomposed
            tables = n * ((1 << lo) - 1) + n * ((1 << (t - lo)) - 1)
            expected = 2 * size * n * n + 2 * size * n + tables
            assert counter.total == expected, f"t = {t}"

    def test_peak_memory_stays_below_two_registers(self):
        import tracemalloc

        t, n = 16, 32
        nbytes = (1 << t) * n * 16
        rng = np.random.default_rng(5)
        spectrum = rq.eig_unitary(random_unitary(rng, n))
        regs = rq.qpe_prepare(t, random_state(rng, n))
        tracemalloc.start()
        try:
            rq.controlled_unitary_all(regs, spectrum)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the output plus half a register for the back-rotation; rotating
        # back in one product would hold a second full register (2.0x)
        assert peak < 1.6 * nbytes

    def test_streamed_stage_holds_little_beside_its_result(self):
        import tracemalloc

        t, n = 16, 32
        nbytes = (1 << t) * n * 16
        rng = np.random.default_rng(6)
        spectrum = rq.eig_unitary(random_unitary(rng, n))
        regs = rq.qpe_prepare(t, random_state(rng, n))
        tracemalloc.start()
        try:
            rq.controlled_unitary_all(regs, spectrum)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the result plus one block of rows and the two phase tables
        assert peak < 1.25 * nbytes


class TestOneRegisterPipeline:
    """qpe_estimate runs the staged circuit in one register."""

    @pytest.mark.parametrize("shots", [0, 500])
    @pytest.mark.parametrize("n", [1, 3, 32])
    @pytest.mark.parametrize("t", [1, 2, 5, 6, 9, 16])
    def test_matches_the_staged_circuit(self, t, n, shots):
        rng = np.random.default_rng(8000 + 100 * n + t)
        spectrum = rq.eig_unitary(random_unitary(rng, n))
        color = random_state(rng, n)
        cfg = rq.QpeConfig(t, shots=shots, rng_seed=17)
        regs = rq.qpe_prepare(t, color)
        regs = rq.controlled_unitary_all(regs, spectrum)
        regs = rq.qft_inverse(regs)
        staged = rq.measure_register1(regs, cfg)
        est = rq.qpe_estimate(spectrum, color, cfg)
        assert est.distribution.mode == staged.mode
        assert np.max(np.abs(est.distribution.probs - staged.probs)) <= 1e-15
        assert est.k_best == int(np.argmax(staged.probs))

    # the register plus one block of rows, the phase tables and the 2^t
    # probabilities, half a register at n = 1; a prepared register beside
    # the stage's result, an out-of-place transform, or a copy of the
    # probabilities (np.argmax makes one of a read-only array) would add a
    # register at n = 32 or half of one at n = 1. A sampled read-out adds
    # its counts and numpy's multinomial, and stays below 1.7 only if the
    # register is freed before it
    @pytest.mark.parametrize("n,shots,bound", [
        (32, 0, 1.25), (1, 0, 1.8), (1, 500, 1.7),
    ], ids=["32-1.25", "1-1.8", "1-sampled-1.7"])
    def test_peak_memory_stays_near_one_register(self, n, shots, bound):
        import tracemalloc

        t = 16
        nbytes = (1 << t) * n * 16
        rng = np.random.default_rng(9)
        spectrum = rq.eig_unitary(random_unitary(rng, n))
        color = random_state(rng, n)
        tracemalloc.start()
        try:
            rq.qpe_estimate(spectrum, color, rq.QpeConfig(t, shots=shots))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * nbytes

    def test_refuses_oversized_register_before_allocating(self, monkeypatch):
        n = 64
        spectrum = rq.eig_unitary(np.eye(n))

        def forbidden(*args, **kwargs):
            raise AssertionError("register allocated before the guard")

        monkeypatch.setattr(np, "empty", forbidden)
        with pytest.raises(rq.ResourceLimitError, match="guard"):
            rq.qpe_estimate(spectrum, np.eye(n)[0], rq.QpeConfig(24))

    def test_operation_count_formula(self):
        n = 3
        spectrum = rq.eig_unitary(random_unitary(np.random.default_rng(1), n))
        for t in (1, 2, 5, 6):
            with rq.count_macs() as counter:
                rq.qpe_estimate(spectrum, np.array([1.0, 0.0, 0.0]), rq.QpeConfig(t))
            size, lo = 1 << t, t // 2
            # the register-2 state is rotated into the eigenbasis once, not
            # the register, and nothing is rotated back; then the stage's
            # phase tables and the inverse QFT, as in the staged circuit
            tables = n * ((1 << lo) - 1) + n * ((1 << (t - lo)) - 1)
            stage = n * n + 2 * size * n + tables
            qft = n * (size // 2) * t
            assert counter.total == stage + qft, f"t = {t}"


def spectral_register_distribution(t_bits, theta, weights):
    """Exact read-out distribution from the spectrum alone.

    Component k contributes sqrt(w_k) e^(i m theta_k) / 2^(t/2) at row m;
    the inverse QFT is one FFT per component, and the components, being
    orthogonal in register 2, add in probability.
    """
    size = 1 << t_bits
    m = np.arange(size)[:, None]
    amps = np.sqrt(weights) * np.exp(1j * m * theta) / np.sqrt(size)
    out = np.fft.fft(amps, axis=0) / np.sqrt(size)
    return np.sum(np.abs(out) ** 2, axis=1)


class TestSpectralOracle:
    @pytest.mark.parametrize(
        "n,t", [(1, 1), (2, 3), (3, 10), (8, 12), (32, 16), (4, 20)]
    )
    def test_circuit_matches_spectral_distribution(self, n, t):
        rng = np.random.default_rng(7000 + 100 * n + t)
        theta = rng.uniform(-np.pi, np.pi, n)
        if n >= 2:
            theta[1] = theta[0]  # a degenerate pair
        if n >= 3:
            # a pair 2e-3 apart across the +-pi seam
            theta[-2:] = np.pi - 1e-3, -np.pi + 1e-3
        v = random_unitary(rng, n)
        u = (v * np.exp(1j * theta)) @ v.conj().T
        color = random_state(rng, n)
        weights = np.abs(v.conj().T @ color) ** 2
        want = spectral_register_distribution(t, theta, weights)
        got = rq.qpe_estimate(rq.eig_unitary(u), color, rq.QpeConfig(t)).distribution.probs
        assert np.max(np.abs(got - want)) < 1e-12


class TestQftInverse:
    def test_matches_dense_dft_matrix(self):
        rng = np.random.default_rng(9)
        t, n = 5, 2
        size = 1 << t
        amps = rng.standard_normal((size, n)) + 1j * rng.standard_normal((size, n))
        amps /= np.linalg.norm(amps)
        regs = rq.QpeRegisters(t, n, amps)
        k, m = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
        f = np.exp(-2j * np.pi * k * m / size) / np.sqrt(size)
        want = f @ amps
        got = rq.qft_inverse(regs).amplitudes
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_unitary_round_trip(self, seed):
        rng = np.random.default_rng(4000 + seed)
        t = int(rng.integers(1, 9))
        size = 1 << t
        amps = rng.standard_normal((size, 1)) + 1j * rng.standard_normal((size, 1))
        amps /= np.linalg.norm(amps)
        regs = rq.QpeRegisters(t, 1, amps)
        out = rq.qft_inverse(regs)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12
        back = np.fft.ifft(out.amplitudes, axis=0) * np.sqrt(size)
        assert np.max(np.abs(back - amps)) < 1e-10


class TestMeasurement:
    def test_identity_reads_out_zero(self):
        est = rq.qpe_estimate(rq.eig_unitary(np.eye(2)), np.array([1.0, 0.0]), rq.QpeConfig(4))
        assert est.k_best == 0
        assert est.phi_estimate == 0.0
        assert est.distribution.probs[0] > 1.0 - 1e-12

    def test_representable_phase_reads_out_exactly(self):
        t = 6
        phi_u = TWO_PI * 5 / 64
        u = np.array([[np.exp(1j * phi_u)]])
        est = rq.qpe_estimate(rq.eig_unitary(u), np.array([1.0]), rq.QpeConfig(t))
        assert est.k_best == 5
        assert est.distribution.probs[5] > 1.0 - 1e-9

    def test_three_bit_register_is_deterministic(self):
        u = np.array([[np.exp(1j * TWO_PI * 3 / 8)]])
        est = rq.qpe_estimate(rq.eig_unitary(u), np.array([1.0]), rq.QpeConfig(3))
        assert est.k_best == 3
        assert abs(est.distribution.probs[3] - 1.0) < 1e-12

    def test_worst_case_splits_across_neighbors(self):
        t = 6
        phi_u = TWO_PI * 5.5 / 64  # exactly between two read-out values
        u = np.array([[np.exp(1j * phi_u)]])
        est = rq.qpe_estimate(rq.eig_unitary(u), np.array([1.0]), rq.QpeConfig(t))
        p = est.distribution.probs
        assert abs(p[5] - p[6]) < 1e-12
        assert p[5] >= 0.40

    def test_eigencolor_distribution_matches_closed_form(self):
        t = 6
        phi_u = TWO_PI * 5.5 / 64
        u = np.array([[np.exp(1j * phi_u)]])
        est = rq.qpe_estimate(rq.eig_unitary(u), np.array([1.0]), rq.QpeConfig(t))
        want = np.array([fejer_probability(t, phi_u, k) for k in range(64)])
        assert np.max(np.abs(est.distribution.probs - want)) < 1e-12

    def test_exact_mode_sums_to_one(self):
        rng = np.random.default_rng(11)
        u = random_unitary(rng, 3)
        est = rq.qpe_estimate(rq.eig_unitary(u), random_state(rng, 3), rq.QpeConfig(7))
        assert abs(est.distribution.probs.sum() - 1.0) < 1e-9
        assert est.distribution.mode == "exact"
        assert est.distribution.shots is None

    def test_sampled_mode_is_reproducible(self):
        rng = np.random.default_rng(12)
        u = random_unitary(rng, 2)
        color = random_state(rng, 2)
        cfg = rq.QpeConfig(5, shots=2000, rng_seed=123)
        a = rq.qpe_estimate(rq.eig_unitary(u), color, cfg)
        b = rq.qpe_estimate(rq.eig_unitary(u), color, cfg)
        assert np.array_equal(a.distribution.probs, b.distribution.probs)
        assert a.k_best == b.k_best
        c = rq.qpe_estimate(rq.eig_unitary(u), color, rq.QpeConfig(5, shots=2000, rng_seed=124))
        assert not np.array_equal(a.distribution.probs, c.distribution.probs)

    def test_sampled_histogram_sums_to_one(self):
        u = np.array([[np.exp(0.7j)]])
        cfg = rq.QpeConfig(4, shots=137, rng_seed=5)
        est = rq.qpe_estimate(rq.eig_unitary(u), np.array([1.0]), cfg)
        assert est.distribution.probs.sum() == pytest.approx(1.0, abs=1e-15)
        assert est.distribution.mode == "sampled"
        assert est.distribution.shots == 137
        assert est.distribution.seed == 5

    def test_sampled_concentrates_near_exact_mode(self):
        t = 6
        phi_u = TWO_PI * 17 / 64
        u = np.array([[np.exp(1j * phi_u)]])
        cfg = rq.QpeConfig(t, shots=4096, rng_seed=0)
        est = rq.qpe_estimate(rq.eig_unitary(u), np.array([1.0]), cfg)
        assert est.k_best == 17

    def test_tie_breaks_toward_smaller_k(self):
        u = np.array([[1j]])  # phi_u = pi/2: probs (1/2, 1/2) at t = 1
        est = rq.qpe_estimate(rq.eig_unitary(u), np.array([1.0]), rq.QpeConfig(1))
        assert abs(est.distribution.probs[0] - 0.5) < 1e-12
        assert est.k_best == 0
        assert est.phi_estimate == 0.0

    def test_sums_a_block_of_rows_at_a_time(self):
        import tracemalloc

        t, n = 16, 32
        rng = np.random.default_rng(10)
        regs = rq.qpe_prepare(t, random_state(rng, n))
        regs = rq.controlled_unitary_all(regs, rq.eig_unitary(random_unitary(rng, n)))
        regs = rq.qft_inverse(regs)
        tracemalloc.start()
        try:
            dist = rq.measure_register1(regs, rq.QpeConfig(t))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the same sums as over the whole register, bit for bit, without
        # its (2^t, n) array of |amplitude|^2 (half a register)
        assert np.array_equal(dist.probs, np.sum(np.abs(regs.amplitudes) ** 2, axis=1))
        assert peak < 0.07 * regs.amplitudes.nbytes

    def test_sampled_histogram_overwrites_its_probabilities(self):
        import tracemalloc

        t, n, shots = 16, 1, 500
        nbytes = (1 << t) * n * 16
        rng = np.random.default_rng(13)
        spectrum = rq.eig_unitary(random_unitary(rng, n))
        color = random_state(rng, n)
        tracemalloc.start()
        try:
            est = rq.qpe_estimate(spectrum, color, rq.QpeConfig(t, shots=shots, rng_seed=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the histogram drawn from the normalised exact probabilities, bit
        # for bit
        exact = rq.qpe_estimate(spectrum, color, rq.QpeConfig(t)).distribution.probs
        counts = np.random.default_rng(3).multinomial(shots, exact / exact.sum())
        assert np.array_equal(est.distribution.probs, counts / shots)
        # the register, its probabilities and the int64 counts, 2.0
        # registers at n = 1, plus numpy's sampling scratch; a normalised
        # copy, a new histogram array or a copy of it for the distribution
        # would add half a register each
        assert peak < 2.3 * nbytes

    def test_width_mismatch_rejected(self):
        regs = rq.qpe_prepare(3, np.array([1.0]))
        with pytest.raises(rq.PreconditionError, match="width"):
            rq.measure_register1(regs, rq.QpeConfig(4))


class TestEndToEnd:
    def test_nan_state_rejected(self):
        with pytest.raises(rq.PreconditionError, match="finite"):
            rq.qpe_estimate(rq.eig_unitary(np.eye(2)), np.array([np.nan, 0.0]), rq.QpeConfig(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf),
                                     complex(np.inf, np.nan)])
    def test_non_finite_register_is_refused(self, bad):
        amps = np.full((4, 2), 0.5 / np.sqrt(2), dtype=complex, order="F")
        amps[2, 1] = bad
        with pytest.raises(rq.PreconditionError, match="norm"):
            rq.QpeRegisters(2, 2, amps)

    def test_nan_register_and_distribution_rejected(self):
        with pytest.raises(rq.PreconditionError, match="norm"):
            rq.QpeRegisters(1, 1, np.array([[np.nan], [0.0]]))
        with pytest.raises(rq.PreconditionError, match="sum"):
            rq.Register1Distribution(np.array([np.nan, 1.0]), "exact")

    def test_two_level_ground_state(self):
        u = rq.expm_dense(2.0 * SIGMA_X, -1.0)
        color = np.array([1.0, -1.0]) / np.sqrt(2.0)
        est = rq.qpe_estimate(rq.eig_unitary(u), color, rq.QpeConfig(10))
        phi_u = TWO_PI - 2.0
        assert est.k_best == round(1024 * phi_u / TWO_PI)
        assert rq.circular_distance(est.phi_estimate, phi_u) <= TWO_PI / 1024

    def test_energy_problem_spectrum_is_its_unitary(self):
        # exp(i H / E_R) read from H's eigensystem, or decomposed as a
        # unitary after the Pade route: the same distribution, also when the
        # spectrum of H / E_R (radius 3.7 here) wraps around the circle
        rng = np.random.default_rng(3300)
        h = random_hermitian(rng, 4, scale=1.5)
        color = random_state(rng, 4)
        with pytest.warns(rq.PhaseAliasingWarning):
            problem = rq.EnergyProblem(h, 1.3, color)
        via_h = rq.qpe_estimate(problem.spectrum, color, rq.QpeConfig(9))
        u = rq.eig_unitary(rq.expm_dense(h, -1.0 / 1.3))
        via_u = rq.qpe_estimate(u, color, rq.QpeConfig(9))
        assert np.max(np.abs(via_h.distribution.probs - via_u.distribution.probs)) < 1e-12

    @pytest.mark.parametrize("e", [2, 4, 8])
    def test_tail_bound_on_sampled_phases(self, e):
        t = 8
        size = 1 << t
        rng = np.random.default_rng(600 + e)
        for _ in range(20):
            phi_u = float(rng.uniform(0.0, TWO_PI))
            u = np.array([[np.exp(1j * phi_u)]])
            est = rq.qpe_estimate(rq.eig_unitary(u), np.array([1.0]), rq.QpeConfig(t))
            best = int(np.argmin(
                np.minimum(
                    np.abs(np.arange(size) * TWO_PI / size - phi_u),
                    TWO_PI - np.abs(np.arange(size) * TWO_PI / size - phi_u),
                )
            ))
            idx_dist = np.abs(np.arange(size) - best)
            idx_dist = np.minimum(idx_dist, size - idx_dist)
            tail = float(est.distribution.probs[idx_dist > e].sum())
            # Nielsen & Chuang 5.2.1: P(|k - b| > e) <= 1 / (2 (e - 1))
            assert tail <= 1.0 / (2.0 * (e - 1)) + 1e-12

    def test_register2_unchanged_for_eigencolor(self):
        rng = np.random.default_rng(21)
        u = random_unitary(rng, 3)
        lam, vec = np.linalg.eig(u)
        color = vec[:, 0] / np.linalg.norm(vec[:, 0])
        regs = rq.qpe_prepare(5, color)
        regs = rq.controlled_unitary_all(regs, rq.eig_unitary(u))
        regs = rq.qft_inverse(regs)
        # every row should stay proportional to the eigencolor
        amps = regs.amplitudes
        coeff = amps @ np.conj(color)
        residual = amps - np.outer(coeff, color)
        assert np.max(np.abs(residual)) < 1e-9


class TestSerialization:
    def test_distribution_csv_round_trip(self, tmp_path):
        u = rq.expm_dense(2.0 * SIGMA_X, -1.0)
        est = rq.qpe_estimate(rq.eig_unitary(u), np.array([1.0, -1.0]) / np.sqrt(2.0), rq.QpeConfig(6))
        path = tmp_path / "dist.csv"
        write_distribution_csv(est.distribution, path)
        header, data = read_csv(path)
        assert header == ["k", "probability"]
        assert np.array_equal(data[:, 0], np.arange(64))
        assert np.array_equal(data[:, 1], est.distribution.probs)

    def test_estimate_json_fields(self):
        cfg = rq.QpeConfig(6, shots=100, rng_seed=9)
        u = np.array([[np.exp(0.5j)]])
        est = rq.qpe_estimate(rq.eig_unitary(u), np.array([1.0]), cfg)
        obj = estimate_to_json(est, cfg)
        assert obj == {
            "k": est.k_best,
            "phi": est.phi_estimate,
            "t": 6,
            "mode": "sampled",
            "seed": 9,
        }
