"""Phase-estimation register pipeline against dense circuit oracles."""

import os

import numpy as np
import pytest

import ringqpe as rq
from ringqpe.qpe import (
    estimate_to_json,
    write_distribution_csv,
)

from conftest import (
    SIGMA_X,
    random_hermitian,
    random_state,
    random_unitary,
    read_csv,
    spectral_measure,
    spectral_register_distribution,
)

TWO_PI = 2.0 * np.pi
ROOT = os.path.join(os.path.dirname(__file__), "..")


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


def literal_circuit_distribution(t_bits, u, color):
    """Read-out distribution of the literal circuit, for small t and n.

    The uniform register times the color, then sum_m |m><m| (x) U^m, then
    the dense inverse-QFT matrix e^(-2 pi i k m / 2^t) / 2^(t/2) on
    register 1, and |amplitude|^2 summed over register 2.
    """
    size = 1 << t_bits
    register = np.kron(np.full(size, 1.0 / np.sqrt(size)), color)
    controlled = (dense_controlled_operator(t_bits, u) @ register).reshape(size, -1)
    k, m = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    inverse_qft = np.exp(-2j * np.pi * k * m / size) / np.sqrt(size)
    return np.sum(np.abs(inverse_qft @ controlled) ** 2, axis=1)


def staged_circuit_distribution(t_bits, spectrum, color):
    """Read-out distribution of the circuit run stage by stage in U's own basis.

    Register 1 uniform and register 2 the color; row m of the controlled
    stage holds U^m color = V e^(i m theta) V^dagger color, in the
    computational basis of register 2; then the inverse QFT on register 1
    and |amplitude|^2 summed over register 2.
    """
    theta, v = spectrum
    size = 1 << t_bits
    m = np.arange(size)[:, None]
    rows = (np.exp(1j * m * theta) * (v.conj().T @ color)) @ v.T / np.sqrt(size)
    out = np.fft.fft(rows, axis=0) / np.sqrt(size)
    return np.sum(np.abs(out) ** 2, axis=1)


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

    def test_rejects_shots_past_int64(self):
        # numpy's multinomial sampler takes at most an int64 count; above it
        # sampling died with an OverflowError
        with pytest.raises(rq.PreconditionError, match="shots"):
            rq.QpeConfig(4, shots=2 ** 63)

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
    def test_rejects_unnormalized_color(self):
        # the weights of the color (1, 1)
        with pytest.raises(rq.PreconditionError, match="register norm"):
            rq.qpe_estimate(np.zeros(2), np.ones(2), rq.QpeConfig(3))

    @pytest.mark.parametrize("total", [1 - 2.5e-10, 1 + 2.5e-10])
    def test_rejects_a_weight_sum_past_the_tolerance(self, total):
        # a norm sqrt(total), 1.25e-10 off 1
        with pytest.raises(rq.PreconditionError, match="register norm"):
            rq.qpe_estimate(np.zeros(2), np.array([0.5, 0.5]) * total, rq.QpeConfig(3))

    def test_rejects_a_negative_weight(self):
        with pytest.raises(rq.PreconditionError, match=">= 0"):
            rq.qpe_estimate(np.zeros(2), np.array([1.5, -0.5]), rq.QpeConfig(3))

    @pytest.mark.parametrize("theta", [
        [np.nan, 0.0], [np.inf, 0.0], [1j, 0.0], [[0.0, 0.0]],
    ], ids=["nan", "inf", "complex", "2-D"])
    def test_rejects_phases_that_are_not_finite_reals(self, theta):
        with pytest.raises(rq.PreconditionError, match="finite reals"):
            rq.qpe_estimate(np.array(theta), np.array([1.0, 0.0]), rq.QpeConfig(3))

    @pytest.mark.parametrize("weights", [[np.inf, 0.0], [1.0 + 0j, 0.0]],
                             ids=["inf", "complex"])
    def test_rejects_weights_that_are_not_finite_reals(self, weights):
        with pytest.raises(rq.PreconditionError, match="finite reals"):
            rq.qpe_estimate(np.zeros(2), np.array(weights), rq.QpeConfig(3))

    @pytest.mark.parametrize("kind", ["energy", "unitary"])
    def test_weight_check_is_no_tighter_than_the_state_check(self, kind):
        # a state 0.9e-10 short of unit norm passes the problem's check, so
        # its Born weights must pass the register's
        rng = np.random.default_rng(3400)
        state = random_state(rng, 4) * (1.0 - 0.9e-10)
        if kind == "energy":
            problem = rq.EnergyProblem(random_hermitian(rng, 4), 1.0, state)
        else:
            problem = rq.UnitarySpec(random_unitary(rng, 4), state)
        est = rq.qpe_estimate(problem.spectrum.eigenvalues, problem.weights,
                              rq.QpeConfig(6))
        assert abs(est.distribution.probs.sum() - 1.0) < 1e-9


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
        color = random_state(rng, n)
        got = rq.qpe_estimate(*spectral_measure(rq.eig_unitary(u), color),
                              rq.QpeConfig(t)).distribution.probs
        want = literal_circuit_distribution(t, u, color)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_deep_register_keeps_its_norm(self):
        # repeated squaring left this problem's register norm 2.2e-10 off 1
        # at t = 20, past the 1e-10 check; eigenbasis powers keep it unitary
        rng = np.random.default_rng(0)
        v = random_unitary(rng, 4)
        phases = rng.uniform(-np.pi, np.pi, 4)
        u = (v * np.exp(1j * phases)) @ v.conj().T
        t = 20
        est = rq.qpe_estimate(*spectral_measure(rq.eig_unitary(u), v[:, 0]),
                              rq.QpeConfig(t))
        k_true = (phases[0] % TWO_PI) * (1 << t) / TWO_PI
        assert abs(est.k_best - k_true) <= 1.0

    def test_names_inputs_it_cannot_read(self, sigma_x_problem):
        # the spectrum tuple in place of its eigenphases, and weights numpy
        # reads as objects, came through as a bare ValueError and TypeError
        with pytest.raises(rq.PreconditionError,
                           match="cannot read EigenDecomposition as eigenphases"):
            rq.qpe_estimate(sigma_x_problem.spectrum, sigma_x_problem.weights,
                            rq.QpeConfig(3))
        with pytest.raises(rq.PreconditionError, match="weights must be finite reals"):
            rq.qpe_estimate(np.zeros(2), np.array([None, 1.0]), rq.QpeConfig(3))
        with pytest.raises(rq.PreconditionError, match="eigenphases must be"):
            rq.qpe_estimate(np.array(["0", "1"]), np.array([1.0, 0.0]),
                            rq.QpeConfig(3))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(rq.PreconditionError, match="do not match"):
            rq.qpe_estimate(np.zeros(3), np.array([1.0, 0.0]), rq.QpeConfig(2))

    def test_makes_no_fft(self, monkeypatch):
        # the read-out is the closed form of the inverse QFT, not a transform
        rng = np.random.default_rng(3201)
        spectrum = rq.eig_unitary(random_unitary(rng, 3))
        color = random_state(rng, 3)

        def forbidden(*args, **kwargs):
            raise AssertionError("ran a Fourier transform")

        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, forbidden)
        est = rq.qpe_estimate(*spectral_measure(spectrum, color), rq.QpeConfig(6))
        assert abs(est.distribution.probs.sum() - 1.0) < 1e-12

    def test_makes_no_decomposition(self, monkeypatch):
        rng = np.random.default_rng(3200)
        spectrum = rq.eig_unitary(random_unitary(rng, 3))
        color = random_state(rng, 3)

        def forbidden(*args, **kwargs):
            raise AssertionError("decomposed U again")

        for name in ("eigh", "eigvals", "eig"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        est = rq.qpe_estimate(*spectral_measure(spectrum, color), rq.QpeConfig(6))
        assert abs(est.distribution.probs.sum() - 1.0) < 1e-12


class TestOneRegisterPipeline:
    """qpe_estimate runs the circuit in one register."""

    @pytest.mark.parametrize("shots", [0, 500])
    @pytest.mark.parametrize("n", [1, 3, 32])
    @pytest.mark.parametrize("t", [1, 2, 5, 6, 9, 16])
    def test_matches_the_spectral_closed_form(self, t, n, shots):
        rng = np.random.default_rng(8000 + 100 * n + t)
        spectrum = rq.eig_unitary(random_unitary(rng, n))
        color = random_state(rng, n)
        theta, v = spectrum
        exact = spectral_register_distribution(t, theta, np.abs(v.conj().T @ color) ** 2)
        est = rq.qpe_estimate(*spectral_measure(spectrum, color),
                              rq.QpeConfig(t, shots=shots, rng_seed=17))
        if shots == 0:
            assert est.distribution.mode == "exact"
            assert np.max(np.abs(est.distribution.probs - exact)) <= 1e-12
            assert est.k_best == int(np.argmax(exact))
        else:
            counts = np.random.default_rng(17).multinomial(shots, exact / exact.sum())
            assert est.distribution.mode == "sampled"
            assert np.array_equal(est.distribution.probs, counts / shots)
            assert est.k_best == int(np.argmax(counts))

    @pytest.mark.parametrize("shots", [0, 500])
    @pytest.mark.parametrize("n", [1, 3, 32])
    @pytest.mark.parametrize("t", [1, 2, 5, 6, 9, 16])
    def test_matches_the_staged_circuit(self, t, n, shots):
        # qpe_estimate reads out in U's eigenbasis; the staged circuit keeps
        # register 2 in the computational basis, which the read-out must not see
        rng = np.random.default_rng(8000 + 100 * n + t)
        spectrum = rq.eig_unitary(random_unitary(rng, n))
        color = random_state(rng, n)
        staged = staged_circuit_distribution(t, spectrum, color)
        est = rq.qpe_estimate(*spectral_measure(spectrum, color),
                              rq.QpeConfig(t, shots=shots, rng_seed=17))
        if shots == 0:
            assert np.max(np.abs(est.distribution.probs - staged)) <= 1e-12
            assert est.k_best == int(np.argmax(staged))
        else:
            counts = np.random.default_rng(17).multinomial(shots, staged / staged.sum())
            assert np.array_equal(est.distribution.probs, counts / shots)

    # bounds in registers, 2^t n complex amplitudes, which qpe_estimate
    # never builds; a (2^t, n) array of any kind would break 1.25 at n = 32.
    # At n = 1 the run holds the 2^t probabilities, half a register, and
    # its blocks; a copy of the probabilities (np.argmax makes one of a
    # read-only array) would add half a register. A sampled read-out adds
    # its counts and numpy's multinomial, and stays below 1.7 only if the
    # blocks are freed before it
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
            rq.qpe_estimate(*spectral_measure(spectrum, color),
                            rq.QpeConfig(t, shots=shots))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * nbytes

    @pytest.mark.parametrize("n", [1, 32])
    def test_peak_memory_is_the_probabilities_and_its_blocks(self, n):
        import tracemalloc

        # the 2^t probabilities and three blocks of BLOCK_ROWS rows, about
        # 1.2 of the probabilities at t = 16 for any n; a fourth block, or
        # any temporary that grows with n, would pass 1.25
        t = 16
        nbytes = (1 << t) * 8
        rng = np.random.default_rng(10)
        spectrum = rq.eig_unitary(random_unitary(rng, n))
        color = random_state(rng, n)
        tracemalloc.start()
        try:
            rq.qpe_estimate(*spectral_measure(spectrum, color), rq.QpeConfig(t))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * nbytes

    def test_refuses_oversized_register_before_allocating(self, monkeypatch):
        from ringqpe.linalg import BYTES_GUARD

        # the defect-probe shape (t = 20, n = 4) fits; t = 24, n = 64 is 16 GiB
        assert (1 << 20) * 4 * 16 <= BYTES_GUARD < (1 << 24) * 64 * 16
        n = 64
        theta, weights = spectral_measure(rq.eig_unitary(np.eye(n)), np.eye(n)[0])

        def forbidden(*args, **kwargs):
            raise AssertionError("register allocated before the guard")

        monkeypatch.setattr(np, "empty", forbidden)
        with pytest.raises(rq.ResourceLimitError, match="guard"):
            rq.qpe_estimate(theta, weights, rq.QpeConfig(24))

    def test_operation_count_formula(self):
        n = 3
        spectrum = rq.eig_unitary(random_unitary(np.random.default_rng(1), n))
        theta, weights = spectral_measure(spectrum, np.array([1.0, 0.0, 0.0]))
        for t in (1, 2, 5, 6):
            with rq.count_macs() as counter:
                rq.qpe_estimate(theta, weights, rq.QpeConfig(t))
            # each color's kernel is evaluated once on every read-out row
            assert counter.total == n * (1 << t), f"t = {t}"


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
        got = rq.qpe_estimate(*spectral_measure(rq.eig_unitary(u), color),
                              rq.QpeConfig(t)).distribution.probs
        assert np.max(np.abs(got - want)) < 1e-12


class TestEdgePhases:
    """The closed form against the staged circuit where its kernel is 0/0,
    splits evenly or wraps around the circle."""

    @staticmethod
    def staged_and_closed_form(t, theta, rng, color=None):
        n = len(theta)
        spectrum = rq.EigenDecomposition(np.asarray(theta, dtype=float),
                                         random_unitary(rng, n))
        if color is None:
            color = random_state(rng, n)
        want = staged_circuit_distribution(t, spectrum, color)
        got = rq.qpe_estimate(*spectral_measure(spectrum, color),
                              rq.QpeConfig(t)).distribution.probs
        assert np.max(np.abs(got - want)) < 1e-12
        return got

    @pytest.mark.parametrize("t", [3, 6, 10, 16, 20])
    def test_phase_on_a_bin(self, t):
        k = (1 << t) // 3
        probs = self.staged_and_closed_form(
            t, [TWO_PI * k / (1 << t)], np.random.default_rng(t), np.array([1.0])
        )
        assert probs[k] >= 1.0 - 1e-12

    @pytest.mark.parametrize("t", [6, 16, 20])
    def test_half_bin_phase_splits_evenly(self, t):
        probs = self.staged_and_closed_form(
            t, [TWO_PI * 5.5 / (1 << t)], np.random.default_rng(t), np.array([1.0])
        )
        assert abs(probs[5] - probs[6]) < 1e-12

    @pytest.mark.parametrize("t", [6, 16, 20])
    @pytest.mark.parametrize("phase", [TWO_PI - 1e-9, -1e-12, np.pi, -np.pi],
                             ids=["2pi-1e-9", "-1e-12", "+pi", "-pi"])
    def test_phases_at_the_seams(self, t, phase):
        self.staged_and_closed_form(t, [phase, 1.0], np.random.default_rng(t))

    @pytest.mark.parametrize("t", [6, 16, 20])
    def test_degenerate_pair(self, t):
        self.staged_and_closed_form(t, [0.7, 0.7, -2.0], np.random.default_rng(t))


class TestMeasurement:
    def test_identity_reads_out_zero(self):
        est = rq.qpe_estimate(*spectral_measure(rq.eig_unitary(np.eye(2)),
                                                 np.array([1.0, 0.0])),
                              rq.QpeConfig(4))
        assert est.k_best == 0
        assert est.phi_estimate == 0.0
        assert est.distribution.probs[0] > 1.0 - 1e-12

    def test_representable_phase_reads_out_exactly(self):
        t = 6
        phi_u = TWO_PI * 5 / 64
        u = np.array([[np.exp(1j * phi_u)]])
        est = rq.qpe_estimate(*spectral_measure(rq.eig_unitary(u), np.array([1.0])),
                              rq.QpeConfig(t))
        assert est.k_best == 5
        assert est.distribution.probs[5] > 1.0 - 1e-9

    def test_three_bit_register_is_deterministic(self):
        u = np.array([[np.exp(1j * TWO_PI * 3 / 8)]])
        est = rq.qpe_estimate(*spectral_measure(rq.eig_unitary(u), np.array([1.0])),
                              rq.QpeConfig(3))
        assert est.k_best == 3
        assert abs(est.distribution.probs[3] - 1.0) < 1e-12

    def test_worst_case_splits_across_neighbors(self):
        t = 6
        phi_u = TWO_PI * 5.5 / 64  # exactly between two read-out values
        u = np.array([[np.exp(1j * phi_u)]])
        est = rq.qpe_estimate(*spectral_measure(rq.eig_unitary(u), np.array([1.0])),
                              rq.QpeConfig(t))
        p = est.distribution.probs
        assert abs(p[5] - p[6]) < 1e-12
        assert p[5] >= 0.40

    def test_eigencolor_distribution_matches_closed_form(self):
        t = 6
        phi_u = TWO_PI * 5.5 / 64
        u = np.array([[np.exp(1j * phi_u)]])
        est = rq.qpe_estimate(*spectral_measure(rq.eig_unitary(u), np.array([1.0])),
                              rq.QpeConfig(t))
        want = np.array([fejer_probability(t, phi_u, k) for k in range(64)])
        assert np.max(np.abs(est.distribution.probs - want)) < 1e-12

    def test_exact_mode_sums_to_one(self):
        rng = np.random.default_rng(11)
        u = random_unitary(rng, 3)
        est = rq.qpe_estimate(*spectral_measure(rq.eig_unitary(u), random_state(rng, 3)),
                              rq.QpeConfig(7))
        assert abs(est.distribution.probs.sum() - 1.0) < 1e-9
        assert est.distribution.mode == "exact"
        assert est.distribution.shots is None

    def test_sampled_mode_is_reproducible(self):
        rng = np.random.default_rng(12)
        u = random_unitary(rng, 2)
        color = random_state(rng, 2)
        cfg = rq.QpeConfig(5, shots=2000, rng_seed=123)
        a = rq.qpe_estimate(*spectral_measure(rq.eig_unitary(u), color), cfg)
        b = rq.qpe_estimate(*spectral_measure(rq.eig_unitary(u), color), cfg)
        assert np.array_equal(a.distribution.probs, b.distribution.probs)
        assert a.k_best == b.k_best
        c = rq.qpe_estimate(*spectral_measure(rq.eig_unitary(u), color),
                            rq.QpeConfig(5, shots=2000, rng_seed=124))
        assert not np.array_equal(a.distribution.probs, c.distribution.probs)

    def test_sampled_histogram_sums_to_one(self):
        u = np.array([[np.exp(0.7j)]])
        cfg = rq.QpeConfig(4, shots=137, rng_seed=5)
        est = rq.qpe_estimate(*spectral_measure(rq.eig_unitary(u), np.array([1.0])), cfg)
        assert est.distribution.probs.sum() == pytest.approx(1.0, abs=1e-15)
        assert est.distribution.mode == "sampled"
        assert est.distribution.shots == 137
        assert est.distribution.seed == 5

    def test_sampled_concentrates_near_exact_mode(self):
        t = 6
        phi_u = TWO_PI * 17 / 64
        u = np.array([[np.exp(1j * phi_u)]])
        cfg = rq.QpeConfig(t, shots=4096, rng_seed=0)
        est = rq.qpe_estimate(*spectral_measure(rq.eig_unitary(u), np.array([1.0])), cfg)
        assert est.k_best == 17

    def test_tie_breaks_toward_smaller_k(self):
        u = np.array([[1j]])  # phi_u = pi/2: probs (1/2, 1/2) at t = 1
        est = rq.qpe_estimate(*spectral_measure(rq.eig_unitary(u), np.array([1.0])),
                              rq.QpeConfig(1))
        assert abs(est.distribution.probs[0] - 0.5) < 1e-12
        assert est.k_best == 0
        assert est.phi_estimate == 0.0

    def test_sampled_histogram_overwrites_its_probabilities(self):
        import tracemalloc

        t, n, shots = 16, 1, 500
        nbytes = (1 << t) * n * 16
        rng = np.random.default_rng(13)
        spectrum = rq.eig_unitary(random_unitary(rng, n))
        color = random_state(rng, n)
        tracemalloc.start()
        try:
            est = rq.qpe_estimate(*spectral_measure(spectrum, color),
                                  rq.QpeConfig(t, shots=shots, rng_seed=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the histogram drawn from the normalised exact probabilities, bit
        # for bit
        exact = rq.qpe_estimate(*spectral_measure(spectrum, color),
                                rq.QpeConfig(t)).distribution.probs
        counts = np.random.default_rng(3).multinomial(shots, exact / exact.sum())
        assert np.array_equal(est.distribution.probs, counts / shots)
        # the probabilities and the int64 counts, 1.0 register at n = 1,
        # plus numpy's sampling scratch; a normalised copy, a new histogram
        # array or a copy of it for the distribution would add half a
        # register each
        assert peak < 1.4 * nbytes


class TestEndToEnd:
    def test_nan_state_rejected(self):
        # the weights of the state (nan, 0)
        with pytest.raises(rq.PreconditionError, match="finite"):
            rq.qpe_estimate(np.zeros(2), np.array([np.nan, 0.0]), rq.QpeConfig(4))

    def test_nan_register_and_distribution_rejected(self):
        with pytest.raises(rq.PreconditionError, match="sum"):
            rq.Register1Distribution(np.array([np.nan, 1.0]), "exact")

    def test_two_level_ground_state(self):
        u = rq.expm_dense(2.0 * SIGMA_X, -1.0)
        color = np.array([1.0, -1.0]) / np.sqrt(2.0)
        est = rq.qpe_estimate(*spectral_measure(rq.eig_unitary(u), color),
                              rq.QpeConfig(10))
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
        via_h = rq.qpe_estimate(problem.spectrum.eigenvalues, problem.weights,
                                rq.QpeConfig(9))
        u = rq.eig_unitary(rq.expm_dense(h, -1.0 / 1.3))
        via_u = rq.qpe_estimate(*spectral_measure(u, color), rq.QpeConfig(9))
        assert np.max(np.abs(via_h.distribution.probs - via_u.distribution.probs)) < 1e-12

    @pytest.mark.parametrize("e", [2, 4, 8])
    def test_tail_bound_on_sampled_phases(self, e):
        t = 8
        size = 1 << t
        rng = np.random.default_rng(600 + e)
        for _ in range(20):
            phi_u = float(rng.uniform(0.0, TWO_PI))
            u = np.array([[np.exp(1j * phi_u)]])
            est = rq.qpe_estimate(*spectral_measure(rq.eig_unitary(u), np.array([1.0])),
                                  rq.QpeConfig(t))
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


class TestSerialization:
    def test_distribution_csv_round_trip(self, tmp_path):
        u = rq.expm_dense(2.0 * SIGMA_X, -1.0)
        color = np.array([1.0, -1.0]) / np.sqrt(2.0)
        est = rq.qpe_estimate(*spectral_measure(rq.eig_unitary(u), color),
                              rq.QpeConfig(6))
        path = tmp_path / "dist.csv"
        write_distribution_csv(est.distribution, path)
        header, data = read_csv(path)
        assert header == ["k", "probability"]
        assert np.array_equal(data[:, 0], np.arange(64))
        assert np.array_equal(data[:, 1], est.distribution.probs)

    def test_distribution_matches_the_golden_file(self, tmp_path):
        # qpe's default t = 10 on the shipped 0.8/0.2 superposition, frozen
        # by tests/golden/regen.py
        problem = rq.load_problem(
            os.path.join(ROOT, "problems", "sigma_z_superposition.json"))
        est = rq.qpe_estimate(problem.spectrum.eigenvalues, problem.weights,
                              rq.QpeConfig(10))
        path = tmp_path / "qpe_distribution.csv"
        write_distribution_csv(est.distribution, path)
        with open(os.path.join(ROOT, "tests", "golden", "qpe_distribution.csv"),
                  "rb") as fh:
            assert path.read_bytes() == fh.read()

    def test_sampled_distribution_takes_no_python_format(self, tmp_path, monkeypatch):
        # mostly 0.0 rows, then multiples of 1 / shots: the CSV writer's
        # numpy kernel formats every one of them
        import ringqpe.linalg as linalg_module

        def forbidden(*args):
            raise AssertionError("value formatted by Python")

        u = np.array([[np.exp(0.7j)]])
        cfg = rq.QpeConfig(12, shots=2000, rng_seed=4)
        est = rq.qpe_estimate(*spectral_measure(rq.eig_unitary(u), np.array([1.0])), cfg)
        path = tmp_path / "dist.csv"
        monkeypatch.setattr(linalg_module, "format", forbidden, raising=False)
        write_distribution_csv(est.distribution, path)
        _, data = read_csv(path)
        assert np.array_equal(data[:, 1], est.distribution.probs)

    def test_estimate_json_fields(self):
        cfg = rq.QpeConfig(6, shots=100, rng_seed=9)
        u = np.array([[np.exp(0.5j)]])
        est = rq.qpe_estimate(*spectral_measure(rq.eig_unitary(u), np.array([1.0])), cfg)
        obj = estimate_to_json(est, cfg)
        assert obj == {
            "k": est.k_best,
            "phi": est.phi_estimate,
            "t": 6,
            "mode": "sampled",
            "seed": 9,
        }
