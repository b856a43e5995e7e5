"""Encoder: problem objects, gauge construction, phase unwrapping, wire JSON."""

import json

import numpy as np
import pytest
import scipy.linalg

import ringqpe as rq
from ringqpe.encode import vector_from_json, vector_to_json

from conftest import SIGMA_X, SIGMA_Z, random_hermitian, random_state, random_unitary

TWO_PI = 2.0 * np.pi


def reconstructed_unitary(gauge):
    """The holonomy the ring applies per revival, exp(i W)."""
    inv_scale = -(
        gauge.params.charge_q * TWO_PI * gauge.params.radius_r
        * rq.VELOCITY_FACTOR / gauge.params.hbar
    )
    return rq.unitary_from_hermitian(gauge.a_phi, inv_scale)


class TestEnergyProblem:
    def test_rejects_non_hermitian(self):
        with pytest.raises(rq.PreconditionError):
            rq.EnergyProblem(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0, np.array([1.0, 0.0]))

    def test_rejects_nonpositive_reference(self):
        with pytest.raises(rq.PreconditionError, match="E_R"):
            rq.EnergyProblem(SIGMA_X, 0.0, np.array([1.0, 0.0]))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(rq.PreconditionError, match="dimension"):
            rq.EnergyProblem(SIGMA_X, 1.0, np.array([1.0, 0.0, 0.0]))

    def test_rejects_unnormalized_state(self):
        with pytest.raises(rq.PreconditionError, match="norm"):
            rq.EnergyProblem(SIGMA_X, 1.0, np.array([1.0, 1.0]))


class TestUnitarySpec:
    def test_rejects_non_unitary(self):
        with pytest.raises(rq.PreconditionError):
            rq.UnitarySpec(2.0 * np.eye(2), np.array([1.0, 0.0]))


class TestEncodeHamiltonian:
    def test_zero_hamiltonian_gives_zero_gauge(self, natural_params):
        problem = rq.EnergyProblem(np.zeros((3, 3)), 1.0, np.array([1.0, 0.0, 0.0]))
        gauge = rq.encode_hamiltonian_as_gauge(problem, natural_params)
        assert np.max(np.abs(gauge.a_phi)) < 1e-14

    def test_two_level_closed_form(self, sigma_x_problem, natural_params):
        gauge = rq.encode_hamiltonian_as_gauge(sigma_x_problem, natural_params)
        expected = -SIGMA_X / TWO_PI
        assert np.max(np.abs(gauge.a_phi - expected)) < 1e-12

    # a spectral radius past pi may alias; the holonomy survives either way
    @pytest.mark.filterwarnings("ignore::ringqpe.PhaseAliasingWarning")
    @pytest.mark.parametrize("seed", range(10))
    def test_holonomy_round_trip(self, seed, natural_params):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(1, 6))
        h = random_hermitian(rng, n, scale=0.8)
        problem = rq.EnergyProblem(h, 1.0, random_state(rng, n))
        gauge = rq.encode_hamiltonian_as_gauge(problem, natural_params)
        want = rq.unitary_from_hermitian(h, 1.0)  # exp(i H / E_R)
        assert np.max(np.abs(reconstructed_unitary(gauge) - want)) < 1e-8

    def test_round_trip_with_physical_units(self):
        params = rq.RingPhysicalParams(hbar=3.0, charge_q=-0.5, radius_r=2.0, mass_mq=0.7)
        rng = np.random.default_rng(42)
        h = random_hermitian(rng, 3, scale=0.5)
        problem = rq.EnergyProblem(h, 2.0, random_state(rng, 3))
        gauge = rq.encode_hamiltonian_as_gauge(problem, params)
        want = rq.unitary_from_hermitian(h, 1.0 / 2.0)
        assert np.max(np.abs(reconstructed_unitary(gauge) - want)) < 1e-8

    def test_reference_energy_rescales_gauge(self, natural_params):
        state = np.array([1.0, 0.0])
        g1 = rq.encode_hamiltonian_as_gauge(
            rq.EnergyProblem(SIGMA_Z, 1.0, state), natural_params
        )
        g2 = rq.encode_hamiltonian_as_gauge(
            rq.EnergyProblem(SIGMA_Z, 2.0, state), natural_params
        )
        assert np.max(np.abs(g1.a_phi - 2.0 * g2.a_phi)) < 1e-12

    def test_aliasing_warns_but_preserves_holonomy(self, natural_params):
        h = 8.0 * SIGMA_Z  # eigenvalues far outside (-pi, pi]
        problem = rq.EnergyProblem(h, 1.0, np.array([1.0, 0.0]))
        with pytest.warns(rq.PhaseAliasingWarning):
            gauge = rq.encode_hamiltonian_as_gauge(problem, natural_params)
        want = rq.unitary_from_hermitian(h, 1.0)
        assert np.max(np.abs(reconstructed_unitary(gauge) - want)) < 1e-8
        # the gauge itself stays in the fundamental branch
        lam, _ = rq.eig_hermitian(gauge.a_phi)
        assert np.max(np.abs(lam)) <= (np.pi / TWO_PI / rq.VELOCITY_FACTOR) + 1e-12

    def test_no_warning_inside_branch(self, sigma_x_problem, natural_params):
        import warnings as w
        with w.catch_warnings():
            w.simplefilter("error", rq.PhaseAliasingWarning)
            rq.encode_hamiltonian_as_gauge(sigma_x_problem, natural_params)


class TestEncodeUnitary:
    def test_identity_gives_zero_gauge(self, natural_params):
        spec = rq.UnitarySpec(np.eye(2), np.array([1.0, 0.0]))
        gauge = rq.encode_unitary_as_gauge(spec, natural_params)
        assert np.max(np.abs(gauge.a_phi)) < 1e-14

    def test_diagonal_quarter_turns(self, natural_params):
        u = np.diag(np.exp(1j * np.array([np.pi / 2, -np.pi / 2])))
        spec = rq.UnitarySpec(u, np.array([1.0, 0.0]))
        gauge = rq.encode_unitary_as_gauge(spec, natural_params)
        expected = np.diag([-1.0 / 8.0, 1.0 / 8.0])
        assert np.max(np.abs(gauge.a_phi - expected)) < 1e-12

    def test_global_phase_is_scalar_gauge(self, natural_params):
        theta = 0.4
        spec = rq.UnitarySpec(
            np.exp(1j * theta) * np.eye(3), np.array([1.0, 0.0, 0.0])
        )
        gauge = rq.encode_unitary_as_gauge(spec, natural_params)
        expected = -theta / (2.0 * TWO_PI) * np.eye(3)
        assert np.max(np.abs(gauge.a_phi - expected)) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_holonomy_round_trip(self, seed, natural_params):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(1, 9))
        u = random_unitary(rng, n)
        spec = rq.UnitarySpec(u, random_state(rng, n))
        gauge = rq.encode_unitary_as_gauge(spec, natural_params)
        assert np.max(np.abs(reconstructed_unitary(gauge) - u)) < 1e-8

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_schur_phase_matrix(self, seed):
        rng = np.random.default_rng(2100 + seed)
        n = int(rng.integers(1, 9))
        u = random_unitary(rng, n)
        params = rq.RingPhysicalParams(hbar=1.3, charge_q=0.7, radius_r=2.0)
        gauge = rq.encode_unitary_as_gauge(
            rq.UnitarySpec(u, random_state(rng, n)), params
        )
        t_form, q = scipy.linalg.schur(u, output="complex")
        phase_matrix = (q * np.angle(np.diag(t_form))) @ q.conj().T
        scale = -params.hbar / (
            params.charge_q * TWO_PI * params.radius_r * rq.VELOCITY_FACTOR
        )
        assert np.max(np.abs(gauge.a_phi - scale * phase_matrix)) < 1e-12

    def test_agrees_with_hamiltonian_route(self, natural_params):
        rng = np.random.default_rng(77)
        h = random_hermitian(rng, 4, scale=0.6)
        state = random_state(rng, 4)
        g_h = rq.encode_hamiltonian_as_gauge(
            rq.EnergyProblem(h, 1.0, state), natural_params
        )
        u = rq.unitary_from_hermitian(h, 1.0)
        g_u = rq.encode_unitary_as_gauge(rq.UnitarySpec(u, state), natural_params)
        assert np.max(np.abs(g_h.a_phi - g_u.a_phi)) < 1e-8


class TestPhaseHelpers:
    def test_unwrap_identity_below_pi(self):
        assert rq.unwrap_phase(0.0) == 0.0
        assert rq.unwrap_phase(np.pi) == np.pi
        assert abs(rq.unwrap_phase(1.3) - 1.3) < 1e-15

    def test_unwrap_folds_upper_half(self):
        assert abs(rq.unwrap_phase(TWO_PI - 2.0) - (-2.0)) < 1e-12
        assert rq.unwrap_phase(np.nextafter(TWO_PI, 0.0)) < 0.0

    def test_unwrap_domain_errors(self):
        for bad in (-0.1, TWO_PI, 7.0):
            with pytest.raises(rq.PreconditionError):
                rq.unwrap_phase(bad)

    def test_phase_to_energy(self):
        assert rq.phase_to_energy(-2.0, 1.0) == -2.0
        assert abs(rq.phase_to_energy(0.5, 3.0) - 1.5) < 1e-15


class TestProblemJson:
    def test_energy_problem_round_trip(self, sigma_z_problem):
        blob = json.dumps(rq.problem_to_json(sigma_z_problem))
        back = rq.problem_from_json(json.loads(blob))
        assert isinstance(back, rq.EnergyProblem)
        assert np.array_equal(back.hamiltonian, sigma_z_problem.hamiltonian)
        assert back.E_R == sigma_z_problem.E_R
        assert np.array_equal(back.candidate_state, sigma_z_problem.candidate_state)

    def test_unitary_spec_round_trip(self):
        rng = np.random.default_rng(5)
        u = random_unitary(rng, 3)
        spec = rq.UnitarySpec(u, random_state(rng, 3))
        back = rq.problem_from_json(rq.problem_to_json(spec))
        assert isinstance(back, rq.UnitarySpec)
        assert np.array_equal(back.u_matrix, spec.u_matrix)
        assert np.array_equal(back.eigenstate, spec.eigenstate)

    def test_vector_json_exact(self):
        v = np.array([0.1 + 0.9j, -0.3, 1e-17j])
        assert np.array_equal(vector_from_json(vector_to_json(v)), v)

    def test_requires_exactly_one_matrix_kind(self, sigma_x_problem):
        obj = rq.problem_to_json(sigma_x_problem)
        both = dict(obj, unitary=obj["hamiltonian"])
        with pytest.raises(rq.ProblemFormatError):
            rq.problem_from_json(both)
        neither = {k: v for k, v in obj.items() if k != "hamiltonian"}
        with pytest.raises(rq.ProblemFormatError):
            rq.problem_from_json(neither)

    def test_malformed_payloads_rejected(self, sigma_x_problem):
        good = rq.problem_to_json(sigma_x_problem)
        bad_state = dict(good, state={"re": [1.0], "im": [0.0, 0.0]})
        missing_er = {k: v for k, v in good.items() if k != "E_R"}
        bad_matrix = dict(good, hamiltonian="nope")
        for obj in ([1, 2], bad_state, missing_er, bad_matrix):
            with pytest.raises(rq.ProblemFormatError):
                rq.problem_from_json(obj)

    def test_semantic_errors_surface_as_format_errors(self, sigma_x_problem):
        good = rq.problem_to_json(sigma_x_problem)
        skewed = dict(good, hamiltonian=rq.matrix_to_json(np.array([[0, 1], [0, 0]])))
        with pytest.raises(rq.ProblemFormatError):
            rq.problem_from_json(skewed)

    def test_load_problem_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(rq.ProblemFormatError, match="JSON"):
            rq.load_problem(path)

    def test_shipped_problems_parse(self):
        import os
        root = os.path.join(os.path.dirname(__file__), "..", "problems")
        names = sorted(os.listdir(root))
        assert len(names) == 3
        for name in names:
            problem = rq.load_problem(os.path.join(root, name))
            assert isinstance(problem, (rq.EnergyProblem, rq.UnitarySpec))
