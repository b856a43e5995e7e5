"""Encoder: problem objects, gauge construction, phase unwrapping, wire JSON."""

import json

import numpy as np
import pytest
import scipy.linalg

import ringqpe as rq
import ringqpe.linalg as linalg_module
from ringqpe.encode import vector_from_json, vector_to_json

from conftest import SIGMA_X, SIGMA_Z, random_hermitian, random_state, random_unitary

TWO_PI = 2.0 * np.pi


def reconstructed_unitary(gauge):
    """The holonomy the ring applies per revival, exp(i W), by Pade."""
    return rq.expm_dense(gauge.a_phi, TWO_PI * rq.VELOCITY_FACTOR)


def forbid_decompositions(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("decomposed a matrix again")

    for name in ("eigh", "eigvals", "eig"):
        monkeypatch.setattr(np.linalg, name, forbidden)


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

    @pytest.mark.filterwarnings("ignore::ringqpe.PhaseAliasingWarning")
    @pytest.mark.parametrize("seed", range(6))
    def test_spectrum_is_the_wrapped_eigensystem_of_u(self, seed):
        rng = np.random.default_rng(1100 + seed)
        n = int(rng.integers(1, 7))
        h = random_hermitian(rng, n, scale=2.0)
        e_r = float(rng.uniform(0.3, 2.0))
        theta, v = rq.EnergyProblem(h, e_r, random_state(rng, n)).spectrum
        assert not (theta.flags.writeable or v.flags.writeable)
        assert np.all((theta > -np.pi) & (theta <= np.pi))
        assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-12
        # the same U = exp(i H / E_R) the Pade route gives
        recon = (v * np.exp(1j * theta)) @ v.conj().T
        assert np.max(np.abs(recon - rq.expm_dense(h, -1.0 / e_r))) < 1e-10

    def test_small_reference_scale_keeps_the_hermiticity_tolerance(self):
        # 5e-11 of asymmetry passes the 1e-10 check on H; H / E_R at
        # E_R = 0.1 would carry 5e-10
        h = np.array([[0.1, 0.05 + 5e-11j], [0.05, -0.1]])
        theta, v = rq.EnergyProblem(h, 0.1, np.array([1.0, 0.0])).spectrum
        want = np.linalg.eigvalsh(h) / 0.1
        assert np.max(np.abs(np.sort(theta) - want)) < 1e-12

    @pytest.mark.filterwarnings("ignore::ringqpe.PhaseAliasingWarning")
    @pytest.mark.parametrize("scale", [1.0, 10.0, 1e6])
    def test_u_matrix_is_exp_ih_on_the_unitary_group(self, scale):
        # U = exp(i H / E_R) from H, not from the spectrum: the two agree to
        # the phase rounding ||H / E_R|| eps, and U stays on the group
        rng = np.random.default_rng(1150)
        h = random_hermitian(rng, 3, scale=scale)
        problem = rq.EnergyProblem(h, 0.5, random_state(rng, 3))
        theta, v = problem.spectrum
        recon = (v * np.exp(1j * theta)) @ v.conj().T
        norm = np.linalg.norm(h / 0.5, 1)
        assert np.max(np.abs(problem.u_matrix - recon)) < 1e-13 * max(1.0, norm)
        assert linalg_module.unitarity_defect(problem.u_matrix) < 1e-14
        assert problem.u_matrix is problem.u_matrix  # formed once

    def test_state_is_kept_as_state(self, sigma_z_problem):
        assert np.array_equal(sigma_z_problem.state, [np.sqrt(0.8), np.sqrt(0.2)])


class TestUnitarySpec:
    def test_rejects_non_unitary(self):
        with pytest.raises(rq.PreconditionError):
            rq.UnitarySpec(2.0 * np.eye(2), np.array([1.0, 0.0]))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(rq.PreconditionError, match="dimension"):
            rq.UnitarySpec(np.eye(2), np.array([1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("seed", range(4))
    def test_spectrum_reproduces_u(self, seed):
        rng = np.random.default_rng(1200 + seed)
        n = int(rng.integers(1, 9))
        u = random_unitary(rng, n)
        theta, v = rq.UnitarySpec(u, random_state(rng, n)).spectrum
        assert not (theta.flags.writeable or v.flags.writeable)
        assert np.all((theta > -np.pi) & (theta <= np.pi))
        assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-12
        assert np.max(np.abs((v * np.exp(1j * theta)) @ v.conj().T - u)) < 1e-12


class TestEncodeHamiltonian:
    def test_zero_hamiltonian_gives_zero_gauge(self):
        problem = rq.EnergyProblem(np.zeros((3, 3)), 1.0, np.array([1.0, 0.0, 0.0]))
        gauge = rq.encode_as_gauge(problem)
        assert np.max(np.abs(gauge.a_phi)) < 1e-14

    def test_two_level_closed_form(self, sigma_x_problem):
        gauge = rq.encode_as_gauge(sigma_x_problem)
        expected = -SIGMA_X / TWO_PI
        assert np.max(np.abs(gauge.a_phi - expected)) < 1e-12

    # a spectral radius past pi may alias; the holonomy survives either way
    @pytest.mark.filterwarnings("ignore::ringqpe.PhaseAliasingWarning")
    @pytest.mark.parametrize("seed", range(10))
    def test_holonomy_round_trip(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(1, 6))
        h = random_hermitian(rng, n, scale=0.8)
        problem = rq.EnergyProblem(h, 1.0, random_state(rng, n))
        gauge = rq.encode_as_gauge(problem)
        want = rq.expm_dense(h, -1.0)  # exp(i H / E_R)
        assert np.max(np.abs(reconstructed_unitary(gauge) - want)) < 1e-8

    def test_reference_energy_rescales_gauge(self):
        state = np.array([1.0, 0.0])
        g1 = rq.encode_as_gauge(rq.EnergyProblem(SIGMA_Z, 1.0, state))
        g2 = rq.encode_as_gauge(rq.EnergyProblem(SIGMA_Z, 2.0, state))
        assert np.max(np.abs(g1.a_phi - 2.0 * g2.a_phi)) < 1e-12

    def test_aliasing_warns_but_preserves_holonomy(self):
        h = 8.0 * SIGMA_Z  # eigenvalues far outside (-pi, pi]
        # the problem warns once, when it decomposes H / E_R
        with pytest.warns(rq.PhaseAliasingWarning):
            problem = rq.EnergyProblem(h, 1.0, np.array([1.0, 0.0]))
        gauge = rq.encode_as_gauge(problem)
        want = rq.expm_dense(h, -1.0)
        assert np.max(np.abs(reconstructed_unitary(gauge) - want)) < 1e-8
        # the gauge itself stays in the fundamental branch: |lam| <= 1/4
        assert np.linalg.norm(gauge.a_phi, 2) <= (
            np.pi / TWO_PI / rq.VELOCITY_FACTOR) + 1e-12

    def test_no_warning_inside_branch(self):
        import warnings as w
        with w.catch_warnings():
            w.simplefilter("error", rq.PhaseAliasingWarning)
            problem = rq.EnergyProblem(2.0 * SIGMA_X, 1.0, np.array([1.0, 0.0]))
            rq.encode_as_gauge(problem)

    def test_shares_the_problem_eigenbasis(self, sigma_z_problem, monkeypatch):
        forbid_decompositions(monkeypatch)
        gauge = rq.encode_as_gauge(sigma_z_problem)
        theta, v = sigma_z_problem.spectrum
        want = (v * (-theta / (TWO_PI * rq.VELOCITY_FACTOR))) @ v.conj().T
        assert np.max(np.abs(gauge.a_phi - want)) < 1e-15
        assert not gauge.a_phi.flags.writeable


class TestEncodeUnitary:
    def test_identity_gives_zero_gauge(self):
        spec = rq.UnitarySpec(np.eye(2), np.array([1.0, 0.0]))
        gauge = rq.encode_as_gauge(spec)
        assert np.max(np.abs(gauge.a_phi)) < 1e-14

    def test_diagonal_quarter_turns(self):
        u = np.diag(np.exp(1j * np.array([np.pi / 2, -np.pi / 2])))
        spec = rq.UnitarySpec(u, np.array([1.0, 0.0]))
        gauge = rq.encode_as_gauge(spec)
        expected = np.diag([-1.0 / 8.0, 1.0 / 8.0])
        assert np.max(np.abs(gauge.a_phi - expected)) < 1e-12

    def test_global_phase_is_scalar_gauge(self):
        theta = 0.4
        spec = rq.UnitarySpec(
            np.exp(1j * theta) * np.eye(3), np.array([1.0, 0.0, 0.0])
        )
        gauge = rq.encode_as_gauge(spec)
        expected = -theta / (2.0 * TWO_PI) * np.eye(3)
        assert np.max(np.abs(gauge.a_phi - expected)) < 1e-12

    def test_makes_no_decomposition(self, monkeypatch):
        spec = rq.UnitarySpec(random_unitary(np.random.default_rng(2200), 4),
                              np.eye(4)[0])
        forbid_decompositions(monkeypatch)
        gauge = rq.encode_as_gauge(spec)
        theta, v = spec.spectrum
        want = (v * (-theta / (TWO_PI * rq.VELOCITY_FACTOR))) @ v.conj().T
        assert np.max(np.abs(gauge.a_phi - want)) < 1e-15

    @pytest.mark.parametrize("seed", range(10))
    def test_holonomy_round_trip(self, seed):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(1, 9))
        u = random_unitary(rng, n)
        spec = rq.UnitarySpec(u, random_state(rng, n))
        gauge = rq.encode_as_gauge(spec)
        assert np.max(np.abs(reconstructed_unitary(gauge) - u)) < 1e-8

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_schur_phase_matrix(self, seed):
        rng = np.random.default_rng(2100 + seed)
        n = int(rng.integers(1, 9))
        u = random_unitary(rng, n)
        gauge = rq.encode_as_gauge(rq.UnitarySpec(u, random_state(rng, n)))
        t_form, q = scipy.linalg.schur(u, output="complex")
        phase_matrix = (q * np.angle(np.diag(t_form))) @ q.conj().T
        scale = -1.0 / (TWO_PI * rq.VELOCITY_FACTOR)
        assert np.max(np.abs(gauge.a_phi - scale * phase_matrix)) < 1e-12

    def test_agrees_with_hamiltonian_route(self):
        rng = np.random.default_rng(77)
        h = random_hermitian(rng, 4, scale=0.6)
        state = random_state(rng, 4)
        g_h = rq.encode_as_gauge(rq.EnergyProblem(h, 1.0, state))
        u = rq.expm_dense(h, -1.0)
        g_u = rq.encode_as_gauge(rq.UnitarySpec(u, state))
        assert np.max(np.abs(g_h.a_phi - g_u.a_phi)) < 1e-8


class TestPhaseHelpers:
    """ring-sim folds a peak's position in [0, 2 pi) with wrap_to_signed."""

    def test_signed_wrap_keeps_up_to_pi(self):
        assert rq.wrap_to_signed(0.0) == 0.0
        assert rq.wrap_to_signed(np.pi) == np.pi
        assert rq.wrap_to_signed(1.3) == 1.3

    def test_signed_wrap_folds_upper_half(self):
        assert abs(rq.wrap_to_signed(TWO_PI - 2.0) - (-2.0)) < 1e-12
        assert rq.wrap_to_signed(np.nextafter(np.pi, 4.0)) < 0.0
        assert rq.wrap_to_signed(np.nextafter(TWO_PI, 0.0)) < 0.0


class TestProblemJson:
    def test_energy_problem_round_trip(self, sigma_z_problem):
        blob = json.dumps(rq.problem_to_json(sigma_z_problem))
        back = rq.problem_from_json(json.loads(blob))
        assert isinstance(back, rq.EnergyProblem)
        assert np.array_equal(back.hamiltonian, sigma_z_problem.hamiltonian)
        assert back.E_R == sigma_z_problem.E_R
        assert np.array_equal(back.state, sigma_z_problem.state)

    def test_unitary_spec_round_trip(self):
        rng = np.random.default_rng(5)
        u = random_unitary(rng, 3)
        spec = rq.UnitarySpec(u, random_state(rng, 3))
        back = rq.problem_from_json(rq.problem_to_json(spec))
        assert isinstance(back, rq.UnitarySpec)
        assert np.array_equal(back.u_matrix, spec.u_matrix)
        assert np.array_equal(back.state, spec.state)

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

    @pytest.mark.parametrize("mangle", [
        lambda o: o["hamiltonian"].update(rows=2.9),
        lambda o: o["hamiltonian"].update(cols="2"),
        lambda o: o["hamiltonian"].update(rows=2.0),
        lambda o: o.update(E_R=True),
        lambda o: o.update(E_R="2"),
        # float() raised a bare OverflowError
        lambda o: o.update(E_R=10 ** 400),
        lambda o: o["hamiltonian"]["re"].__setitem__(0, "0"),
        lambda o: o["hamiltonian"]["im"].__setitem__(0, False),
        lambda o: o["state"]["re"].__setitem__(1, "-0.7"),
        lambda o: o["state"]["im"].__setitem__(1, True),
    ], ids=["rows-fraction", "cols-string", "rows-float", "E_R-bool",
            "E_R-string", "E_R-past-float", "re-string", "im-bool",
            "state-re-string", "state-im-bool"])
    def test_values_of_the_wrong_json_type_are_refused(self, sigma_x_problem,
                                                       mangle):
        # each loaded before: a size went through int(), which truncates
        # 2.9 and parses "2", and E_R and the entries through float(),
        # which takes True as 1 and parses "2"
        obj = json.loads(json.dumps(rq.problem_to_json(sigma_x_problem)))
        assert isinstance(rq.problem_from_json(obj), rq.EnergyProblem)
        mangle(obj)
        with pytest.raises(rq.ProblemFormatError,
                           match="^invalid problem description: "):
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
        # the three examples and the hard-case gallery
        assert len(names) == 8
        for name in names:
            path = os.path.join(root, name)
            if name == "not_unitary.json":
                with pytest.raises(rq.ProblemFormatError, match="not unitary"):
                    rq.load_problem(path)
                continue
            problem = rq.load_problem(path)
            assert isinstance(problem, (rq.EnergyProblem, rq.UnitarySpec))
