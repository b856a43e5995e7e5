"""Dense kernel contracts: decompositions, powers, exponentials, JSON."""

import math

import numpy as np
import pytest

from ringqpe import (
    EigenDecomposition,
    PreconditionError,
    ResourceLimitError,
    eig_hermitian,
    expm_dense,
    matrix_from_json,
    matrix_to_json,
    unitary_from_hermitian,
)
from ringqpe.linalg import require_unit_vector, require_unitary, unitarity_defect

from conftest import SIGMA_X, random_hermitian


class TestEigHermitian:
    def test_diagonal_matrix_is_its_own_answer(self):
        w, v = eig_hermitian(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0])
        # columns are unit basis vectors up to phase, matched to sorted order
        for col, index in zip(v.T, [1, 2, 0]):
            assert abs(abs(col[index]) - 1.0) < 1e-12

    def test_sigma_x_eigensystem(self):
        w, v = eig_hermitian(SIGMA_X)
        assert np.allclose(w, [-1.0, 1.0])
        minus = v[:, 0]
        assert abs(abs(np.vdot(minus, np.array([1, -1]) / np.sqrt(2))) - 1.0) < 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 8, 33, 128, 512])
    def test_reconstruction_and_orthonormality(self, dim):
        rng = np.random.default_rng(100 + dim)
        a = random_hermitian(rng, dim)
        w, v = eig_hermitian(a)
        assert np.all(np.diff(w) >= 0), "eigenvalues must come back ascending"
        gram = v.conj().T @ v
        assert np.max(np.abs(gram - np.eye(dim))) < 1e-10
        recon = (v * w) @ v.conj().T
        assert np.max(np.abs(recon - a)) < 1e-8 * max(1.0, np.max(np.abs(a)))

    def test_rejects_non_hermitian_naming_asymmetry(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(PreconditionError, match="max asymmetry 1.000e"):
            eig_hermitian(bad)

    def test_returns_named_tuple(self):
        out = eig_hermitian(np.eye(2))
        assert isinstance(out, EigenDecomposition)


class TestUnitaryFromHermitian:
    def test_sigma_x_closed_form(self):
        # exp(i s sigma_x) = cos(s) I + i sin(s) sigma_x
        s = -2.0
        u = unitary_from_hermitian(SIGMA_X, s)
        expected = math.cos(s) * np.eye(2) + 1j * math.sin(s) * SIGMA_X
        assert np.max(np.abs(u - expected)) < 1e-12

    def test_zero_scale_is_identity(self):
        rng = np.random.default_rng(3)
        u = unitary_from_hermitian(random_hermitian(rng, 5), 0.0)
        assert np.max(np.abs(u - np.eye(5))) < 1e-12

    def test_half_turn_of_sigma_x(self):
        u = unitary_from_hermitian(SIGMA_X, math.pi)
        assert np.max(np.abs(u - (-np.eye(2)))) < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_output_is_unitary(self, seed):
        rng = np.random.default_rng(seed)
        u = unitary_from_hermitian(random_hermitian(rng, 7), rng.uniform(-5, 5))
        assert unitarity_defect(u) < 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_scales_compose_additively(self, seed):
        rng = np.random.default_rng(40 + seed)
        a = random_hermitian(rng, 4)
        s1, s2 = rng.uniform(-3, 3, size=2)
        lhs = unitary_from_hermitian(a, s1) @ unitary_from_hermitian(a, s2)
        rhs = unitary_from_hermitian(a, s1 + s2)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


class TestExpmDense:
    @pytest.mark.parametrize("dim,t", [(2, 0.5), (8, 1.0), (33, 3.0), (64, 4.0 * np.pi)])
    def test_matches_eigendecomposition_route_for_hermitian(self, dim, t):
        rng = np.random.default_rng(dim)
        m = random_hermitian(rng, dim)
        via_eig = unitary_from_hermitian(m, -t)
        assert np.max(np.abs(expm_dense(m, t) - via_eig)) < 1e-8

    def test_matches_taylor_series_for_non_hermitian(self):
        rng = np.random.default_rng(17)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        m *= 0.2 / np.linalg.norm(m, 1)
        t = 1.3
        a = -1j * t * m
        series = np.zeros_like(a)
        term = np.eye(6, dtype=complex)
        for k in range(40):
            series += term
            term = term @ a / (k + 1)
        assert np.max(np.abs(expm_dense(m, t) - series)) < 1e-12

    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(5)
        m = random_hermitian(rng, 9)
        assert np.max(np.abs(expm_dense(m, 0.0) - np.eye(9))) < 1e-14

    def test_large_norm_still_unitary_for_hermitian_input(self):
        # forces many squarings; unitarity is the sensitive indicator
        rng = np.random.default_rng(23)
        m = random_hermitian(rng, 16, scale=500.0)
        assert unitarity_defect(expm_dense(m, 1.0)) < 1e-9

    def test_dimension_guard(self):
        with pytest.raises(ResourceLimitError, match="guard"):
            expm_dense(np.eye(8), 1.0, max_dim=4)

    def test_group_property(self):
        rng = np.random.default_rng(31)
        m = random_hermitian(rng, 5)
        u1 = expm_dense(m, 0.7)
        u2 = expm_dense(m, 1.1)
        u12 = expm_dense(m, 1.8)
        assert np.max(np.abs(u1 @ u2 - u12)) < 1e-10


class TestMatrixJson:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(41)
        m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        back = matrix_from_json(matrix_to_json(m))
        assert np.array_equal(back, m)

    def test_row_major_layout(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        obj = matrix_to_json(m)
        assert obj["rows"] == 2 and obj["cols"] == 2
        assert obj["re"] == [1.0, 2.0, 3.0, 4.0]

    @pytest.mark.parametrize("mangle", [
        lambda o: o.pop("re"),
        lambda o: o["re"].append(0.0),
        lambda o: o.update(rows=0),
        lambda o: o.update(rows="x"),
    ])
    def test_malformed_rejected(self, mangle):
        obj = matrix_to_json(np.eye(2))
        mangle(obj)
        with pytest.raises(PreconditionError):
            matrix_from_json(obj)

    def test_non_dict_rejected(self):
        with pytest.raises(PreconditionError):
            matrix_from_json([1, 2, 3])


class TestRequireUnitVector:
    def test_coerces_a_unit_vector(self):
        v = require_unit_vector([0.6, 0.8j], "probe")
        assert v.dtype == np.complex128
        assert np.array_equal(v, [0.6, 0.8j])

    @pytest.mark.parametrize("bad,message", [
        ([[1.0, 0.0]], "probe must be a 1-D vector"),
        ([], "probe must be a 1-D vector"),
        ([np.nan, 0.0], "probe must be finite"),
        ([np.inf, 0.0], "probe must be finite"),
        ([1.0, 1.0], "probe norm"),
        ([1.0 + 1e-9, 0.0], "probe norm"),
    ])
    def test_rejects(self, bad, message):
        with pytest.raises(PreconditionError, match=message):
            require_unit_vector(bad, "probe")


def test_require_unitary_accepts_rotation():
    theta = 0.3
    u = np.array([
        [math.cos(theta), -math.sin(theta)],
        [math.sin(theta), math.cos(theta)],
    ])
    require_unitary(u)
