"""Dense kernel contracts: decompositions, powers, exponentials, JSON."""

import math

import numpy as np
import pytest
import scipy.linalg

import ringqpe.linalg as linalg_module

from ringqpe import (
    EigenDecomposition,
    PreconditionError,
    ResourceLimitError,
    eig_hermitian,
    eig_unitary,
    expm_dense,
    matrix_from_json,
    matrix_to_json,
)
from ringqpe.linalg import (
    as_matrix,
    hold_unitary,
    require_unit_norm,
    require_unit_vector,
    require_unitary,
    unitarity_defect,
    unitary_exp,
)

from conftest import SIGMA_X, random_hermitian, random_unitary


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


def _with_phases(seed, phases):
    """V diag(e^(i phases)) V^dagger for a Haar-random V."""
    v = random_unitary(np.random.default_rng(seed), len(phases))
    return (v * np.exp(1j * np.asarray(phases))) @ v.conj().T


def _dft(n):
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) / math.sqrt(n)


# (name, unitary): Haar draws, close and +-theta pairs, the +-pi seam, a
# degenerate -1 eigenspace, the DFT (eigenvalues 1, -1, -i, i, degenerate
# from n = 5 on), a permutation and the roots of unity
_UNITARY_CASES = (
    [(f"haar{n}", random_unitary(np.random.default_rng(700 + n), n))
     for n in (1, 2, 3, 5, 8, 16, 33, 64)]
    + [(f"pair{gap:g}", _with_phases(710, [0.4, 0.4 + gap, -1.2, 2.5]))
       for gap in (0.0, 1e-12, 1e-8, 1e-4)]
    + [("plus_minus", _with_phases(711, [0.7, -0.7, 2.1, -2.1])),
       ("seam", _with_phases(712, [np.pi - 1e-2, -np.pi + 1e-2, 0.5])),
       ("seam_close", _with_phases(712, [np.pi - 1e-4, -np.pi + 1e-4, 0.5])),
       ("minus_one", _with_phases(713, [np.pi, np.pi, np.pi, 0.3, -2.0])),
       ("dft8", _dft(8)),
       ("dft5", _dft(5)),
       ("permutation", np.eye(6)[[3, 0, 4, 1, 5, 2]]),
       ("roots_of_unity", np.diag(np.exp(2j * np.pi * np.arange(7) / 7)))]
)
# Where an eigenvalue sits at -1 the two factorizations may pick different
# branches. A pair straddling -1 at distance d has phases 2 pi apart, so
# rounding in its eigenvectors reaches P amplified by about 1/d: at d = 1e-4
# both miss the exact P by 3e-12. The Schur comparison keeps d > 1e-3.
_AWAY_FROM_MINUS_ONE = [
    (name, u) for name, u in _UNITARY_CASES
    if np.min(np.abs(np.linalg.eigvals(u) + 1.0)) > 1e-3
]


class TestEigUnitary:
    @pytest.mark.parametrize("name,u", _UNITARY_CASES,
                             ids=[name for name, _ in _UNITARY_CASES])
    def test_orthonormal_basis_reproduces_u(self, name, u):
        theta, v = eig_unitary(u)
        n = u.shape[0]
        assert np.all(np.diff(theta) >= 0), "phases must come back ascending"
        assert np.all((theta > -np.pi) & (theta <= np.pi))
        assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-12
        # exp(i P) for the phase matrix P = V diag(theta) V^dagger
        recon = (v * np.exp(1j * theta)) @ v.conj().T
        assert np.max(np.abs(recon - u)) < 1e-12

    @pytest.mark.parametrize("name,u", _AWAY_FROM_MINUS_ONE,
                             ids=[name for name, _ in _AWAY_FROM_MINUS_ONE])
    def test_phase_matrix_matches_schur(self, name, u):
        t_form, q = scipy.linalg.schur(u, output="complex")
        schur_theta = np.angle(np.diag(t_form))
        theta, v = eig_unitary(u)
        ours = (v * theta) @ v.conj().T
        oracle = (q * schur_theta) @ q.conj().T
        assert np.max(np.abs(ours - oracle)) < 1e-12

    def test_minus_one_maps_to_plus_pi(self):
        theta, _ = eig_unitary(np.diag([-1.0, 1.0, -1.0 - 0.0j, -1.0 + 0.0j]))
        assert theta.tolist() == [0.0, np.pi, np.pi, np.pi]

    def test_rejects_non_normal_naming_residual(self):
        with pytest.raises(PreconditionError, match="not normal enough"):
            eig_unitary(np.array([[1.0, 1.0], [0.0, 1j]]))


class TestUnitaryFromHermitian:
    """exp(i s A) of a Hermitian A by Pade, expm_dense(A, -s), against closed
    forms and the group law."""

    def test_sigma_x_closed_form(self):
        # exp(i s sigma_x) = cos(s) I + i sin(s) sigma_x
        s = -2.0
        u = expm_dense(SIGMA_X, -s)
        expected = math.cos(s) * np.eye(2) + 1j * math.sin(s) * SIGMA_X
        assert np.max(np.abs(u - expected)) < 1e-12

    def test_zero_scale_is_identity(self):
        rng = np.random.default_rng(3)
        u = expm_dense(random_hermitian(rng, 5), 0.0)
        assert np.max(np.abs(u - np.eye(5))) < 1e-12

    def test_half_turn_of_sigma_x(self):
        u = expm_dense(SIGMA_X, -math.pi)
        assert np.max(np.abs(u - (-np.eye(2)))) < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_output_is_unitary(self, seed):
        rng = np.random.default_rng(seed)
        u = expm_dense(random_hermitian(rng, 7), -rng.uniform(-5, 5))
        assert unitarity_defect(u) < 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_scales_compose_additively(self, seed):
        rng = np.random.default_rng(40 + seed)
        a = random_hermitian(rng, 4)
        s1, s2 = rng.uniform(-3, 3, size=2)
        lhs = expm_dense(a, -s1) @ expm_dense(a, -s2)
        rhs = expm_dense(a, -(s1 + s2))
        assert np.max(np.abs(lhs - rhs)) < 1e-9


class TestUnitaryExp:
    """exp(i t A) held on the unitary group, against scipy's expm."""

    @pytest.mark.parametrize("t", [0.0, 0.7, -3.0, 1e3, 1e6])
    def test_matches_expm_and_stays_unitary(self, t):
        rng = np.random.default_rng(61)
        a = random_hermitian(rng, 4)
        u = unitary_exp(a, t)
        # the phase carries about t ||A|| eps of rounding, which no scheme
        # removes; the group is kept to rounding at any t
        want = scipy.linalg.expm(1j * t * a)
        assert np.max(np.abs(u - want)) < 1e-13 * max(1.0, t * np.linalg.norm(a, 1))
        assert unitarity_defect(u) < 1e-14

    def test_bare_squaring_leaves_the_group_where_it_does_not(self):
        # at ||t A|| = 1e8 expm_dense's bare squarings leave the group by
        # 2.3e-9, past require_unitary's 1e-10, so an energy problem's U
        # could not be read as given
        rng = np.random.default_rng(62)
        a = random_hermitian(rng, 4)
        t = 1e8 / np.linalg.norm(a, 1)
        assert unitarity_defect(expm_dense(a, -t)) > 1e-10
        require_unitary(unitary_exp(a, t))

    def test_refuses_a_phase_that_is_not_finite(self):
        with pytest.raises(PreconditionError, match="no finite phase"):
            unitary_exp(np.full((2, 2), 1e308), 1.0)
        with pytest.raises(PreconditionError, match="no finite phase"):
            unitary_exp(SIGMA_X, np.inf)

    def test_hold_step_squares_the_defect(self):
        u = random_unitary(np.random.default_rng(63), 5) * (1.0 + 4.9e-11)
        assert unitarity_defect(u) > 9.7e-11
        assert unitarity_defect(hold_unitary(u)) < 1e-15


class TestExpmDense:
    @pytest.mark.parametrize("dim,t", [(2, 0.5), (8, 1.0), (33, 3.0), (64, 4.0 * np.pi)])
    def test_matches_eigendecomposition_route_for_hermitian(self, dim, t):
        rng = np.random.default_rng(dim)
        m = random_hermitian(rng, dim)
        w, v = np.linalg.eigh(m)
        via_eig = (v * np.exp(-1j * t * w)) @ v.conj().T
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

    def test_dimension_guard(self, monkeypatch):
        monkeypatch.setattr(linalg_module, "DENSE_DIMENSION_GUARD", 4)
        with pytest.raises(ResourceLimitError, match="guard"):
            expm_dense(np.eye(8), 1.0)

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


class TestRequireUnitNorm:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf),
                                     complex(np.inf, np.nan)])
    def test_non_finite_register_is_refused(self, bad):
        # a column-major register, read in memory order; NaN and inf make
        # the norm NaN or inf, and either must fail the check
        amps = np.full((4, 2), 0.5 / np.sqrt(2), dtype=complex, order="F")
        amps[2, 1] = bad
        with pytest.raises(PreconditionError, match="register norm"):
            require_unit_norm(amps, "register")


@pytest.mark.parametrize("bad,name", [
    ([[1.0, 2.0], [3.0]], "list"), ({"rows": 2}, "dict"), ("ab", "str"),
], ids=["ragged", "mapping", "text"])
def test_as_matrix_names_what_it_cannot_read(bad, name):
    # numpy's own TypeError or ValueError came through bare
    with pytest.raises(PreconditionError, match=f"cannot read {name} as a complex matrix"):
        as_matrix(bad)


def test_require_unit_vector_names_what_it_cannot_read():
    with pytest.raises(PreconditionError, match="cannot read list as a probe vector"):
        require_unit_vector([[1.0], [0.0, 1.0]], "probe")


def test_require_unitary_accepts_rotation():
    theta = 0.3
    u = np.array([
        [math.cos(theta), -math.sin(theta)],
        [math.sin(theta), math.cos(theta)],
    ])
    require_unitary(u)


def _float_column_bytes(values):
    """The reference: Python's own format of each value, one row each."""
    return "".join(format(v, ".16e") + "\r\n" for v in values.tolist()).encode()


def _written(tmp_path, header, columns):
    path = tmp_path / "rows.csv"
    linalg_module.write_csv_rows(path, header, columns)
    return path.read_bytes()


class TestWriteCsvRows:
    SWEEP = 100_000

    @pytest.mark.parametrize("kind", ["uniform", "log-uniform", "bit-patterns"])
    def test_seeded_sweep_matches_python_format(self, tmp_path, kind):
        rng = np.random.default_rng(["uniform", "log-uniform", "bit-patterns"].index(kind))
        if kind == "uniform":
            values = rng.random(self.SWEEP)
        elif kind == "log-uniform":
            values = rng.choice([-1.0, 1.0], self.SWEEP) * 10.0 ** rng.uniform(
                -300, 300, self.SWEEP)
        else:
            # every finite, subnormal and non-finite kind a double can be
            values = rng.integers(0, 1 << 64, self.SWEEP, dtype=np.uint64).view(np.float64)
        written = _written(tmp_path, "x", (values,))
        assert written == b"x\r\n" + _float_column_bytes(values)

    def test_edge_values_match_python_format(self, tmp_path):
        powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
        values = np.concatenate([
            [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
             1.7976931348623157e308, 1e-280, 1e290],
            powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
            np.ldexp(1.0, np.arange(-1074, 1024)),
            # m 2^-25 has at most 25 decimals, so thousands of these sit
            # exactly on a 17-digit rounding tie, which Python settles
            np.arange(-(1 << 18), 1 << 18) * 2.0 ** -25,
            np.ldexp(np.arange(1, 4096), -1074),  # subnormals
        ])
        written = _written(tmp_path, "x", (values,))
        assert written == b"x\r\n" + _float_column_bytes(values)

    @pytest.mark.parametrize("rows", [0, 1, 2047, 2048, 2049, 5000])
    def test_rows_are_csv_writer_bytes(self, tmp_path, rows):
        # a range column is str(k); rows end in \r\n across block edges
        rng = np.random.default_rng(rows)
        ks = range(0, 100_003 * rows, 100_003)
        values = rng.standard_normal(len(ks))
        written = _written(tmp_path, "k,value,again", (ks, values, -values))
        expected = "k,value,again\r\n" + "".join(
            f"{k},{format(v, '.16e')},{format(-v, '.16e')}\r\n"
            for k, v in zip(ks, values.tolist()))
        assert written == expected.encode()

    def test_zeros_take_no_python_format(self, tmp_path, monkeypatch):
        # a sampled distribution is mostly 0.0 rows
        def forbidden(*args):
            raise AssertionError("value formatted by Python")

        monkeypatch.setattr(linalg_module, "format", forbidden, raising=False)
        written = _written(tmp_path, "x", (np.array([0.0, -0.0, 0.5]),))
        assert written == (b"x\r\n0.0000000000000000e+00\r\n"
                           b"-0.0000000000000000e+00\r\n5.0000000000000000e-01\r\n")
