"""Shared fixtures and random-matrix helpers for the test suite."""

import json
import sys

import numpy as np
import pytest
import scipy.linalg

import ringqpe as rq

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def random_hermitian(rng, n, scale=1.0):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (m + m.conj().T)


def random_unitary(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(m)
    # fix the QR phase ambiguity so the distribution is uniform
    return q * (np.diag(r) / np.abs(np.diag(r)))


def eigenbasis_evolve(a_phi, color, mode_cutoff_l, t):
    """Reference for evolve_block: the packet evolved in A_phi's eigenbasis.

    With A_phi = V diag(lam) V^dagger every block m (m / 2 - A_phi), the
    ring's (m I - A_phi)^2 / 2 less its color-only A_phi^2 / 2, has the
    energies E_{m,k} = m (m / 2 - lam_k) on the columns of V, so each mode
    of the packet is projected onto V, scaled by exp(-i E_{m,k} t) and
    mapped back. Returns the (2l+1, n) coefficients.
    """
    lam, v = np.linalg.eigh(np.asarray(a_phi, dtype=complex))
    packet = rq.initial_localized_state(mode_cutoff_l, color).coeffs
    modes = np.arange(-mode_cutoff_l, mode_cutoff_l + 1)[:, None]
    phases = np.exp(-1j * (modes * (modes / 2.0 - lam) * t))
    return (phases * (packet @ v.conj())) @ v.T


def holonomy(gauge):
    """The U whose ring read-out a gauge field gives: exp(-i t_R A_phi),
    since W = exp(i t_R A_phi) is U^dagger at t_R. scipy's expm is the
    oracle, so no ringqpe exponential forms it."""
    return scipy.linalg.expm(-1j * rq.RETURN_TIME * gauge.a_phi)


def forbid_spectra(monkeypatch, problem):
    """Make every eigendecomposition, `problem.spectrum` and
    `problem.weights` raise.

    Covers np.linalg.eigh and, wherever a ringqpe module bound them by
    name, eig_hermitian and eig_unitary. np.linalg.eigvals stays: the peak
    read-out takes the eigenvalues of its own small pencil.
    """
    def forbidden(*args, **kwargs):
        raise AssertionError("decomposed a matrix after encoding")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    modules = [m for key, m in list(sys.modules.items())
               if key == "ringqpe" or key.startswith("ringqpe.")]
    for fn in (rq.eig_hermitian, rq.eig_unitary):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, forbidden)

    class Guarded(type(problem)):
        @property
        def spectrum(self):
            raise AssertionError("read the problem's spectrum after encoding")

        @property
        def weights(self):
            raise AssertionError("read the problem's weights after encoding")

    # a frozen dataclass refuses setattr, not a class swap by object's
    object.__setattr__(problem, "__class__", Guarded)


def random_state(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def spectral_measure(spectrum, color):
    """The (theta, weights) qpe_estimate reads for U's spectrum (theta, V)
    and a register-2 state: weights[a] = |<v_a|color>|^2."""
    theta, v = spectrum
    return theta, np.abs(v.conj().T @ np.asarray(color, dtype=complex)) ** 2


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


@pytest.fixture
def sigma_x_problem():
    """Two-level system with level splitting twice the reference scale."""
    ground = np.array([1.0, -1.0]) / np.sqrt(2.0)
    return rq.EnergyProblem(2.0 * SIGMA_X, 1.0, ground)


@pytest.fixture
def sigma_z_problem():
    """Diagonal two-level system probed in an 0.8/0.2 superposition."""
    mix = np.array([np.sqrt(0.8), np.sqrt(0.2)], dtype=complex)
    return rq.EnergyProblem(2.0 * SIGMA_Z, 1.0, mix)


def read_csv(path):
    """Header names and a 2-D float array of a CSV the package wrote.

    Its floats are written as format(x, ".16e"), 17 significant digits,
    which parse back exactly, so round trips can compare with ==.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


def write_problem(tmp_path, problem, name="problem.json"):
    path = tmp_path / name
    with open(path, "w") as fh:
        json.dump(rq.problem_to_json(problem), fh)
    return path
