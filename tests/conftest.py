"""Shared fixtures and random-matrix helpers for the test suite."""

import json

import numpy as np
import pytest

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


def gauge_from(a_phi, params=None):
    """GaugeField of a Hermitian matrix, from its eigendecomposition."""
    return rq.GaugeField(*rq.eig_hermitian(np.asarray(a_phi, dtype=complex)),
                         params or rq.RingPhysicalParams())


def random_state(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


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


@pytest.fixture
def natural_params():
    return rq.RingPhysicalParams()


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
