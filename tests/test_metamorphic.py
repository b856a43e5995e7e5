"""Metamorphic relations across the ring, register and direct routes.

Each relation says how every route's answer must move when the problem
moves, so it needs no reference implementation (Chen et al., "Metamorphic
testing: a review of challenges and opportunities", ACM Comput. Surv. 51,
4 (2018)). The ring shares no computation with the other two routes: it
reads U itself, where the register and the direct route read the
eigensolver's spectrum. The problems are seeded unitaries, n = 2-5, with
eigenphases at least two lobes of l = 50 apart and every component of the
state above 2% of its weight, so each route sees every component.

Tolerances:
- ring, RING_TOL: the read-out's moments carry 1.3 to 1.6 times 2l eps
  of rounding, about 3.5e-14 at l = 50 (ring.extract_peaks), which the
  pencil passes into a phase or weight over that component's weight, at
  least 0.02: 2e-12.
- register, REGISTER_TOL: each P(k) is a sum of Fejer kernels of width
  2 pi / M in theta, M = 2^t, whose slope is at most about M / 2 per
  radian; eig_unitary's eigenphases carry a few eps of rounding, so P(k)
  moves by about M eps: 8 M eps = 1.8e-12.
- direct, DIRECT_TOL: eig_unitary's eigenphases and Born weights, a few
  n eps each: 10 n eps at n = 5, 1.1e-14.

Over 300 seeds the worst errors were 4.1e-14 (ring), 1.5e-13 (register)
and 2.2e-15 (direct), all under conjugation or the global phase.
"""

import numpy as np

import ringqpe as rq
from ringqpe.ring import merge_components

from conftest import random_unitary

TWO_PI = 2.0 * np.pi
EPS = np.finfo(float).eps
L, GRID, T_BITS = 50, 512, 10
LOBE = TWO_PI / (2 * L + 1)
SEEDS = range(40)

RING_TOL = 2e-12
REGISTER_TOL = 8 * (1 << T_BITS) * EPS
DIRECT_TOL = 50 * EPS


def seeded(seed):
    """A seeded (U, state), and the generator the relation draws from."""
    rng = np.random.default_rng([31, seed])
    n = int(rng.integers(2, 6))
    while True:
        theta = rng.uniform(-np.pi, np.pi, n)
        gaps = np.diff(np.sort(theta), append=np.min(theta) + TWO_PI)
        if np.min(gaps) >= 2 * LOBE:
            break
    v = random_unitary(rng, n)
    weights = 0.1 / n + 0.9 * rng.dirichlet(np.ones(n))
    state = v @ (np.sqrt(weights) * np.exp(1j * rng.uniform(0, TWO_PI, n)))
    return (v * np.exp(1j * theta)) @ v.conj().T, state, rng


def routes(u, state):
    """Each route's answer: ring peaks, register probabilities, direct
    eigenvalue clusters."""
    problem = rq.UnitarySpec(u, state)
    ring = rq.estimate_phase_via_ring(problem.u_matrix, problem.state, L, GRID)
    theta = problem.spectrum.eigenvalues
    register = rq.qpe_estimate(theta, problem.weights, rq.QpeConfig(T_BITS))
    direct = merge_components(theta, problem.weights, L)
    return list(ring), register.distribution.probs, direct


def assert_peaks_moved(got, want, shift, tol):
    """Every peak of `want`, turned by `shift`, is a peak of `got`."""
    assert len(got) == len(want)
    for p in want:
        q = min(got, key=lambda q: rq.circular_distance(q.phi, p.phi + shift))
        assert rq.circular_distance(q.phi, p.phi + shift) < tol
        assert abs(q.weight - p.weight) < tol


def assert_routes_moved(before, after, shift_bins):
    """The ring's and the direct route's peaks turn by shift_bins register
    bins, and the register's probabilities roll by as many rows."""
    shift = TWO_PI * shift_bins / (1 << T_BITS)
    assert_peaks_moved(after[0], before[0], shift, RING_TOL)
    assert np.max(np.abs(after[1] - np.roll(before[1], shift_bins))) < REGISTER_TOL
    assert_peaks_moved(after[2], before[2], shift, DIRECT_TOL)


def test_global_phase_turns_every_route():
    # U -> e^{i alpha} U with alpha = 2 pi j / 2^t: every eigenphase turns
    # by alpha, a whole number j of register bins
    for seed in SEEDS:
        u, state, rng = seeded(seed)
        j = int(rng.integers(1, 1 << T_BITS))
        alpha = TWO_PI * j / (1 << T_BITS)
        assert_routes_moved(routes(u, state), routes(np.exp(1j * alpha) * u, state), j)


def test_conjugation_changes_nothing():
    # (U, c) -> (V U V^dagger, V c) is a change of basis
    for seed in SEEDS:
        u, state, rng = seeded(seed)
        v = random_unitary(rng, len(state))
        moved = routes(v @ u @ v.conj().T, v @ state)
        assert_routes_moved(routes(u, state), moved, 0)


def test_state_phase_changes_nothing():
    # c -> e^{i beta} c is the same physical state
    for seed in SEEDS:
        u, state, rng = seeded(seed)
        beta = rng.uniform(0, TWO_PI)
        assert_routes_moved(routes(u, state), routes(u, np.exp(1j * beta) * state), 0)
