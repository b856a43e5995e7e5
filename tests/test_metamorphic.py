"""Metamorphic relations across the ring, register and direct routes.

Each relation says how every route's answer must move when the problem
moves, so it needs no reference implementation (Chen et al., "Metamorphic
testing: a review of challenges and opportunities", ACM Comput. Surv. 51,
4 (2018)). The ring shares no computation with the other two routes: it
reads U itself, where the register and the direct route read the
eigensolver's spectrum. The problems are seeded unitaries, n = 2-5, with
eigenphases at least two lobes of l = 50 apart and every component of the
state above 2% of its weight, so each route sees every component; the
energy shift draws energy problems the same way, H / E_R's spectrum on
(-2.5, 2.5).

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
and 2.2e-15 (direct), all under conjugation or the global phase. Under
U -> U^dagger and the unweighted eigenvalue (300 seeds) they were at most
2.8e-14, 5.8e-14 and 2.0e-15; under the energy shift (200 seeds, E_R on
0.1-10) 3.8e-14, 2.8e-13 and 3.6e-15.

Two relations hold U fixed, so the register and the direct route, which
read U's spectrum, cannot move; they check the ring alone, at l = 200:
- holonomy (Aharonov-Bohm): a field whose eigenvalues move by multiples of
  1/2 has the same W = exp(i t_R A_phi), so evolve_block's t_R density
  stays. W carries about t_R ||A_phi||_1 eps of phase, which its l-th
  power grows l-fold: 4 l t_R ||A_phi||_1 eps of the peak, 1.6e-12 at most
  over the 40 seeds (1.0 times that product);
- moments: the read-out's moments are y_q = <c|U^q|c>. They round by 1.3
  to 1.6 times 2l eps (ring.extract_peaks), and the spectral sum they are
  checked against by about as much, since U is formed from its spectrum:
  4 times 2l eps, against 1.2e-13 at most over the 40 seeds.
"""

import numpy as np

import ringqpe as rq
import ringqpe.ring as ring_module
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
# the ring-only relations' cutoff and grid, N >= 4l+1
WIDE_L, WIDE_GRID = 200, 1024
MOMENT_TOL = 4 * 2 * WIDE_L * EPS


def seeded_spectrum(seed, span=np.pi):
    """Seeded eigenphases on (-span, span), an eigenbasis and a state over
    it, and the generator the relation draws from."""
    rng = np.random.default_rng([31, seed])
    n = int(rng.integers(2, 6))
    while True:
        theta = rng.uniform(-span, span, n)
        gaps = np.diff(np.sort(theta), append=np.min(theta) + TWO_PI)
        if np.min(gaps) >= 2 * LOBE:
            break
    v = random_unitary(rng, n)
    weights = 0.1 / n + 0.9 * rng.dirichlet(np.ones(n))
    state = v @ (np.sqrt(weights) * np.exp(1j * rng.uniform(0, TWO_PI, n)))
    return theta, v, state, rng


def seeded(seed):
    """A seeded (U, state), and the generator the relation draws from."""
    theta, v, state, rng = seeded_spectrum(seed)
    return (v * np.exp(1j * theta)) @ v.conj().T, state, rng


def routes(u, state):
    """Each route's answer for the unitary problem (U, state)."""
    return routes_of(rq.UnitarySpec(u, state))


def routes_of(problem):
    """Each route's answer: ring peaks, register probabilities, direct
    eigenvalue clusters."""
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


def test_inverse_negates_every_route():
    # U -> U^dagger negates every eigenphase, so the register reads k as
    # it read -k. A constant offset in a route, which turns with U under a
    # global phase, breaks this mirror
    def mirrored(answers):
        ring, register, direct = answers

        def flip(peaks):
            return [rq.Peak(rq.wrap_to_unit(-p.phi), p.weight) for p in peaks]

        return flip(ring), register[-np.arange(len(register))], flip(direct)

    for seed in SEEDS:
        u, state, _ = seeded(seed)
        assert_routes_moved(mirrored(routes(u, state)), routes(u.conj().T, state), 0)


def test_unweighted_eigenvalue_changes_nothing():
    # U -> U (+) e^{i alpha} with the state c (+) 0: the new eigenvalue,
    # two lobes or more from the others, carries no weight
    for seed in SEEDS:
        u, state, rng = seeded(seed)
        theta = np.angle(np.linalg.eigvals(u))
        while True:
            alpha = rng.uniform(-np.pi, np.pi)
            if np.min(rq.circular_distance(theta, alpha)) >= 2 * LOBE:
                break
        n = len(state)
        grown = np.zeros((n + 1, n + 1), dtype=complex)
        grown[:n, :n], grown[n, n] = u, np.exp(1j * alpha)
        assert_routes_moved(routes(u, state), routes(grown, np.append(state, 0)), 0)


def test_energy_shift_turns_every_route():
    # H -> H + s E_R I with s = 2 pi j / 2^t, |j| <= 20, and H / E_R's
    # spectrum on (-2.5, 2.5), so every shifted energy stays inside the
    # (-pi, pi] window: every eigenphase turns by s, j register bins
    for seed in SEEDS:
        theta, v, state, rng = seeded_spectrum(seed, 2.5)
        e_r = 10 ** rng.uniform(-1, 1)
        j = int(rng.integers(-20, 21))
        h = e_r * (v * theta) @ v.conj().T
        h = (h + h.conj().T) / 2
        shifted = h + TWO_PI * j / (1 << T_BITS) * e_r * np.eye(len(state))
        assert_routes_moved(routes_of(rq.EnergyProblem(h, e_r, state)),
                            routes_of(rq.EnergyProblem(shifted, e_r, state)), j)


def test_half_integer_field_shifts_keep_the_revival_density():
    # A_phi -> A_phi + V diag(k / 2) V^dagger, k nonzero integers, turns
    # W = exp(i t_R A_phi) by e^{2 pi i k} = 1 on each eigencolor: the ring
    # sees only the holonomy U. At 0.37 t_R the same shift moves the density
    # by 0.066 of its peak or more, so the relation is no tautology
    for seed in SEEDS:
        theta, v, state, rng = seeded_spectrum(seed)
        lam = -theta / (TWO_PI * rq.VELOCITY_FACTOR)  # encode_as_gauge's
        k = rng.choice([-3, -2, -1, 1, 2, 3], len(theta))
        fields = [rq.GaugeField((v * x) @ v.conj().T) for x in (lam, lam + k / 2)]
        reach = rq.RETURN_TIME * max(np.linalg.norm(f.a_phi, 1) for f in fields)

        def densities(t):
            return [rq.position_density(rq.evolve_block(f, state, WIDE_L, t),
                                        WIDE_GRID).density for f in fields]

        before, after = densities(rq.RETURN_TIME)
        assert np.max(np.abs(after - before)) < 4 * WIDE_L * reach * EPS * np.max(before)
        before, after = densities(0.37 * rq.RETURN_TIME)
        assert np.max(np.abs(after - before)) > 1e-2 * np.max(before)


def test_read_out_moments_are_those_of_u(monkeypatch):
    # the moments extract_peaks inverts are <c|U^q|c> = sum_a w_a e^{i q theta_a},
    # q = 0..2l, the Hadamard-test time series of U and c
    densities, extract = [], ring_module.extract_peaks

    def recording(density, *args):
        densities.append(density)
        return extract(density, *args)

    monkeypatch.setattr(ring_module, "extract_peaks", recording)
    q = np.arange(2 * WIDE_L + 1)
    for seed in SEEDS:
        theta, v, state, _ = seeded_spectrum(seed)
        u = (v * np.exp(1j * theta)) @ v.conj().T
        rq.estimate_phase_via_ring(u, state, WIDE_L, WIDE_GRID)
        got = ring_module._moments(densities.pop(), WIDE_L)
        want = np.exp(1j * np.outer(q, theta)) @ np.abs(v.conj().T @ state) ** 2
        assert np.max(np.abs(got - want)) < MOMENT_TOL
