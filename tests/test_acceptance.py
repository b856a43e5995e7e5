"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run as `pytest tests/test_acceptance.py` (add -s to watch the lines appear
live). Every criterion states its tolerance and wall-time budget inline.
"""

import contextlib
import json
import os
import sys
import time

import numpy as np
import pytest

import ringqpe as rq
from ringqpe.bench import METHOD_BLOCK, METHOD_DENSE
from ringqpe.cli import main

from conftest import (
    random_hermitian,
    random_state,
    random_unitary,
    spectral_measure,
    spectral_register_distribution,
    write_problem,
)

TWO_PI = 2.0 * np.pi

PROBLEM_DIR = os.path.join(os.path.dirname(__file__), "..", "problems")


@contextlib.contextmanager
def criterion(tag, budget_s, capsys):
    """Print `[tag] PASS/FAIL` on the real terminal and enforce a time budget."""
    def emit(line):
        with capsys.disabled():
            print(line, flush=True)

    start = time.perf_counter()
    try:
        yield
    except BaseException as exc:
        emit(f"[{tag}] FAIL: {exc}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget_s:
        emit(f"[{tag}] FAIL: took {elapsed:.1f}s, budget {budget_s}s")
        raise AssertionError(f"{tag} exceeded its {budget_s}s budget")
    emit(f"[{tag}] PASS ({elapsed:.2f}s)")


def test_a1_ring_read_out_of_a_ground_state_energy(tmp_path, capsys):
    """Ring route recovers E0 = -2 of the shipped two-level problem."""
    with criterion("A1", budget_s=10.0, capsys=capsys):
        problem_path = os.path.join(PROBLEM_DIR, "sigma_x_ground_state.json")
        out = tmp_path / "a1"
        code = main(["ring-sim", "--problem", problem_path,
                     "--out-dir", str(out)])
        assert code == 0, f"ring-sim exited {code}"

        peaks = json.loads((out / "peaks.json").read_text())
        assert len(peaks["peaks"]) >= 1, "no relocalization peak found"
        phi = peaks["peaks"][0]["phi"]
        tol = TWO_PI / 101  # one mode-resolution bin at l = 50
        signed = rq.wrap_to_signed(phi)
        assert abs(signed - (-2.0)) < tol, f"phase {signed} not within {tol} of -2"

        problem = rq.load_problem(problem_path)
        energy = problem.E_R * signed
        assert abs(energy - (-2.0)) < problem.E_R * tol, \
            f"energy {energy} not within {problem.E_R * tol} of -2"


def test_a2_superposition_weights_match_born_rule(tmp_path, capsys):
    """Two peaks at +-2 with weights 0.8/0.2 for the shipped superposition."""
    with criterion("A2", budget_s=10.0, capsys=capsys):
        problem = rq.load_problem(
            os.path.join(PROBLEM_DIR, "sigma_z_superposition.json")
        )
        gauge = rq.encode_as_gauge(problem)
        peaks = rq.estimate_phase_via_ring(gauge, problem.state, 50, 512)
        assert len(peaks) == 2, f"expected exactly 2 peaks, got {len(peaks)}"
        first, second = peaks.peaks
        assert abs(first.weight - 0.8) <= 0.02, f"weight {first.weight} vs 0.8"
        assert abs(second.weight - 0.2) <= 0.02, f"weight {second.weight} vs 0.2"
        bin_width = TWO_PI / 512
        assert rq.circular_distance(first.phi, 2.0) <= 2 * bin_width
        assert rq.circular_distance(second.phi, TWO_PI - 2.0) <= 2 * bin_width
        # the pair sits symmetrically about the origin
        assert rq.circular_distance(first.phi, TWO_PI - second.phi) <= 2 * bin_width


def test_a3_register_is_exact_on_representable_phases(capsys):
    """A phase on the read-out grid concentrates all probability on its k."""
    with criterion("A3", budget_s=1.0, capsys=capsys):
        t = 3
        phi_u = TWO_PI * 3 / 8
        u = np.array([[np.exp(1j * phi_u)]])
        est = rq.qpe_estimate(*spectral_measure(rq.eig_unitary(u), np.array([1.0])),
                              rq.QpeConfig(t))
        assert est.k_best == 3, f"modal read-out {est.k_best} != 3"
        p3 = float(est.distribution.probs[3])
        assert p3 >= 1.0 - 1e-9, f"P(3) = {p3} below 1 - 1e-9"


def test_a4_tail_bound_holds_across_random_phases(capsys):
    """P(miss by more than e bins) <= 1/(2(e-1)) for 200 seeded phases."""
    with criterion("A4", budget_s=30.0, capsys=capsys):
        t = 8
        size = 1 << t
        ks = np.arange(size)
        grid = ks * TWO_PI / size
        violations = 0
        rng = np.random.default_rng(8800)
        for _ in range(200):
            phi_u = float(rng.uniform(0.0, TWO_PI))
            u = np.array([[np.exp(1j * phi_u)]])
            est = rq.qpe_estimate(*spectral_measure(rq.eig_unitary(u), np.array([1.0])),
                                  rq.QpeConfig(t))
            dist_to_phase = np.abs(grid - phi_u)
            dist_to_phase = np.minimum(dist_to_phase, TWO_PI - dist_to_phase)
            best = int(np.argmin(dist_to_phase))
            idx_dist = np.abs(ks - best)
            idx_dist = np.minimum(idx_dist, size - idx_dist)
            for e in (2, 4, 8):
                tail = float(est.distribution.probs[idx_dist > e].sum())
                if tail > 1.0 / (2.0 * (e - 1)) + 1e-12:
                    violations += 1
        assert violations == 0, f"{violations} tail-bound violations"


def test_a5_routes_agree_on_random_eigenstate_problems(tmp_path, capsys):
    """compare exits 0 on 25 seeded problems with eigenvector inputs."""
    with criterion("A5", budget_s=300.0, capsys=capsys):
        for i in range(25):
            rng = np.random.default_rng([9000, i])
            n = int(rng.integers(2, 5))
            h = random_hermitian(rng, n, scale=1.0)
            lam, vec = rq.eig_hermitian(h)
            radius = float(np.max(np.abs(lam)))
            target = float(rng.uniform(0.5, 2.8))
            h = h * (target / radius)
            lam, vec = rq.eig_hermitian(h)
            pick = int(rng.integers(0, n))
            problem = rq.EnergyProblem(h, 1.0, vec[:, pick])
            path = write_problem(tmp_path, problem, f"a5_{i:02d}.json")
            out = tmp_path / f"a5_out_{i:02d}"
            code = main(["compare", "--problem", str(path),
                         "--out-dir", str(out),
                         "-l", "200", "-N", "1024", "--t-bits", "10"])
            assert code == 0, (
                f"case {i}: compare exited {code}; report: "
                f"{(out / 'compare.json').read_text()}"
            )


def test_a6_dense_route_scales_like_a_cube_and_block_like_a_line(capsys):
    """Fitted wall-time slopes separate the two classical evolution routes."""
    with criterion("A6", budget_s=600.0, capsys=capsys):
        points = rq.run_scaling_suite(
            (64, 128, 256, 512), repeats=3, seed=0,
            methods=(METHOD_DENSE, METHOD_BLOCK),
        )
        dense = rq.fit_scaling([p for p in points if p.method == METHOD_DENSE])
        block = rq.fit_scaling([p for p in points if p.method == METHOD_BLOCK])
        assert 1.8 <= dense.slope <= 3.5, f"dense slope {dense.slope}"
        assert block.slope <= dense.slope - 0.5, (
            f"block slope {block.slope} not separated from dense {dense.slope}"
        )


def test_a7_invariants_hold_over_seeded_case_sweeps(capsys):
    """Norms, route agreement, transform and encoder round trips, 100x each."""
    with criterion("A7", budget_s=120.0, capsys=capsys):
        # evolution preserves the norm
        for i in range(100):
            rng = np.random.default_rng([7100, i])
            n = int(rng.integers(1, 5))
            l = int(rng.integers(1, 41))
            gauge = rq.GaugeField(random_hermitian(rng, n, scale=0.3))
            color = random_state(rng, n)
            t = float(rng.uniform(0.0, 2.0 * rq.RETURN_TIME))
            evolved = rq.evolve_block(gauge, color, l, t)
            assert abs(np.linalg.norm(evolved.coeffs) - 1.0) < 1e-10, f"case {i}"

        # dense and block evolution agree wherever the dense route fits
        for i in range(100):
            rng = np.random.default_rng([7200, i])
            n = int(rng.integers(1, 5))
            l_max = (202 // n - 1) // 2
            l = int(rng.integers(1, l_max + 1))
            gauge = rq.GaugeField(random_hermitian(rng, n, scale=0.3))
            color = random_state(rng, n)
            t = float(rng.uniform(0.0, rq.RETURN_TIME))
            a = rq.evolve_block(gauge, color, l, t)
            b = rq.evolve_dense(gauge, color, l, t)
            assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-8, f"case {i}"

        # the register read-out matches the spectrum's closed form
        for i in range(100):
            rng = np.random.default_rng([7300, i])
            t_bits = int(rng.integers(1, 11))
            n = int(rng.integers(1, 4))
            v = random_unitary(rng, n)
            theta = rng.uniform(-np.pi, np.pi, n)
            color = random_state(rng, n)
            weights = np.abs(v.conj().T @ color) ** 2
            want = spectral_register_distribution(t_bits, theta, weights)
            est = rq.qpe_estimate(theta, weights, rq.QpeConfig(t_bits))
            assert np.max(np.abs(est.distribution.probs - want)) < 1e-12, f"case {i}"

        # encoding a problem and rolling the holonomy returns its unitary
        for i in range(100):
            rng = np.random.default_rng([7400, i])
            n = int(rng.integers(1, 5))
            if i % 2 == 0:
                h = random_hermitian(rng, n, scale=0.5)
                problem = rq.EnergyProblem(h, 1.0, random_state(rng, n))
                gauge = rq.encode_as_gauge(problem)
                want = rq.expm_dense(h, -1.0)
            else:
                q, r = np.linalg.qr(
                    rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                )
                u = q * (np.diag(r) / np.abs(np.diag(r)))
                spec = rq.UnitarySpec(u, random_state(rng, n))
                gauge = rq.encode_as_gauge(spec)
                want = u
            got = rq.expm_dense(gauge.a_phi, TWO_PI * rq.VELOCITY_FACTOR)
            assert np.max(np.abs(got - want)) < 1e-8, f"case {i}"
