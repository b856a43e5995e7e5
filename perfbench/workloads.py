"""Seeded problems and commands for each workload, with the truth built in.

Every generated problem is U = V diag(e^{i theta}) V^dagger (unitary form) or
H = V diag(lambda) V^dagger with E_R = 1 (Hamiltonian form, theta = lambda),
with a Haar-random V drawn from the workload seed. The state is one column of
V, or a weighted sum of columns, so the true eigenphases and Born weights are
known exactly without asking the program. The program only ever sees the
problem files.

The timed workloads keep every state's components at least one default
peak window apart and the register at t = 16, where no command should fail.
The two known defects (merged ring peaks for components 1-9 resolution lobes
apart, the register norm check rejecting valid problems from t = 18 on) are
exercised by a fixed defect probe (defect_probe) that the traced run checks
and reports on every workload, so they stay in view without failing the
timed loop.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

# ringqpe CLI defaults (cli._DEFAULTS); commands in cli-small run at defaults,
# and the checker needs the same values to set each route's tolerance.
RING_SIM_L, RING_SIM_N = 50, 512
QPE_T = 10
COMPARE_L, COMPARE_N, COMPARE_T = 200, 1024, 10
RING_SIM_TIMES = 3

# The default peak window spans +-8 resolution lobes, so ring components
# closer than 16 lobes share a window (the merged-peak defect).
PEAK_WINDOW_LOBES = 8
WINDOW_LOBES = 2 * PEAK_WINDOW_LOBES

WORKLOADS = ("cli-small", "ring-wide", "register-deep")

# The defect probe is the same in every run, so its counts compare across runs.
PROBE_SEED = 20250917
# Two-component gaps (in lobes of l = 50) where ring-sim (about 3.5-8.5
# lobes) or compare (about 1-2 lobes) report a merged peak.
PROBE_GAP_LOBES = (1.0, 9.0)
PROBE_QPE_T, PROBE_QPE_N = 20, 4

# The three problem files shipped in problems/, with their truth worked out
# by hand: H = 2 sigma_x ground state (phase -2), H = 2 sigma_z probed
# 0.8/0.2 (phases +2 and -2), U = diag(i, -i) on e_0 (phase pi/2).
FIXED_PROBLEMS = {
    "sigma_x_ground_state.json": [(-2.0, 1.0)],
    "sigma_z_superposition.json": [(2.0, 0.8), (-2.0, 0.2)],
    "diag_quarter_turn.json": [(math.pi / 2, 1.0)],
}


@dataclass
class Problem:
    """A problem file and the eigenphases (in [0, 2 pi)) and weights of its state."""

    name: str
    path: str
    n: int
    phases: list
    weights: list

    @property
    def dominant(self) -> float:
        return self.phases[int(np.argmax(self.weights))]

    @property
    def min_gap(self) -> float:
        """Smallest circular distance between two components of the state."""
        gaps = [
            circular_distance(a, b)
            for i, a in enumerate(self.phases) for b in self.phases[i + 1:]
        ]
        return min(gaps) if gaps else math.inf


@dataclass
class Command:
    """One CLI invocation and what its outputs must show."""

    cid: int
    sub: str
    problem: Problem
    flags: list = field(default_factory=list)
    expected_exit: int = 0
    ring_l: int | None = None
    ring_n: int | None = None
    t_bits: int | None = None

    def argv(self, out_dir: str) -> list:
        return [self.sub, "--problem", self.problem.path,
                "--out-dir", out_dir] + self.flags


def circular_distance(a: float, b: float) -> float:
    d = abs((a - b) % TWO_PI)
    return min(d, TWO_PI - d)


def _haar_unitary(rng, n: int) -> np.ndarray:
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _matrix_json(m: np.ndarray) -> dict:
    flat = m.reshape(-1)
    return {"rows": m.shape[0], "cols": m.shape[1],
            "re": flat.real.tolist(), "im": flat.imag.tolist()}


def _write_problem(rng, path: str, form: str, signed_phases: np.ndarray,
                   columns: list, weights: list) -> Problem:
    """Write one problem whose state is sum_j sqrt(w_j) V[:, columns[j]]."""
    n = signed_phases.size
    v = _haar_unitary(rng, n)
    state = sum(math.sqrt(w) * v[:, c] for c, w in zip(columns, weights))
    state = state / np.linalg.norm(state)
    if form == "hamiltonian":
        h = (v * signed_phases) @ v.conj().T
        obj = {"hamiltonian": _matrix_json(0.5 * (h + h.conj().T)), "E_R": 1.0}
    else:
        obj = {"unitary": _matrix_json((v * np.exp(1j * signed_phases)) @ v.conj().T)}
    obj["state"] = {"re": state.real.tolist(), "im": state.imag.tolist()}
    with open(path, "w") as fh:
        json.dump(obj, fh)
    phases = [float(signed_phases[c] % TWO_PI) for c in columns]
    return Problem(os.path.basename(path), path, n, phases, list(weights))


def _spectrum(rng, n: int, form: str) -> np.ndarray:
    # Hamiltonian spectra stay inside (-pi, pi) so E/E_R never aliases;
    # unitary spectra cover the whole circle, the 0/2 pi seam included.
    if form == "hamiltonian":
        return rng.uniform(-2.9, 2.9, n)
    return rng.uniform(-math.pi, math.pi, n)


def _lobe(l: int) -> float:
    return TWO_PI / (2 * l + 1)


def _two_component(rng, path: str, n: int, form: str,
                   gap_lobes: float) -> Problem:
    """0.7/0.3 superposition whose components are gap_lobes lobes of l = 50 apart."""
    lam = _spectrum(rng, n, form)
    gap = gap_lobes * _lobe(RING_SIM_L)
    low = -2.9 if form == "hamiltonian" else -math.pi
    high = -low - gap
    lam[0] = rng.uniform(low, high)
    lam[1] = lam[0] + gap
    order = [0, 1] if rng.random() < 0.5 else [1, 0]
    return _write_problem(rng, path, form, lam, order, [0.7, 0.3])


def _eigenvector(rng, path: str, n: int, form: str) -> Problem:
    lam = _spectrum(rng, n, form)
    return _write_problem(rng, path, form, lam, [int(rng.integers(n))], [1.0])


def _three_component(rng, path: str, n: int, form: str,
                     min_gap: float) -> Problem:
    """0.5/0.3/0.2 superposition with components at least min_gap apart."""
    while True:
        lam = _spectrum(rng, n, form)
        cols = [int(c) for c in rng.choice(n, size=3, replace=False)]
        if all(circular_distance(lam[a], lam[b]) >= min_gap
               for i, a in enumerate(cols) for b in cols[i + 1:]):
            return _write_problem(rng, path, form, lam, cols, [0.5, 0.3, 0.2])


def fejer_mode_phase(phases, weights, t_bits: int) -> float:
    """Eigenphase behind the register's most probable read-out value.

    Closed-form phase estimation: eigencomponents land in register 2 on
    orthogonal vectors, so P(k) = sum_j w_j F_t(theta_j - 2 pi k / 2^t) with
    the Fejer kernel F_t. A 0.3 component sitting on a bin can outweigh a 0.7
    component half a bin off, so the modal read-out is not always the
    dominant eigenphase; this returns the eigenphase the mode belongs to.
    """
    size = 1 << t_bits
    best_k, best_p = None, -1.0
    for theta in phases:
        centre = theta * size / TWO_PI
        for k in (math.floor(centre), math.ceil(centre)):
            p = 0.0
            for th, w in zip(phases, weights):
                delta = th - TWO_PI * k / size
                s = math.sin(delta / 2.0)
                p += w * (1.0 if abs(s) < 1e-15 else
                          (math.sin(size * delta / 2.0) / (size * s)) ** 2)
            if p > best_p:
                best_k, best_p = k % size, p
    phi_k = TWO_PI * best_k / size
    return min(phases, key=lambda th: circular_distance(th, phi_k))


def build(workload: str, seed: int, work_dir: str, repo_root: str) -> list:
    """Write the workload's problem files under work_dir; return its commands.

    The list is one cycle; the closed loop repeats it as often as time allows.
    Kinds are interleaved so any prefix of the cycle is a balanced sample.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    os.makedirs(work_dir, exist_ok=True)
    commands = []

    def add(sub, problem, **kw):
        commands.append(Command(len(commands), sub, problem, **kw))

    if workload == "cli-small":
        problems = []
        for fname, comps in FIXED_PROBLEMS.items():
            path = os.path.join(repo_root, "problems", fname)
            phases = [p % TWO_PI for p, _ in comps]
            problems.append(Problem(fname, path, 2, phases, [w for _, w in comps]))
        # 4 kinds (H/U x eigenvector/superposition) against n in {2, 3, 4}
        # repeat every 12 problems, so every kind meets every size.
        for i in range(21):
            form = ("hamiltonian", "unitary")[i % 2]
            n = (2, 3, 4)[i % 3]
            path = os.path.join(work_dir, f"p{i:02d}.json")
            if (i // 2) % 2 == 0:
                problems.append(_eigenvector(rng, path, n, form))
            else:  # components in separate peak windows
                gap = rng.uniform(WINDOW_LOBES, WINDOW_LOBES + 8)
                problems.append(_two_component(rng, path, n, form, gap))
        for j, problem in enumerate(problems):
            superposed = len(problem.phases) > 1
            # rotate the subcommand order so no kind is tied to one position
            for k in range(3):
                sub = ("ring-sim", "qpe", "compare")[(j + k) % 3]
                if sub == "ring-sim":
                    add(sub, problem, ring_l=RING_SIM_L, ring_n=RING_SIM_N)
                elif sub == "qpe":
                    add(sub, problem, t_bits=QPE_T)
                else:
                    add(sub, problem, expected_exit=4 if superposed else 0,
                        ring_l=COMPARE_L, ring_n=COMPARE_N, t_bits=COMPARE_T)
    elif workload == "ring-wide":
        for i in range(16):
            path = os.path.join(work_dir, f"w{i:02d}.json")
            if i % 2 == 0:
                problem = _eigenvector(rng, path, 32, "hamiltonian")
            else:
                problem = _three_component(rng, path, 32, "hamiltonian",
                                           WINDOW_LOBES * _lobe(1000))
            add("compare", problem,
                flags=["-l", "1000", "-N", "65536", "--t-bits", "16"],
                expected_exit=0 if i % 2 == 0 else 4,
                ring_l=1000, ring_n=65536, t_bits=16)
    else:  # register-deep
        for i in range(24):
            path = os.path.join(work_dir, f"d{i:02d}.json")
            form = ("hamiltonian", "unitary")[i % 2]
            problem = _eigenvector(rng, path, (2, 4)[(i // 2) % 2], form)
            add("qpe", problem, flags=["--t-bits", "16"], t_bits=16)
    return commands


def defect_probe(work_dir: str) -> list:
    """Fixed commands that show the two known defects, checked like any other.

    Twelve 0.7/0.3 states with gaps spread over PROBE_GAP_LOBES, each through
    ring-sim and compare at CLI defaults (merged peaks), and eight n = 4
    eigenvector problems through qpe at t = 20, where the register norm
    check rejects about half of them (at t = 18 it rejects a few percent).
    """
    rng = np.random.default_rng(PROBE_SEED)
    os.makedirs(work_dir, exist_ok=True)
    commands = []
    lo, hi = PROBE_GAP_LOBES
    for i in range(12):
        path = os.path.join(work_dir, f"m{i:02d}.json")
        form = ("hamiltonian", "unitary")[i % 2]
        problem = _two_component(rng, path, (2, 3, 4)[i % 3], form,
                                 lo + (hi - lo) * i / 11)
        commands.append(Command(len(commands), "ring-sim", problem,
                                ring_l=RING_SIM_L, ring_n=RING_SIM_N))
        commands.append(Command(len(commands), "compare", problem,
                                expected_exit=4, ring_l=COMPARE_L,
                                ring_n=COMPARE_N, t_bits=COMPARE_T))
    for i in range(8):
        path = os.path.join(work_dir, f"r{i:02d}.json")
        problem = _eigenvector(rng, path, PROBE_QPE_N,
                               ("hamiltonian", "unitary")[i % 2])
        commands.append(Command(len(commands), "qpe", problem,
                                flags=["--t-bits", str(PROBE_QPE_T)],
                                t_bits=PROBE_QPE_T))
    return commands
