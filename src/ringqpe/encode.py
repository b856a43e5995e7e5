"""Map eigenvalue problems onto ring gauge potentials, and phases back.

An energy problem (H, E_R) is carried by the unitary U = exp(i H / E_R):
the eigenstate with energy E shows up as the eigenphase E / E_R. The
encoders build the Hermitian gauge potential whose ring read-out reproduces
exactly those eigenphases,

    A_phi = -(hbar / (q * 2 pi r * VELOCITY_FACTOR)) * W,

where W is the problem's phase matrix with every eigenvalue wrapped onto
(-pi, pi]. Wrapping happens in the eigenbasis; an elementwise matrix modulo
would not commute with diagonalization. Spectra reaching pi in magnitude
still encode, but alias around the circle; that attaches a
PhaseAliasingWarning instead of failing.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .angles import TWO_PI, wrap_to_signed
from .errors import PhaseAliasingWarning, PreconditionError, ProblemFormatError
from .linalg import (
    eig_hermitian,
    eig_unitary,
    matrix_from_json,
    matrix_to_json,
    require_hermitian,
    require_unit_vector,
    require_unitary,
)
from .ring import VELOCITY_FACTOR, GaugeField, RingPhysicalParams


@dataclass(frozen=True, eq=False)
class EnergyProblem:
    """Hermitian H with a reference scale E_R and a candidate eigenstate."""

    hamiltonian: np.ndarray
    E_R: float
    candidate_state: np.ndarray

    def __post_init__(self):
        h = require_hermitian(self.hamiltonian)
        if not (math.isfinite(self.E_R) and self.E_R > 0):
            raise PreconditionError(f"E_R must be positive, got {self.E_R!r}")
        state = require_unit_vector(self.candidate_state, "candidate state")
        if state.size != h.shape[0]:
            raise PreconditionError(
                f"candidate state dimension {state.size} does not match "
                f"Hamiltonian dimension {h.shape[0]}"
            )
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "candidate_state", state)

    @property
    def n_colors(self) -> int:
        return self.hamiltonian.shape[0]


@dataclass(frozen=True, eq=False)
class UnitarySpec:
    """A unitary with a candidate eigenstate."""

    u_matrix: np.ndarray
    eigenstate: np.ndarray

    def __post_init__(self):
        u = require_unitary(self.u_matrix)
        state = require_unit_vector(self.eigenstate, "eigenstate")
        if state.size != u.shape[0]:
            raise PreconditionError(
                f"eigenstate dimension {state.size} does not match "
                f"unitary dimension {u.shape[0]}"
            )
        object.__setattr__(self, "u_matrix", u)
        object.__setattr__(self, "eigenstate", state)

    @property
    def n_colors(self) -> int:
        return self.u_matrix.shape[0]


def _phases_to_gauge(phase_matrix: np.ndarray,
                     params: RingPhysicalParams) -> GaugeField:
    scale = -params.hbar / (
        params.charge_q * TWO_PI * params.radius_r * VELOCITY_FACTOR
    )
    a_phi = scale * phase_matrix
    a_phi = 0.5 * (a_phi + a_phi.conj().T)  # shave rounding off Hermiticity
    return GaugeField(a_phi, params)


def encode_hamiltonian_as_gauge(problem: EnergyProblem,
                                params: RingPhysicalParams) -> GaugeField:
    """Gauge potential whose ring read-out gives the eigenphases of H/E_R.

    Eigenvalues of H/E_R are wrapped onto (-pi, pi] in the eigenbasis before
    scaling. A spectral radius at or beyond pi aliases and warns.
    """
    w, v = eig_hermitian(problem.hamiltonian / problem.E_R)
    radius = float(np.max(np.abs(w))) if w.size else 0.0
    if radius >= np.pi:
        warnings.warn(
            f"spectral radius of H/E_R is {radius:.6g} >= pi; "
            f"encoded eigenphases wrap around the circle",
            PhaseAliasingWarning,
            stacklevel=2,
        )
    wrapped = wrap_to_signed(w)
    phase_matrix = (v * wrapped) @ v.conj().T
    return _phases_to_gauge(phase_matrix, params)


def encode_unitary_as_gauge(spec: UnitarySpec,
                            params: RingPhysicalParams) -> GaugeField:
    """Gauge potential whose ring read-out gives the eigenphases of U.

    Uses eig_unitary: its eigenbasis is orthonormal even for degenerate
    eigenphases, which keeps the reconstructed gauge Hermitian, and its
    phases are already on the principal branch (-pi, pi].
    """
    theta, v = eig_unitary(spec.u_matrix)
    phase_matrix = (v * theta) @ v.conj().T
    return _phases_to_gauge(phase_matrix, params)


def phase_to_energy(phi: float, E_R: float) -> float:
    """Energy read-out E = E_R * phi for a signed eigenphase phi."""
    return float(E_R * phi)


def unwrap_phase(phi: float) -> float:
    """Fold a reported position phi in [0, 2*pi) onto the signed branch."""
    if not (0.0 <= phi < TWO_PI):
        raise PreconditionError(f"phase {phi!r} outside [0, 2*pi)")
    return float(phi - TWO_PI) if phi > np.pi else float(phi)


def vector_to_json(v) -> dict:
    arr = np.asarray(v, dtype=np.complex128)
    return {
        "re": [float(x) for x in arr.real],
        "im": [float(x) for x in arr.imag],
    }


def vector_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise PreconditionError("vector JSON must be an object")
    try:
        re = np.asarray(obj["re"], dtype=np.float64)
        im = np.asarray(obj["im"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise PreconditionError(f"malformed vector JSON: {exc}") from exc
    if re.ndim != 1 or re.shape != im.shape:
        raise PreconditionError("vector JSON re/im must be equal-length lists")
    return re + 1j * im


def problem_to_json(problem) -> dict:
    """Serialize an EnergyProblem or UnitarySpec to the wire format."""
    if isinstance(problem, EnergyProblem):
        return {
            "hamiltonian": matrix_to_json(problem.hamiltonian),
            "E_R": float(problem.E_R),
            "state": vector_to_json(problem.candidate_state),
        }
    if isinstance(problem, UnitarySpec):
        return {
            "unitary": matrix_to_json(problem.u_matrix),
            "state": vector_to_json(problem.eigenstate),
        }
    raise PreconditionError(f"cannot serialize {type(problem).__name__}")


def problem_from_json(obj):
    """Parse a problem object; returns EnergyProblem or UnitarySpec."""
    if not isinstance(obj, dict):
        raise ProblemFormatError("problem JSON must be an object")
    has_h = "hamiltonian" in obj
    has_u = "unitary" in obj
    if has_h == has_u:
        raise ProblemFormatError(
            "problem JSON must contain exactly one of 'hamiltonian' or 'unitary'"
        )
    try:
        state = vector_from_json(obj["state"])
        if has_h:
            return EnergyProblem(
                matrix_from_json(obj["hamiltonian"]),
                float(obj["E_R"]),
                state,
            )
        return UnitarySpec(matrix_from_json(obj["unitary"]), state)
    except ProblemFormatError:
        raise
    except (PreconditionError, KeyError, TypeError, ValueError) as exc:
        raise ProblemFormatError(f"invalid problem description: {exc}") from exc


def load_problem(path):
    """Read a problem JSON file; returns EnergyProblem or UnitarySpec."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"{path} is not valid JSON: {exc}") from exc
    return problem_from_json(obj)
