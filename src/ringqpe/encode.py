"""Problems carry their spectrum; encode it as a ring gauge potential.

An energy problem (H, E_R) is carried by the unitary U = exp(i H / E_R):
the eigenstate with energy E shows up as the eigenphase E / E_R. Each
problem decomposes its matrix once, on construction, into
`spectrum = EigenDecomposition(theta, V)`: U's eigenphases on (-pi, pi] and
an orthonormal eigenbasis. The register's read-out is evaluated in that
spectrum, and encode_as_gauge forms from it, once, the Hermitian gauge
potential whose ring read-out reproduces the same phases, on the ring's
natural units hbar = q = r = m_q = 1,

    A_phi = -(1 / (2 pi * VELOCITY_FACTOR)) * V diag(theta) V^dagger.

An energy problem wraps its eigenvalues onto (-pi, pi] in the eigenbasis;
an elementwise matrix modulo would not commute with diagonalization.
Spectra reaching pi in magnitude still encode, but alias around the circle;
that raises a PhaseAliasingWarning on construction instead of failing.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .angles import TWO_PI, wrap_to_signed
from .errors import PhaseAliasingWarning, PreconditionError, ProblemFormatError
from .linalg import (
    EigenDecomposition,
    eig_hermitian,
    eig_unitary,
    matrix_from_json,
    matrix_to_json,
    require_hermitian,
    require_unit_vector,
    require_unitary,
)

if TYPE_CHECKING:
    from .ring import GaugeField


def _require_state(state, n: int, what: str) -> np.ndarray:
    state = require_unit_vector(state, "state")
    if state.size != n:
        raise PreconditionError(
            f"state dimension {state.size} does not match {what} dimension {n}"
        )
    return state


def _read_only(spectrum: EigenDecomposition) -> EigenDecomposition:
    # every route reads this one spectrum, so none may write into it
    for a in spectrum:
        a.setflags(write=False)
    return spectrum


@dataclass(frozen=True, eq=False)
class EnergyProblem:
    """Hermitian H with a reference scale E_R and a candidate state.

    `spectrum` holds the eigenphases of exp(i H / E_R), the eigenvalues of
    H / E_R wrapped onto (-pi, pi], over H's orthonormal eigenbasis;
    `spectral_radius` is the largest |eigenvalue| of H / E_R before the
    wrap, so an energy read back from a phase is E_R * phase only below pi.
    """

    hamiltonian: np.ndarray
    E_R: float
    state: np.ndarray
    spectrum: EigenDecomposition = field(init=False, repr=False)
    spectral_radius: float = field(init=False, repr=False)

    def __post_init__(self):
        h = require_hermitian(self.hamiltonian)
        if not (math.isfinite(self.E_R) and self.E_R > 0):
            raise PreconditionError(f"E_R must be positive, got {self.E_R!r}")
        state = _require_state(self.state, h.shape[0], "Hamiltonian")
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "state", state)
        # decompose H itself: H / E_R would re-check Hermiticity against a
        # tolerance that a small E_R scales past
        w, v = eig_hermitian(h)
        w = w / self.E_R
        radius = float(np.max(np.abs(w)))
        object.__setattr__(self, "spectral_radius", radius)
        if radius >= np.pi:
            warnings.warn(
                f"spectral radius of H/E_R is {radius:.6g} >= pi; "
                f"encoded eigenphases wrap around the circle",
                PhaseAliasingWarning,
                stacklevel=3,
            )
        object.__setattr__(self, "spectrum",
                           _read_only(EigenDecomposition(wrap_to_signed(w), v)))

    @property
    def n_colors(self) -> int:
        return self.hamiltonian.shape[0]


@dataclass(frozen=True, eq=False)
class UnitarySpec:
    """A unitary with a candidate state; `spectrum` is eig_unitary(U)."""

    u_matrix: np.ndarray
    state: np.ndarray
    spectrum: EigenDecomposition = field(init=False, repr=False)

    def __post_init__(self):
        u = require_unitary(self.u_matrix)
        state = _require_state(self.state, u.shape[0], "unitary")
        object.__setattr__(self, "u_matrix", u)
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "spectrum", _read_only(eig_unitary(u)))

    @property
    def n_colors(self) -> int:
        return self.u_matrix.shape[0]


def encode_as_gauge(problem) -> GaugeField:
    """Gauge field whose ring read-out gives the problem's eigenphases.

    Forms the matrix once from the problem's spectrum, so no matrix is
    decomposed here and an aliased problem keeps its wrapped branch; the
    ring reads only the matrix. The ring module loads on the first call,
    so a register-only caller never loads it.
    """
    from . import ring

    theta, v = problem.spectrum
    scaled = -1.0 / (TWO_PI * ring.VELOCITY_FACTOR) * theta
    return ring.GaugeField((v * scaled) @ v.conj().T)


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
            "state": vector_to_json(problem.state),
        }
    if isinstance(problem, UnitarySpec):
        return {
            "unitary": matrix_to_json(problem.u_matrix),
            "state": vector_to_json(problem.state),
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
