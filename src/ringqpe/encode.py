"""Problems carry their unitary and its spectrum; encode it as a gauge field.

An energy problem (H, E_R) is carried by the unitary U = exp(i H / E_R):
the eigenstate with energy E shows up as the eigenphase E / E_R. Both kinds
expose U as `u_matrix`, which the ring's read-out takes as it is; an energy
problem forms it from H on first read, with linalg.unitary_exp. Each
problem also decomposes its matrix once, on construction, into
`spectrum = EigenDecomposition(theta, V)`: U's eigenphases on (-pi, pi] and
an orthonormal eigenbasis. It keeps beside it `weights = |V^dagger state|^2`,
the Born weights of its state. The register's read-out and compare's direct
route are evaluated from theta and those weights, and encode_as_gauge forms
from the spectrum, once, the Hermitian gauge potential in which ring-sim
evolves its snapshots, on the ring's natural units hbar = q = r = m_q = 1,

    A_phi = -(1 / (2 pi * VELOCITY_FACTOR)) * V diag(theta) V^dagger.

An energy problem wraps its eigenvalues onto (-pi, pi] in the eigenbasis;
an elementwise matrix modulo would not commute with diagonalization.
Spectra reaching pi in magnitude still encode, but alias around the circle;
that raises a PhaseAliasingWarning on construction instead of failing.

Problem files hold vectors as JSON objects {"re": [...], "im": [...]} and
matrices as {"rows": r, "cols": c, "re": [...], "im": [...]} with row-major
flattening; this module reads and writes both.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .angles import TWO_PI, wrap_to_signed
from .errors import PhaseAliasingWarning, PreconditionError, ProblemFormatError
from .linalg import (
    EigenDecomposition,
    as_matrix,
    eig_hermitian,
    eig_unitary,
    is_integer,
    require_hermitian,
    require_state,
    require_unitary,
    unitary_exp,
)

if TYPE_CHECKING:
    from .ring import GaugeField


def _is_number(value) -> bool:
    """Whether value is a real number, as a JSON number is; a bool is not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _set_spectrum(problem, spectrum: EigenDecomposition) -> None:
    # the spectrum and the Born weights |<v_a|state>|^2 of the state; every
    # route reads them, so none may write into them
    weights = np.abs(spectrum.eigenvectors.conj().T @ problem.state) ** 2
    for a in (*spectrum, weights):
        a.setflags(write=False)
    object.__setattr__(problem, "spectrum", spectrum)
    object.__setattr__(problem, "weights", weights)


@dataclass(frozen=True, eq=False)
class EnergyProblem:
    """Hermitian H with a reference scale E_R and a candidate state.

    `spectrum` holds the eigenphases of exp(i H / E_R), the eigenvalues of
    H / E_R wrapped onto (-pi, pi], over H's orthonormal eigenbasis, and
    `weights` the state's Born weights over that basis; `spectral_radius`
    is the largest |eigenvalue| of H / E_R before the wrap, so an energy
    read back from a phase is E_R * phase only below pi.
    """

    hamiltonian: np.ndarray
    E_R: float
    state: np.ndarray
    spectrum: EigenDecomposition = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)
    spectral_radius: float = field(init=False, repr=False)

    def __post_init__(self):
        h = require_hermitian(self.hamiltonian)
        if not (_is_number(self.E_R) and math.isfinite(self.E_R) and self.E_R > 0):
            raise PreconditionError(f"E_R must be a positive number, got {self.E_R!r}")
        state = require_state(self.state, h.shape[0], "state", "Hamiltonian")
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
        _set_spectrum(self, EigenDecomposition(wrap_to_signed(w), v))

    @functools.cached_property
    def u_matrix(self) -> np.ndarray:
        """U = exp(i H / E_R) from H, on first read: the ring reads it, the
        register never does."""
        return unitary_exp(self.hamiltonian, 1.0 / self.E_R)


@dataclass(frozen=True, eq=False)
class UnitarySpec:
    """A unitary with a candidate state; `spectrum` is eig_unitary(U), and
    `weights` the state's Born weights over its basis."""

    u_matrix: np.ndarray
    state: np.ndarray
    spectrum: EigenDecomposition = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        u = require_unitary(self.u_matrix)
        state = require_state(self.state, u.shape[0], "state", "unitary")
        object.__setattr__(self, "u_matrix", u)
        object.__setattr__(self, "state", state)
        _set_spectrum(self, eig_unitary(u))


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


def _pair_to_json(values) -> dict:
    return {
        "re": [float(x) for x in values.real],
        "im": [float(x) for x in values.imag],
    }


def _pair_from_json(obj, kind: str, sizes=()) -> tuple:
    """The positive integers named in `sizes`, then the complex array of the
    equal "re" and "im" lists of numbers, of a JSON object; anything else
    raises PreconditionError naming `kind`."""
    if not isinstance(obj, dict):
        raise PreconditionError(f"{kind} JSON must be an object")
    try:
        counts, parts = [obj[key] for key in sizes], [obj["re"], obj["im"]]
        if not all(is_integer(count) and count > 0 for count in counts):
            raise ValueError(f"{sizes} must be positive integers, got {counts}")
        if not (all(isinstance(p, list) and all(map(_is_number, p)) for p in parts)
                and len(parts[0]) == len(parts[1])):
            raise TypeError("re and im must be equal-length lists of numbers")
        re, im = (np.asarray(p, dtype=np.float64) for p in parts)
    # OverflowError: an integer entry past the largest float
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise PreconditionError(f"malformed {kind} JSON: {exc}") from exc
    return (*counts, re + 1j * im)


def vector_to_json(v) -> dict:
    return _pair_to_json(np.asarray(v, dtype=np.complex128))


def vector_from_json(obj) -> np.ndarray:
    return _pair_from_json(obj, "vector")[0]


def matrix_to_json(m) -> dict:
    """Serialize a matrix to the row-major {rows, cols, re, im} wire format."""
    a = as_matrix(m)
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]),
            **_pair_to_json(a.reshape(-1))}


def matrix_from_json(obj) -> np.ndarray:
    """Parse the {rows, cols, re, im} wire format back into an ndarray."""
    rows, cols, values = _pair_from_json(obj, "matrix", ("rows", "cols"))
    if values.size != rows * cols:
        raise PreconditionError(f"matrix JSON length mismatch: expected "
                                f"{rows * cols} entries, got {values.size}")
    return as_matrix(values.reshape(rows, cols))


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
            return EnergyProblem(matrix_from_json(obj["hamiltonian"]), obj["E_R"],
                                 state)
        return UnitarySpec(matrix_from_json(obj["unitary"]), state)
    # OverflowError: an integer E_R past the largest float
    except (PreconditionError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ProblemFormatError(f"invalid problem description: {exc}") from exc


def read_json(path):
    """The JSON value in the UTF-8 file at `path`.

    A file that is not UTF-8 or not JSON raises ProblemFormatError; a file
    that cannot be opened raises OSError.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # a JSONDecodeError or, for bytes that are not UTF-8, a
        # UnicodeDecodeError
        except ValueError as exc:
            raise ProblemFormatError(f"{path} is not valid JSON: {exc}") from exc


def load_problem(path):
    """Read a problem JSON file; returns EnergyProblem or UnitarySpec."""
    return problem_from_json(read_json(path))
