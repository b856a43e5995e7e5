"""Dense complex linear algebra kernels.

All operations are pure functions on ndarrays. eig_hermitian and
eig_unitary are the only places a spectrum is computed; a problem calls one
of them once and hands the EigenDecomposition to every consumer.
expm_dense is scaling-and-squaring with a Pade core and never
diagonalizes. The bench module times it as the brute-force cost baseline,
so keep it free of spectral shortcuts.

Matrices cross module and file boundaries as JSON objects
{"rows": r, "cols": c, "re": [...], "im": [...]} with row-major flattening.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import opcount
from .angles import TWO_PI
from .errors import PreconditionError, ResourceLimitError

DENSE_DIMENSION_GUARD = 4096
# the most bytes one working set may take: 256 MiB, what a
# DENSE_DIMENSION_GUARD-sized complex128 matrix takes
BYTES_GUARD = 1 << 28
# how far a state's norm may stray from 1
UNIT_NORM_TOL = 1e-10
# how far a Hermitian or unitary matrix may stray from that structure
_STRUCTURE_TOL = 1e-10
# rows a blocked kernel or CSV writer handles at a time
BLOCK_ROWS = 1 << 12

# Pade-13 coefficients and norm threshold for scaling-and-squaring
# (Higham 2005 constants).
_PADE13_B = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)
_PADE13_THETA = 5.371920351148152


class EigenDecomposition(NamedTuple):
    """Eigenvalues, with the eigenvectors as matching columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite 2-D complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise PreconditionError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.size == 0:
        raise PreconditionError("matrix must be non-empty")
    if not np.all(np.isfinite(a)):
        raise PreconditionError("matrix entries must be finite")
    return a


def require_square(m) -> np.ndarray:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise PreconditionError(f"expected a square matrix, got shape {a.shape}")
    return a


def require_hermitian(m) -> np.ndarray:
    a = require_square(m)
    asym = float(np.max(np.abs(a - a.conj().T)))
    if asym > _STRUCTURE_TOL:
        raise PreconditionError(
            f"matrix is not Hermitian: max asymmetry {asym:.3e} exceeds "
            f"tolerance {_STRUCTURE_TOL:.3e}"
        )
    return a


def require_unit_norm(a: np.ndarray, what: str) -> None:
    """Refuse an array whose norm strays from 1 beyond UNIT_NORM_TOL."""
    # one BLAS pass in memory order; NaN and inf make the norm NaN or inf
    flat = a.ravel(order="K")
    norm = math.sqrt(np.vdot(flat, flat).real)
    # written so that a NaN norm fails too
    if not abs(norm - 1.0) <= UNIT_NORM_TOL:
        raise PreconditionError(
            f"{what} norm {norm!r} deviates from 1 beyond tolerance {UNIT_NORM_TOL}"
        )


def require_unit_vector(v, what: str) -> np.ndarray:
    """Coerce to a finite 1-D complex128 vector of unit norm within UNIT_NORM_TOL."""
    arr = np.asarray(v, dtype=np.complex128)
    if arr.ndim != 1 or arr.size < 1:
        raise PreconditionError(f"{what} must be a 1-D vector")
    if not np.all(np.isfinite(arr)):
        raise PreconditionError(f"{what} must be finite")
    require_unit_norm(arr, what)
    return arr


def readonly(a: np.ndarray) -> np.ndarray:
    """a as an array no caller can write to.

    An owned read-only array is kept as is, so a stage hands over its
    result without a copy; anything a caller could still write is copied.
    """
    if a.flags.writeable or not a.flags.owndata:
        a = np.array(a)
        a.setflags(write=False)
    return a


def unitarity_defect(m) -> float:
    """Max-entry deviation of U^dagger U from the identity."""
    u = require_square(m)
    eye = np.eye(u.shape[0], dtype=np.complex128)
    return float(np.max(np.abs(u.conj().T @ u - eye)))


def require_unitary(m) -> np.ndarray:
    u = require_square(m)
    defect = unitarity_defect(u)
    if defect > _STRUCTURE_TOL:
        raise PreconditionError(
            f"matrix is not unitary: max defect {defect:.3e} exceeds "
            f"tolerance {_STRUCTURE_TOL:.3e}"
        )
    return u


def require_eigenbasis(spectrum) -> EigenDecomposition:
    """Coerce (w, V) to real finite eigenvalues over an orthonormal basis.

    V must be square and unitary within 1e-10, with one column per
    eigenvalue; that is what lets a consumer rotate into the basis and back
    without decomposing anything itself.
    """
    w, v = spectrum
    w = np.asarray(w)
    if w.ndim != 1 or not np.isrealobj(w) or not np.all(np.isfinite(w)):
        raise PreconditionError("eigenvalues must be a 1-D array of finite reals")
    v = require_unitary(v)
    if v.shape[0] != w.size:
        raise PreconditionError(
            f"{w.size} eigenvalues do not match a {v.shape[0]}-dimensional basis"
        )
    return EigenDecomposition(w.astype(np.float64), v)


def eig_hermitian(a) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    Returns eigenvalues in ascending order with orthonormal eigenvector
    columns; reconstruction V diag(w) V^dagger reproduces the input to
    rounding. Backed by LAPACK; the contract is the residual, not the
    algorithm.
    """
    h = require_hermitian(a)
    w, v = np.linalg.eigh(h)
    opcount.add(h.shape[0] ** 3)  # documented surrogate for the LAPACK call
    return EigenDecomposition(w, v)


def eig_unitary(u) -> EigenDecomposition:
    """Eigenphases of a unitary in (-pi, pi], ascending, with an orthonormal basis.

    Rotates U by e^(-i beta), with beta in the middle of the widest gap
    between its eigenphases, and takes the Cayley transform
    C = i (I - z)^-1 (I + z) of z = e^(-i beta) U. C is Hermitian with
    eigenvalue -cot(psi / 2) for each eigenphase psi of z in (0, 2 pi); that
    map is one-to-one, so eigh of C keeps +-theta pairs and degenerate
    eigenspaces apart and returns orthonormal eigenvectors v_k. Each phase
    is then read off as angle(v_k^dagger U v_k). Raises PreconditionError
    when U V misses V diag(v_k^dagger U v_k) by more than 1e-8, as it does
    for a matrix far from normal.
    """
    a = require_square(u)
    n = a.shape[0]
    rough = np.sort(np.angle(np.linalg.eigvals(a)))
    gaps = np.diff(rough, append=rough[0] + TWO_PI)
    widest = int(np.argmax(gaps))
    z = np.exp(-1j * (rough[widest] + 0.5 * gaps[widest])) * a
    eye = np.eye(n, dtype=np.complex128)
    c = 1j * np.linalg.solve(eye - z, eye + z)
    v = np.linalg.eigh(0.5 * (c + c.conj().T))[1]
    uv = a @ v
    rayleigh = np.einsum("ij,ij->j", v.conj(), uv)
    # documented surrogate: one n^3 each for eigvals, solve, eigh and U V
    opcount.add(4 * n ** 3)
    residual = float(np.max(np.abs(uv - v * rayleigh)))
    if residual > 1e-8:
        raise PreconditionError(
            f"matrix is not normal enough to carry eigenphases: "
            f"eigenvector residual {residual:.3e}"
        )
    theta = np.angle(rayleigh)
    theta[theta == -np.pi] = np.pi  # np.angle may return the excluded -pi
    order = np.argsort(theta, kind="stable")
    return EigenDecomposition(theta[order], v[:, order])


def expm_dense(m, t: float) -> np.ndarray:
    """exp(-i * M * t) by Pade-13 scaling-and-squaring.

    The deliberately brute-force dense path: a fixed number of full matrix
    products plus one solve, then s squarings with s set by the scaled
    1-norm. No eigendecomposition, no structure exploitation; cost is
    O(dim^3) per product regardless of the matrix contents. A matrix above
    DENSE_DIMENSION_GUARD is refused.
    """
    a = require_square(m)
    if not math.isfinite(t):
        raise PreconditionError("time must be finite")
    dim = a.shape[0]
    if dim > DENSE_DIMENSION_GUARD:
        raise ResourceLimitError(f"dense exponential of dimension {dim} "
                                 f"exceeds the guard {DENSE_DIMENSION_GUARD}")
    a = (-1j * t) * a

    norm1 = float(np.linalg.norm(a, 1))
    s = 0
    if norm1 > _PADE13_THETA:
        s = int(math.ceil(math.log2(norm1 / _PADE13_THETA)))
        a = a / (2.0 ** s)

    b = _PADE13_B
    eye = np.eye(dim, dtype=np.complex128)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u_odd = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v_even = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
              + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v_even - u_odd, v_even + u_odd)
    opcount.add(6 * dim ** 3 + dim ** 3 // 3)
    for _ in range(s):
        r = r @ r
        opcount.add(dim ** 3)
    return r


def write_csv_rows(path, header: str, columns) -> None:
    """Write `header`, then one row per index of the equal-length columns.

    Each value is written as its repr, in csv.writer's bytes (\r\n rows),
    one block of BLOCK_ROWS rows of text at a time; a range column is
    sliced per block and never made into an array.
    """
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        for start in range(0, len(columns[0]), BLOCK_ROWS):
            rows = slice(start, start + BLOCK_ROWS)
            text = [map(repr, np.asarray(c[rows]).tolist()) for c in columns]
            fh.write("\r\n".join(map(",".join, zip(*text))) + "\r\n")


def matrix_to_json(m) -> dict:
    """Serialize a matrix to the row-major {rows, cols, re, im} wire format."""
    a = as_matrix(m)
    flat = a.reshape(-1)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "re": [float(x) for x in flat.real],
        "im": [float(x) for x in flat.imag],
    }


def matrix_from_json(obj) -> np.ndarray:
    """Parse the {rows, cols, re, im} wire format back into an ndarray."""
    if not isinstance(obj, dict):
        raise PreconditionError("matrix JSON must be an object")
    try:
        rows = int(obj["rows"])
        cols = int(obj["cols"])
        re = np.asarray(obj["re"], dtype=np.float64)
        im = np.asarray(obj["im"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise PreconditionError(f"malformed matrix JSON: {exc}") from exc
    if rows <= 0 or cols <= 0:
        raise PreconditionError("matrix JSON must have positive rows and cols")
    if re.shape != (rows * cols,) or im.shape != (rows * cols,):
        raise PreconditionError(
            f"matrix JSON length mismatch: expected {rows * cols} entries, "
            f"got re={re.size}, im={im.size}"
        )
    return as_matrix((re + 1j * im).reshape(rows, cols))
