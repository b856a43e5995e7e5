"""Dense complex linear algebra kernels.

All operations are pure functions on ndarrays. eig_hermitian and
eig_unitary are the only places a spectrum is computed; a problem calls one
of them once, and the register and encode_as_gauge read the result.
expm_dense is scaling-and-squaring with a Pade core and never diagonalizes;
unitary_exp holds it on the unitary group for an energy problem's U and
the ring's snapshots, and bench times it on the full (2l+1)n matrix as the
brute-force cost baseline, so keep it free of spectral shortcuts.

Matrices cross module and file boundaries as JSON objects
{"rows": r, "cols": c, "re": [...], "im": [...]} with row-major flattening.
"""

from __future__ import annotations

import functools
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
# rows a blocked kernel handles at a time
BLOCK_ROWS = 1 << 12
# rows write_csv_rows lays out at a time, under 300 bytes each in flight
_CSV_BLOCK_ROWS = 1 << 11
# len(format(-1.7976931348623157e308, ".16e")), the longest float field
_FLOAT_WIDTH = 24
# the range of |x| whose format the float kernel certifies, and how close
# to a rounding tie (in units of the 17th digit) it leaves to Python; the
# CSVs hold probabilities and densities, whose rounding noise sits near
# 1e-34 and whose peaks stay below (2l + 1) / 2 pi
_FAST_MIN, _FAST_MAX = 1e-100, 1e20
_TIE_MARGIN = 1e-6
# 10^s for every s = 16 - e10 the kernel may try for such x
_POW10_MIN, _POW10_MAX = -6, 118
_LOG10_2 = 0.30102999566398120
_ZERO, _MINUS = ord("0"), ord("-")

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
    try:
        a = np.asarray(m, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise PreconditionError(
            f"cannot read {type(m).__name__} as a complex matrix: {exc}") from exc
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
    try:
        arr = np.asarray(v, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise PreconditionError(
            f"cannot read {type(v).__name__} as a {what} vector: {exc}") from exc
    if arr.ndim != 1 or arr.size < 1:
        raise PreconditionError(f"{what} must be a 1-D vector")
    if not np.all(np.isfinite(arr)):
        raise PreconditionError(f"{what} must be finite")
    require_unit_norm(arr, what)
    return arr


def require_state(v, n: int, what: str, of: str) -> np.ndarray:
    """require_unit_vector(v, what), refused unless it has the n entries of
    the n-dimensional matrix that `of` names."""
    arr = require_unit_vector(v, what)
    if arr.size != n:
        raise PreconditionError(
            f"{what} dimension {arr.size} does not match {of} dimension {n}"
        )
    return arr


def is_integer(value) -> bool:
    """Whether value is a Python or numpy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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


def hold_unitary(x: np.ndarray) -> np.ndarray:
    """One Newton-Schulz step X (3 I - X^dagger X) / 2, which takes a
    unitarity defect d of X to about d^2: powers of X then keep the norm."""
    opcount.add(2 * len(x) ** 3)
    return x @ (1.5 * np.eye(len(x)) - 0.5 * (x.conj().T @ x))


def unitary_exp(a: np.ndarray, t: float) -> np.ndarray:
    """exp(i t A) of a Hermitian A, held on the unitary group at any finite
    t ||A||_1: Pade at t / 2^s with ||t A||_1 / 2^s <= 1, then s squarings,
    each followed by hold_unitary, since bare ones leave the group by 2^s eps."""
    with np.errstate(over="ignore"):
        reach = abs(t) * float(np.linalg.norm(a, 1))
    if not math.isfinite(reach):
        raise PreconditionError(f"exp(i t A) has no finite phase at t = {t!r}")
    s = max(0, math.ceil(math.log2(max(1.0, reach))))
    x = expm_dense(a, math.ldexp(-t, -s))
    for _ in range(s):
        x = hold_unitary(x @ x)
        opcount.add(len(a) ** 3)
    return x


@functools.cache
def _float_tables():
    """The float kernel's tables, made on first use and kept.

    Column s - _POW10_MIN of `powers` is 10^s as hi + lo, hi = fl(10^s)
    and lo = fl(10^s - hi) from exact integer division, then hi's two
    Veltkamp halves. Entry i of `digits` holds the 4 ASCII digits of i as
    one 4-byte word, so a gather moves them whole; only their bytes are
    ever read, so the byte order does not matter.
    """
    his, los = [], []
    for s in range(_POW10_MIN, _POW10_MAX + 1):
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        # int / int rounds correctly, however large its operands
        hi = num / den
        a, b = hi.as_integer_ratio()
        his.append(hi)
        los.append((num * b - a * den) / (den * b))
    hi = np.array(his)
    powers = np.stack((hi, np.array(los)) + _veltkamp(hi))
    powers.setflags(write=False)
    i = np.arange(10000, dtype=np.uint16)
    digits = np.empty((i.size, 4), np.uint8)
    for at, place in enumerate((1000, 100, 10, 1)):
        digits[:, at] = i // place % 10 + _ZERO
    digits = digits.view(np.uint32).ravel()
    digits.setflags(write=False)
    return powers, digits


def _veltkamp(x):
    """x as hi + lo with 26-bit halves, so their products are exact."""
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _scaled(a, e10, powers):
    """floor and fraction of a * 10^(16 - e10), within 1e-13 below 1e18.

    The product is a double-double: Dekker's exact product of a with
    10^s's hi part, plus a times its lo part, each a separate IEEE
    rounding, so the result does not depend on FMA or SIMD.
    """
    hi, lo, hi_hi, hi_lo = powers.take(16 - _POW10_MIN - e10, axis=1)
    p = a * hi
    a_hi, a_lo = _veltkamp(a)
    q = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo
    q += a * lo
    whole = np.floor(p)
    frac = (p - whole) + q
    step = np.floor(frac)
    frac -= step
    # whole is an integer, but past 2^53 not every one is a double
    return whole.astype(np.int64) + step.astype(np.int64), frac


def _write_floats(field, v):
    """Write format(x, ".16e") of each x in v into its row of field.

    field is a zeroed (len(v), _FLOAT_WIDTH) uint8 view; bytes a value does
    not use stay 0. A value the kernel cannot certify is formatted by
    Python: a non-finite one, a nonzero one outside [_FAST_MIN, _FAST_MAX],
    and one whose scaled value lies within _TIE_MARGIN of a rounding tie.
    """
    powers, digits = _float_tables()
    a = np.abs(v)
    zero = a == 0
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)  # NaN compares False
    a[~fast] = 1.0
    # (e - 1) log10(2) <= log10(a) < e log10(2), so the guess is the
    # exponent or one below it; the scaled value then tells which
    e10 = np.floor((np.frexp(a)[1] - 1) * _LOG10_2).astype(np.int64)
    whole, frac = _scaled(a, e10, powers)
    off = (whole >= 10 ** 17).astype(np.int64) - (whole < 10 ** 16)
    redo = np.flatnonzero(off)
    if redo.size:
        e10[redo] += off[redo]
        whole[redo], frac[redo] = _scaled(a[redo], e10[redo], powers)
    slow = ~(fast | zero) | (np.abs(frac - 0.5) < _TIE_MARGIN)
    slow |= (whole < 10 ** 16) | (whole >= 10 ** 17)
    whole += frac > 0.5
    # a carry to 10^17 is 1.0000000000000000 at the next exponent
    carry = whole == 10 ** 17
    whole[carry] = 10 ** 16
    e10 += carry
    # a zero was scaled as 1.0, at exponent 0
    whole[zero] = 0

    lead, rest = np.divmod(whole, 10 ** 16)
    groups = np.empty((v.size, 4), np.int64)
    high, low = np.divmod(rest, 10 ** 8)
    np.divmod(high, 10 ** 4, out=(groups[:, 0], groups[:, 1]))
    np.divmod(low, 10 ** 4, out=(groups[:, 2], groups[:, 3]))
    field[:, 0] = np.signbit(v) * _MINUS
    field[:, 1] = lead + _ZERO
    field[:, 2] = ord(".")
    field[:, 3:19] = digits[groups].view(np.uint8)
    field[:, 19] = ord("e")
    field[:, 20] = np.where(e10 < 0, _MINUS, ord("+"))
    np.abs(e10, out=e10)
    field[:, 21:24] = digits[e10].view(np.uint8).reshape(-1, 4)[:, 1:]
    field[:, 21] *= e10 >= 100
    for i in np.flatnonzero(slow).tolist():
        text = format(float(v[i]), ".16e").encode("ascii")
        field[i] = 0
        field[i, :len(text)] = np.frombuffer(text, np.uint8)


def _write_ints(field, ints):
    """Write str(k) of each k in ints, a range of k >= 0, into its row of field.

    field is a zeroed (len(ints), 4 g) uint8 view, room for g 4-digit
    groups; their leading zeros are set back to 0.
    """
    _, digits = _float_tables()
    k = np.arange(ints.start, ints.stop, ints.step, dtype=np.int64)
    groups = np.empty((k.size, field.shape[1] // 4), np.int64)
    rest = k
    for g in reversed(range(groups.shape[1])):
        rest, groups[:, g] = np.divmod(rest, 10 ** 4)
    field[:] = digits[groups].view(np.uint8)
    # the units digit is always written
    places = 10 ** np.arange(field.shape[1] - 1, 0, -1)
    field[:, :-1][k[:, None] < places] = 0


def write_csv_rows(path, header: str, columns) -> None:
    """Write `header`, then one row per index of the equal-length columns.

    A column is a range of integers k >= 0, written as str(k), or an array
    of floats, each written as format(x, ".16e"): 17 significant digits,
    which read back exactly. Rows end in \r\n, as csv.writer's do. Each
    block of _CSV_BLOCK_ROWS rows is laid out in a zeroed uint8 table, one
    fixed-width field per column, and written with its zero bytes dropped;
    a range column is sliced per block and never made whole.
    """
    widths = []
    for c in columns:
        if isinstance(c, range):
            places = len(str(max(c[0], c[-1]) if c else 0))
            widths.append(4 * -(-places // 4))
        else:
            widths.append(_FLOAT_WIDTH)
    # each field is followed by a "," or, after the last, by "\r\n"
    starts = np.cumsum([0] + [w + 1 for w in widths]).tolist()
    total = len(columns[0])
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\r\n")
        for first in range(0, total, _CSV_BLOCK_ROWS):
            rows = slice(first, first + _CSV_BLOCK_ROWS)
            table = np.zeros((min(_CSV_BLOCK_ROWS, total - first), starts[-1] + 1),
                             np.uint8)
            for c, at, width in zip(columns, starts, widths):
                field = table[:, at:at + width]
                if isinstance(c, range):
                    _write_ints(field, c[rows])
                else:
                    _write_floats(field, np.asarray(c[rows], dtype=np.float64))
            table[:, [at - 1 for at in starts[1:-1]]] = ord(",")
            table[:, -2:] = np.frombuffer(b"\r\n", np.uint8)
            fh.write(table[table != 0])


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
