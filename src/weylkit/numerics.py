"""Dense complex linear algebra kernel.

Everything in this package moves through plain ``numpy.ndarray`` values of
dtype ``complex128``: operators and isometries are 2-d arrays, state vectors
are 1-d arrays.  This module supplies the arithmetic the other modules build
on, the structural validators (kets, density matrices), Hermitian
eigenvalues, the JSON matrix file format, and the JSON syntax every file
format is written and read with (``json_object``, ``json_to_table``).

Conventions fixed here and used everywhere:

* row-major storage, explicit ``[row, col]`` indexing;
* Kronecker products put the system factor on the left (outer, slow) index
  and the environment factor on the right (fast) index;
* the matrix file format is ``{"rows": R, "cols": C, "entries": [[re, im],
  ...]}`` with entries in row-major order and floats printed with 17
  significant digits (exact binary64 round trip).  Column vectors are stored
  with ``cols = 1``.

All functions are pure; none mutates its arguments.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import ParseError, ShapeError, ValidationError

__all__ = [
    "as_matrix",
    "as_vector",
    "matmul",
    "dagger",
    "trace",
    "kron",
    "outer",
    "partial_trace_env",
    "hermitian_eigenvalues",
    "frobenius_norm",
    "frobenius_distance",
    "basis_ket",
    "validate_ket",
    "validate_density_matrix",
    "matrix_to_json",
    "json_to_matrix",
    "vector_to_json",
    "json_to_vector",
]


# ---------------------------------------------------------------------------
# coercion helpers


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a 2-d complex128 array, rejecting other ranks."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got array of rank {m.ndim}")
    return m


def as_vector(a) -> np.ndarray:
    """Coerce ``a`` to a 1-d complex128 array; (n, 1) columns are flattened."""
    v = np.asarray(a, dtype=np.complex128)
    if v.ndim == 2 and v.shape[1] == 1:
        v = v[:, 0]
    if v.ndim != 1:
        raise ShapeError(f"expected a vector, got array of shape {v.shape}")
    return v


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():
        raise ValidationError(f"{what} contains non-finite entries")


# ---------------------------------------------------------------------------
# arithmetic


def matmul(a, b) -> np.ndarray:
    """Matrix product ``a @ b`` with an explicit shape check."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}: inner dimensions differ")
    return a @ b


def dagger(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T.copy()


def trace(a) -> complex:
    """Sum of diagonal entries of a square matrix."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"trace requires a square matrix, got {a.shape}")
    return complex(np.trace(a))


def kron(a, b) -> np.ndarray:
    """Kronecker product with the left factor on the outer (slow) index.

    ``kron(a, b)[i * b.rows + k, j * b.cols + l] == a[i, j] * b[k, l]``.
    Also accepts vectors, returning the tensor-product vector under the same
    ordering.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.ndim == 1 and b.ndim == 1:
        return np.kron(a, b)
    return np.kron(as_matrix(a), as_matrix(b))


def outer(u, v) -> np.ndarray:
    """Rank-one operator ``|u><v|`` (second argument is conjugated)."""
    u = as_vector(u)
    v = as_vector(v)
    return np.outer(u, v.conj())


def partial_trace_env(joint, d_sys: int, d_env: int) -> np.ndarray:
    """Trace out the environment (fast) factor of a joint operator.

    ``out[i, j] = sum_m joint[i * d_env + m, j * d_env + m]``; the total trace
    is preserved.
    """
    joint = as_matrix(joint)
    n = d_sys * d_env
    if d_sys < 1 or d_env < 1 or joint.shape != (n, n):
        raise ShapeError(
            f"joint operator of shape {joint.shape} does not factor as "
            f"system {d_sys} x environment {d_env}"
        )
    blocks = joint.reshape(d_sys, d_env, d_sys, d_env)
    return np.einsum("imjm->ij", blocks)


def frobenius_norm(a) -> float:
    """Frobenius norm ``sqrt(sum |a|**2)`` of a matrix or vector."""
    return float(np.linalg.norm(np.asarray(a, dtype=np.complex128)))


def frobenius_distance(a, b) -> float:
    """Frobenius norm of ``a - b``; zero iff the arrays are entrywise equal."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


# ---------------------------------------------------------------------------
# Hermitian eigenvalues


def hermitian_eigenvalues(a, *, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Real spectrum of a Hermitian matrix, ascending.

    The input is checked to be square, finite and Hermitian within
    ``tol.herm``; the spectrum of its Hermitian part then comes from LAPACK
    through ``numpy.linalg.eigvalsh``.

    Raises
    ------
    ValidationError
        If the input is not Hermitian within ``tol.herm``.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"eigenvalues require a square matrix, got {a.shape}")
    _require_finite(a, "matrix")
    defect = frobenius_distance(a, a.conj().T)
    if defect > tol.herm:
        raise ValidationError(
            f"matrix is not Hermitian: ||A - A^dagger||_F = {defect:.3e} "
            f"exceeds {tol.herm:.3e}"
        )
    return np.linalg.eigvalsh((a + a.conj().T) / 2.0)


# ---------------------------------------------------------------------------
# structural validators


def basis_ket(d: int, i: int) -> np.ndarray:
    """Computational basis vector ``|i mod d>`` in dimension ``d``."""
    if d < 1:
        raise ShapeError(f"dimension must be positive, got {d}")
    v = np.zeros(d, dtype=np.complex128)
    v[i % d] = 1.0
    return v


def validate_ket(psi, *, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Check that ``psi`` is a finite unit vector and return it as an array."""
    v = as_vector(psi)
    _require_finite(v, "state vector")
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > tol.norm:
        raise ValidationError(f"state vector norm {nrm!r} differs from 1 by more than {tol.norm}")
    return v


def validate_density_matrix(rho, *, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Check the density-matrix invariants and return ``rho`` as an array.

    A valid density matrix is square, finite, Hermitian within ``tol.herm``,
    has unit trace within ``tol.norm``, and minimum eigenvalue at least
    ``-tol.psd``.  The error message lists every violated invariant.
    """
    rho = as_matrix(rho)
    if rho.shape[0] != rho.shape[1]:
        raise ShapeError(f"density matrix must be square, got {rho.shape}")
    _require_finite(rho, "density matrix")

    failures = []
    rho_h = rho.conj().T
    herm_defect = float(np.linalg.norm(rho - rho_h))
    if herm_defect > tol.herm:
        failures.append(f"not Hermitian (defect {herm_defect:.3e} > {tol.herm:.3e})")
    tr = complex(rho.trace())
    if abs(tr - 1.0) > tol.norm:
        failures.append(f"trace {tr!r} is not 1 within {tol.norm:.3e}")
    if not failures:
        lo = float(np.linalg.eigvalsh((rho + rho_h) / 2.0)[0])  # the spectrum of the Hermitian part
        if lo < -tol.psd:
            failures.append(f"not positive semidefinite (min eigenvalue {lo:.3e} < -{tol.psd:.3e})")
    if failures:
        raise ValidationError("invalid density matrix: " + "; ".join(failures))
    return rho


# ---------------------------------------------------------------------------
# JSON matrix format
#
# Serialization is byte-deterministic: fixed key order, fixed separators,
# floats via "%.17g" with negative zero normalized to zero.


def format_float(x: float) -> str:
    """Render a float with 17 significant digits; ``-0.0`` becomes ``0``."""
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError(f"cannot serialize non-finite number {x!r}")
    if x == 0.0:
        x = 0.0
    return format(x, ".17g")


def format_complex_pairs(values: np.ndarray) -> str:
    """Render a flat complex array as a JSON list of ``[re, im]`` pairs."""
    pairs = ", ".join(
        f"[{format_float(z.real)}, {format_float(z.imag)}]" for z in np.ravel(values)
    )
    return f"[{pairs}]"


def json_object(fields) -> str:
    """Join ``(key, serialized value)`` pairs into one JSON object, in order."""
    return "{" + ", ".join(f'"{key}": {value}' for key, value in fields) + "}"


def matrix_fields(m) -> list[tuple[str, str]]:
    """The ``rows``, ``cols`` and row-major ``entries`` fields of a matrix document."""
    m = as_matrix(m)
    rows, cols = m.shape
    return [("rows", str(rows)), ("cols", str(cols)), ("entries", format_complex_pairs(m))]


def matrix_to_json(m) -> str:
    """Serialize a matrix to the JSON matrix format (row-major entries)."""
    return json_object(matrix_fields(m))


def vector_to_json(v) -> str:
    """Serialize a vector as a single-column matrix document."""
    return matrix_to_json(as_vector(v)[:, None])


def parse_json_document(text: str, what: str) -> dict:
    """Parse JSON text into a dict, converting failures to :class:`ParseError`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # e.g. an integer literal over the digit limit, or deep nesting
        raise ParseError(f"{what}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{what}: expected a JSON object, got {type(doc).__name__}")
    return doc


def parse_complex_pairs(raw, count: int, what: str) -> np.ndarray:
    """Decode a list of ``[re, im]`` pairs into a flat complex array."""
    if not isinstance(raw, list) or len(raw) != count:
        got = len(raw) if isinstance(raw, list) else type(raw).__name__
        raise ParseError(f"{what}: expected {count} [re, im] pairs, got {got}")
    out = np.empty(count, dtype=np.complex128)
    for idx, pair in enumerate(raw):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        ):
            raise ParseError(f"{what}: entry {idx} is not a [re, im] number pair")
        try:
            z = complex(pair[0], pair[1])
        except OverflowError:  # an integer beyond the float range
            raise ParseError(f"{what}: entry {idx} is out of the float range") from None
        if not cmath.isfinite(z):
            raise ParseError(f"{what}: entry {idx} is not finite")
        out[idx] = z
    return out


def require_int_field(doc: dict, key: str, what: str, minimum: int = 1) -> int:
    """Read the integer field ``key`` of a parsed document, requiring ``>= minimum``."""
    value = doc.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        rule = "a positive integer" if minimum == 1 else f"an integer >= {minimum}"
        raise ParseError(f"{what}: field {key!r} must be {rule}, got {value!r}")
    return value


def matrix_from_object(doc: dict, what: str = "matrix") -> np.ndarray:
    """Decode an already-parsed matrix-format object into a complex array."""
    if not isinstance(doc, dict):
        raise ParseError(f"{what}: expected a matrix object, got {type(doc).__name__}")
    rows = require_int_field(doc, "rows", what)
    cols = require_int_field(doc, "cols", what)
    entries = parse_complex_pairs(doc.get("entries"), rows * cols, what)
    return entries.reshape(rows, cols)


def json_to_table(text: str, key: str, what: str, *, minimum: int = 1, tags=()) -> np.ndarray:
    """Parse a ``{"d": d, ..., key: [d**2 [re, im] pairs]}`` document into a (d, d) array.

    ``d >= minimum`` is checked first, then each string field ``(tag, value)`` in ``tags``.
    """
    doc = parse_json_document(text, what)
    d = require_int_field(doc, "d", what, minimum)
    for tag, value in tags:
        if doc.get(tag) != value:
            raise ParseError(f'{what}: field {tag!r} must be "{value}", got {doc.get(tag)!r}')
    return parse_complex_pairs(doc.get(key), d * d, what).reshape(d, d)


def json_to_matrix(text: str, what: str = "matrix") -> np.ndarray:
    """Parse the JSON matrix format back into a complex array."""
    return matrix_from_object(parse_json_document(text, what), what)


def json_to_vector(text: str, what: str = "vector") -> np.ndarray:
    """Parse a single-column matrix document into a 1-d vector."""
    m = json_to_matrix(text, what)
    if m.shape[1] != 1:
        raise ParseError(f"{what}: expected a single-column matrix, got {m.shape[1]} columns")
    return m[:, 0]
