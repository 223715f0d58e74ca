"""Dense complex linear algebra kernel.

Everything in this package moves through plain ``numpy.ndarray`` values of
dtype ``complex128``: operators and isometries are 2-d arrays, state vectors
are 1-d arrays; products, conjugate transposes, traces and Kronecker
products are numpy's own.  This module supplies the partial trace and the
Frobenius distance, the one copy of each input check (finite entries, weight
tables, kets, density matrices), the JSON matrix file format, and the JSON
syntax every file format is written and read with (``json_object``,
``json_to_table``).

A diagonal density matrix is checked through its diagonal vector, and
``diag.real.min()`` is its smallest eigenvalue, bit for bit.  Entries large
enough to overflow that check are checked under ``np.errstate``.

Most arrays the package writes are mostly exact zeros (a Weyl element has d
nonzeros out of d**2), so the pair writer formats only the nonzero pairs and
writes every zero pair as ``[0, 0]``.  The pair reader converts a list of
plain number pairs in one numpy call; anything else goes through a
per-entry loop, which names the first bad entry.

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
import contextlib
import itertools
import json
import math

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DomainError, ParseError, ShapeError, ValidationError

__all__ = [
    "as_matrix",
    "as_vector",
    "partial_trace_env",
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
# coercion and input checks


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
    if not np.logical_and.reduce(np.isfinite(a), axis=None):
        raise ValidationError(f"{what} contains non-finite entries")


# Squared entries summing to at most this bound every entry by 1e150, so no sum,
# difference or product in the Hermitian and density-matrix checks can overflow.
_SAFE_SQUARES = 1e300
_UNGUARDED = contextlib.nullcontext()  # the checks' context within that bound, one object reused by every call


def _check_weights(p: np.ndarray, tol: Tolerances) -> None:
    """Check that the float64 weights ``p`` are finite, nonnegative and sum to 1 within ``tol.norm``."""
    with np.errstate(over="ignore"):  # an overflowing sum is inf, which the sum check reports
        # summed only when every weight is >= 0; the minimum is NaN if a weight is NaN
        total = float(np.add.reduce(p, axis=None)) if np.minimum.reduce(p, axis=None) >= 0 else np.nan
    if not abs(total - 1.0) <= tol.norm:  # valid weights pass this one test; the checks below report in order
        if not np.isfinite(p).all():
            raise DomainError("weights must be finite")
        if (p < 0).any():
            raise DomainError(f"weights must be nonnegative, got minimum {float(p.min())!r}")
        raise DomainError(f"weights must sum to 1 within {tol.norm}, got {total!r}")


# ---------------------------------------------------------------------------
# partial trace and Frobenius distance


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


def _norm(a: np.ndarray) -> float:
    """``np.linalg.norm(a)`` of a complex array, by the same two real dot products, without its dispatch."""
    x = a.ravel(order="K")
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def frobenius_distance(a, b) -> float:
    """Frobenius norm of ``a - b``; zero iff the arrays are entrywise equal."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    return _norm(a - b)


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
    nrm = _norm(v)
    if abs(nrm - 1.0) > tol.norm:
        raise ValidationError(f"state vector norm {nrm!r} differs from 1 by more than {tol.norm}")
    return v


def validate_density_matrix(rho, *, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Check the density-matrix invariants and return ``rho`` as an array.

    A valid density matrix is square, finite, Hermitian within ``tol.herm``,
    has unit trace within ``tol.norm``, and minimum eigenvalue at least
    ``-tol.psd``.  The error message lists every violated invariant.
    A diagonal matrix (NaN counts as nonzero) is checked through its diagonal;
    its Hermitian defect is 0.0 when every diagonal entry is real.  Entries
    that fail one sum of squares (not finite, or large enough to overflow)
    are checked under ``np.errstate``, with the Hermitian part formed from halves.
    """
    rho = as_matrix(rho)
    if rho.shape[0] != rho.shape[1]:
        raise ShapeError(f"density matrix must be square, got {rho.shape}")
    diag = rho.diagonal()
    diag = diag if np.count_nonzero(rho) == np.count_nonzero(diag) else None
    x = rho if diag is None else diag
    large = not np.vdot(x, x).real <= _SAFE_SQUARES
    if large:
        _require_finite(x, "density matrix")
    failures = []
    with np.errstate(all="ignore") if large else _UNGUARDED:
        if diag is None:
            rho_h = rho.conj().T
            herm_defect = _norm(rho - rho_h)
            herm = rho / 2.0 + rho_h / 2.0 if large else (rho + rho_h) / 2.0  # halves first, so large entries cannot overflow
            tr = complex(rho.trace())
        else:
            herm_defect = _norm(rho - rho.conj().T) if np.logical_or.reduce(diag.imag) else 0.0
            tr = complex(np.add.reduce(diag))
        if herm_defect > tol.herm:
            failures.append(f"not Hermitian (defect {herm_defect:.3e} > {tol.herm:.3e})")
        if abs(tr - 1.0) > tol.norm:
            failures.append(f"trace {tr!r} is not 1 within {tol.norm:.3e}")
        if not failures:
            lo = float(np.minimum.reduce(diag.real) if diag is not None else np.linalg.eigvalsh(herm)[0])
            if not lo >= -tol.psd:
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
    """Render a flat complex array as a JSON list of ``[re, im]`` pairs.

    Every component is checked first; the first non-finite one, in ``re, im``
    order, raises.  Zero pairs are written as ``[0, 0]`` without formatting.
    """
    z = np.asarray(values, dtype=np.complex128).ravel()  # contiguous, so it has a float64 view
    parts = z.view(np.float64)
    bad = ~np.isfinite(parts)
    if bad.any():
        format_float(parts[bad.argmax()])  # raises ValidationError
    cells = ["[0, 0]"] * z.size
    nz = np.flatnonzero(z)
    for i, re, im in zip(nz.tolist(), z.real[nz].tolist(), z.imag[nz].tolist()):
        cells[i] = f"[{re + 0.0:.17g}, {im + 0.0:.17g}]"  # + 0.0 turns -0.0 into 0, as format_float does
    return "[" + ", ".join(cells) + "]"


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
    """Decode a list of ``[re, im]`` pairs into a flat complex array.

    A list of finite ``int``/``float`` pairs is converted in one call; any
    other input goes through the per-entry loop, which names the first bad entry.
    """
    if not isinstance(raw, list) or len(raw) != count:
        got = len(raw) if isinstance(raw, list) else type(raw).__name__
        raise ParseError(f"{what}: expected {count} [re, im] pairs, got {got}")
    try:
        flat = list(itertools.chain.from_iterable(raw))  # TypeError if an entry is not iterable
        # numpy would read true and "1" as 1.0, so only exact int and float values qualify
        if set(map(len, raw)) == {2} and set(map(type, flat)) <= {int, float}:
            parts = np.array(flat, dtype=np.float64)  # OverflowError for an int past the float range
            if np.isfinite(parts).all():
                return parts.view(np.complex128)
    except (TypeError, ValueError, OverflowError):  # the loop below reports the first bad entry
        pass
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
