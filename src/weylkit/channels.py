"""Operator-sum (Kraus) machinery for qudit channels.

A channel acts on density matrices as ``rho -> sum_m E_m rho E_m^dagger``
and is trace-preserving when ``sum_m E_m^dagger E_m = I``.  Kraus operators
are read off a system-environment isometry V by slicing its rows at fixed
environment index, which reproduces the partial trace over the environment:

    tr_env(V rho V^dagger)  =  sum_m E_m rho E_m^dagger,
    E_m[r, c] = V[r * d**2 + m, c].

A Kraus list is far from unique (any unitary mixing of the operators leaves
the map unchanged), so equality of channels is decided on the Choi matrix

    J = sum_{i,j} Channel(|i><j|) (x) |i><j|  =  sum_m vec(E_m) vec(E_m)^dagger,

where vec stacks matrix entries with the row index outer, putting the
system-output factor on the left of the Kronecker product.  J is Hermitian,
positive semidefinite, has trace d for trace-preserving channels, and
identifies the map regardless of which Kraus list produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .dilation import GammaTable, make_isometry
from .errors import DomainError, ParseError, ShapeError, ValidationError
from .numerics import (
    as_matrix,
    frobenius_distance,
    matrix_from_object,
    matrix_to_json,
    parse_json_document,
    require_int_field,
    validate_density_matrix,
)
from .weyl import weyl_basis

__all__ = [
    "QuantumChannel",
    "kraus_from_isometry",
    "apply_channel",
    "is_trace_preserving",
    "unitality_deficit",
    "weyl_channel",
    "channel_from_dilation",
    "choi_matrix",
    "channels_equal",
    "channel_to_json",
    "json_to_channel",
    "choi_to_json",
    "kraus_mix",
]


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """An ordered list of d x d Kraus operators.

    ``kraus`` may be given as a sequence of matrices or as one (m, d, d)
    array.  The operators are copied into the read-only (m, d, d) array
    ``stack``, which the kernels in this module work on; ``kraus`` becomes
    the tuple of its (read-only) slices.

    The constructor checks shapes only; the factory functions in this module
    produce trace-preserving lists by construction, and
    :func:`is_trace_preserving` measures the deficit of any list, so
    deliberately incomplete channels can still be represented and examined.
    """

    d: int
    kraus: tuple = field(repr=False)
    stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        d = self.d
        if d < 2:
            raise DomainError(f"channel dimension must be >= 2, got {d}")
        ops = self.kraus
        if not (isinstance(ops, np.ndarray) and ops.ndim == 3):
            ops = [as_matrix(e) for e in ops]
        if not len(ops):
            raise DomainError("a channel needs at least one Kraus operator")
        # Operators are checked up to the first one of the wrong shape, so a
        # non-finite operator before it is reported first, as in a scan of
        # the list one operator at a time.
        n = next((i for i, e in enumerate(ops) if e.shape != (d, d)), len(ops))
        stack = np.array(ops[:n], dtype=np.complex128)
        if not np.isfinite(stack).all():
            raise ValidationError("Kraus operator contains non-finite entries")
        if n < len(ops):
            raise ShapeError(f"Kraus operators must be {d} x {d}, got {ops[n].shape}")
        stack.setflags(write=False)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "kraus", tuple(stack))

    def __len__(self) -> int:
        return len(self.stack)


def kraus_from_isometry(v, *, tol: Tolerances = DEFAULT_TOLERANCES) -> QuantumChannel:
    """Extract the Kraus operators of the channel dilated by isometry ``v``.

    ``v`` must be a (d**3, d) matrix with ``v^dagger v = I`` within
    ``tol.norm``.  Slot m of the d**2 environment indices yields
    ``E_m[r, c] = v[r * d**2 + m, c]``; operators with Frobenius norm below
    ``tol.prune`` (exact zeros for sparse gamma tables) are dropped, which
    cannot change the map.  Trace preservation holds by construction:
    ``sum_m E_m^dagger E_m = v^dagger v = I``.
    """
    v = as_matrix(v)
    d = v.shape[1]
    if d < 2 or v.shape[0] != d ** 3:
        raise ShapeError(f"expected a (d**3, d) isometry with d >= 2, got {v.shape}")
    gram_defect = frobenius_distance(v.conj().T @ v, np.eye(d))
    if not gram_defect <= tol.norm:
        raise ValidationError(
            f"input is not an isometry: ||V^dagger V - I||_F = {gram_defect:.3e} "
            f"exceeds {tol.norm:.3e}"
        )
    ops = v.reshape(d, d * d, d).transpose(1, 0, 2)  # [m, r, c]
    keep = np.linalg.norm(ops, axis=(1, 2)) >= tol.prune
    if not keep.any():
        keep[0] = True
    return QuantumChannel(d=d, kraus=ops[keep])


def _dagger(stack: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in an (m, d, d) stack."""
    return stack.conj().transpose(0, 2, 1)


def apply_channel(ch: QuantumChannel, rho, *, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Evolve a density matrix: ``sum_m E_m rho E_m^dagger``.

    The Kraus sum is accumulated in list order (a reduction over the first
    axis of the stack), so results are deterministic.
    The output is validated as a density matrix; a failure there means a
    non-trace-preserving or non-positive operator list slipped past
    construction and is reported as such.
    """
    rho = validate_density_matrix(rho, tol=tol)
    if rho.shape[0] != ch.d:
        raise ShapeError(f"state dimension {rho.shape[0]} does not match channel dimension {ch.d}")
    k = ch.stack
    out = (k @ rho @ _dagger(k)).sum(axis=0)
    try:
        return validate_density_matrix(out, tol=tol)
    except ValidationError as exc:
        raise ValidationError(f"channel output is not a valid state ({exc}); the Kraus list is not CPTP") from None


def is_trace_preserving(ch: QuantumChannel, *, tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[bool, float]:
    """Completeness check: ``(ok, deficit)``.

    ``deficit = ||sum_m E_m^dagger E_m - I||_F`` and ``ok`` holds iff it is
    below ``tol.cptp``.  The dual condition (unitality) is measured
    separately by :func:`unitality_deficit`.
    """
    acc = (_dagger(ch.stack) @ ch.stack).sum(axis=0)
    deficit = frobenius_distance(acc, np.eye(ch.d))
    return deficit < tol.cptp, deficit


def unitality_deficit(ch: QuantumChannel) -> float:
    """``||sum_m E_m E_m^dagger - I||_F``; zero iff the channel fixes I/d."""
    acc = (ch.stack @ _dagger(ch.stack)).sum(axis=0)
    return frobenius_distance(acc, np.eye(ch.d))


def weyl_channel(weights, *, tol: Tolerances = DEFAULT_TOLERANCES) -> QuantumChannel:
    """Channel with Kraus operators ``sqrt(p[l, k]) * X_l Z_k``.

    ``weights`` is a (d, d) real table, nonnegative and summing to 1, which
    makes the channel exactly trace-preserving since every Weyl element is
    unitary.  Non-finite weights are rejected and zero-weight elements are
    omitted.  The uniform table ``p = 1/d**2`` gives the completely
    depolarizing channel ``rho -> I/d``.
    """
    p = np.asarray(weights)
    if np.iscomplexobj(p):
        if not np.max(np.abs(p.imag)) <= tol.norm:
            raise DomainError("weights must be real")
        p = p.real
    p = p.astype(np.float64)
    if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] < 2:
        raise ShapeError(f"weights must be a square (d, d) table with d >= 2, got {p.shape}")
    if not np.all(np.isfinite(p)):
        raise DomainError("weights must be finite")
    if np.any(p < 0):
        raise DomainError(f"weights must be nonnegative, got minimum {p.min()!r}")
    total = float(p.sum())
    if abs(total - 1.0) > tol.norm:
        raise DomainError(f"weights must sum to 1 within {tol.norm}, got {total!r}")
    d = p.shape[0]
    keep = (np.sqrt(p * d) >= tol.prune).ravel()
    if not keep.any():
        raise DomainError("all weights prune to zero")
    ops = np.sqrt(p.ravel()[keep])[:, None, None] * weyl_basis(d).elements[keep]
    return QuantumChannel(d=d, kraus=ops)


def channel_from_dilation(g: GammaTable, *, tol: Tolerances = DEFAULT_TOLERANCES) -> QuantumChannel:
    """Kraus form of the channel realized by the gamma-table dilation.

    For every density matrix the result reproduces
    ``partial_trace_env(V rho V^dagger)``.  Environment slot ``(a, b)``
    contributes the rank-one operator ``gamma[a, b] |a - 2b><-b|`` (indices
    mod d), so the extracted list is rank-one throughout.
    """
    return kraus_from_isometry(make_isometry(g), tol=tol)


def choi_matrix(ch: QuantumChannel) -> np.ndarray:
    """Choi matrix ``J = sum_{i,j} Channel(|i><j|) (x) |i><j|`` (d**2 x d**2).

    Computed as ``sum_m vec(E_m) vec(E_m)^dagger`` with row-outer vec, which
    places the system-output factor on the left: one product ``K^T conj(K)``
    of the (m, d**2) matrix K whose rows are the vecs.  J is Hermitian and
    positive semidefinite; its trace equals d exactly when the channel is
    trace-preserving, and it is invariant under unitary mixing of the Kraus
    list.
    """
    k = ch.stack.reshape(len(ch), ch.d * ch.d)
    return k.T @ k.conj()


def channels_equal(a: QuantumChannel, b: QuantumChannel, tol: float) -> bool:
    """Decide equality of the maps via Choi distance.

    Kraus lists are compared through their Choi matrices, so any two lists
    related by unitary mixing, permutation, padding with zeros, or global
    phases compare equal.
    """
    if a.d != b.d:
        raise ShapeError(f"channel dimensions differ: {a.d} vs {b.d}")
    return frobenius_distance(choi_matrix(a), choi_matrix(b)) < tol


# ---------------------------------------------------------------------------
# file formats


def channel_to_json(ch: QuantumChannel) -> str:
    """Serialize as ``{"d": d, "kraus": [matrix, ...]}`` in list order."""
    mats = ", ".join(matrix_to_json(e) for e in ch.kraus)
    return f'{{"d": {ch.d}, "kraus": [{mats}]}}'


def json_to_channel(text: str, what: str = "channel") -> QuantumChannel:
    """Parse a channel document; shapes are validated, completeness is not."""
    doc = parse_json_document(text, what)
    d = require_int_field(doc, "d", what, minimum=2)
    raw = doc.get("kraus")
    if not isinstance(raw, list) or not raw:
        raise ParseError(f"{what}: field 'kraus' must be a nonempty list of matrices")
    ops = [matrix_from_object(item, f"{what}: kraus[{idx}]") for idx, item in enumerate(raw)]
    try:
        return QuantumChannel(d=d, kraus=tuple(ops))
    except (ShapeError, DomainError) as exc:
        raise ParseError(f"{what}: {exc}") from None


def choi_to_json(j) -> str:
    """Serialize a Choi matrix in the matrix format plus a convention header."""
    j = as_matrix(j)
    body = matrix_to_json(j)
    return '{"convention": "column-stacking", ' + body[1:]


def kraus_mix(ch: QuantumChannel, u: Sequence[Sequence[complex]]) -> QuantumChannel:
    """Replace the Kraus list by ``F_m = sum_n u[m, n] E_n`` for a unitary u.

    Mixing by a unitary leaves the channel itself unchanged; this helper
    exists to exercise exactly that non-uniqueness.
    """
    u = as_matrix(u)
    m = len(ch)
    if u.shape != (m, m):
        raise ShapeError(f"mixing matrix must be {m} x {m}, got {u.shape}")
    return QuantumChannel(d=ch.d, kraus=np.einsum("mn,nij->mij", u, ch.stack))
