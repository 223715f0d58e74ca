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

The dilation channel is classical.  Slot (a, b) holds the rank-one
``gamma[a, b] |a - 2b><-b|``, so every output is diagonal,
``rho -> diag(T diag(rho))`` with the column-stochastic
``T[a - 2b, -b] = |gamma[a, b]|**2``: measure in the computational basis,
then prepare (an entanglement-breaking channel).  The dilation factory keeps
that matrix and builds the Kraus list only when it is read; the Kraus form
stays the reference, and the tests compare the closed form with it.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .dilation import GammaTable, make_isometry
from .errors import DomainError, ParseError, ShapeError, ValidationError
from .numerics import (
    _check_weights,
    _require_finite,
    as_matrix,
    frobenius_distance,
    json_object,
    matrix_fields,
    matrix_from_object,
    matrix_to_json,
    parse_json_document,
    require_int_field,
    validate_density_matrix,
)
from .weyl import _weyl_stack, dim_constants

__all__ = [
    "QuantumChannel",
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


class QuantumChannel:
    """A qudit channel, held in one exact form.

    The constructor takes Kraus operators, as a sequence of matrices or as one
    (m, d, d) array, and copies them into the read-only (m, d, d) array
    ``stack``; ``kraus`` is the tuple of its (read-only) slices.  It checks
    shapes and finite entries only; the factory functions in this module
    produce trace-preserving channels by construction, and
    :func:`is_trace_preserving` measures the deficit of any channel, so
    deliberately incomplete channels can still be represented and examined.
    :func:`weyl_channel` builds its stack fresh and finite, and the channel
    takes it over without a copy or a second check.

    :func:`channel_from_dilation` holds the stochastic matrix ``transition``
    instead (see the module docstring; it is None for a Kraus list).  Its
    ``stack`` and ``kraus`` are built on first access and cached, and
    ``len(ch)`` counts the Kraus operators without building them.
    A channel is immutable: setting or deleting an attribute raises
    AttributeError.
    """

    def __init__(self, d: int, kraus):
        if d < 2:
            raise DomainError(f"channel dimension must be >= 2, got {d}")
        try:  # one copy of an array or of a sequence of equal-shape matrices
            stack = np.array(kraus, dtype=np.complex128)
        except (TypeError, ValueError):  # ragged or non-numeric: scanned one operator at a time below
            stack = None
        if stack is None or stack.ndim != 3 or stack.shape[1:] != (d, d):
            ops = [as_matrix(e) for e in kraus]
            for e in ops:  # in list order, so the first operator of a wrong shape or with a non-finite entry raises
                if e.shape != (d, d):
                    raise ShapeError(f"Kraus operators must be {d} x {d}, got {e.shape}")
                _require_finite(e, "Kraus operator")
            stack = np.array(ops, dtype=np.complex128)
        if not len(stack):
            raise DomainError("a channel needs at least one Kraus operator")
        _require_finite(stack, "Kraus operator")
        self._hold(d, len(stack), stack)

    @classmethod
    def _made(cls, d: int, count: int, stack=None, transition=None, build=None) -> "QuantumChannel":
        """A factory's channel: a fresh, finite (m, d, d) complex128 ``stack``, held without a copy, or the
        stochastic matrix ``transition`` with ``build()`` returning such a stack of its Kraus form."""
        ch = cls.__new__(cls)
        ch._hold(d, count, stack, transition, build)
        return ch

    def _hold(self, d: int, count: int, stack, transition=None, build=None) -> None:
        """Make the arrays read-only and set the fields once; the channel cannot be changed afterwards."""
        fields = dict(d=d, _count=count, transition=transition, _build=build)
        for name, a in (("stack", stack), ("transition", transition)):
            if a is not None:
                a.setflags(write=False)
                fields[name] = a  # a held stack shadows the cached property that builds one
        vars(self).update(fields)  # past __setattr__

    def __setattr__(self, name, value):
        raise AttributeError("QuantumChannel is immutable")

    def __delattr__(self, name):
        raise AttributeError("QuantumChannel is immutable")

    @cached_property
    def stack(self) -> np.ndarray:
        stack = self._build()
        stack.setflags(write=False)
        return stack

    @cached_property
    def kraus(self) -> tuple:
        return tuple(self.stack)

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:
        return f"QuantumChannel(d={self.d})"


def _dagger(stack: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in an (m, d, d) stack."""
    return stack.conj().transpose(0, 2, 1)


def apply_channel(ch: QuantumChannel, rho, *, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Evolve a density matrix: ``sum_m E_m rho E_m^dagger``.

    A dilation channel computes ``diag(T diag(rho))``.  A Kraus list is
    summed in list order (a reduction over the first axis of the stack), so
    results are deterministic.
    Every call validates its input and its output once each with
    :func:`validate_density_matrix` (a diagonal output, as every dilation
    output is, through its diagonal) and keeps nothing between calls.  A
    failure of the output means a non-trace-preserving or non-positive
    operator list slipped past construction and is reported as such.
    """
    rho = validate_density_matrix(rho, tol=tol)
    d = ch.d
    if rho.shape[0] != d:
        raise ShapeError(f"state dimension {rho.shape[0]} does not match channel dimension {d}")
    if ch.transition is not None:
        out = np.zeros((d, d), dtype=np.complex128)
        out.reshape(-1)[:: d + 1] = ch.transition @ rho.diagonal()
    else:
        k = ch.stack  # K rho as one (m d, d) x (d, d) product
        out = np.add.reduce((k.reshape(-1, d) @ rho).reshape(k.shape) @ _dagger(k), axis=0)
    try:
        validate_density_matrix(out, tol=tol)
    except ValidationError as exc:
        raise ValidationError(f"channel output is not a valid state ({exc}); the Kraus list is not CPTP") from None
    return out


def is_trace_preserving(ch: QuantumChannel, *, tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[bool, float]:
    """Completeness check: ``(ok, deficit)``.

    ``deficit = ||sum_m E_m^dagger E_m - I||_F`` and ``ok`` holds iff it is
    below ``tol.cptp``.  For a dilation channel that sum is
    ``diag(column sums of T)``.  The dual condition (unitality) is measured
    separately by :func:`unitality_deficit`.
    """
    if ch.transition is not None:
        deficit = float(np.linalg.norm(ch.transition.sum(axis=0) - 1.0))
    else:
        acc = (_dagger(ch.stack) @ ch.stack).sum(axis=0)
        deficit = frobenius_distance(acc, np.eye(ch.d))
    return deficit < tol.cptp, deficit


def unitality_deficit(ch: QuantumChannel) -> float:
    """``||sum_m E_m E_m^dagger - I||_F``; zero iff the channel fixes I/d.  For a dilation channel, diag(T.sum(1))."""
    if ch.transition is not None:
        return float(np.linalg.norm(ch.transition.sum(axis=1) - 1.0))
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
    if p.dtype.kind == "c":
        if not np.max(np.abs(p.imag)) <= tol.norm:
            raise DomainError("weights must be real")
        p = p.real
    p = p.astype(np.float64)
    if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] < 2:
        raise ShapeError(f"weights must be a square (d, d) table with d >= 2, got {p.shape}")
    _check_weights(p, tol)
    d = p.shape[0]
    keep = np.sqrt(p * d) >= tol.prune
    if not np.logical_or.reduce(keep, axis=None):
        raise DomainError("all weights prune to zero")
    stack = _weyl_stack(d, *keep.nonzero(), np.sqrt(p[keep]))
    return QuantumChannel._made(d, len(stack), stack)


def channel_from_dilation(g: GammaTable, *, tol: Tolerances = DEFAULT_TOLERANCES) -> QuantumChannel:
    """The channel realized by the gamma-table dilation.

    For every density matrix the result reproduces
    ``partial_trace_env(V rho V^dagger)``.  Environment slot ``(a, b)``
    contributes the rank-one operator ``gamma[a, b] |a - 2b><-b|`` (indices
    mod d), so the channel is held as the stochastic matrix
    ``T[a - 2b, -b] = |gamma[a, b]|**2``; the Kraus list, sliced from
    ``make_isometry(g)`` with the slots below ``tol.prune`` dropped, is built
    when first read.  ``T``, ``len(ch)`` and the Kraus list drop the same
    slots; if every slot is dropped, DomainError is raised.

    ``V^dagger V`` is diag(column masses of ``g``), each within ``tol.norm`` of 1;
    its Frobenius defect can reach ``sqrt(d) * tol.norm``, so it is not checked again.
    """
    d = g.d
    mass = (g.gamma.conj() * g.gamma).real  # the squared norm of slot (a, b)
    keep = np.sqrt(mass) >= tol.prune  # one mask for T, len(ch) and the Kraus list
    if not keep.any():
        raise DomainError("all slots prune to zero")
    c = dim_constants(d)  # T[l - z, -z] = mass[z + l, z]: T at flat[l, n] reads mass at flat[l, -n]
    t = np.empty((d, d))
    t.reshape(-1)[c.flat] = (mass * keep).reshape(-1)[c.flat_neg]

    def kraus():  # E_m[r, c] = V[r * d**2 + m, c]; slot m = a * d + b is kept where keep[a, b]
        return make_isometry(g).reshape(d, d * d, d).transpose(1, 0, 2)[keep.reshape(-1)]

    return QuantumChannel._made(d, np.count_nonzero(keep), transition=t, build=kraus)


def choi_matrix(ch: QuantumChannel) -> np.ndarray:
    """Choi matrix ``J = sum_{i,j} Channel(|i><j|) (x) |i><j|`` (d**2 x d**2).

    Computed as ``sum_m vec(E_m) vec(E_m)^dagger`` with row-outer vec, which
    places the system-output factor on the left: one product ``K^T conj(K)``
    of the (m, d**2) matrix K whose rows are the vecs.  For a dilation
    channel every vec has one nonzero entry, so J is ``diag(T.ravel())``.
    J is Hermitian and positive semidefinite; its trace equals d exactly when
    the channel is trace-preserving, and it is invariant under unitary mixing
    of the Kraus list.
    """
    if ch.transition is not None:
        return np.diag(ch.transition.ravel().astype(np.complex128))
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
    return json_object([("d", str(ch.d)), ("kraus", f"[{mats}]")])


def json_to_channel(text: str, what: str = "channel") -> QuantumChannel:
    """Parse a channel document; shapes are validated, completeness is not."""
    doc = parse_json_document(text, what)
    d = require_int_field(doc, "d", what, minimum=2)
    raw = doc.get("kraus")
    if not isinstance(raw, list) or not raw:
        raise ParseError(f"{what}: field 'kraus' must be a nonempty list of matrices")
    ops = [matrix_from_object(item, f"{what}: kraus[{idx}]") for idx, item in enumerate(raw)]
    try:
        return QuantumChannel(d=d, kraus=ops)
    except (ShapeError, DomainError) as exc:
        raise ParseError(f"{what}: {exc}") from None


def choi_to_json(j) -> str:
    """Serialize a Choi matrix in the matrix format plus a convention header.

    Entry ``J[r*d + c, r'*d + c']`` is ``Channel(|c><c'|)[r, r']``: the output
    index is the outer one.
    """
    return json_object([("convention", '"column-stacking"'), *matrix_fields(j)])


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
