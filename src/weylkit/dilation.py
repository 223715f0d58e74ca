"""System-environment dilations of qudit dynamics.

A single qudit (dimension d) is coupled to a d**2-dimensional environment
through an interaction fixed by a table of complex amplitudes
``gamma[a, b]``.  On each basis qudit the interaction acts as

    V |i>  =  sum_l gamma[l - i, -i] * |i + l> (x) |e_{l - i, -i}>,

all indices mod d, where ``|e_{a, b}>`` is the environment basis vector at
linear index ``a * d + b``.  Because the second environment label is pinned
to ``-i``, distinct columns are automatically orthogonal, and each column
has unit norm precisely when every column of gamma does; that per-column
normalization is the only validity condition and is enforced at
construction.

``V`` is kept as the (d**3, d) isometry rather than completed to a full
d**3 x d**3 unitary: the interaction is only ever applied to product states
with a fixed environment reference vector, so the extension would be an
arbitrary choice with no effect on any result.

The same joint state regroups into Weyl form: with ``W = X_l Z_k``,

    V |psi>  =  (1/d) * sum_{l,k} (W_{lk} |psi>) (x) v_{lk},

where the unnormalized environment vectors ``v_{lk}`` have components
``omega**(z*k) * gamma[z + l, z]`` at environment index ``(z + l, z)``.
This module exposes both routes so the regrouping can be checked
numerically, plus the mixed-state evolution ``rho -> V rho V^dagger``.
The Weyl form comes from one kernel: ``sys[l*d + k] = W_{lk}|psi>`` and
``env[l*d + k] = v_{lk}``, built by one gather and one scatter through
d**3-entry index tables kept for the last ``_MEMO_DIMS`` (eight) values of d.

Tracing the environment out of that evolution leaves a classical channel:
``V|i>`` puts ``|i + l>`` with amplitude ``gamma[l - i, -i]`` next to
orthogonal environment states, so the output is diagonal,
``rho -> diag(T diag(rho))`` with ``T[i + l, i] = |gamma[l - i, -i]|**2``.
``channels.channel_from_dilation`` holds T on the diagonal of its
shift-and-Schur table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DomainError, ShapeError, ValidationError
from .numerics import (
    _require_finite,
    as_matrix,
    format_complex_pairs,
    json_object,
    json_to_table,
    validate_density_matrix,
    validate_ket,
)
from .weyl import _MEMO_DIMS, _frozen, dim_constants

__all__ = [
    "GammaTable",
    "gamma_to_json",
    "json_to_gamma",
    "make_isometry",
    "evolve_pure",
    "WeylFormTerm",
    "weyl_form_of_joint",
    "env_gram",
    "evolve_density",
]


@dataclass(frozen=True, eq=False)
class GammaTable:
    """Environment amplitudes ``gamma[a, b]``, columns normalized to 1.

    Column b collects the amplitudes the interaction attaches to the input
    basis state ``|-b mod d>``; the isometry condition reduces to
    ``sum_a |gamma[a, b]|**2 = 1`` for every b, enforced here within
    ``tol.norm``.
    """

    gamma: np.ndarray = field(repr=False)
    tol: Tolerances = field(default=DEFAULT_TOLERANCES, repr=False, compare=False)

    def __post_init__(self):
        g = as_matrix(self.gamma)
        if g.shape[0] != g.shape[1] or g.shape[0] < 2:
            raise ShapeError(f"gamma table must be square with d >= 2, got {g.shape}")
        _require_finite(g, "gamma table")
        mass = np.add.reduce(np.abs(g) ** 2, axis=0)
        bad = np.abs(mass - 1.0) > self.tol.norm
        if np.logical_or.reduce(bad):
            cols = np.flatnonzero(bad)
            detail = ", ".join(f"column {b}: mass {mass[b]:.12g} (deficit {mass[b] - 1.0:+.3e})" for b in cols)
            raise ValidationError(f"gamma columns are not normalized: {detail}")
        g = g.copy()
        g.setflags(write=False)
        object.__setattr__(self, "gamma", g)

    @property
    def d(self) -> int:
        return self.gamma.shape[0]

    @classmethod
    def uniform(cls, d: int, *, phases=None) -> "GammaTable":
        """Table with uniform magnitudes ``1/sqrt(d)`` and optional phases.

        ``phases``, if given, is a (d, d) array of phase angles in radians.
        """
        if d < 2:
            raise DomainError(f"dimension must be >= 2, got {d}")
        g = np.full((d, d), 1.0 / np.sqrt(d), dtype=np.complex128)
        if phases is not None:
            ph = np.asarray(phases, dtype=np.float64)
            if ph.shape != (d, d):
                raise ShapeError(f"phases must have shape {(d, d)}, got {ph.shape}")
            g = g * np.exp(1j * ph)
        return cls(g)


def gamma_to_json(g: GammaTable) -> str:
    """Serialize to ``{"d": d, "gamma": [...]}`` with (a outer, b inner) order."""
    return json_object([("d", str(g.d)), ("gamma", format_complex_pairs(g.gamma))])


def json_to_gamma(text: str, *, tol: Tolerances = DEFAULT_TOLERANCES, what: str = "gamma table") -> GammaTable:
    """Parse and validate a gamma table document.

    Normalization failures report the l2 mass of every column so the
    offending entries can be located without re-deriving them.
    """
    g = json_to_table(text, "gamma", what, minimum=2)
    try:
        return GammaTable(g, tol=tol)
    except ValidationError:
        mass = np.sum(np.abs(g) ** 2, axis=0)
        report = ", ".join(f"column {b}: {mass[b]:.12g}" for b in range(g.shape[0]))
        raise ValidationError(f"{what}: column l2 masses must all be 1: {report}") from None


def make_isometry(g: GammaTable) -> np.ndarray:
    """The (d**3, d) interaction isometry ``V`` with ``V^dagger V = I``.

    Column i carries gamma[a, -i] at joint row ``((2i + a) % d) * d**2 + m``
    for each a, where ``m = (a % d) * d + b % d`` with ``b = -i`` is the
    linear position of the environment basis vector ``|e_{a, b}>``; the
    system factor occupies the outer (slow) index.
    """
    d = g.d
    v = np.zeros((d ** 3, d), dtype=np.complex128)
    a = np.arange(d)[:, None]
    i = np.arange(d)
    b = -i % d
    v[((2 * i + a) % d) * d * d + a * d + b, i] = g.gamma[a, b]
    return v


def evolve_pure(psi, g: GammaTable, *, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Joint system-environment state ``V |psi>`` as a d**3 vector."""
    psi = validate_ket(psi, tol=tol)
    if psi.shape[0] != g.d:
        raise ShapeError(f"state dimension {psi.shape[0]} does not match gamma dimension {g.d}")
    return make_isometry(g) @ psi


class WeylFormTerm(NamedTuple):
    """One (l, k) term of the Weyl regrouping of a joint state.

    ``sys`` is ``X_l Z_k |psi>`` (unit norm) and ``env`` is the unnormalized
    environment vector ``v_{lk}``; the joint state is recovered as
    ``(1/d) * sum kron(sys, env)`` over all d**2 terms.
    """

    l: int
    k: int
    sys: np.ndarray
    env: np.ndarray


@lru_cache(maxsize=_MEMO_DIMS)
def _weyl_form_index(d: int) -> tuple:
    """Read-only flat index tables of the Weyl-form kernel, and the labels ``l``, ``k`` of its rows as ints."""
    l, k, z = np.indices((d, d, d))
    gather = (k * d + (z - l) % d).reshape(d * d, d)  # sys[l*d + k, r] is (phases * psi)[k, r - l]
    scatter = (l * d + k) * d * d + dim_constants(d).flat[l, z]  # env[l*d + k] at gamma's flat position [l, z]
    return _frozen(gather), _frozen(scatter), tuple(l[..., 0].ravel().tolist()), tuple(k[..., 0].ravel().tolist())


def _weyl_form_arrays(psi: np.ndarray, g: GammaTable) -> tuple[np.ndarray, np.ndarray]:
    """The (d**2, d) ``sys`` and (d**2, d**2) ``env`` arrays of ``V |psi>`` for a validated ket, rows l-major."""
    d = g.d
    c = dim_constants(d)  # c.phases[k, z] = omega**(z*k)
    gather, scatter, _, _ = _weyl_form_index(d)
    sys = (c.phases * psi).reshape(-1)[gather]
    env = np.zeros((d * d, d * d), dtype=np.complex128)
    env.reshape(-1)[scatter] = c.phases * g.gamma.reshape(-1)[c.flat][:, None, :]
    return sys, env


def weyl_form_of_joint(psi, g: GammaTable, *, tol: Tolerances = DEFAULT_TOLERANCES) -> list[WeylFormTerm]:
    """All d**2 Weyl-form terms of ``V |psi>``, in l-major order."""
    psi = validate_ket(psi, tol=tol)
    if psi.shape[0] != g.d:
        raise ShapeError(f"state dimension {psi.shape[0]} does not match gamma dimension {g.d}")
    _, _, ls, ks = _weyl_form_index(g.d)
    return list(map(partial(tuple.__new__, WeylFormTerm), zip(ls, ks, *_weyl_form_arrays(psi, g))))


def env_gram(g: GammaTable) -> np.ndarray:
    """Inner products ``out[l, k, k'] = <v_{lk}, v_{lk'}>`` of the environment vectors.

    Vectors with different l live on disjoint environment components, so
    those overlaps vanish identically and only the per-l blocks are
    returned.  Within a block,

        <v_{lk}, v_{lk'}> = sum_z omega**(z*(k'-k)) * |gamma[z + l, z]|**2,

    which is diagonal for every l exactly when the squared magnitudes of
    gamma are constant along each wrapped diagonal; a uniform-magnitude
    table therefore has orthonormal environment vectors.
    """
    d = g.d
    z = np.arange(d)
    c = dim_constants(d)  # c.phases[t, z] = omega**(t*z)
    shifts = (z - z[:, None]) % d  # shifts[k, k'] = k' - k mod d
    w = np.abs(g.gamma.reshape(-1)[c.flat]) ** 2  # w[l, z] = |gamma[z + l, z]|**2
    sums = (c.phases @ w[:, :, None])[:, :, 0]  # sums[l, t] = sum_z omega**(t*z) w[l, z], one matrix-vector product per l
    return sums[:, shifts]


def evolve_density(rho, g: GammaTable, *, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Joint density ``V rho V^dagger`` (d**3 x d**3) for a valid input state."""
    rho = validate_density_matrix(rho, tol=tol)
    if rho.shape[0] != g.d:
        raise ShapeError(f"density dimension {rho.shape[0]} does not match gamma dimension {g.d}")
    v = make_isometry(g)
    return v @ rho @ v.conj().T
