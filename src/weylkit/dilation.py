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

Tracing the environment out of that evolution leaves a classical channel:
``V|i>`` puts ``|i + l>`` with amplitude ``gamma[l - i, -i]`` next to
orthogonal environment states, so the output is diagonal,
``rho -> diag(T diag(rho))`` with ``T[i + l, i] = |gamma[l - i, -i]|**2``.
``channels.channel_from_dilation`` holds the channel in that form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DomainError, ShapeError, ValidationError
from .numerics import (
    as_matrix,
    format_complex_pairs,
    json_object,
    json_to_table,
    validate_density_matrix,
    validate_ket,
)
from .weyl import dim_constants

__all__ = [
    "GammaTable",
    "gamma_to_json",
    "json_to_gamma",
    "env_index",
    "make_isometry",
    "evolve_pure",
    "WeylFormTerm",
    "weyl_form_of_joint",
    "env_gram",
    "evolve_density",
    "ensemble_to_density",
]


def env_index(d: int, a: int, b: int) -> int:
    """Linear position of the environment basis vector ``|e_{a, b}>``."""
    return (a % d) * d + (b % d)


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
        if not np.isfinite(g).all():
            raise ValidationError("gamma table contains non-finite entries")
        mass = (np.abs(g) ** 2).sum(axis=0)
        bad = np.abs(mass - 1.0) > self.tol.norm
        if bad.any():
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

    Column i carries gamma[a, -i] at joint row
    ``((2i + a) % d) * d**2 + env_index(d, a, -i)`` for each a; the system
    factor occupies the outer (slow) index.
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


def weyl_form_of_joint(psi, g: GammaTable, *, tol: Tolerances = DEFAULT_TOLERANCES) -> list[WeylFormTerm]:
    """All d**2 Weyl-form terms of ``V |psi>``, in l-major order."""
    psi = validate_ket(psi, tol=tol)
    d = g.d
    if psi.shape[0] != d:
        raise ShapeError(f"state dimension {psi.shape[0]} does not match gamma dimension {d}")
    z = np.arange(d)
    c = dim_constants(d)  # c.rows[l, z] = z + l mod d, c.phases[k, z] = omega**(z*k)
    # sys[l, k] = X_l Z_k psi has omega**(z*k) * psi[z] at system index z + l, read back from z = r - l.
    sys = (c.phases * psi)[z[:, None], c.rows[-z % d][:, None, :]]
    # env[l, k] has omega**(z*k) * gamma[z + l, z] at environment index (z + l, z), flat position c.flat[l, z].
    env = np.zeros((d, d, d * d), dtype=np.complex128)
    env[z[:, None, None], z[:, None], c.flat[:, None, :]] = c.phases * g.gamma.reshape(-1)[c.flat][:, None, :]
    return [WeylFormTerm(l, k, s, e) for l, sl, el in zip(range(d), sys, env) for k, s, e in zip(range(d), sl, el)]


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
    out = np.empty((d, d, d), dtype=np.complex128)
    z = np.arange(d)
    c = dim_constants(d)  # c.phases[t, z] = omega**(t*z)
    shifts = (z - z[:, None]) % d  # shifts[k, k'] = k' - k mod d
    for l in range(d):
        w = np.abs(g.gamma[c.rows[l], z]) ** 2
        sums = c.phases @ w  # sums[t] = sum_z omega**(t*z) |gamma|**2
        out[l] = sums[shifts]
    return out


def evolve_density(rho, g: GammaTable, *, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Joint density ``V rho V^dagger`` (d**3 x d**3) for a valid input state."""
    rho = validate_density_matrix(rho, tol=tol)
    if rho.shape[0] != g.d:
        raise ShapeError(f"density dimension {rho.shape[0]} does not match gamma dimension {g.d}")
    v = make_isometry(g)
    return v @ rho @ v.conj().T


def ensemble_to_density(weights, states, *, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Convex combination ``sum_s p_s * A_s`` of coefficient matrices.

    ``weights`` must be nonnegative and sum to 1 within ``tol.norm``; each
    state is a d x d matrix of ``|i><j|`` coefficients.  The result is
    validated as a density matrix, so inconsistent coefficient input
    (non-Hermitian, wrong trace, indefinite) is rejected.
    """
    p = np.asarray(weights, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise DomainError(f"weights must be a nonempty 1-d sequence, got shape {p.shape}")
    if np.any(p < 0):
        raise DomainError(f"weights must be nonnegative, got {p.tolist()}")
    total = float(p.sum())
    if abs(total - 1.0) > tol.norm:
        raise DomainError(f"weights must sum to 1 within {tol.norm}, got {total!r}")
    mats = [as_matrix(s) for s in states]
    if len(mats) != p.size:
        raise ShapeError(f"{p.size} weights but {len(mats)} states")
    d = mats[0].shape[0]
    for s in mats:
        if s.shape != (d, d):
            raise ShapeError(f"every state must be {d} x {d}, got {s.shape}")
    rho = np.zeros((d, d), dtype=np.complex128)
    for w, s in zip(p, mats):
        rho += w * s
    return validate_density_matrix(rho, tol=tol)
