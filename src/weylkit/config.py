"""Numerical tolerances and package-wide constants.

All exact identities of the underlying algebra hold only up to floating-point
drift; these knobs bound that drift.  Pass a modified :class:`Tolerances` to
any operation that accepts one to override the defaults, e.g.::

    tol = replace_tolerance(DEFAULT_TOLERANCES, "psd", 1e-8)
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "Tolerances", "DEFAULT_TOLERANCES", "replace_tolerance", "TOLERANCE_NAMES",
    "D_MIN", "D_MAX", "DEFAULT_SEED", "JOINT_BYTES_MAX",
]

D_MIN, D_MAX = 2, 32  # the advertised range of d; the CLI and verify check their arguments against it
DEFAULT_SEED = 20240528  # the verify suite's seed unless one is given
JOINT_BYTES_MAX = 16 * 12 ** 6  # the dense (d**3, d**3) complex joint density is built only up to d = 12 (45.6 MiB)


@dataclass(frozen=True)
class Tolerances:
    """Bundle of named numerical tolerances.

    Attributes
    ----------
    norm : float
        Allowed deviation of unit norms, trace-1 conditions and weight sums.
    herm : float
        Allowed Frobenius distance from a matrix to its conjugate transpose.
    psd : float
        Most negative eigenvalue accepted when checking positive
        semidefiniteness.
    cptp : float
        Allowed trace-preservation deficit of a quantum channel.  Looser than
        the construction tolerances because it accumulates up to d**2 matrix
        products.
    prune : float
        Kraus operators below this Frobenius norm are dropped after
        extraction from an isometry.
    """

    norm: float = 1e-10
    herm: float = 1e-10
    psd: float = 1e-9
    cptp: float = 1e-9
    prune: float = 1e-12


DEFAULT_TOLERANCES = Tolerances()

TOLERANCE_NAMES = tuple(f.name for f in dataclasses.fields(Tolerances))


def replace_tolerance(tol: Tolerances, name: str, value: float) -> Tolerances:
    """Return a copy of ``tol`` with the tolerance ``name``, one of ``TOLERANCE_NAMES``, replaced."""
    if name not in TOLERANCE_NAMES:
        known = ", ".join(TOLERANCE_NAMES)
        raise DomainError(f"unknown tolerance {name!r}; known names: {known}")
    if not value > 0:
        raise DomainError(f"tolerance {name!r} must be positive, got {value}")
    return dataclasses.replace(tol, **{name: value})
