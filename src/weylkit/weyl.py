"""The Weyl-Heisenberg operator basis on C^d.

The shift operator ``X_l`` sends ``|i>`` to ``|i + l mod d>`` and the clock
operator ``Z_k`` multiplies ``|i>`` by ``omega**(i*k)``, where ``omega`` is
the primitive d-th root of unity ``exp(2*pi*1j/d)``.  The d**2 products
``X_l Z_k`` are pairwise orthogonal under the Hilbert-Schmidt inner product
``<A, B> = tr(A^dagger B)`` with squared norm d, so they form a basis of the
d x d complex matrices: any operator A decomposes as

    A = sum_{l,k} xi[l, k] * X_l Z_k,   xi[l, k] = tr((X_l Z_k)^dagger A) / d.

Conventions: basis elements are enumerated with l outer and k inner; all
index arithmetic is reduced into ``[0, d)`` immediately, and negative inputs
are accepted and normalized; phases ``omega**e`` are evaluated with the
exponent reduced mod d first, which bounds the phase error independently of
how large the raw exponent grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShapeError
from .numerics import as_matrix, format_complex_pairs, json_object, json_to_table

__all__ = [
    "omega",
    "phase_vector",
    "shift_matrix",
    "clock_matrix",
    "weyl_element",
    "WeylIndex",
    "WeylBasis",
    "weyl_basis",
    "decompose",
    "reconstruct",
    "gram_matrix",
    "commutator_in_basis",
    "coefficients_to_json",
    "json_to_coefficients",
]


def _check_dim(d: int, minimum: int = 2) -> int:
    if not isinstance(d, (int, np.integer)) or isinstance(d, bool) or d < minimum:
        raise DomainError(f"dimension must be an integer >= {minimum}, got {d!r}")
    return int(d)


def omega(d: int) -> complex:
    """Primitive d-th root of unity ``exp(2*pi*1j/d)``."""
    d = _check_dim(d, minimum=1)
    return complex(phase_vector(d, [1])[0])


_QUARTER_TURNS = np.array([1.0, 1.0j, -1.0, -1.0j], dtype=np.complex128)


def phase_vector(d: int, exponents) -> np.ndarray:
    """``omega(d)`` raised to the given exponents, reduced mod d first.

    Reducing the exponent into [0, d) before evaluating bounds the phase
    error independently of how large the raw exponent grows.  Quarter turns
    (exponent/d in {0, 1/4, 1/2, 3/4}) are exact in binary64 and are pinned,
    so e.g. ``omega(2) == -1`` holds exactly.
    """
    d = _check_dim(d, minimum=1)
    e = np.mod(np.asarray(exponents, dtype=np.int64), d)
    out = np.exp(2j * np.pi * e / d)
    four = 4 * e
    quarter = four % d == 0
    if np.any(quarter):
        out = np.where(quarter, _QUARTER_TURNS[(four // d) % 4], out)
    return out


def shift_matrix(d: int, l: int) -> np.ndarray:
    """Cyclic shift ``X_l``: permutation with ``X[m, n] = 1`` iff ``m = n + l mod d``."""
    d = _check_dim(d)
    x = np.zeros((d, d), dtype=np.complex128)
    cols = np.arange(d)
    x[(cols + l) % d, cols] = 1.0
    return x


def clock_matrix(d: int, k: int) -> np.ndarray:
    """Phase ramp ``Z_k = diag(omega**(0k), omega**(1k), ..., omega**((d-1)k))``."""
    d = _check_dim(d)
    return np.diag(phase_vector(d, np.arange(d) * int(k)))


def weyl_element(d: int, l: int, k: int) -> np.ndarray:
    """The basis element ``X_l Z_k``.

    Built directly from the entry formula ``W[m, n] = omega**(n*k)`` iff
    ``m = n + l mod d`` (d nonzero entries); equal to
    ``shift_matrix(d, l) @ clock_matrix(d, k)``.
    """
    d = _check_dim(d)
    w = np.zeros((d, d), dtype=np.complex128)
    cols = np.arange(d)
    w[(cols + l) % d, cols] = phase_vector(d, cols * int(k))
    return w


@dataclass(frozen=True)
class WeylIndex:
    """Basis label ``(l, k)`` in ``Z_d x Z_d``; negative inputs are reduced mod d."""

    l: int
    k: int
    d: int

    def __post_init__(self):
        d = _check_dim(self.d)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "l", int(self.l) % d)
        object.__setattr__(self, "k", int(self.k) % d)

    @property
    def linear(self) -> int:
        """Position of this label in l-major enumeration order."""
        return self.l * self.d + self.k

    def matrix(self) -> np.ndarray:
        return weyl_element(self.d, self.l, self.k)


@dataclass(frozen=True, eq=False)
class WeylBasis:
    """All d**2 elements ``X_l Z_k``, enumerated l-major (l outer, k inner)."""

    d: int
    omega: complex
    elements: np.ndarray = field(repr=False)  # shape (d**2, d, d), read-only

    def element(self, l: int, k: int) -> np.ndarray:
        return self.elements[(l % self.d) * self.d + (k % self.d)]

    def __iter__(self):
        return iter(self.elements)


def weyl_basis(d: int) -> WeylBasis:
    """Construct the full Weyl-Heisenberg basis for dimension ``d``.

    All d**2 elements are written in one indexed assignment; element
    ``[l * d + k]`` equals ``weyl_element(d, l, k)`` exactly.
    """
    d = _check_dim(d)
    idx = np.arange(d)
    w = np.zeros((d, d, d, d), dtype=np.complex128)  # [l, k, row, col]
    rows = (idx + idx[:, None]) % d  # rows[l, n] = n + l mod d
    w[idx[:, None, None], idx[:, None], rows[:, None, :], idx] = phase_vector(d, idx[:, None] * idx)
    elements = w.reshape(d * d, d, d)
    elements.setflags(write=False)
    return WeylBasis(d=d, omega=omega(d), elements=elements)


def decompose(a) -> np.ndarray:
    """Coefficient table of a square matrix over the Weyl-Heisenberg basis.

    Returns the (d, d) complex table ``xi`` with
    ``xi[l, k] = tr((X_l Z_k)^dagger a) / d``, computed through the sparsity
    of the basis elements: each trace touches only the d entries
    ``a[(n + l) % d, n]``, so the whole table costs O(d^3) instead of O(d^5).
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"decompose requires a square matrix, got {a.shape}")
    d = _check_dim(a.shape[0])
    cols = np.arange(d)
    # diag[l, n] = a[(n + l) % d, n]: the l-th wrapped diagonal.
    diags = a[(cols[None, :] + cols[:, None]) % d, cols[None, :]]
    # dft[k, n] = omega**(-n*k), exponents reduced mod d before evaluating.
    dft = phase_vector(d, -(cols[:, None] * cols[None, :]))
    return diags @ dft.T / d


def reconstruct(xi) -> np.ndarray:
    """Sum ``sum_{l,k} xi[l, k] * X_l Z_k`` for a (d, d) coefficient table."""
    xi = np.asarray(xi, dtype=np.complex128)
    if xi.ndim != 2 or xi.shape[0] != xi.shape[1]:
        raise ShapeError(f"coefficient table must be square, got {xi.shape}")
    d = _check_dim(xi.shape[0])
    cols = np.arange(d)
    phases = phase_vector(d, cols[:, None] * cols)  # phases[k, n] = omega**(n*k)
    # X_l Z_k is nonzero only on the l-th wrapped diagonal, so entry
    # (n + l, n) of the sum collects xi[l, k] * omega**(n*k) over k alone;
    # accumulating k in order keeps the summation order of the term-by-term sum.
    diags = np.zeros((d, d), dtype=np.complex128)  # diags[l, n]
    for k in range(d):
        diags += xi[:, k, None] * phases[k]
    out = np.empty((d, d), dtype=np.complex128)
    out[(cols + cols[:, None]) % d, cols] = diags
    return out


def gram_matrix(basis: WeylBasis) -> np.ndarray:
    """Hilbert-Schmidt Gram matrix ``G[i, j] = tr(W_i^dagger W_j)``.

    Indices run in l-major order.  Equality with ``d * I`` certifies that the
    d**2 elements are linearly independent and hence span the operator space.
    """
    e = basis.elements
    return np.einsum("imn,jmn->ij", e.conj(), e)


def commutator_in_basis(x: WeylIndex, y: WeylIndex) -> np.ndarray:
    """Coefficient table of the commutator ``[W_x, W_y] = W_x W_y - W_y W_x``.

    The table reconstructs the commutator exactly, witnessing that the basis
    is closed under the bracket.
    """
    if x.d != y.d:
        raise DomainError(f"mixed dimensions: {x.d} vs {y.d}")
    wx = x.matrix()
    wy = y.matrix()
    return decompose(wx @ wy - wy @ wx)


# ---------------------------------------------------------------------------
# coefficient table file format: {"d": d, "order": "l-major", "xi": [...]}
# with d**2 [re, im] pairs, l outer and k inner.


def coefficients_to_json(xi) -> str:
    """Serialize a coefficient table; entries in l-major order."""
    xi = np.asarray(xi, dtype=np.complex128)
    if xi.ndim != 2 or xi.shape[0] != xi.shape[1]:
        raise ShapeError(f"coefficient table must be square, got {xi.shape}")
    return json_object([("d", str(xi.shape[0])), ("order", '"l-major"'), ("xi", format_complex_pairs(xi))])


def json_to_coefficients(text: str, what: str = "coefficient table") -> np.ndarray:
    """Parse a coefficient table document back into a (d, d) array."""
    return json_to_table(text, "xi", what, tags=[("order", "l-major")])
