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

Every element is monomial: column n of ``X_l Z_k`` holds ``omega**(n*k)`` at
row ``(n + l) % d`` and nothing else.  The kernels work from that layout and
per-dimension constants: the d roots ``omega**e``, the phase tables
``omega**(n*k)`` and ``omega**(-n*k)``, the wrapped-diagonal index
``(n + l) % d`` and its flat position ``((n + l) % d) * d + n`` (one fancy
index reads or writes all wrapped diagonals of a row-major d x d array), also
with its columns negated, each computed once per process for the last
``_MEMO_DIMS`` dimensions used (bounded LRU caches) and shared read-only.
The d**4 stack of all elements is built only when the basis itself is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

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
    return complex(_roots(d)[1 % d])


_QUARTER_TURNS = np.array([1.0, 1.0j, -1.0, -1.0j], dtype=np.complex128)

# Number of dimensions whose constants stay cached; sweeps over a few small d hit the cache.
_MEMO_DIMS = 8


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=_MEMO_DIMS)
def _roots(d: int) -> np.ndarray:
    """Read-only ``roots[e] = omega**e`` for e in [0, d).

    Quarter turns (e/d in {0, 1/4, 1/2, 3/4}) are exact in binary64 and are pinned.
    """
    e = np.arange(d, dtype=np.int64)
    out = np.exp(2j * np.pi * e / d)
    four = 4 * e
    quarter = four % d == 0
    out[quarter] = _QUARTER_TURNS[(four[quarter] // d) % 4]
    return _frozen(out)


class DimConstants(NamedTuple):
    """Read-only (d, d) tables shared by every call at one dimension."""

    phases: np.ndarray  # phases[k, n] = omega**(n*k)
    dft: np.ndarray  # dft[k, n] = omega**(-n*k)
    rows: np.ndarray  # rows[l, n] = (n + l) % d, the l-th wrapped diagonal
    flat: np.ndarray  # flat[l, n] = rows[l, n] * d + n, its position in a flattened d x d array
    flat_neg: np.ndarray  # flat_neg[l, n] = flat[l, -n % d]


@lru_cache(maxsize=_MEMO_DIMS)
def dim_constants(d: int) -> DimConstants:
    """The per-dimension phase and index tables, computed once per d from the roots.

    ``d`` is not checked here: callers pass a dimension they have already checked.
    """
    n = np.arange(d)
    nk = n[:, None] * n % d
    roots = _roots(d)
    rows = (n + n[:, None]) % d
    flat = rows * d + n
    return DimConstants(*map(_frozen, (roots[nk], roots[-nk % d], rows, flat, flat[:, -n % d])))


def phase_vector(d: int, exponents) -> np.ndarray:
    """``omega(d)`` raised to the given exponents, reduced mod d first.

    Reducing the exponent into [0, d) before evaluating bounds the phase
    error independently of how large the raw exponent grows.  The result is a
    fresh array read from the cached roots of unity, whose quarter turns are
    exact, so e.g. ``omega(2) == -1`` holds exactly.  Exponents beyond int64
    are reduced exactly as Python integers; wraparound that already happened
    inside a caller's int64 array cannot be detected.
    """
    d = _check_dim(d, minimum=1)
    try:
        e = np.asarray(exponents, dtype=np.int64)
    except OverflowError:
        e = np.asarray(np.asarray(exponents, dtype=object) % d, dtype=np.int64)
    return _roots(d)[np.mod(e, d)]


def shift_matrix(d: int, l: int) -> np.ndarray:
    """Cyclic shift ``X_l``: permutation with ``X[m, n] = 1`` iff ``m = n + l mod d``."""
    return weyl_element(d, l, 0)


def clock_matrix(d: int, k: int) -> np.ndarray:
    """Phase ramp ``Z_k = diag(omega**(0k), omega**(1k), ..., omega**((d-1)k))``."""
    return weyl_element(d, 0, k)


def weyl_element(d: int, l: int, k: int) -> np.ndarray:
    """The basis element ``X_l Z_k``, from its entries: ``W[m, n] = omega**(n*k)`` iff ``m = n + l mod d``.

    Any integers ``l`` and ``k`` are reduced mod d first.  Equal to ``shift_matrix(d, l) @ clock_matrix(d, k)``.
    """
    d = _check_dim(d)
    l, k = int(l) % d, int(k) % d
    w = np.zeros((d, d), dtype=np.complex128)
    cols = np.arange(d)
    w[(cols + l) % d, cols] = phase_vector(d, cols * k)
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


def _weyl_stack(d: int, l: np.ndarray, k: np.ndarray, c=None) -> np.ndarray:
    """The (m, d, d) stack of ``c[j] * X_{l[j]} Z_{k[j]}`` (bare elements for ``c=None``), labels in [0, d)."""
    t = dim_constants(d)
    values = t.phases[k] if c is None else c[:, None] * t.phases[k]
    out = np.zeros((len(l), d, d), dtype=np.complex128)
    out.reshape(len(l), d * d)[np.arange(len(l))[:, None], t.flat[l]] = values
    return out


def weyl_basis(d: int) -> WeylBasis:
    """The basis for dimension ``d``, built afresh; element ``[l * d + k]`` is ``weyl_element(d, l, k)``."""
    d = _check_dim(d)
    return WeylBasis(d=d, omega=omega(d), elements=_frozen(_weyl_stack(d, *np.divmod(np.arange(d * d), d))))


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
    c = dim_constants(d)
    # diag[l, n] = a[(n + l) % d, n]: the l-th wrapped diagonal.
    diags = a.reshape(-1)[c.flat]
    return diags @ c.dft.T / d


def reconstruct(xi) -> np.ndarray:
    """Sum ``sum_{l,k} xi[l, k] * X_l Z_k`` for a (d, d) coefficient table."""
    xi = np.asarray(xi, dtype=np.complex128)
    if xi.ndim != 2 or xi.shape[0] != xi.shape[1]:
        raise ShapeError(f"coefficient table must be square, got {xi.shape}")
    d = _check_dim(xi.shape[0])
    c = dim_constants(d)
    # X_l Z_k is nonzero only on the l-th wrapped diagonal, so entry
    # (n + l, n) of the sum collects xi[l, k] * omega**(n*k) over k alone;
    # the reduction adds k in order from zero, the order of the term-by-term sum.
    out = np.empty((d, d), dtype=np.complex128)
    out.reshape(-1)[c.flat] = np.add.reduce(xi[:, :, None] * c.phases, axis=1)  # diags[l, n]
    return out


def gram_matrix(basis: WeylBasis) -> np.ndarray:
    """Hilbert-Schmidt Gram matrix ``G[i, j] = tr(W_i^dagger W_j)``.

    Indices run in l-major order.  Equality with ``d * I`` certifies that the
    d**2 elements are linearly independent and hence span the operator space.
    """
    e = basis.elements.reshape(len(basis.elements), -1)
    return e.conj() @ e.T


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
