"""Reference results the benchmark computes on its own, independent of weylkit.

Every operation the workloads drive is checked against these.  They follow
the definitions in the package documentation (Weyl element entries, the
gamma-table isometry, the operator-sum and Choi formulas) and use plain
numpy, so a defect in the library cannot hide itself in its own check.
"""

from __future__ import annotations

import functools
import json

import numpy as np


@functools.lru_cache(maxsize=None)
def weyl_elements(d: int) -> np.ndarray:
    """All ``X_l Z_k`` as a (d, d, d, d) array indexed [l, k, m, n].

    ``W[l, k][m, n] = omega**(n*k)`` iff ``m = n + l (mod d)``.  Cached per d
    and read-only, since every check at one d shares it.
    """
    n = np.arange(d)
    phases = np.exp(2j * np.pi * ((n[:, None] * n[None, :]) % d) / d)  # [k, n]
    w = np.zeros((d, d, d, d), dtype=np.complex128)
    for l in range(d):
        w[l][:, (n + l) % d, n] = phases
    w.setflags(write=False)
    return w


def isometry(gamma: np.ndarray) -> np.ndarray:
    """The dilation isometry as a (d, d**2, d) array [system row, env slot, column].

    Column i carries ``gamma[a, -i]`` at system row ``2i + a`` and environment
    slot ``(a, -i)``.
    """
    d = gamma.shape[0]
    v = np.zeros((d, d * d, d), dtype=np.complex128)
    a = np.arange(d)
    for i in range(d):
        b = (-i) % d
        v[(2 * i + a) % d, a * d + b, i] = gamma[a, b]
    return v


def dilation_kraus(gamma: np.ndarray) -> np.ndarray:
    """Kraus stack (d**2, d, d) of the dilation channel, one operator per env slot."""
    return isometry(gamma).transpose(1, 0, 2)


def weyl_kraus(weights: np.ndarray) -> np.ndarray:
    """Kraus stack ``sqrt(p[l, k]) X_l Z_k`` (d**2, d, d) of a Weyl channel."""
    d = weights.shape[0]
    w = weyl_elements(d).reshape(d * d, d, d)
    return np.sqrt(weights.reshape(d * d))[:, None, None] * w


def apply_kraus(kraus: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """``sum_m E_m rho E_m^dagger`` as one einsum over the stacked list."""
    return np.einsum("mij,jk,mlk->il", kraus, rho, kraus.conj(), optimize=True)


def choi(kraus: np.ndarray) -> np.ndarray:
    """``sum_m vec(E_m) vec(E_m)^dagger`` (row-major vec) as one matmul."""
    m, d, _ = kraus.shape
    v = kraus.reshape(m, d * d)
    return v.T @ v.conj()


def decompose(a: np.ndarray) -> np.ndarray:
    """``xi[l, k] = tr((X_l Z_k)^dagger a) / d``."""
    d = a.shape[0]
    return np.einsum("lkmn,mn->lk", weyl_elements(d).conj(), a) / d


def joint_pure(gamma: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """``V |psi>`` as a d**3 vector, system index outer."""
    return (isometry(gamma) @ psi).reshape(-1)


def joint_density(gamma: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """``V rho V^dagger`` as a (d**3, d**3) matrix."""
    d = gamma.shape[0]
    v = isometry(gamma).reshape(d ** 3, d)
    return v @ rho @ v.conj().T


def relative_error(got, want) -> float:
    """Frobenius distance relative to ``max(1, ||want||)``."""
    got = np.asarray(got, dtype=np.complex128)
    want = np.asarray(want, dtype=np.complex128)
    if got.shape != want.shape:
        return float("inf")
    return float(np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want)))


# ---------------------------------------------------------------------------
# reading CLI artifacts (the package's JSON file formats)


def _pairs(raw) -> np.ndarray:
    arr = np.asarray(raw, dtype=np.float64).reshape(-1, 2)
    return arr[:, 0] + 1j * arr[:, 1]


def matrix_from_doc(doc: dict) -> np.ndarray:
    return _pairs(doc["entries"]).reshape(doc["rows"], doc["cols"])


def read_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_matrix(path) -> np.ndarray:
    return matrix_from_doc(read_json(path))


def read_basis(path) -> np.ndarray:
    doc = read_json(path)
    d = doc["d"]
    return np.stack([matrix_from_doc(m) for m in doc["elements"]]).reshape(d, d, d, d)


def read_coefficients(path) -> np.ndarray:
    doc = read_json(path)
    d = doc["d"]
    return _pairs(doc["xi"]).reshape(d, d)
