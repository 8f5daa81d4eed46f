"""Dense complex linear algebra for desk-scale search simulations.

States are one-dimensional ``complex128`` numpy arrays and operators are
square two-dimensional ones. Every function here is pure: inputs are never
mutated, and randomness enters only through explicitly passed seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Default tolerance for structural checks (unitarity, hermiticity, zero diagonals).
STRUCTURAL_TOL = 1e-10
#: Default tolerance for cross-validation of independent computation paths.
EQUIVALENCE_TOL = 1e-9

_GRAM_DET_FLOOR = 1e-12


class DegenerateBasisError(ValueError):
    """The decomposition basis is numerically linearly dependent."""


def _as_square(w) -> np.ndarray:
    w = np.asarray(w, dtype=np.complex128)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {w.shape}")
    return w


def _as_vector(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    return v


def basis_state(dim: int, index: int) -> np.ndarray:
    """Computational basis vector with a 1 at ``index``."""
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    e = np.zeros(dim, dtype=np.complex128)
    e[index] = 1.0
    return e


def adjoint(w) -> np.ndarray:
    """Conjugate transpose."""
    return _as_square(w).conj().T.copy()


def is_unitary(w, tol: float = STRUCTURAL_TOL) -> bool:
    """Check ``W W+ = I`` in the entrywise max norm.

    Parameters
    ----------
    w : array_like
        Square complex matrix.
    tol : float
        Largest allowed deviation of any entry of ``W W+`` from the identity.
    """
    return unitary_dev(w) <= tol


def unitary_dev(w) -> float:
    """Largest entry of ``|W W+ - I|``."""
    w = _as_square(w)
    return float(np.max(np.abs(w @ w.conj().T - np.eye(w.shape[0]))))


def is_hermitian(w, tol: float = STRUCTURAL_TOL) -> bool:
    """Check ``W = W+`` entrywise within ``tol``."""
    return hermitian_dev(w) <= tol


def hermitian_dev(w) -> float:
    """Largest entry of ``|W - W+|``."""
    w = _as_square(w)
    return float(np.max(np.abs(w - w.conj().T)))


def involution_dev(w) -> float:
    """Largest entry of ``|W W - I|``."""
    w = _as_square(w)
    return float(np.max(np.abs(w @ w - np.eye(w.shape[0]))))


@dataclass(frozen=True, eq=False)
class GramDecomposition:
    """Expansion of a state over a (generally non-orthogonal) basis.

    ``residual`` is the Euclidean distance between the state and its
    projection onto the basis span, so subspace membership reduces to a
    residual threshold.
    """

    coefficients: np.ndarray
    residual: float


def gram_decompose(states, basis) -> list[GramDecomposition]:
    """Solve the normal equations to expand each of ``states`` over ``basis``.

    The Gram matrix ``G[i, j] = <basis_i | basis_j>`` is built once per call
    and must be nonsingular: ``|det G| <= 1e-12`` raises
    :class:`DegenerateBasisError` before any state is read. The basis vectors
    need not be orthogonal or normalized.
    """
    vecs = [_as_vector(b) for b in basis]
    duals = [v.conj() for v in vecs]
    gram = np.array([[di @ vj for vj in vecs] for di in duals])
    det = abs(np.linalg.det(gram))
    if det <= _GRAM_DET_FLOOR:
        raise DegenerateBasisError(
            f"basis is numerically dependent: |det(Gram)| = {det:.3e}"
        )
    decompositions = []
    for state in states:
        s = _as_vector(state)
        coeffs = np.linalg.solve(gram, np.array([di @ s for di in duals]))
        synth = np.zeros_like(s)
        for c, v in zip(coeffs, vecs):
            synth += c * v
        decompositions.append(GramDecomposition(coeffs, float(np.linalg.norm(s - synth))))
    return decompositions


def random_unitary(dim: int, seed) -> np.ndarray:
    """Deterministic pseudo-random unitary.

    The columns of a seeded complex-Gaussian matrix are orthonormalized (QR
    with the R-diagonal phases folded back in, so the distribution carries no
    column-sign bias). ``seed`` may be an integer or a ``numpy.random.Generator``;
    passing a generator draws from it, which lets callers derive several
    matrices from one seed.
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    z /= math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))

