"""Dense complex linear algebra for desk-scale search simulations.

States are one-dimensional ``complex128`` numpy arrays and operators are
square two-dimensional ones. Every function here is pure: inputs are never
mutated, and randomness enters only through explicitly passed seeds.
"""

from __future__ import annotations

import math

import numpy as np

#: Tolerance of every structural check (unitarity, hermiticity, zero diagonals).
STRUCTURAL_TOL = 1e-10
#: Tolerance of every cross-validation of independent computation paths.
EQUIVALENCE_TOL = 1e-9

#: A Gram matrix with cond(G) * eps above EQUIVALENCE_TOL is degenerate.
_GRAM_COND_MAX = EQUIVALENCE_TOL / np.finfo(np.float64).eps


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


def is_unitary(w) -> bool:
    """Whether no entry of ``W W+`` deviates from the identity by more than ``STRUCTURAL_TOL``."""
    return unitary_dev(w) <= STRUCTURAL_TOL


def unitary_dev(w) -> float:
    """Largest entry of ``|W W+ - I|``."""
    w = _as_square(w)
    return float(np.max(np.abs(w @ w.conj().T - np.eye(w.shape[0]))))


def require_unitary(w, symbol: str, purpose: str) -> np.ndarray:
    """``w`` as a complex array, or a ValueError saying ``symbol`` must be
    unitary for ``purpose``, with the deviation max|W W+ - I| and ``STRUCTURAL_TOL``."""
    w = np.asarray(w, dtype=np.complex128)
    if not is_unitary(w):
        raise ValueError(
            f"{symbol} must be unitary for {purpose}: "
            f"max|{symbol} {symbol}+ - I| = {unitary_dev(w):.3g} "
            f"exceeds the tolerance {STRUCTURAL_TOL:g}"
        )
    return w


def hermitian_dev(w) -> float:
    """Largest entry of ``|W - W+|``."""
    w = _as_square(w)
    return float(np.max(np.abs(w - w.conj().T)))


def involution_dev(w) -> float:
    """Largest entry of ``|W W - I|``."""
    w = _as_square(w)
    return float(np.max(np.abs(w @ w - np.eye(w.shape[0]))))


def row_norms(x) -> np.ndarray:
    """Euclidean norm of each row of a two-dimensional complex array.

    Each row's squared norm is the real-part row dot plus the imaginary-part
    row dot, the same sum ``np.linalg.norm`` forms for one complex vector,
    taken here as one stacked 1 x N @ N x 1 product per part.
    """
    x = np.asarray(x, dtype=np.complex128)
    re, im = x.real, x.imag
    return np.sqrt((re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0])


def gram_decompose(states, basis) -> np.recarray:
    """Solve the normal equations to expand each of ``states`` over ``basis``.

    The Gram matrix ``G[i, j] = <basis_i | basis_j>`` is built once per call
    and must be well conditioned: cond(G) * eps above ``EQUIVALENCE_TOL``
    (cond(G) above about 4.5e6), or a NaN cond(G), raises
    :class:`DegenerateBasisError` before any state is read. cond(G) is
    scale-free, so the basis vectors need not be orthogonal or normalized.

    ``states`` is a sequence of vectors or an (n, N) array. All n states are
    solved together: one stacked product forms the right-hand sides, one
    multi-right-hand-side solve gives the coefficients, and the synthesis and
    residual norms are broadcast over the states.

    The result is one record array of length n whose ``coefficients`` field
    is the (n, m) array of coefficients over the m basis vectors and whose
    ``residual`` field holds each state's Euclidean distance to the basis
    span, so subspace membership reduces to a residual threshold.
    """
    vecs = np.array([_as_vector(b) for b in basis])
    duals = vecs.conj()
    gram = np.array([[di @ vj for vj in vecs] for di in duals])
    # The SVD behind cond() does not converge on non-finite input.
    cond = float(np.linalg.cond(gram)) if np.isfinite(gram).all() else math.nan
    if not cond <= _GRAM_COND_MAX:
        raise DegenerateBasisError(
            f"basis is numerically dependent: cond(Gram) = {cond:.3e} "
            f"exceeds {_GRAM_COND_MAX:.3e}"
        )
    s = np.asarray(states if isinstance(states, np.ndarray) else list(states), dtype=np.complex128)
    out = np.recarray(len(s), [("coefficients", np.complex128, (len(vecs),)),
                               ("residual", np.float64)])
    if len(s) == 0:
        return out
    if s.ndim != 2 or s.shape[1] != vecs.shape[1]:
        raise ValueError(f"expected states of length {vecs.shape[1]}, got shape {s.shape}")
    rhs = (duals[None, :, None, :] @ s[:, None, :, None])[:, :, 0, 0]
    coeffs = np.linalg.solve(gram, rhs.T).T
    out.coefficients = coeffs
    synth = np.zeros_like(s)
    for c, v in zip(coeffs.T, vecs):
        synth += c[:, None] * v
    # The synthesis buffer takes the residual vectors: one (n, N) array fewer.
    out.residual = row_norms(np.subtract(s, synth, out=synth))
    return out


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

