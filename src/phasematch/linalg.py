"""Dense complex linear algebra for desk-scale search simulations.

States are one-dimensional ``complex128`` numpy arrays and operators are
square two-dimensional ones. Every public function here is pure: inputs are
never mutated, and randomness enters only through explicitly passed seeds.
Each quantity is taken in one plain NumPy form (a matrix product, a solve, a
norm), so its last digits are those of the numpy/BLAS build, which the
goldens record.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import _umath_linalg

from .rotations import _checked_index

#: Tolerance of every structural check (unitarity, hermiticity, zero diagonals).
STRUCTURAL_TOL = 1e-10
#: Tolerance of every cross-validation of independent computation paths.
EQUIVALENCE_TOL = 1e-9

#: Rows of ``W W+`` formed per product in ``unitary_dev``.
_PANEL = 128

#: A Gram matrix with cond(G) * eps above EQUIVALENCE_TOL is degenerate.
_GRAM_COND_MAX = EQUIVALENCE_TOL / np.finfo(np.float64).eps


class DegenerateBasisError(ValueError):
    """The decomposition basis is numerically linearly dependent."""


def _refuse_degenerate(cond: float, what: str, error: type = DegenerateBasisError) -> None:
    """Raise ``error`` naming ``what`` and cond(G) unless cond(G) * eps is
    within ``EQUIVALENCE_TOL``; a nan cond(G) is refused too."""
    if not cond <= _GRAM_COND_MAX:
        raise error(f"{what}: cond(Gram) = {cond:.3e} exceeds {_GRAM_COND_MAX:.3e}")


def _as_square(w) -> np.ndarray:
    w = np.asarray(w, dtype=np.complex128)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {w.shape}")
    return w


def basis_state(dim: int, index: int) -> np.ndarray:
    """Computational basis vector with a 1 at ``index``."""
    index = _checked_index("index", index, 0, dim - 1)
    e = np.zeros(dim, dtype=np.complex128)
    e[index] = 1.0
    return e


def adjoint(w) -> np.ndarray:
    """Conjugate transpose, as a new C-contiguous array made in one pass."""
    return np.conjugate(_as_square(w).T, order="C")


def is_unitary(w) -> bool:
    """Whether no entry of ``W W+`` deviates from the identity by more than ``STRUCTURAL_TOL``."""
    return unitary_dev(w) <= STRUCTURAL_TOL


def unitary_dev(w) -> float:
    """Largest entry of ``|W W+ - I|``.

    ``W W+`` is hermitian, so only its diagonal and upper part are formed, in
    rectangular panels of ``_PANEL`` rows, each starting at its diagonal
    column: rows ``lo:lo + _PANEL`` of ``W`` times columns ``lo:`` of ``W+``.
    The largest temporary is one panel, not a second N x N array. A W of at
    most ``_PANEL`` rows is one panel, the plain product; above that the
    panels' entries may round differently from it. A nan in any panel wins,
    as in ``np.max``.
    """
    w = _as_square(w)
    wh = w.conj().T
    worst = _identity_dev(w[:_PANEL] @ wh)
    for lo in range(_PANEL, len(w), _PANEL):
        dev = _identity_dev(w[lo:lo + _PANEL] @ wh[:, lo:])
        if dev > worst or math.isnan(dev):
            worst = dev
    return worst


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
    return _identity_dev(w @ w)


def _identity_dev(p: np.ndarray) -> float:
    """Largest entry of ``|P - I|`` for a fresh product ``P``, which it overwrites.

    ``P`` may be a rectangular panel of r <= m rows; its diagonal starts at
    column 0, so ``I`` is the r x m identity. 1 is subtracted from the
    diagonal in place: the same IEEE operation per entry as subtracting the
    identity, without an identity or difference array.
    """
    p.flat[:: p.shape[1] + 1] -= 1
    return float(np.max(np.abs(p)))


def gram_decompose(states, basis) -> np.recarray:
    """Solve the normal equations to expand each of ``states`` over ``basis``.

    The Gram matrix ``G[i, j] = <basis_i | basis_j>`` is built once per call
    and must be well conditioned: cond(G) * eps above ``EQUIVALENCE_TOL``
    (cond(G) above about 4.5e6), or a NaN cond(G), raises
    :class:`DegenerateBasisError` before any state is read. cond(G) is
    scale-free, so the basis vectors need not be orthogonal or normalized.

    ``states`` is a sequence of vectors or an (n, N) array. All n states are
    solved together, each step one matrix product or call: the right-hand
    sides are ``duals @ states.T``, one multi-right-hand-side solve gives the
    coefficients, their product with the basis is the synthesis, and
    ``np.linalg.norm`` over rows gives the residuals.

    The result is one record array of length n whose ``coefficients`` field
    is the (n, m) array of coefficients over the m basis vectors and whose
    ``residual`` field holds each state's Euclidean distance to the basis
    span, so subspace membership reduces to a residual threshold.
    """
    vecs = np.asarray(basis, dtype=np.complex128)
    if vecs.ndim != 2:
        raise ValueError(f"expected a basis of vectors of one length, got shape {vecs.shape}")
    duals = vecs.conj()
    gram = duals @ vecs.T
    # The SVD behind cond() does not converge on non-finite input.
    cond = float(np.linalg.cond(gram)) if np.isfinite(gram).all() else math.nan
    _refuse_degenerate(cond, "basis is numerically dependent")
    s = np.asarray(states if isinstance(states, np.ndarray) else list(states), dtype=np.complex128)
    # An empty sequence of states reads as shape (0,).
    if s.shape != (0,) and (s.ndim != 2 or s.shape[1] != vecs.shape[1]):
        raise ValueError(f"expected an (n, {vecs.shape[1]}) array of states, got shape {s.shape}")
    out = np.recarray(len(s), [("coefficients", np.complex128, (len(vecs),)),
                               ("residual", np.float64)])
    if len(s) == 0:
        return out
    coeffs = np.linalg.solve(gram, duals @ s.T).T
    out.coefficients = coeffs
    synth = coeffs @ vecs
    # The synthesis buffer takes the residual vectors: one (n, N) array fewer.
    out.residual = np.linalg.norm(np.subtract(s, synth, out=synth), axis=1)
    return out


def _raise_lapack_failure(err, flag):
    """``np.errstate`` callback for ``qr_reduced``: LAPACK refused an argument."""
    raise np.linalg.LinAlgError("Incorrect argument found while forming Q from its reflectors")


def random_unitary(dim: int, seed) -> np.ndarray:
    """Deterministic pseudo-random unitary, Haar distributed.

    ``seed`` may be an integer or a ``numpy.random.Generator``; passing a
    generator draws from it, which lets callers derive several matrices from
    one seed.

    No matrix is factored: the Householder reflectors that a QR of a complex
    Gaussian matrix makes are drawn directly (Stewart 1980, Mezzadri 2007).
    Column k's reflector H_k = I - tau_k v_k v_k+ comes from a fresh complex
    Gaussian vector (alpha, x) of length N - k, by LAPACK's ``zlarfg``
    convention: beta = -sign(Re alpha) |(alpha, x)|, tau = (beta - alpha) /
    beta and v_k = (1, x / (alpha - beta)). In the QR, the trailing block
    left after each reflection is again Gaussian and independent of the
    reflectors before it, so these reflectors have the QR's joint law, and
    Q diag(sign beta), with Q = H_0 H_1 ... H_{N-1}, is the QR's Q with R's
    diagonal made positive: Haar. A vector's scale does not change its
    reflector, so the normals are not scaled.

    The N (N + 1) / 2 complex normals are drawn as one flat array, real and
    imaginary parts interleaved, column 0's vector first. They are placed in
    the lower triangle of one Fortran-ordered array, the reflectors' storage
    that LAPACK's ``zungqr`` reads, through an N x N boolean mask (1/16 of
    a complex N x N array). ``qr_reduced``, NumPy's private gufunc behind
    ``np.linalg.qr``, forms Q from them under ``np.linalg.qr``'s error
    state, and the signs of beta are folded into Q's columns in place.
    """
    dim = _checked_index("dim", dim, 1)
    rng = np.random.default_rng(seed)
    lengths = np.arange(dim, 0, -1)
    starts = lengths.cumsum() - lengths
    # Allocating v after the normals raised the peak RSS of repeated
    # oracle-scale cycles from 103 to 109 MB.
    v = np.zeros((dim, dim), dtype=np.complex128, order="F")
    z = rng.standard_normal(dim * (dim + 1)).view(np.complex128)
    alpha = z[starts]
    beta = np.sqrt(np.add.reduceat(np.square(z.view(np.float64)), 2 * starts))
    np.copysign(beta, -alpha.real, out=beta)
    # Row k of v.T, from column k on, is column k of v on and below the
    # diagonal. zungqr reads each column below its diagonal only.
    v.T[lengths <= lengths[:, None]] = z
    del z
    # zlarfg too scales x by the reciprocal.
    v *= 1 / (alpha - beta)
    with np.errstate(call=_raise_lapack_failure, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        q = _umath_linalg.qr_reduced(v, (beta - alpha) / beta, signature="DD->D")
    q *= np.sign(beta)
    return q
