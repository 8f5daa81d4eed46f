"""Dense complex linear algebra for desk-scale search simulations.

States are one-dimensional ``complex128`` numpy arrays and operators are
square two-dimensional ones. Every public function here is pure: inputs are
never mutated, and randomness enters only through explicitly passed seeds.
Each quantity is taken in one plain NumPy form (a matrix product, a solve, a
norm), so its last digits are those of the numpy/BLAS build, which the
goldens record.
"""

from __future__ import annotations

import copy
import math
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .rotations import _checked_index

#: Tolerance of every structural check (unitarity, hermiticity, zero diagonals).
STRUCTURAL_TOL = 1e-10
#: Tolerance of every cross-validation of independent computation paths.
EQUIVALENCE_TOL = 1e-9

#: Rows of ``W W+`` formed per product in ``unitary_dev``.
_PANEL = 128
#: Reflectors per compact-WY block of a ``HouseholderUnitary``.
_BLOCK = 32

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


def require_unitary(w, symbol: str, purpose: str) -> np.ndarray | HouseholderUnitary:
    """``w`` as a complex array, or a ValueError saying ``symbol`` must be
    unitary for ``purpose``, with the deviation max|W W+ - I| and ``STRUCTURAL_TOL``.

    A :class:`HouseholderUnitary` is returned as it is, never formed: it is
    judged by its certificate, a bound on ||W+ W - I||_2, which the error
    names instead.
    """
    if isinstance(w, HouseholderUnitary):
        dev = w.certificate()
        if dev <= STRUCTURAL_TOL:
            return w
        measure = f"certified ||{symbol}+ {symbol} - I||_2"
    else:
        w = np.asarray(w, dtype=np.complex128)
        if is_unitary(w):
            return w
        dev, measure = unitary_dev(w), f"max|{symbol} {symbol}+ - I|"
    raise ValueError(f"{symbol} must be unitary for {purpose}: {measure} = {dev:.3g} "
                     f"exceeds the tolerance {STRUCTURAL_TOL:g}")


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
    Gaussian matrix makes are drawn directly (:func:`_draw_reflectors`), and
    ``qr_reduced``, NumPy's private gufunc behind ``np.linalg.qr``, forms
    their product Q under ``np.linalg.qr``'s error state. The signs of beta
    are folded into Q's columns in place. :meth:`HouseholderUnitary.draw`
    takes the same draw and keeps it as its reflectors instead.
    """
    return _form_q(*_draw_reflectors(dim, seed))


def _draw_reflectors(dim, seed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reflectors of ``random_unitary(dim, seed)``: (v, tau, signs).

    Column k's reflector H_k = I - tau_k v_k v_k+ comes from a fresh complex
    Gaussian vector (alpha, x) of length N - k (Stewart 1980, Mezzadri
    2007), by LAPACK's ``zlarfg`` convention: beta = -sign(Re alpha)
    |(alpha, x)|, tau = (beta - alpha) / beta and v_k = (1, x / (alpha -
    beta)). In the QR, the trailing block left after each reflection is
    again Gaussian and independent of the reflectors before it, so these
    reflectors have the QR's joint law, and Q diag(sign beta), with
    Q = H_0 H_1 ... H_{N-1}, is the QR's Q with R's diagonal made positive:
    Haar. A vector's scale does not change its reflector, so the normals are
    not scaled.

    The N (N + 1) / 2 complex normals are drawn as one flat array, real and
    imaginary parts interleaved, column 0's vector first. They are placed in
    the lower triangle of one Fortran-ordered array, the reflectors' storage
    that LAPACK's ``zungqr`` reads, through an N x N boolean mask (1/16 of
    a complex N x N array). Column k of ``v`` is v_k below row k and 0
    above it; its diagonal holds alpha / (alpha - beta), not v_k's 1, since
    ``zungqr`` reads each column below its diagonal only. ``signs`` is
    sign(beta), real.
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
    # Row k of v.T, from column k on, is column k of v on and below the diagonal.
    v.T[lengths <= lengths[:, None]] = z
    del z
    # zlarfg too scales x by the reciprocal.
    v *= 1 / (alpha - beta)
    return v, (beta - alpha) / beta, np.sign(beta)


def _form_q(v: np.ndarray, tau: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Q = H_0 H_1 ... H_{N-1} diag(signs), formed by LAPACK from the reflectors."""
    with np.errstate(call=_raise_lapack_failure, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        q = _umath_linalg.qr_reduced(v, tau, signature="DD->D")
    q *= signs
    return q


class PlaneRotation(NamedTuple):
    """G, the identity but in columns 0 and ``partner``: G[0, 0] = G[p, p] =
    ``cos``, G[p, 0] = ``mix`` and G[0, p] = ``unmix``. U G mixes U's
    column 0 with its column p and keeps every other column."""

    partner: int
    cos: float
    mix: complex
    unmix: complex

    def deviation(self) -> float:
        """||G+ G - I||_2, the largest eigenvalue modulus of its 2 x 2 hermitian block."""
        c, mix, unmix = self.cos, self.mix, self.unmix
        a, d = c * c + abs(mix) ** 2 - 1, abs(unmix) ** 2 + c * c - 1
        b = c * unmix + mix.conjugate() * c
        return abs(a + d) / 2 + math.hypot((a - d) / 2, abs(b))


class HouseholderUnitary:
    """U = H_0 H_1 ... H_{N-1} diag(signs) G, held as its reflectors and never formed.

    ``reflectors`` is an N x N array whose column k holds v_k, 0 above row
    k and 1 in it; H_k = I - tau_k v_k v_k+, ``signs`` is real and G is
    ``plane`` (the identity when it is None). The arrays are held, not
    copied, and nothing here writes to them.

    The reflectors are applied in blocks of ``_BLOCK`` in the compact WY
    form (Schreiber and Van Loan 1989): H_j ... H_{j+b-1} = I - Y T Y+, where
    Y is the block's columns of ``reflectors`` from row j down, a view, and
    T is upper triangular with T^-1 = diag(1 / tau) + the strict upper part
    of Y+ Y (the UT transform; Joffrain et al., ACM TOMS 32, 2006). So
    :meth:`apply` and :meth:`apply_adjoint` cost about N^2 complex
    multiply-adds each, with no N x N temporary. The diagonal of the same
    Gram matrix Y+ Y gives each ||v_k||^2 for :meth:`certificate`.
    ``np.asarray`` forms the dense U, bit for bit as ``random_unitary``
    forms Q from the same reflectors, with G applied to its columns.
    """

    def __init__(self, reflectors: np.ndarray, tau: np.ndarray, signs: np.ndarray,
                 plane: PlaneRotation | None = None):
        dim = len(tau)
        if reflectors.shape != (dim, dim) or signs.shape != (dim,):
            raise ValueError(f"reflectors of shape {reflectors.shape} and {signs.shape[0]} signs "
                             f"do not fit {dim} values of tau")
        if not (np.diagonal(reflectors) == 1).all():
            raise ValueError("each reflector v_k must hold 1 in row k")
        self.reflectors, self.tau, self.signs, self.plane = reflectors, tau, signs, plane
        self._blocks = []
        norms = []
        for lo in range(0, dim, _BLOCK):
            ys = reflectors[lo:, lo:lo + _BLOCK]
            width = ys.shape[1]
            if np.triu(ys[:width], 1).any():
                raise ValueError(f"a reflector among columns {lo}..{lo + width - 1} "
                                 f"is not 0 above its row")
            gram = ys.T.conj() @ ys
            norms.append(gram.diagonal().real)
            t_inv = np.triu(gram, 1)
            t_inv.flat[::width + 1] = 1 / tau[lo:lo + width]
            # A non-finite reflector gives a nan T, not an error: the
            # certificate reads nan and refuses it.
            with np.errstate(all="ignore"):
                t = _umath_linalg.inv(t_inv, signature="D->D")
            self._blocks.append((lo, ys, t, adjoint(t)))
        self._norms = np.concatenate(norms)

    @classmethod
    def draw(cls, dim: int, seed) -> HouseholderUnitary:
        """The reflectors of ``random_unitary(dim, seed)``, kept as an operator."""
        v, tau, signs = _draw_reflectors(dim, seed)
        np.fill_diagonal(v, 1)
        return cls(v, tau, signs)

    def rotated(self, plane: PlaneRotation) -> HouseholderUnitary:
        """U G, sharing this operator's reflectors and blocks; G's partner is
        a column other than 0."""
        if self.plane is not None:
            raise ValueError("this operator already holds a plane rotation")
        _checked_index("partner", plane.partner, 1, len(self.tau) - 1)
        out = copy.copy(self)
        out.plane = plane
        return out

    @property
    def shape(self) -> tuple[int, int]:
        return self.reflectors.shape

    def apply(self, y) -> np.ndarray:
        """U y, as a new array."""
        x = self._vector(y)
        if self.plane is not None:
            p, c, mix, unmix = self.plane
            x[0], x[p] = c * x[0] + unmix * x[p], mix * x[0] + c * x[p]
        x *= self.signs
        for lo, ys, t, _ in reversed(self._blocks):
            seg = x[lo:]
            seg -= ys @ (t @ (seg.conj() @ ys).conj())
        return x

    def apply_adjoint(self, y) -> np.ndarray:
        """U+ y, as a new array."""
        x = self._vector(y)
        for lo, ys, _, t_h in self._blocks:
            seg = x[lo:]
            seg -= ys @ (t_h @ (seg.conj() @ ys).conj())
        x *= self.signs
        if self.plane is not None:
            p, c, mix, unmix = self.plane
            x[0], x[p] = c * x[0] + mix.conjugate() * x[p], unmix.conjugate() * x[0] + c * x[p]
        return x

    def row(self, index: int) -> np.ndarray:
        """Row ``index`` of U: the conjugate of U+ e_index."""
        x = self.apply_adjoint(basis_state(len(self.tau), index))
        return np.conjugate(x, out=x)

    def certificate(self) -> float:
        """An upper bound on ||U+ U - I||_2 (and so on max|U U+ - I|), in O(N).

        It is prod(1 + d) - 1 over the factors of U, where d is each
        factor's exact ||F+ F - I||_2: for H_k, | |tau_k|^2 ||v_k||^2 -
        2 Re tau_k | ||v_k||^2; for diag(signs), max| signs^2 - 1 |; for G,
        :meth:`PlaneRotation.deviation`. The singular values of each factor
        lie in [sqrt(1 - d), sqrt(1 + d)], so those of U lie in
        [sqrt(prod(1 - d)), sqrt(prod(1 + d))]. The bound holds for the
        stored numbers up to the rounding of its own evaluation; a nan
        anywhere in them gives nan.
        """
        n2 = self._norms
        d = np.abs(np.abs(self.tau) ** 2 * n2 - 2 * self.tau.real) * n2
        bound = float(np.prod(1 + d)) * (1 + float(np.max(np.abs(self.signs ** 2 - 1))))
        if self.plane is not None:
            bound *= 1 + self.plane.deviation()
        return bound - 1

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        w = _form_q(self.reflectors, self.tau, self.signs)
        if self.plane is not None:
            p, c, mix, unmix = self.plane
            col_gamma, col_other = w[:, 0].copy(), w[:, p].copy()
            w[:, 0] = c * col_gamma + mix * col_other
            w[:, p] = unmix * col_gamma + c * col_other
        return w if dtype is None else w.astype(dtype, copy=False)

    def _vector(self, y) -> np.ndarray:
        x = np.array(y, dtype=np.complex128)
        if x.shape != self.tau.shape:
            raise ValueError(f"expected a vector of length {len(self.tau)}, got shape {x.shape}")
        return x
