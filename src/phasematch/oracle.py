"""Brute-force full-space simulator, the ground truth for both engines.

U comes in one of two kinds. A dense matrix is checked at N^3 cost and
used as it is. A :class:`~phasematch.linalg.HouseholderUnitary`, which
:func:`unitary_with_overlap` returns, is held as its reflectors, certified
in O(N) per reflector and never formed; it serves the 2D mode only.

With a dense U, Q = -(I_gamma V I_tau U) (V defaults to U^-1, the
two-rotation algorithm) is held as its two factors: A = I_gamma V I_tau, an
N x N array made in O(N^2) because each rotation touches one row or one
column of V, and U itself. Neither rotation is built as an N x N matrix; a
2 x N block and an N-vector carry their entries, so the factors cost one
N x N array, A. A run of at least dim / 8 steps first forms the dense
Q = -(A U) with one N^3 product and then takes one matrix-vector product
per step; a shorter run takes two per step, U y and then A (U y), and forms
no N x N product. With a Householder U, each step applies U and then U+
through the operator, with each rotation's one entry in between, and
nothing N x N is made; Table 1's runs (N = 100 to 900) take this path.
|gamma> is evolved step by step into one (k_max + 1) x N array of states.
All of a run's states are decomposed over the invariant basis by one
multi-right-hand-side solve of the Gram normal equations, into one record
array. Its residuals double as the subspace-preservation check: they stay at
rounding level when the premise holds and blow up visibly when it does not.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import (
    HouseholderUnitary,
    PlaneRotation,
    adjoint,
    basis_state,
    gram_decompose,
    require_unitary,
)
from .rotations import _check_bound, _checked_index, _finite_angles, build, rotation_entry


@dataclass(frozen=True, eq=False)
class OracleConfig:
    """One simulation instance.

    The start state |gamma> is the first basis state and the target |tau>
    the last one. ``v_matrix=None`` selects the 2D algorithm
    (V = adjoint(U) implicitly); passing a V selects the 4D one.

    U is a dense matrix, checked by ``is_unitary`` at N^3 cost, or, in the
    2D mode only, a :class:`HouseholderUnitary`, judged by its O(N)
    certificate and never formed. V is always a dense matrix. ``tau_row``
    is row tau of U, read once here; every later read of U's tau row reads it.
    """

    dim: int
    theta: float
    phi: float
    u_matrix: np.ndarray | HouseholderUnitary
    v_matrix: np.ndarray | None = None
    tau_row: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _finite_angles(theta=self.theta, phi=self.phi)
        object.__setattr__(self, "dim", _checked_index("dim", self.dim, 2))
        operator_u = isinstance(self.u_matrix, HouseholderUnitary)
        if operator_u and self.v_matrix is not None:
            raise ValueError("a HouseholderUnitary U is for the 2D mode only; "
                             "a 4D config takes U as a matrix")
        matrices = (("U", "u_matrix"), ("V", "v_matrix"))
        for name, field_name in matrices if self.v_matrix is not None else matrices[:1]:
            m = getattr(self, field_name)
            if name == "V" or not operator_u:
                m = np.asarray(m, dtype=np.complex128)
            if m.shape != (self.dim, self.dim):
                raise ValueError(f"{name} has shape {m.shape}, expected ({self.dim}, {self.dim})")
            object.__setattr__(self, field_name, require_unitary(m, name, "the oracle"))
        u, t = self.u_matrix, self.tau_index
        object.__setattr__(self, "tau_row", u.row(t) if operator_u else u[t])

    @property
    def gamma_index(self) -> int:
        """Index of the start state |gamma>: always 0."""
        return 0

    @property
    def tau_index(self) -> int:
        """Index of the target state |tau>: always dim - 1."""
        return self.dim - 1

    @property
    def u_element(self) -> complex:
        """The element u = <tau|U|gamma>."""
        return complex(self.tau_row[self.gamma_index])


@dataclass(frozen=True, eq=False)
class OracleRun:
    """States Q^k|gamma> for k = 0..k_max with their basis decompositions.

    ``states`` is one (k_max + 1, N) array whose row k is Q^k|gamma>;
    ``decompositions`` is the :func:`gram_decompose` record array of their
    expansions over the invariant basis, from one Gram solve.
    """

    states: np.ndarray
    decompositions: np.recarray

    @property
    def k_max(self) -> int:
        return len(self.states) - 1


#: ``evolve`` forms the dense Q when dim <= DENSE_Q_DIM_PER_STEP * k_max and
#: applies the factors otherwise. Measured with one BLAS thread, best of 5
#: of ``build_q`` plus the steps: at N / k_max = 4 the dense product wins
#: (N = 256: 3.9 against 4.3 ms; N = 900: 205 against 247 ms), at
#: N / k_max = 8 the factors do (N = 400: 11.1 against 12.5 ms; N = 900:
#: 120 against 142 ms), and at Table 1's N = 900, k = 17 they take 21
#: against 95 ms.
DENSE_Q_DIM_PER_STEP = 8


class QFactors(NamedTuple):
    """Q = -(a u) as its two factors: ``a`` = I_gamma V I_tau, ``u`` = U.

    ``a`` is an array of its own; ``u`` is the config's ``u_matrix`` itself,
    not a copy. Neither is written to by this module.
    """

    a: np.ndarray
    u: np.ndarray

    def dense(self) -> np.ndarray:
        """The dense Q = -(a u), formed with one N^3 product and negated in place."""
        q = self.a @ self.u
        return np.negative(q, out=q)


class QOperator(NamedTuple):
    """Q = -(I_gamma U+ I_tau U) for U a :class:`HouseholderUnitary`: U and
    the one entry by which each rotation differs from the identity.

    Nothing N x N is made: a step applies U and U+ through the operator.
    """

    u: HouseholderUnitary
    gamma_entry: complex
    tau_entry: complex

    def step(self, prev: np.ndarray, out: np.ndarray) -> None:
        """``out`` = Q ``prev``: U prev, its tau entry scaled, U+ of that,
        its gamma entry scaled, negated."""
        x = self.u.apply(prev)
        x[-1] *= self.tau_entry
        y = self.u.apply_adjoint(x)
        y[0] *= self.gamma_entry
        np.negative(y, out=out)


def build_q(cfg: OracleConfig) -> QFactors | QOperator:
    """Q = -(I_gamma V I_tau U) as its factors I_gamma V I_tau and U, in O(N^2).

    Each rotation differs from the identity in one diagonal entry, so
    I_gamma touches only row gamma of V and I_tau only column tau of
    I_gamma V. No dense rotation is built. Row gamma is a 2-row block
    product (gamma = 0 and dim >= 2, so rows 0 and 1 of I_gamma) and column
    tau a matrix-vector product (column tau of I_tau); both operands are
    zero-padded from the 2 x 2 corners ``build(0, theta, 2)`` and
    ``build(1, phi, 2)``, which hold every entry of those rows and that
    column that is not 0. On the numpy/BLAS build the goldens were made
    with, these round like the same entries of the full products, and the
    1-row form and plain scaling do not
    (``test_build_q_rounds_like_the_three_product_form``). Apart from the
    2 x N block and the N-vector, the one work array is V's copy, which
    becomes I_gamma V I_tau. U is ``cfg.u_matrix``; no N^3 product is made
    here (:meth:`QFactors.dense` makes it, when :func:`evolve` asks).

    With U a :class:`HouseholderUnitary`, Q is a :class:`QOperator` and
    costs O(1): gamma = 0 and tau = dim - 1 are fixed, and each rotation is
    its one entry.
    """
    if isinstance(cfg.u_matrix, HouseholderUnitary):
        return QOperator(cfg.u_matrix, rotation_entry(cfg.theta), rotation_entry(cfg.phi))
    dim, g, t = cfg.dim, cfg.gamma_index, cfg.tau_index
    rows = np.zeros((2, dim), dtype=np.complex128)
    rows[:, :2] = build(0, cfg.theta, 2)
    column = np.zeros((dim, 1), dtype=np.complex128)
    column[t - 1:] = build(1, cfg.phi, 2)[:, 1:]
    u = cfg.u_matrix
    a = adjoint(u) if cfg.v_matrix is None else cfg.v_matrix.copy()
    a[g] = (rows @ a)[0]
    a[:, t] = (a @ column)[:, 0]
    return QFactors(a, u)


def invariant_basis(cfg: OracleConfig) -> list[np.ndarray]:
    """{|gamma>, U^-1|tau>} in 2D mode; {|gamma>, VU|gamma>, V|tau>, U^-1|tau>} in 4D mode."""
    g, t = cfg.gamma_index, cfg.tau_index
    u, v = cfg.u_matrix, cfg.v_matrix
    e_gamma = basis_state(cfg.dim, g)
    u_inv_tau = cfg.tau_row.conj()
    if v is None:
        return [e_gamma, u_inv_tau]
    return [e_gamma, v @ u[:, g], v[:, t].copy(), u_inv_tau]


def evolve(q: QFactors | QOperator, cfg: OracleConfig, k_max: int) -> OracleRun:
    """Apply Q repeatedly to |gamma>, then decompose every state over the invariant basis.

    With dim <= ``DENSE_Q_DIM_PER_STEP`` * k_max, the dense Q is formed once
    (:meth:`QFactors.dense`) and each state is ``Q @ prev``; the goldens are
    made on this side. Otherwise each state is ``-(a @ (u @ prev))``, two
    matrix-vector products and a negation, and no N x N array is made. The
    two sides' states differ by rounding only, by at most 6.6e-15 over the
    first 17 steps at N = 128..1024 (``test_factored_and_dense_states_agree``),
    and both stay within 4.2e-15 of the 2D recurrence at N = 900, k = 17.
    A :class:`QOperator` takes its own step, through U's operator, whatever
    the sizes. No side writes to ``q`` or ``cfg``.
    """
    k_max = _checked_index("k_max", k_max, 0)
    states = np.empty((k_max + 1, cfg.dim), dtype=np.complex128)
    states[0] = basis_state(cfg.dim, cfg.gamma_index)
    steps = zip(states, states[1:])
    if isinstance(q, QOperator):
        for prev, nxt in steps:
            q.step(prev, nxt)
    elif cfg.dim <= DENSE_Q_DIM_PER_STEP * k_max:
        dense = q.dense()
        for prev, nxt in steps:
            np.matmul(dense, prev, out=nxt)
    else:
        u_prev = np.empty(cfg.dim, dtype=np.complex128)
        for prev, nxt in steps:
            np.matmul(q.u, prev, out=u_prev)
            np.matmul(q.a, u_prev, out=nxt)
            np.negative(nxt, out=nxt)
    return OracleRun(states=states, decompositions=gram_decompose(states, invariant_basis(cfg)))


def target_amplitude(run: OracleRun, cfg: OracleConfig, k) -> complex | np.ndarray:
    """The tau-component of U Q^k |gamma>, i.e. a_k u + b_k.

    This is the measurable amplitude after mapping the subspace back with U.
    ``k`` is an int, which gives a complex, or an integer array, which gives
    the array of those amplitudes; any other dtype, bool included, is a
    ``TypeError``. Both read one product of the run's states with
    ``cfg.tau_row``, so an entry does not depend on which other steps were
    asked for.
    """
    ks = np.asarray(k)
    if ks.dtype.kind not in "iu":
        raise TypeError(f"k = {k!r} is not an integer or an integer array")
    if not ((0 <= ks) & (ks <= run.k_max)).all():
        raise IndexError(f"k = {k} outside the run's range 0..{run.k_max}")
    amplitudes = (run.states @ cfg.tau_row)[ks]
    return complex(amplitudes) if ks.ndim == 0 else amplitudes


def unitary_with_overlap(dim: int, seed, magnitude: float) -> HouseholderUnitary:
    """Seeded random unitary, as its reflectors, rotated so |<tau|U|gamma>| equals ``magnitude``.

    The reflectors are those of ``random_unitary(dim, seed)``
    (:meth:`HouseholderUnitary.draw`); no N x N matrix is formed. A plane
    rotation of column gamma = 0 with the column whose tau-row (tau =
    dim - 1) entry is largest, appended to the operator, steers the
    (tau, gamma) element to the requested modulus without disturbing
    unitarity. The tau row is read through the operator, so it matches
    ``random_unitary``'s up to rounding, and so does the partner column
    unless two entries tie within that rounding.
    ``np.asarray`` of the result is ``random_unitary(dim, seed)`` with the
    rotation applied to those two columns; every other column is
    ``random_unitary``'s bit for bit. This is how table-scale instances
    with |u| = 1/sqrt(N) are produced at dimensions that are not powers of
    two.
    """
    _check_bound("magnitude", magnitude, 0, 1)
    dim = _checked_index("dim", dim, 2)
    w = HouseholderUnitary.draw(dim, seed)
    tau_row = w.row(dim - 1)
    # Column gamma = 0 is excluded; np.argmax takes the first maximum.
    other = 1 + int(np.argmax(np.abs(tau_row[1:])))
    r1, r2 = complex(tau_row[0]), complex(tau_row[other])
    reach = math.hypot(abs(r1), abs(r2))
    # The reach may fall a few ulps short of a magnitude it attains: at dim 2 it
    # is the norm of the whole tau row, 1 up to rounding.
    if magnitude - reach > 4 * math.ulp(reach):
        raise ValueError(
            f"requested magnitude {magnitude} exceeds the reachable {reach:.6f} "
            f"for this seed; try another seed or a smaller magnitude"
        )
    t = math.atan2(abs(r2), abs(r1)) + math.acos(min(magnitude / reach, 1.0))
    psi = cmath.phase(r1) - cmath.phase(r2)
    return w.rotated(PlaneRotation(other, math.cos(t), cmath.exp(1j * psi) * math.sin(t),
                                   -cmath.exp(-1j * psi) * math.sin(t)))
