"""Brute-force full-space simulator, the ground truth for both engines.

Q = -(I_gamma V I_tau U) is built as an explicit N x N matrix (V defaults to
U^-1, the two-rotation algorithm) with one dense product: each rotation
touches one row or one column of V, and only (I_gamma V I_tau) U costs N^3.
|gamma> is evolved step by step into one (k_max + 1) x N array of states.
All of a run's states are decomposed over the invariant basis by one stacked
solve of the Gram normal equations, into one record array. Its residuals
double as the subspace-preservation check: they stay at rounding level when
the premise holds and blow up visibly when it does not.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    adjoint,
    basis_state,
    gram_decompose,
    random_unitary,
    require_unitary,
)
from .rotations import _finite_angles, build


@dataclass(frozen=True, eq=False)
class OracleConfig:
    """One simulation instance.

    The start state |gamma> is the first basis state and the target |tau>
    the last one. ``v_matrix=None`` selects the 2D algorithm
    (V = adjoint(U) implicitly); passing a V selects the 4D one.
    """

    dim: int
    theta: float
    phi: float
    u_matrix: np.ndarray
    v_matrix: np.ndarray | None = None

    def __post_init__(self):
        _finite_angles(theta=self.theta, phi=self.phi)
        if self.dim < 2:
            raise ValueError(f"dimension {self.dim} leaves no room for distinct gamma and tau")
        matrices = (("U", "u_matrix"), ("V", "v_matrix"))
        for name, field in matrices if self.v_matrix is not None else matrices[:1]:
            m = np.asarray(getattr(self, field), dtype=np.complex128)
            if m.shape != (self.dim, self.dim):
                raise ValueError(f"{name} has shape {m.shape}, expected ({self.dim}, {self.dim})")
            object.__setattr__(self, field, require_unitary(m, name, "the oracle"))

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
        return complex(self.u_matrix[self.tau_index, self.gamma_index])


@dataclass(frozen=True, eq=False)
class OracleRun:
    """States Q^k|gamma> for k = 0..k_max with their basis decompositions.

    ``states`` is one (k_max + 1, N) array whose row k is Q^k|gamma>;
    ``decompositions`` is the :func:`gram_decompose` record array of their
    expansions over the invariant basis, from one stacked Gram solve.
    """

    states: np.ndarray
    decompositions: np.recarray

    @property
    def k_max(self) -> int:
        return len(self.states) - 1


def build_q(cfg: OracleConfig) -> np.ndarray:
    """Assemble Q = -(I_gamma V I_tau U) as a dense matrix with one dense product.

    Each rotation differs from the identity in one diagonal entry, so
    I_gamma touches only row gamma of V and I_tau only column tau of
    I_gamma V; the one N^3 product is (I_gamma V I_tau) U. The row is a
    2-row block product (gamma = 0 and dim >= 2, so rows 0 and 1) and the
    column a matrix-vector product: on the numpy/BLAS build the goldens were
    made with, those round like the same entries of the full products, and
    the 1-row form and plain scaling do not
    (``test_build_q_rounds_like_the_three_product_form``).
    """
    g, t = cfg.gamma_index, cfg.tau_index
    i_gamma = build(g, cfg.theta, cfg.dim)
    i_tau = build(t, cfg.phi, cfg.dim)
    u = cfg.u_matrix
    a = adjoint(u) if cfg.v_matrix is None else cfg.v_matrix.copy()
    a[g] = (i_gamma[g:g + 2] @ a)[0]
    a[:, t] = (a @ i_tau[:, t:t + 1])[:, 0]
    q = a @ u
    return np.negative(q, out=q)


def invariant_basis(cfg: OracleConfig) -> list[np.ndarray]:
    """{|gamma>, U^-1|tau>} in 2D mode; {|gamma>, VU|gamma>, V|tau>, U^-1|tau>} in 4D mode."""
    g, t = cfg.gamma_index, cfg.tau_index
    u, v = cfg.u_matrix, cfg.v_matrix
    e_gamma = basis_state(cfg.dim, g)
    u_inv_tau = u[t].conj()
    if v is None:
        return [e_gamma, u_inv_tau]
    return [e_gamma, v @ u[:, g], v[:, t].copy(), u_inv_tau]


def evolve(q: np.ndarray, cfg: OracleConfig, k_max: int) -> OracleRun:
    """Apply Q repeatedly to |gamma>, then decompose every state over the invariant basis."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    states = np.empty((k_max + 1, cfg.dim), dtype=np.complex128)
    states[0] = basis_state(cfg.dim, cfg.gamma_index)
    for prev, nxt in zip(states, states[1:]):
        np.matmul(q, prev, out=nxt)
    return OracleRun(states=states, decompositions=gram_decompose(states, invariant_basis(cfg)))


def target_amplitude(run: OracleRun, cfg: OracleConfig, k) -> complex | np.ndarray:
    """The tau-component of U Q^k |gamma>, i.e. a_k u + b_k.

    This is the measurable amplitude after mapping the subspace back with U.
    ``k`` is an int, which gives a complex, or an index array, which gives
    the array of those amplitudes. Both read one product of the run's
    states with the tau row of U, so an entry does not depend on which
    other steps were asked for.
    """
    ks = np.asarray(k)
    if not ((0 <= ks) & (ks <= run.k_max)).all():
        raise IndexError(f"k = {k} outside the run's range 0..{run.k_max}")
    amplitudes = (run.states @ cfg.u_matrix[cfg.tau_index])[ks]
    return complex(amplitudes) if ks.ndim == 0 else amplitudes


def unitary_with_overlap(dim: int, seed, magnitude: float) -> np.ndarray:
    """Seeded random unitary postprocessed so |<tau|U|gamma>| equals ``magnitude``.

    A two-plane rotation mixes column gamma = 0 with the column whose
    tau-row (tau = dim - 1) entry is largest, steering the (tau, gamma)
    element to the requested modulus without disturbing unitarity. All other
    columns are those of ``random_unitary(dim, seed)``. This is how
    table-scale instances with |u| = 1/sqrt(N) are produced at dimensions
    that are not powers of two.
    """
    if not 0 <= magnitude <= 1:
        raise ValueError(f"magnitude {magnitude} outside [0, 1]")
    if dim < 2:
        raise ValueError(f"dimension {dim} leaves no room for distinct gamma and tau")
    w = random_unitary(dim, seed)
    tau_row = w[dim - 1]
    # Column gamma = 0 is excluded; np.argmax takes the first maximum.
    other = 1 + int(np.argmax(np.abs(tau_row[1:])))
    r1, r2 = complex(tau_row[0]), complex(tau_row[other])
    reach = math.hypot(abs(r1), abs(r2))
    if magnitude > reach:
        raise ValueError(
            f"requested magnitude {magnitude} exceeds the reachable {reach:.6f} "
            f"for this seed; try another seed or a smaller magnitude"
        )
    t = math.atan2(abs(r2), abs(r1)) + math.acos(magnitude / reach)
    psi = cmath.phase(r1) - cmath.phase(r2)
    col_gamma, col_other = w[:, 0].copy(), w[:, other].copy()
    w[:, 0] = math.cos(t) * col_gamma + cmath.exp(1j * psi) * math.sin(t) * col_other
    w[:, other] = -cmath.exp(-1j * psi) * math.sin(t) * col_gamma + math.cos(t) * col_other
    return w
