"""Brute-force full-space simulator, the ground truth for both engines.

Q = -(I_gamma V I_tau U) is built as an explicit N x N matrix (V defaults to
U^-1, the two-rotation algorithm), |gamma> is evolved step by step, and each
state is decomposed over the invariant basis by solving the Gram normal
equations. The decomposition residual doubles as the subspace-preservation
check: it stays at rounding level when the premise holds and blows up
visibly when it does not.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    STRUCTURAL_TOL,
    GramDecomposition,
    adjoint,
    basis_state,
    gram_decompose,
    is_unitary,
    random_unitary,
)
from .rotations import RotationFamily, SelectiveRotation, build


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
        object.__setattr__(self, "u_matrix", np.asarray(self.u_matrix, dtype=np.complex128))
        if self.v_matrix is not None:
            object.__setattr__(self, "v_matrix", np.asarray(self.v_matrix, dtype=np.complex128))
        if self.dim < 2:
            raise ValueError(f"dimension {self.dim} leaves no room for distinct gamma and tau")
        if self.u_matrix.shape != (self.dim, self.dim):
            raise ValueError(f"U has shape {self.u_matrix.shape}, expected ({self.dim}, {self.dim})")
        if not is_unitary(self.u_matrix, STRUCTURAL_TOL):
            raise ValueError("U must be unitary")
        if self.v_matrix is not None:
            if self.v_matrix.shape != (self.dim, self.dim):
                raise ValueError(f"V has shape {self.v_matrix.shape}, expected ({self.dim}, {self.dim})")
            if not is_unitary(self.v_matrix, STRUCTURAL_TOL):
                raise ValueError("V must be unitary")

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
    """States Q^k|gamma> for k = 0..k_max with their basis decompositions."""

    states: list[np.ndarray]
    decompositions: list[GramDecomposition]

    @property
    def k_max(self) -> int:
        return len(self.states) - 1


def build_q(cfg: OracleConfig) -> np.ndarray:
    """Assemble Q = -(I_gamma V I_tau U) as a dense matrix."""
    i_gamma = build(
        SelectiveRotation(cfg.gamma_index, cfg.theta, RotationFamily.UNITARY), cfg.dim
    )
    i_tau = build(
        SelectiveRotation(cfg.tau_index, cfg.phi, RotationFamily.UNITARY), cfg.dim
    )
    v = cfg.v_matrix if cfg.v_matrix is not None else adjoint(cfg.u_matrix)
    return -(i_gamma @ v @ i_tau @ cfg.u_matrix)


def invariant_basis(cfg: OracleConfig) -> list[np.ndarray]:
    """{|gamma>, U^-1|tau>} in 2D mode; {|gamma>, VU|gamma>, V|tau>, U^-1|tau>} in 4D mode."""
    e_gamma = basis_state(cfg.dim, cfg.gamma_index)
    e_tau = basis_state(cfg.dim, cfg.tau_index)
    u_inv_tau = adjoint(cfg.u_matrix) @ e_tau
    if cfg.v_matrix is None:
        return [e_gamma, u_inv_tau]
    return [
        e_gamma,
        cfg.v_matrix @ (cfg.u_matrix @ e_gamma),
        cfg.v_matrix @ e_tau,
        u_inv_tau,
    ]


def evolve(q: np.ndarray, cfg: OracleConfig, k_max: int) -> OracleRun:
    """Apply Q repeatedly to |gamma>, then decompose every state over the invariant basis."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    state = basis_state(cfg.dim, cfg.gamma_index)
    states = [state]
    for _ in range(k_max):
        state = q @ state
        states.append(state)
    return OracleRun(states=states, decompositions=gram_decompose(states, invariant_basis(cfg)))


def target_amplitude(run: OracleRun, cfg: OracleConfig, k: int) -> complex:
    """The tau-component of U Q^k |gamma>, i.e. a_k u + b_k.

    This is the measurable amplitude after mapping the subspace back with U.
    """
    if not 0 <= k <= run.k_max:
        raise IndexError(f"k = {k} outside the run's range 0..{run.k_max}")
    return complex((cfg.u_matrix @ run.states[k])[cfg.tau_index])


def walsh_hadamard(n_qubits: int) -> np.ndarray:
    """The 2^n-dimensional transform with entries (-1)^popcount(i & j) / sqrt(N).

    Built directly from the sign pattern rather than by kron powers, so the
    entries are exactly +-1/sqrt(N).
    """
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    dim = 1 << n_qubits
    idx = np.arange(dim)
    parity = np.bitwise_count(idx[:, None] & idx[None, :]) & 1
    signs = 1.0 - 2.0 * parity.astype(np.float64)
    return (signs / math.sqrt(dim)).astype(np.complex128)


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
