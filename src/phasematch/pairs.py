"""Pair-swap permutations and commuting unitary pairs.

The pair-swap matrix P exchanges basis states 2i and 2i+1. A unitary V with
V = PVP (equivalently: every aligned 2x2 block has the form [[a, b], [b, a]])
admits the companion U = V+ P, and the pair then satisfies VU = UV = P, which
is hermitian with an identically zero diagonal. Such pairs are the standard
way to feed the 4D engine a case where its subspace-preservation premise
holds by construction.

Also here: the lemma that a unitary W is hermitian exactly when W^2 = I,
exposed as a pair of independently computed flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import (
    STRUCTURAL_TOL,
    _as_square,
    adjoint,
    involution_dev,
    is_hermitian,
    is_unitary,
    random_unitary,
)


def pair_swap(dim: int) -> np.ndarray:
    """The block-diagonal of 2x2 swaps: entries (2i, 2i+1) and (2i+1, 2i) are 1."""
    if dim < 2 or dim % 2:
        raise ValueError(f"pair swap needs an even dimension >= 2, got {dim}")
    p = np.zeros((dim, dim), dtype=np.complex128)
    even = np.arange(0, dim, 2)
    p[even, even + 1] = 1.0
    p[even + 1, even] = 1.0
    return p


def is_block_symmetric(v, tol: float = STRUCTURAL_TOL) -> bool:
    """Whether every aligned 2x2 block of v has the form [[a, b], [b, a]]."""
    return block_symmetry_dev(v) <= tol


def block_symmetry_dev(v) -> float:
    """Largest entry of ``|V - PVP|``, read blockwise in O(N^2).

    The entries of V - PVP are exactly the differences between the two
    diagonal and the two off-diagonal entries of each aligned 2x2 block.
    """
    v = _as_square(v)
    n = v.shape[0]
    if n % 2:
        raise ValueError(f"block symmetry needs an even dimension, got {n}")
    blocks = v.reshape(n // 2, 2, n // 2, 2).transpose(0, 2, 1, 3)
    return float(max(
        np.max(np.abs(blocks[:, :, 0, 0] - blocks[:, :, 1, 1])),
        np.max(np.abs(blocks[:, :, 0, 1] - blocks[:, :, 1, 0])),
    ))


def pairing_basis(dim: int) -> np.ndarray:
    """Orthonormal eigenbasis of the pair swap, as columns.

    The first dim/2 columns are (e_{2i} + e_{2i+1})/sqrt(2) (eigenvalue +1),
    the rest (e_{2i} - e_{2i+1})/sqrt(2) (eigenvalue -1).
    """
    if dim < 2 or dim % 2:
        raise ValueError(f"pairing basis needs an even dimension >= 2, got {dim}")
    half = dim // 2
    s = np.zeros((dim, dim), dtype=np.complex128)
    r = 1 / math.sqrt(2)
    for i in range(half):
        s[2 * i, i] = r
        s[2 * i + 1, i] = r
        s[2 * i, half + i] = r
        s[2 * i + 1, half + i] = -r
    return s


def from_eigenblocks(a, b) -> np.ndarray:
    """Assemble the matrix acting as ``a`` on the +1 eigenspace of the pair
    swap and as ``b`` on the -1 eigenspace.

    Since P is an involution, V = PVP is the same as VP = PV, which holds
    exactly when V is block-diagonal in P's eigenbasis; this constructor
    therefore spans the whole admissible set.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("eigenblocks must be square matrices of equal size")
    half = a.shape[0]
    s = pairing_basis(2 * half)
    block = np.zeros((2 * half, 2 * half), dtype=np.complex128)
    block[:half, :half] = a
    block[half:, half:] = b
    return s @ block @ s.conj().T


def random_commuting_unitary(dim: int, seed) -> np.ndarray:
    """Seeded random unitary commuting with the pair swap (so V = PVP)."""
    if dim < 2 or dim % 2:
        raise ValueError(f"need an even dimension >= 2, got {dim}")
    rng = np.random.default_rng(seed)
    half = dim // 2
    return from_eigenblocks(random_unitary(half, rng), random_unitary(half, rng))


@dataclass(frozen=True, eq=False)
class CommutingUnitaryPair:
    """A block-symmetric unitary V with its companion U = V+ P.

    The product VU = UV equals the pair swap: unitary, hermitian, involutive,
    zero diagonal.
    """

    v: np.ndarray
    u: np.ndarray
    dim: int

    @property
    def product(self) -> np.ndarray:
        return self.v @ self.u


def companion(v, tol: float = STRUCTURAL_TOL) -> CommutingUnitaryPair:
    """Pair a block-symmetric unitary with U = adjoint(V) P."""
    v = np.asarray(v, dtype=np.complex128)
    if not is_unitary(v, tol):
        raise ValueError("companion construction requires a unitary matrix")
    if not is_block_symmetric(v, tol):
        raise ValueError(
            "companion construction requires V = PVP "
            "(2x2 blocks of the form [[a, b], [b, a]]); without it UV != P"
        )
    n = v.shape[0]
    u = adjoint(v) @ pair_swap(n)
    return CommutingUnitaryPair(v=v, u=u, dim=n)


class LemmaFlags(NamedTuple):
    hermitian: bool
    involution: bool


def hermitian_iff_involution(w, tol: float = STRUCTURAL_TOL) -> LemmaFlags:
    """Independently computed flags (W hermitian?, W^2 = I?).

    For unitary W the two are equivalent (W = W+ = W^-1 iff W^2 = I); the
    premise is enforced, the equivalence is left observable for testing.
    """
    w = np.asarray(w, dtype=np.complex128)
    if not is_unitary(w, tol):
        raise ValueError("the lemma's premise requires a unitary matrix")
    return LemmaFlags(hermitian=is_hermitian(w, tol), involution=involution_dev(w) <= tol)
