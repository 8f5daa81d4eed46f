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
    hermitian_dev,
    involution_dev,
    random_unitary,
    require_unitary,
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


def is_block_symmetric(v) -> bool:
    """Whether every aligned 2x2 block of v has the form [[a, b], [b, a]], to ``STRUCTURAL_TOL``."""
    return block_symmetry_dev(v) <= STRUCTURAL_TOL


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


def zero_diagonal_dev(w) -> float:
    """Largest ``|W_ii|``: how far W is from an identically zero diagonal."""
    return float(np.max(np.abs(np.diagonal(w))))


def random_commuting_unitary(dim: int, seed) -> np.ndarray:
    """Seeded random unitary commuting with the pair swap (so V = PVP).

    V = S diag(A, B) S+ for seeded random unitaries A, B of size dim/2, where
    S holds P's eigenbasis as columns: (e_{2i} + e_{2i+1})/sqrt(2) for
    eigenvalue +1, then (e_{2i} - e_{2i+1})/sqrt(2) for -1. Since P is an
    involution, V = PVP is the same as VP = PV, which holds exactly when V is
    block-diagonal in P's eigenbasis; so this spans the whole admissible set.
    """
    if dim < 2 or dim % 2:
        raise ValueError(f"need an even dimension >= 2, got {dim}")
    rng = np.random.default_rng(seed)
    half = dim // 2
    i = np.arange(half)
    r = 1 / math.sqrt(2)
    s = np.zeros((dim, dim), dtype=np.complex128)
    s[2 * i, i] = s[2 * i + 1, i] = s[2 * i, half + i] = r
    s[2 * i + 1, half + i] = -r
    block = np.zeros((dim, dim), dtype=np.complex128)
    block[:half, :half] = random_unitary(half, rng)
    block[half:, half:] = random_unitary(half, rng)
    return s @ block @ s.conj().T


@dataclass(frozen=True, eq=False)
class CommutingUnitaryPair:
    """A block-symmetric unitary V with its companion U = V+ P.

    The product VU = UV equals the pair swap: unitary, hermitian, involutive,
    zero diagonal. ``product`` is VU, computed once by :func:`companion`.
    """

    v: np.ndarray
    u: np.ndarray
    product: np.ndarray


def companion(v) -> CommutingUnitaryPair:
    """Pair a block-symmetric unitary with U = adjoint(V) P."""
    v = require_unitary(v, "V", "the companion construction")
    if not is_block_symmetric(v):
        raise ValueError(
            "companion construction requires V = PVP "
            "(2x2 blocks of the form [[a, b], [b, a]]); without it UV != P: "
            f"max|V - PVP| = {block_symmetry_dev(v):.3g} "
            f"exceeds the tolerance {STRUCTURAL_TOL:g}"
        )
    # Right-multiplying by P swaps columns 2i and 2i+1.
    u = adjoint(v)[:, np.arange(v.shape[0]) ^ 1]
    return CommutingUnitaryPair(v=v, u=u, product=v @ u)


class LemmaFlags(NamedTuple):
    hermitian: bool
    involution: bool


def hermitian_iff_involution(w) -> LemmaFlags:
    """Independently computed flags (W hermitian?, W^2 = I?), each to ``STRUCTURAL_TOL``.

    For unitary W the two are equivalent (W = W+ = W^-1 iff W^2 = I); the
    premise is enforced, the equivalence is left observable for testing.
    """
    w = require_unitary(w, "W", "the hermitian-iff-involution lemma")
    return LemmaFlags(hermitian=hermitian_dev(w) <= STRUCTURAL_TOL,
                      involution=involution_dev(w) <= STRUCTURAL_TOL)
