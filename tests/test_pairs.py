"""Tests for the pair-swap machinery and the commuting-pair construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasematch.linalg import is_hermitian, is_unitary, random_unitary
from phasematch.pairs import (
    block_symmetry_dev,
    companion,
    from_eigenblocks,
    hermitian_iff_involution,
    is_block_symmetric,
    pair_swap,
    pairing_basis,
    random_commuting_unitary,
)


def test_pair_swap_entries():
    p = pair_swap(4)
    expected = np.array(
        [
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ],
        dtype=np.complex128,
    )
    np.testing.assert_array_equal(p, expected)


def test_pair_swap_structure():
    for dim in (2, 6, 10):
        p = pair_swap(dim)
        assert is_unitary(p)
        assert is_hermitian(p)
        np.testing.assert_array_equal(p @ p, np.eye(dim))
        assert np.all(np.diagonal(p) == 0)


def test_pair_swap_rejects_odd_dimension():
    with pytest.raises(ValueError):
        pair_swap(5)
    with pytest.raises(ValueError):
        pair_swap(0)


def test_pairing_basis_diagonalizes_p():
    for dim in (2, 4, 8):
        s = pairing_basis(dim)
        assert is_unitary(s)
        d = s.conj().T @ pair_swap(dim) @ s
        half = dim // 2
        expected = np.diag([1.0] * half + [-1.0] * half)
        np.testing.assert_allclose(d, expected, atol=1e-14)


def test_from_eigenblocks_is_block_symmetric():
    rng = np.random.default_rng(3)
    a = random_unitary(3, rng)
    b = random_unitary(3, rng)
    v = from_eigenblocks(a, b)
    assert is_unitary(v)
    assert is_block_symmetric(v)


def test_from_eigenblocks_rejects_mismatched_blocks():
    with pytest.raises(ValueError):
        from_eigenblocks(np.eye(2), np.eye(3))


def test_is_block_symmetric_detects_violations():
    v = random_commuting_unitary(6, 9)
    assert is_block_symmetric(v)
    broken = v.copy()
    broken[0, 1] += 0.05
    assert not is_block_symmetric(broken)
    # a generic unitary essentially never commutes with P
    assert not is_block_symmetric(random_unitary(6, 9))
    for bad in (np.array(1.0), np.ones(4), np.ones((2, 4)), np.eye(3)):
        with pytest.raises(ValueError):
            is_block_symmetric(bad)


def test_is_block_symmetric_equals_commutation_with_p():
    p = pair_swap(8)
    for seed in range(5):
        v = random_commuting_unitary(8, seed)
        assert np.max(np.abs(v @ p - p @ v)) < 1e-12
        # the blockwise test reads exactly the entries of V - PVP
        for w in (v, v + 1e-11 * random_unitary(8, seed), random_unitary(8, seed)):
            reference = float(np.max(np.abs(w - p @ w @ p)))
            assert block_symmetry_dev(w) == reference
            assert is_block_symmetric(w) == (reference <= 1e-10)


def test_seeded_commuting_unitary():
    v = random_commuting_unitary(4, 7)
    assert is_block_symmetric(v)
    assert is_unitary(v, tol=1e-10)
    np.testing.assert_array_equal(v, random_commuting_unitary(4, 7))


def test_companion_product_is_pair_swap():
    for dim, seed in ((2, 0), (4, 7), (8, 1), (16, 5)):
        pair = companion(random_commuting_unitary(dim, seed))
        p = pair_swap(dim)
        np.testing.assert_allclose(pair.product, p, atol=1e-12)
        np.testing.assert_allclose(pair.u @ pair.v, p, atol=1e-12)
        assert is_unitary(pair.u)
        # the product is hermitian, involutive, and has zero diagonal
        vu = pair.product
        assert is_hermitian(vu, tol=1e-12)
        np.testing.assert_allclose(vu @ vu, np.eye(dim), atol=1e-12)
        assert np.max(np.abs(np.diagonal(vu))) < 1e-12


def test_companion_rejects_plain_unitary():
    with pytest.raises(ValueError):
        companion(random_unitary(4, 2))


def test_companion_rejects_non_unitary():
    with pytest.raises(ValueError):
        companion(np.ones((4, 4)))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_lemma_flags_agree_for_unitaries(seed):
    """For a unitary, hermitian and involutive are the same property."""
    w = random_unitary(6, seed)
    flags = hermitian_iff_involution(w)
    assert flags.hermitian == flags.involution


def test_lemma_flags_positive_cases():
    # reflections are hermitian unitaries, hence involutions
    rng = np.random.default_rng(0)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    v /= np.linalg.norm(v)
    reflection = np.eye(5) - 2 * np.outer(v, v.conj())
    flags = hermitian_iff_involution(reflection)
    assert flags.hermitian and flags.involution
    flags = hermitian_iff_involution(pair_swap(6))
    assert flags.hermitian and flags.involution


def test_lemma_rejects_non_unitary():
    with pytest.raises(ValueError):
        hermitian_iff_involution(np.diag([1.0, 2.0]))
