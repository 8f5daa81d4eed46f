"""Tests for the pair-swap machinery and the commuting-pair construction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasematch.linalg import adjoint, hermitian_dev, is_unitary, random_unitary
from phasematch.pairs import (
    block_symmetry_dev,
    companion,
    hermitian_iff_involution,
    is_block_symmetric,
    pair_swap,
    random_commuting_unitary,
    zero_diagonal_dev,
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
        assert hermitian_dev(p) == 0
        np.testing.assert_array_equal(p @ p, np.eye(dim))
        assert np.all(np.diagonal(p) == 0)
        assert zero_diagonal_dev(p) == 0
    assert zero_diagonal_dev(np.diag([0.5, -2j])) == 2


def test_pair_swap_rejects_odd_dimension():
    with pytest.raises(ValueError):
        pair_swap(5)
    with pytest.raises(ValueError):
        pair_swap(0)


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
    for dim in (2, 4, 8, 16):
        for seed in range(5):
            v = random_commuting_unitary(dim, seed)
            assert is_unitary(v)
            assert block_symmetry_dev(v) <= 1e-12
            np.testing.assert_array_equal(v, random_commuting_unitary(dim, seed))


def test_commuting_unitary_is_block_diagonal_in_the_pair_swap_eigenbasis():
    """The construction, written as a loop over the eigenbasis columns and
    two products. The blocks written out round differently from the
    products; they differed by at most 2.3e-16 at dim 2..256."""
    r = 1 / math.sqrt(2)
    for dim in (2, 8, 16):
        half = dim // 2
        s = np.zeros((dim, dim), dtype=np.complex128)
        for i in range(half):
            s[2 * i, i] = s[2 * i + 1, i] = s[2 * i, half + i] = r
            s[2 * i + 1, half + i] = -r
        eigenvalues = np.diag([1.0] * half + [-1.0] * half)
        np.testing.assert_allclose(s.conj().T @ pair_swap(dim) @ s, eigenvalues, atol=1e-15)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            block = np.zeros((dim, dim), dtype=np.complex128)
            block[:half, :half] = random_unitary(half, rng)
            block[half:, half:] = random_unitary(half, rng)
            np.testing.assert_allclose(
                random_commuting_unitary(dim, seed), s @ block @ s.conj().T, rtol=0, atol=1e-15)


def test_commuting_unitary_rejects_odd_dimension():
    for dim in (0, 1, 3, 5):
        with pytest.raises(ValueError, match="even dimension"):
            random_commuting_unitary(dim, 0)


@pytest.mark.parametrize("call", [
    pair_swap,
    lambda dim: block_symmetry_dev(np.eye(dim)),
    lambda dim: random_commuting_unitary(dim, 0),
], ids=["pair_swap", "block_symmetry_dev", "random_commuting_unitary"])
def test_even_dimension_check_names_the_value(call):
    for dim in (0, 1, 3):
        with pytest.raises(ValueError, match=rf"dim = {dim} is not an even dimension >= 2"):
            call(dim)
    call(2)


def test_companion_product_is_pair_swap():
    for dim, seed in ((2, 0), (4, 7), (8, 1), (16, 5)):
        pair = companion(random_commuting_unitary(dim, seed))
        p = pair_swap(dim)
        np.testing.assert_allclose(pair.product, p, atol=1e-12)
        np.testing.assert_allclose(pair.u @ pair.v, p, atol=1e-12)
        assert is_unitary(pair.u)
        # the product is hermitian, involutive, and has zero diagonal
        vu = pair.product
        assert hermitian_dev(vu) <= 1e-12
        np.testing.assert_allclose(vu @ vu, np.eye(dim), atol=1e-12)
        assert np.max(np.abs(np.diagonal(vu))) < 1e-12


def test_companion_product_is_computed_once():
    """``product`` is V @ U bit for bit, and the same array on every read."""
    for dim, seed in ((2, 3), (8, 1), (64, 9)):
        pair = companion(random_commuting_unitary(dim, seed))
        np.testing.assert_array_equal(pair.product, pair.v @ pair.u)
        assert pair.product is pair.product


@pytest.mark.parametrize("dim", [2, 4, 8, 16, 128, 256])
def test_companion_permutes_columns_like_the_pair_swap_product(dim):
    """U is adjoint(V) @ pair_swap(N) bit for bit at the verify, construct and bench dims."""
    for seed in range(3):
        v = random_commuting_unitary(dim, seed)
        np.testing.assert_array_equal(companion(v).u, adjoint(v) @ pair_swap(dim))


def test_companion_rejects_plain_unitary():
    w = random_unitary(4, 2)
    with pytest.raises(ValueError, match=rf"V = PVP.* {block_symmetry_dev(w):.3g} .* 1e-10"):
        companion(w)


def test_companion_rejects_non_unitary():
    with pytest.raises(ValueError, match=r"unitary.* 4 exceeds the tolerance 1e-10"):
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
    with pytest.raises(ValueError, match=r"unitary.* 3 exceeds the tolerance 1e-10"):
        hermitian_iff_involution(np.diag([1.0, 2.0]))
