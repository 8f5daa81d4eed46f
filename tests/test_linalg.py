"""Tests for the dense linear algebra helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasematch.linalg import (
    DegenerateBasisError,
    adjoint,
    basis_state,
    gram_decompose,
    is_hermitian,
    is_unitary,
    random_unitary,
)


def test_basis_state():
    e2 = basis_state(5, 2)
    assert e2.shape == (5,)
    assert e2.dtype == np.complex128
    assert e2[2] == 1.0
    assert np.count_nonzero(e2) == 1


def test_basis_state_rejects_bad_index():
    with pytest.raises(ValueError):
        basis_state(3, 3)
    with pytest.raises(ValueError):
        basis_state(3, -1)


def test_adjoint_is_conjugate_transpose():
    w = np.array([[1 + 2j, 3], [4j, 5 - 1j]])
    np.testing.assert_array_equal(adjoint(w), w.conj().T)
    np.testing.assert_array_equal(adjoint(adjoint(w)), w)


def test_seeded_random_unitary_is_unitary():
    # the (N=8, seed=1) instance is pinned by contract
    assert is_unitary(random_unitary(8, 1), tol=1e-10)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40, deadline=None)
def test_random_unitary_property(dim, seed):
    w = random_unitary(dim, seed)
    assert w.shape == (dim, dim)
    assert is_unitary(w, tol=1e-10)


def test_random_unitary_is_deterministic():
    np.testing.assert_array_equal(random_unitary(6, 42), random_unitary(6, 42))
    assert np.max(np.abs(random_unitary(6, 42) - random_unitary(6, 43))) > 1e-3


def test_random_unitary_accepts_generator():
    """A shared Generator yields a stream of distinct matrices."""
    rng = np.random.default_rng(7)
    w1 = random_unitary(4, rng)
    w2 = random_unitary(4, rng)
    assert np.max(np.abs(w1 - w2)) > 1e-3
    assert is_unitary(w1) and is_unitary(w2)


def test_is_unitary_rejects_scaled_identity():
    assert not is_unitary(2 * np.eye(3))
    assert is_unitary(np.eye(3))


def test_is_hermitian():
    h = np.array([[1.0, 2 - 1j], [2 + 1j, -3.0]])
    assert is_hermitian(h)
    assert not is_hermitian(1j * h)


def test_gram_decompose_orthonormal_basis():
    state = np.array([0.6, 0.8j, 0.0])
    basis = [basis_state(3, 0), basis_state(3, 1)]
    dec = gram_decompose(state, basis)
    np.testing.assert_allclose(dec.coefficients, [0.6, 0.8j], atol=1e-14)
    assert dec.residual < 1e-14


def test_gram_decompose_non_orthogonal_basis():
    # expand over {e0, (e0+e1)/sqrt(2)}: exact coefficients are known
    v0 = basis_state(2, 0)
    v1 = (basis_state(2, 0) + basis_state(2, 1)) / np.sqrt(2)
    state = 2 * v0 + 3 * v1
    dec = gram_decompose(state, [v0, v1])
    np.testing.assert_allclose(dec.coefficients, [2.0, 3.0], atol=1e-12)
    assert dec.residual < 1e-12


def test_gram_decompose_reports_out_of_span_residual():
    basis = [basis_state(3, 0)]
    dec = gram_decompose(basis_state(3, 2), basis)
    assert dec.residual == pytest.approx(1.0, abs=1e-12)


def test_gram_decompose_degenerate_basis_raises():
    v = basis_state(4, 1)
    with pytest.raises(DegenerateBasisError):
        gram_decompose(basis_state(4, 0), [v, v + 1e-9 * basis_state(4, 2)])
