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
    hermitian_dev,
    is_unitary,
    random_unitary,
    row_norms,
)
from test_goldens import _build


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
    assert is_unitary(random_unitary(8, 1))


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40, deadline=None)
def test_random_unitary_property(dim, seed):
    w = random_unitary(dim, seed)
    assert w.shape == (dim, dim)
    assert is_unitary(w)


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


def test_hermitian_dev():
    h = np.array([[1.0, 2 - 1j], [2 + 1j, -3.0]])
    assert hermitian_dev(h) == 0
    # 1j*h - (1j*h)+ = 2j*h, whose largest entry is |2j * 3|
    assert hermitian_dev(1j * h) == pytest.approx(6.0, abs=1e-15)
    with pytest.raises(ValueError):
        hermitian_dev(np.ones(3))


def test_gram_decompose_orthonormal_basis():
    state = np.array([0.6, 0.8j, 0.0])
    basis = [basis_state(3, 0), basis_state(3, 1)]
    dec = gram_decompose([state], basis)[0]
    np.testing.assert_allclose(dec.coefficients, [0.6, 0.8j], atol=1e-14)
    assert dec.residual < 1e-14


def test_gram_decompose_non_orthogonal_basis():
    # expand over {e0, (e0+e1)/sqrt(2)}: exact coefficients are known
    v0 = basis_state(2, 0)
    v1 = (basis_state(2, 0) + basis_state(2, 1)) / np.sqrt(2)
    state = 2 * v0 + 3 * v1
    dec = gram_decompose([state], [v0, v1])[0]
    np.testing.assert_allclose(dec.coefficients, [2.0, 3.0], atol=1e-12)
    assert dec.residual < 1e-12


def test_gram_decompose_reports_out_of_span_residual():
    basis = [basis_state(3, 0)]
    dec = gram_decompose([basis_state(3, 2)], basis)[0]
    assert dec.residual == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("scale", [1e-5, 1e5])
def test_gram_decompose_is_scale_free(scale):
    # |det G| = scale**4 is 1e-20 at 1e-5, while cond(G) = 1 at every scale
    basis = [scale * basis_state(3, 0), scale * basis_state(3, 1)]
    dec = gram_decompose([basis[0]], basis)[0]
    np.testing.assert_array_equal(dec.coefficients, [1.0, 0.0])
    assert dec.residual == 0.0


def test_gram_decompose_non_finite_basis_raises():
    basis = [np.array([np.nan, 0.0]), basis_state(2, 1)]
    with pytest.raises(DegenerateBasisError, match=r"cond\(Gram\) = nan"):
        gram_decompose([basis_state(2, 0)], basis)


def test_gram_decompose_degenerate_basis_raises():
    v = basis_state(4, 1)
    basis = [v, v + 1e-9 * basis_state(4, 2)]
    with pytest.raises(DegenerateBasisError, match=r"cond\(Gram\) = inf"):
        gram_decompose([basis_state(4, 0)], basis)

    def unread_states():
        raise AssertionError("a state was read before the basis was checked")
        yield

    with pytest.raises(DegenerateBasisError):
        gram_decompose(unread_states(), basis)


def _complex_rows(rng, n, dim):
    return rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))


@pytest.mark.parametrize("dim", [2, 4, 16, 64, 900])
def test_stacked_row_products_match_per_row_kernels(dim):
    """The premise that lets the oracle batch its runs without a golden change.

    On the build the goldens were made with, a stack of 1 x N @ N x 1
    products rounds like the 1-D dot of each pair, and the stacked real and
    imaginary row dots round like ``np.linalg.norm`` of each row.
    """
    rng = np.random.default_rng(dim)
    a, b = _complex_rows(rng, 51, dim), _complex_rows(rng, 51, dim)
    stacked = (a[:, None, :] @ b[:, :, None])[:, 0, 0]
    dots = np.array([x @ y for x, y in zip(a, b)])
    norms = np.array([np.linalg.norm(x) for x in a])
    build = f"running {_build()}"
    assert np.array_equal(stacked, dots), f"stacked matmul differs from the 1-D dot; {build}"
    assert np.array_equal(row_norms(a), norms), f"row_norms differs from np.linalg.norm; {build}"


def _per_state_decomposition(state, basis):
    """The normal equations of one state, with a Gram matrix of its own.

    This is the per-state loop that the batched ``gram_decompose`` replaced.
    """
    gram = np.array([[vi.conj() @ vj for vj in basis] for vi in basis])
    coeffs = np.linalg.solve(gram, np.array([vi.conj() @ state for vi in basis]))
    synth = np.zeros_like(state)
    for c, v in zip(coeffs, basis):
        synth += c * v
    return coeffs, float(np.linalg.norm(state - synth))


@pytest.mark.parametrize("n_states", [1, 51])
@pytest.mark.parametrize("n_basis", [2, 4])
@pytest.mark.parametrize("dim", [4, 9, 16, 64])
def test_gram_decompose_equals_per_state_loop(dim, n_basis, n_states):
    rng = np.random.default_rng(100 * dim + 10 * n_basis + n_states)
    basis = list(_complex_rows(rng, n_basis, dim))
    states = _complex_rows(rng, n_states, dim)
    # Half the states lie in the basis span, so both residual regimes are covered.
    states[::2] = rng.standard_normal((len(states[::2]), n_basis)) @ np.array(basis)
    for given_states in (states, list(states)):
        decs = gram_decompose(given_states, basis)
        assert len(decs) == n_states
        assert decs.coefficients.dtype == np.complex128
        assert decs.coefficients.shape == (n_states, n_basis)
        assert decs.residual.dtype == np.float64
        assert decs.residual.shape == (n_states,)
        for dec, state in zip(decs, states):
            coeffs, residual = _per_state_decomposition(state, basis)
            assert np.array_equal(dec.coefficients, coeffs)
            assert dec.residual == residual


def test_gram_decompose_rejects_misshaped_states():
    basis = [basis_state(4, 0), basis_state(4, 1)]
    for states in ([basis_state(5, 0)], [np.eye(4)], np.ones((2, 3)), np.ones(4),
                   [basis_state(4, 0), basis_state(3, 0)]):
        with pytest.raises(ValueError):
            gram_decompose(states, basis)


def test_gram_decompose_of_no_states_is_empty():
    basis = [basis_state(4, 0), basis_state(4, 1)]
    for states in ([], iter(()), np.empty((0, 4), dtype=np.complex128)):
        decs = gram_decompose(states, basis)
        assert len(decs) == 0
        assert decs.coefficients.shape == (0, 2)
        assert decs.residual.shape == (0,)
