"""Tests for the dense linear algebra helpers."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasematch.linalg import (
    DegenerateBasisError,
    HouseholderUnitary,
    PlaneRotation,
    adjoint,
    basis_state,
    gram_decompose,
    hermitian_dev,
    involution_dev,
    is_unitary,
    random_unitary,
    unitary_dev,
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


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("order", ["C", "F", "strided"])
def test_adjoint_is_a_c_contiguous_copy_of_the_conjugate_transpose(order):
    """``build_q``'s BLAS path, and so its bits, depend on a C-ordered adjoint."""
    rng = np.random.default_rng(3)
    w = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    w[2, 3] = complex(-0.0, -0.0)
    w = {"C": w, "F": np.asfortranarray(w), "strided": w[::-1, ::2][:4]}[order]
    a = adjoint(w)
    assert a.flags.c_contiguous
    assert _same_bits(a, w.conj().T.copy())
    assert not np.shares_memory(a, w)


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


def _literal_random_unitary(dim, rng):
    """``random_unitary`` written out: from the same normals, each reflector
    H_k = I - tau_k v_k v_k+ by ``zlarfg``'s formulas, applied one by one to
    form Q = H_0 H_1 ... H_{N-1}, then the columns times sign(beta_k).

    H_k differs from I only in its trailing block, rows and columns k on,
    and H_{k+1} ... H_{N-1} is I outside rows and columns k + 1 on, so H_k
    multiplies that product as the rank-one update of its trailing block.
    """
    g = rng.standard_normal(dim * (dim + 1))
    z = g[0::2] + 1j * g[1::2]
    reflectors, signs, start = [], [], 0
    for k in range(dim):
        column = z[start:start + dim - k]
        start += dim - k
        alpha = column[0]
        beta = -math.copysign(math.sqrt(np.sum(np.abs(column) ** 2)), alpha.real)
        reflectors.append((k, (beta - alpha) / beta, np.concatenate(([1.0], column[1:] / (alpha - beta)))))
        signs.append(math.copysign(1.0, beta))
    q = np.eye(dim, dtype=np.complex128)
    for k, tau, v in reversed(reflectors):
        q[k:, k:] -= np.outer(tau * v, v.conj() @ q[k:, k:])
    return q * np.array(signs)


#: Slack c of the reflector-product comparison, in units of N eps. Over 300
#: seeds at N <= 16 and 5 to 60 at N = 31 to 256, the largest deviation was
#: 2.24 N eps, at N = 1, and 0.02 N eps from N = 100 on.
_REFLECTOR_PRODUCT_SLACK = 4


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 31, 32, 33, 64, 100, 127, 128, 129, 255, 256, 900])
def test_random_unitary_equals_the_literal_reflector_product(dim):
    """LAPACK's Q from the drawn reflectors agrees with their product taken
    one reflector at a time within c N eps. A passed Generator is left at the
    same point of its stream as the reference's, which drew the same normals,
    and an int seed gives the bits of its Generator. The dims straddle
    LAPACK's block sizes, where the blocked and unblocked ``zungqr`` meet."""
    rng, ref_rng = np.random.default_rng(dim), np.random.default_rng(dim)
    w = random_unitary(dim, rng)
    dev = np.max(np.abs(w - _literal_random_unitary(dim, ref_rng)))
    assert dev <= _REFLECTOR_PRODUCT_SLACK * dim * np.finfo(np.float64).eps, \
        f"deviation {dev:.3g} from the reflector product; running {_build()}"
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert _same_bits(random_unitary(dim, dim), w)
    assert w.flags.c_contiguous and w.flags.owndata


def test_random_unitary_has_haar_moments():
    """Over 4 000 seeds at N = 8, each of E|U_tau,gamma|^2 = 1/N,
    E|tr U|^2 = 1 and E|tr U^2|^2 = 2 (Diaconis-Shahshahani) holds within 5
    standard errors. Without the sign fold the trace moments miss by 61 and
    29 standard errors; from real normals, a Haar orthogonal matrix, the last
    one misses by 14."""
    dim, n = 8, 4000
    us = np.array([random_unitary(dim, seed) for seed in range(n)])
    samples = {
        "|U_tau,gamma|^2": (np.abs(us[:, dim - 1, 0]) ** 2, 1 / dim),
        "|tr U|^2": (np.abs(np.trace(us, axis1=1, axis2=2)) ** 2, 1.0),
        "|tr U^2|^2": (np.abs(np.trace(us @ us, axis1=1, axis2=2)) ** 2, 2.0),
    }
    for name, (sample, expected) in samples.items():
        stderr = sample.std(ddof=1) / math.sqrt(n)
        assert abs(sample.mean() - expected) <= 5 * stderr, \
            f"E{name} = {sample.mean():.4f}, expected {expected:.4f} within 5 x {stderr:.4f}"


def test_random_unitary_holds_no_copy_of_the_draw():
    """At N = 512 the tracemalloc peak of ``random_unitary`` stays below 2.5 N^2
    complex entries: the N x N reflector array, the N (N + 1) / 2 normals and
    Q, measured at 2.04 N^2. A copy of the normals or of the reflector array
    would pass the bound. LAPACK's own work buffers are ``malloc``ed by
    NumPy's gufuncs and are not traced."""
    dim = 512
    tracemalloc.start()
    try:
        random_unitary(dim, dim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * dim * dim * np.dtype(np.complex128).itemsize, f"peak {peak / 2**20:.1f} MiB"


def test_householder_unitary_refuses_reflectors_of_another_form():
    """The blocks read each reflector from its row down, with a 1 in its row
    and 0 above it within the block; arrays of any other form are refused."""
    w = HouseholderUnitary.draw(40, 1)
    v, tau, signs = w.reflectors, w.tau, w.signs
    assert HouseholderUnitary(v, tau, signs).certificate() == w.certificate()
    diagonal, upper = v.copy(order="F"), v.copy(order="F")
    diagonal[7, 7] = 1 + 1e-15
    upper[33, 34] = 1e-300
    with pytest.raises(ValueError, match="must hold 1 in row k"):
        HouseholderUnitary(diagonal, tau, signs)
    with pytest.raises(ValueError, match=r"among columns 32\.\.39 is not 0 above its row"):
        HouseholderUnitary(upper, tau, signs)
    with pytest.raises(ValueError, match="do not fit 39 values of tau"):
        HouseholderUnitary(v, tau[:-1], signs)
    with pytest.raises(ValueError, match="expected a vector of length 40"):
        w.apply(np.ones(39))
    rotated = w.rotated(PlaneRotation(3, 0.6, 0.8j, 0.8j))
    assert rotated.reflectors is v and w.plane is None
    with pytest.raises(ValueError, match="already holds a plane rotation"):
        rotated.rotated(PlaneRotation(3, 1.0, 0j, 0j))
    for partner in (0, 40):
        with pytest.raises(ValueError, match=rf"partner = {partner} is outside \[1, 39\]"):
            w.rotated(PlaneRotation(partner, 1.0, 0j, 0j))


@pytest.mark.parametrize("plane", [PlaneRotation(1, 0.6, 0.8j, 0.8j),
                                   PlaneRotation(1, 0.6, 0.8j, -0.8j),
                                   PlaneRotation(1, 1.5, 0.3 - 0.1j, 0.2j),
                                   PlaneRotation(1, math.nan, 0j, 0j)])
def test_plane_deviation_is_the_2_norm(plane):
    """``deviation`` is ||G+ G - I||_2 of the 2 x 2 block, nan for a nan entry."""
    c, mix, unmix = plane.cos, plane.mix, plane.unmix
    g = np.array([[c, unmix], [mix, c]])
    if math.isnan(c):
        assert math.isnan(plane.deviation())
        return
    expected = np.linalg.norm(adjoint(g) @ g - np.eye(2), 2)
    assert plane.deviation() == pytest.approx(expected, rel=1e-14, abs=1e-16)


def _identity_dev_cases():
    w = random_unitary(6, 5)
    signed, inf, nan = w.copy(), w.copy(), w.copy()
    signed[0, :] = complex(-0.0, -0.0)
    signed[:, 1] = complex(0.0, -0.0)
    inf[2, 4] = complex(math.inf, 0.0)
    nan[3, 3] = complex(0.0, math.nan)
    rng = np.random.default_rng(11)
    return {
        "eye": np.eye(4), "minus-eye": -np.eye(3), "one": np.array([[1.0]]),
        "one-panel-127": random_unitary(127, 127), "one-panel-128": 1.5 * random_unitary(128, 128),
        "dim-1-signed-zero": np.array([[complex(-0.0, -0.0)]]),
        "dim-1-half": np.array([[complex(0.5, -0.0)]]),
        "dim-1-nan": np.array([[math.nan]]), "dim-1-inf": np.array([[-math.inf]]),
        "unitary": w, "scaled": 1.5 * w, "fortran": np.asfortranarray(w),
        "signed-zeros": signed, "inf": inf, "nan": nan,
        "gaussian": rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)),
    }


@pytest.mark.parametrize("w", [pytest.param(w, id=name) for name, w in _identity_dev_cases().items()])
def test_identity_deviations_equal_the_eye_subtraction_form(w):
    """``unitary_dev`` and ``involution_dev`` subtract 1 from the product's
    diagonal in place; the result equals ``- np.eye(n)`` in every bit, at
    dim 1, with signed zeros, with inf and nan entries, and up to 128 rows,
    where ``unitary_dev`` forms one panel."""
    before = w.copy()
    c = np.asarray(w, dtype=np.complex128)
    with np.errstate(invalid="ignore", over="ignore"):
        dev_u, dev_v = unitary_dev(w), involution_dev(w)
        ref_u = float(np.max(np.abs(c @ c.conj().T - np.eye(len(c)))))
        ref_v = float(np.max(np.abs(c @ c - np.eye(len(c)))))
    assert type(dev_u) is float and type(dev_v) is float
    assert _same_bits(dev_u, ref_u) and _same_bits(dev_v, ref_v)
    assert _same_bits(w, before)


@pytest.mark.parametrize("dim", [129, 255, 256, 300, 900])
@pytest.mark.parametrize("scale", [1.0, 1.5])
def test_unitary_dev_over_several_panels_agrees_with_the_full_product(dim, scale):
    """Above one panel, ``unitary_dev`` forms W W+ panel by panel, which may
    round differently from one full product. Bound: 4 eps * scale^2, a few
    ulps of a diagonal entry; the largest difference measured over 40 seeds
    per dim (8 at 900), unitary and scaled, was 8.6e-21 (3.9e-5 eps), at 129."""
    w = scale * random_unitary(dim, dim)
    ref = float(np.max(np.abs(w @ w.conj().T - np.eye(dim))))
    assert abs(unitary_dev(w) - ref) <= 4 * np.finfo(np.float64).eps * scale**2


@pytest.mark.parametrize("entry, value", [
    ((200, 5), math.nan), ((5, 200), math.nan), ((10, 10), math.inf), ((290, 290), math.inf),
])
def test_unitary_dev_keeps_a_non_finite_entry_of_any_panel(entry, value):
    """A nan in any panel wins, as in ``np.max`` of the full product, also when
    a later panel is finite: (200, 5) and (10, 10) spoil only early panels."""
    w = random_unitary(300, 300)
    w[entry] = value
    with np.errstate(invalid="ignore", over="ignore"):
        assert math.isnan(unitary_dev(w))
        assert not is_unitary(w)


def test_unitary_dev_holds_one_panel_not_a_second_square():
    """At N = 512 the tracemalloc peak of ``unitary_dev`` stays below 1.5 N^2
    complex entries: W+ and one 128 x N panel with its moduli (one full
    product would hold 2 N^2)."""
    dim = 512
    w = random_unitary(dim, dim)
    tracemalloc.start()
    try:
        unitary_dev(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * dim * dim * np.dtype(np.complex128).itemsize, f"peak {peak / 2**20:.1f} MiB"


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


def _per_state_decomposition(state, basis):
    """The normal equations of one state, with a Gram matrix of its own.

    This is the per-state loop that the batched ``gram_decompose`` replaced.
    """
    gram = np.array([[vi.conj() @ vj for vj in basis] for vi in basis])
    coeffs = np.linalg.solve(gram, np.array([vi.conj() @ state for vi in basis]))
    synth = np.zeros_like(state)
    for c, v in zip(coeffs, basis):
        synth += c * v
    return coeffs, float(np.linalg.norm(state - synth)), float(np.linalg.cond(gram))


#: Slack, in eps, of a batched decomposition against the per-state loop. The
#: coefficients may differ by 16 cond(G) eps max|c| and the residuals by
#: 16 eps |state|; the tests' cases, Gaussian and oracle states alike,
#: reached 4.1 and 2.1.
_DECOMPOSITION_SLACK = 16


def _assert_matches_per_state(dec, state, basis):
    """``dec`` agrees with :func:`_per_state_decomposition` of ``state``
    within the rounding that the two orders of operations allow."""
    coeffs, residual, cond = _per_state_decomposition(state, basis)
    eps = np.finfo(np.float64).eps
    coeff_dev = np.max(np.abs(dec.coefficients - coeffs))
    assert coeff_dev <= _DECOMPOSITION_SLACK * cond * eps * np.max(np.abs(coeffs)), coeff_dev
    residual_dev = abs(dec.residual - residual)
    assert residual_dev <= _DECOMPOSITION_SLACK * eps * np.linalg.norm(state), residual_dev


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
            _assert_matches_per_state(dec, state, basis)


def test_gram_decompose_rejects_misshaped_states():
    basis = [basis_state(4, 0), basis_state(4, 1)]
    for states in ([basis_state(5, 0)], [np.eye(4)], np.ones((2, 3)), np.ones(4),
                   [basis_state(4, 0), basis_state(3, 0)]):
        with pytest.raises(ValueError):
            gram_decompose(states, basis)
    with pytest.raises(ValueError, match=r"expected an \(n, 4\) array of states, got shape \(4,\)"):
        gram_decompose(np.ones(4), basis)


def test_gram_decompose_of_no_states_is_empty():
    basis = [basis_state(4, 0), basis_state(4, 1)]
    for states in ([], iter(()), np.empty((0, 4), dtype=np.complex128)):
        decs = gram_decompose(states, basis)
        assert len(decs) == 0
        assert decs.coefficients.shape == (0, 2)
        assert decs.residual.shape == (0,)
    for shape in ((0, 3), (0, 4, 2)):
        with pytest.raises(ValueError, match=re.escape(f"expected an (n, 4) array of states, got shape {shape}")):
            gram_decompose(np.empty(shape, dtype=np.complex128), basis)
