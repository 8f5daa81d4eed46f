"""Tests for the four-dimensional subspace engine."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phasematch.engine4d import (
    FourDimInputs,
    approx4,
    four_dim_coeffs,
    iterate4,
)


def _random_inputs(rng):
    u, v, vu, uv = 0.2 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
    return complex(u), complex(v), complex(vu), complex(uv)


def test_inversion_point_matches_printed_matrix():
    """At theta = phi = 0 the eight scalars reduce to the inversion-case table.

    The reference action on the basis (|g>, VU|g>, V|t>, U^-1|t>) is written
    out independently here, straight from the one-step expansion of Q:

        Q|g>        = (2 vu_gg - 4 u v)|g> - VU|g> + 2u V|t>
        Q(VU|g>)    = (1 - 4|v|^2)|g> + 2 conj(v) V|t>
        Q(V|t>)     = (2 conj(u) - 4 v uv_tt)|g> + 2 uv_tt V|t> - U^-1|t>
        Q(U^-1|t>)  = -2v|g> + V|t>
    """
    rng = np.random.default_rng(2024)
    for _ in range(100):
        u, v, vu_gg, uv_tt = _random_inputs(rng)
        c = four_dim_coeffs(FourDimInputs(0.0, 0.0, u, v, vu_gg, uv_tt))
        assert c.l1 == pytest.approx(2 * vu_gg - 4 * u * v, abs=1e-13)
        assert c.l2 == pytest.approx(1 - 4 * abs(v) ** 2, abs=1e-13)
        assert c.l3 == pytest.approx(2 * u.conjugate() - 4 * v * uv_tt, abs=1e-13)
        assert c.l4 == pytest.approx(-2 * v, abs=1e-13)
        assert c.p1 == pytest.approx(2 * u, abs=1e-13)
        assert c.p2 == pytest.approx(2 * v.conjugate(), abs=1e-13)
        assert c.p3 == pytest.approx(2 * uv_tt, abs=1e-13)
        assert c.p4 == pytest.approx(1.0, abs=1e-13)


def test_p_coefficients_vanish_at_half_pi_phi():
    c = four_dim_coeffs(FourDimInputs(0.3, math.pi / 2, 0.1, 0.1, 0.0, 0.0))
    assert c.p1 == 0.0 and c.p2 == 0.0 and c.p3 == 0.0
    assert c.p4 == pytest.approx(-1.0, abs=1e-15)


def test_exact_negation_channels():
    rng = np.random.default_rng(5)
    for _ in range(10):
        u, v, vu_gg, uv_tt = _random_inputs(rng)
        theta, phi = rng.uniform(-math.pi, math.pi, 2)
        c = four_dim_coeffs(FourDimInputs(float(theta), float(phi), u, v, vu_gg, uv_tt))
        traj = iterate4(c, 25)
        # b and d lag a and c by exactly one step with a sign flip
        np.testing.assert_array_equal(traj.b[1:], -traj.a[:-1])
        np.testing.assert_array_equal(traj.d[1:], -traj.c[:-1])


def test_iterate4_matches_row_vector_matrix_power():
    rng = np.random.default_rng(31)
    u, v, vu_gg, uv_tt = _random_inputs(rng)
    c = four_dim_coeffs(FourDimInputs(0.9, -1.3, u, v, vu_gg, uv_tt))
    traj = iterate4(c, 15)
    vec = np.array([1.0 + 0j, 0, 0, 0])
    for k in range(16):
        expected = (traj.a[k], traj.b[k], traj.c[k], traj.d[k])
        np.testing.assert_allclose(vec, expected, atol=1e-12)
        vec = vec @ c.m


def test_idealized_inputs():
    inp = FourDimInputs.idealized(0.1, 0.2, 0.05 + 0.01j)
    assert inp.v == (0.05 + 0.01j).conjugate()
    assert inp.vu_gg == 0 and inp.uv_tt == 0


def test_inputs_reject_oversized_elements():
    with pytest.raises(ValueError):
        FourDimInputs(0.0, 0.0, 1.5, 0.0)


@given(st.integers(0, 9), st.sampled_from([math.nan, math.inf, -math.inf]))
def test_inputs_reject_non_finite(slot, bad):
    """Either angle, or the real or imaginary part of any of the four elements."""
    values = [0.3, 0.1, 0.05, 0.0, 0.05, 0.0, 0.0, 0.0, 0.0, 0.0]
    values[slot] = bad
    theta, phi, *parts = values
    elements = [complex(re, im) for re, im in zip(parts[::2], parts[1::2])]
    with pytest.raises(ValueError):
        FourDimInputs(theta, phi, *elements)


def test_first_order_c_channel():
    # frozen from a pre-build scan: max c-deviation 3.96e-6 on this grid
    worst = 0.0
    for theta in np.linspace(-3, 3, 9):
        for phi in np.linspace(-3, 3, 9):
            inp = FourDimInputs.idealized(float(theta), float(phi), 1e-3)
            traj = iterate4(four_dim_coeffs(inp), 21)
            for k in range(1, 21):
                _, c_next = approx4(float(theta), float(phi), 1e-3, k)
                worst = max(worst, abs(traj.c[k + 1] - c_next))
    assert worst <= 1e-5


def test_first_order_a_channel_parity():
    """a_k alternates between 0 (odd k) and a pure phase (even k) to O(k^2 u^2)."""
    worst = 0.0
    for theta in np.linspace(-3, 3, 9):
        for phi in np.linspace(-3, 3, 9):
            inp = FourDimInputs.idealized(float(theta), float(phi), 1e-3)
            traj = iterate4(four_dim_coeffs(inp), 20)
            for k in range(1, 21):
                a_k, _ = approx4(float(theta), float(phi), 1e-3, k)
                if k % 2:
                    assert a_k == 0
                else:
                    m = k // 2
                    assert a_k == pytest.approx(
                        (-1) ** m * cmath.exp(2j * m * theta), abs=1e-12
                    )
                worst = max(worst, abs(traj.a[k] - a_k))
    assert worst <= 1e-3


def test_approx4_sum_structure():
    # both parities share the sum bound m = k // 2
    theta, phi, u = 0.4, 0.1, 1e-4
    for k in (4, 5):
        m = k // 2
        sigma, delta1 = cmath.exp(2j * theta), cmath.exp(2j * phi)
        total = sum(sigma ** (m - l) * delta1**l for l in range(m + 1))
        sign = (-1) ** m if k % 2 == 0 else -((-1) ** m)
        expected = sign * 2 * math.cos(phi) * cmath.exp(1j * phi) * u * total
        _, c_next = approx4(theta, phi, u, k)
        assert c_next == pytest.approx(expected, abs=1e-15)


def test_approx4_rejects_k_zero():
    with pytest.raises(ValueError):
        approx4(0.1, 0.1, 0.01, 0)
