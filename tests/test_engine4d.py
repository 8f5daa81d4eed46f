"""Tests for the four-dimensional subspace engine."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasematch import engine4d
from phasematch.engine2d import _BLOCK, _UNIT_BOUND, AlgorithmParams, _units, approx_b
from phasematch.engine4d import (
    FourDimInputs,
    approx4,
    four_dim_coeffs,
    _UNITS,
    _recurrence4,
    _unit_trajectories4,
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
    """In a short run and in a long one, every row of b and d is the lagged
    negation of a and c: the long runs of the idealized inputs superpose, and
    those of the others keep the loop (their unit entries pass the bound)."""
    rng = np.random.default_rng(5)
    superposed = 0
    for _ in range(10):
        u, v, vu_gg, uv_tt = _random_inputs(rng)
        theta, phi = (float(x) for x in rng.uniform(-math.pi, math.pi, 2))
        for inp in (FourDimInputs(theta, phi, u, v, vu_gg, uv_tt),
                    FourDimInputs.idealized(theta, phi, u)):
            c = four_dim_coeffs(inp)
            superposed += _units(_unit_trajectories4, c, 5000) is not None
            for k_max in (25, 5000):
                traj = iterate4(c, k_max)
                # b and d start at zero and lag a and c by exactly one step with a sign flip
                assert traj.b[0] == 0 and traj.d[0] == 0
                np.testing.assert_array_equal(traj.b[1:], -traj.a[:-1])
                np.testing.assert_array_equal(traj.d[1:], -traj.c[:-1])
    assert superposed == 10


def test_iterate4_runs_two_unit_loops(monkeypatch):
    """A run that superposes takes the loop for 512 steps from e_a and from
    e_c, and no more; the unit trajectories from e_b and e_d follow from them
    by linearity, within rounding of their own loops."""
    c = four_dim_coeffs(FourDimInputs.idealized(0.3, 0.1, 0.1))
    loops = []
    loop = engine4d._recurrence4
    monkeypatch.setattr(engine4d, "_recurrence4",
                        lambda c, k_max, start: loops.append((k_max, start)) or loop(c, k_max, start))
    traj = iterate4(c, 5000)
    assert loops == [(_BLOCK, _UNITS[0]), (_BLOCK, _UNITS[2])]
    units = _unit_trajectories4(c)
    for i, e in ((0, _UNITS[1]), (2, _UNITS[3])):
        unit = loop(c, _BLOCK, e)
        np.testing.assert_allclose(units[:, :, i], -np.stack([unit.a, unit.c], axis=1),
                                   rtol=0, atol=1e-14)
    np.testing.assert_allclose(traj.a, _four_store_iterate4(c, 5000)[0], rtol=0, atol=1e-13)


def _four_store_iterate4(c, k_max):
    """The recurrence with all four channels stored inside the loop."""
    out = np.empty((4, k_max + 1), dtype=np.complex128)
    ak, bk, ck, dk = 1.0 + 0j, 0j, 0j, 0j
    out[:, 0] = ak, bk, ck, dk
    for k in range(1, k_max + 1):
        ak, bk, ck, dk = (
            c.l1 * ak + c.l2 * bk + c.l3 * ck + c.l4 * dk,
            -ak,
            c.p1 * ak + c.p2 * bk + c.p3 * ck + c.p4 * dk,
            -ck,
        )
        out[:, k] = ak, bk, ck, dk
    return out


_elements = st.builds(cmath.rect, st.floats(0.0, 1.0), st.floats(-math.pi, math.pi))
_angles = st.floats(-math.pi, math.pi)


@given(
    st.builds(FourDimInputs, _angles, _angles, _elements, _elements, _elements, _elements),
    st.integers(0, 4000),
)
@settings(max_examples=30, deadline=None)
# Eigenvalues e^(+-i w) with cos w = 0.99999: unit entries reach 224, so the run keeps the loop.
@example(FourDimInputs(0.0, 0.0, 0j, 0j, 0.99999 + 0j, 0j), 2049)
# 2 x 512 steps: the longest run that keeps the loop for its two unit loops.
@example(FourDimInputs.idealized(0.3, 0.1, 0.1), 2 * _BLOCK)
# The unit loops overflow near step 479, and the units derived from them overflow in NumPy.
@example(FourDimInputs(0.0, 0.0, 0.9, -0.9), 2049)
def test_iterate4_is_bit_identical_to_the_four_store_loop(inp, k_max):
    """Filling b and d after a and c changes no bit of a run of k_max <= 2 _BLOCK
    steps, nor of rows k <= _BLOCK of a longer one, signs of zeros included.
    Later rows of a longer run are superposed blocks of a and c, with b and d
    their lagged negations: within 1e-12 of the loop relative to the largest
    entry so far (measured: 2.4e-14), up to where the entries near overflow."""
    c = four_dim_coeffs(inp)
    for n in (0, 1, k_max):
        traj = iterate4(c, n)
        ref = _four_store_iterate4(c, n)
        got = np.stack([traj.a, traj.b, traj.c, traj.d])
        head = slice(0, (n if n <= 2 * _BLOCK else _BLOCK) + 1)
        np.testing.assert_array_equal(got[:, head], ref[:, head])
        for part in (np.real, np.imag):
            np.testing.assert_array_equal(np.signbit(part(got[:, head])),
                                          np.signbit(part(ref[:, head])))
        scale = np.maximum.accumulate(np.max(np.abs(ref), axis=0))
        tail = (np.arange(n + 1) > _BLOCK) & (scale < 1e290)
        dev = np.max(np.abs(got[:, tail] - ref[:, tail]), axis=0, initial=0.0)
        assert np.all(dev <= 1e-12 * np.maximum(1.0, scale[tail]))


@pytest.mark.parametrize("inp", [
    FourDimInputs(0.0, 0.0, 0j, 0j, 0.99999 + 0j, 0j),
    FourDimInputs(0.4, -1.1, 0.9 + 0.1j, 0.3j, 0.5, 0.2 - 0.2j),
], ids=["near-coalescing", "growing"])
def test_iterate4_keeps_the_loop_past_the_unit_bound(inp):
    """Where a unit entry passes _UNIT_BOUND, every row is the loop's, bit for
    bit: at cos w = 0.99999 the entries reach 224, and those of the second
    map 2e85 (its rows overflow to inf and nan before k = 4000)."""
    c = four_dim_coeffs(inp)
    units = [_recurrence4(c, _BLOCK, e) for e in _UNITS]
    assert max(np.max(np.abs(np.stack([u.a, u.c]))) for u in units) > _UNIT_BOUND
    traj = iterate4(c, 4000)
    got = np.stack([traj.a, traj.b, traj.c, traj.d])
    np.testing.assert_array_equal(got, _four_store_iterate4(c, 4000))


def test_recurrence4_continues_from_a_start_row():
    """The loop that runs the unit trajectories takes every channel of its start row."""
    rng = np.random.default_rng(7)
    c = four_dim_coeffs(FourDimInputs(0.9, -1.3, *_random_inputs(rng)))
    whole = iterate4(c, 30)
    head = _recurrence4(c, 12, (1.0 + 0j, 0j, 0j, 0j))
    rest = _recurrence4(c, 18, tuple(complex(ch[-1]) for ch in (head.a, head.b, head.c, head.d)))
    for got, want in zip((rest.a, rest.b, rest.c, rest.d), (whole.a, whole.b, whole.c, whole.d)):
        np.testing.assert_array_equal(got, want[12:])


def test_superposed_iterate4_matches_the_loop_over_a_long_run():
    """Measured at k = 50 000: 7.3e-14."""
    c = four_dim_coeffs(FourDimInputs.idealized(0.3, 0.1, 0.1))
    traj = iterate4(c, 50_000)
    ref = _four_store_iterate4(c, 50_000)
    assert np.max(np.abs(np.stack([traj.a, traj.b, traj.c, traj.d]) - ref)) <= 1e-12


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


def test_inputs_bound_every_element_as_the_two_dim_engine_bounds_u():
    """|x| <= 1 + 1e-12 for each of u, v, vu_gg and uv_tt, as for u in AlgorithmParams;
    one comparison refuses both a modulus above the bound and a nan or inf part."""
    assert AlgorithmParams(0.0, 0.0, 1 + 1e-12).u == 1 + 1e-12
    for over in (1 + 1e-11, 1 + 2e-12, complex(math.nan, 0), complex(0, math.inf),
                 complex(math.inf, math.nan)):
        with pytest.raises(ValueError, match=r"\|u\| = .* exceeds 1"):
            AlgorithmParams(0.0, 0.0, over)
        for slot, name in enumerate(("u", "v", "vu_gg", "uv_tt")):
            elements = [0j] * 4
            elements[slot] = over
            with pytest.raises(ValueError, match=rf"\|{name}\| = .* exceeds 1"):
                FourDimInputs(0.0, 0.0, *elements)
            for edge in (1.0, 1 + 1e-12):
                elements[slot] = edge
                FourDimInputs(0.0, 0.0, *elements)


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


def test_approx4_c_channel_is_the_two_dim_sum():
    """Both parities of k = 2m, 2m + 1 reuse approx_b at step m + 1, with opposite signs."""
    theta, phi, u = 0.4, -1.3, 0.02
    first_order = approx_b(AlgorithmParams(theta, phi, u), 25_001)
    assert approx4(theta, phi, u, 50_000)[1] == first_order
    assert approx4(theta, phi, u, 50_001)[1] == -first_order


def test_approx4_rejects_k_zero():
    with pytest.raises(ValueError):
        approx4(0.1, 0.1, 0.01, 0)
