"""Tests for the two-dimensional subspace engine."""

import cmath
import itertools
import math
import re
import struct
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasematch import engine2d, engine4d
from phasematch.engine2d import (
    K_EXACT_MAX,
    AlgorithmParams,
    ClosedFormRangeError,
    HoyerParams,
    TwoDimCoefficients,
    approx_b,
    closed_form_magnitude,
    exact_a,
    exact_b,
    grover_coeffs,
    hoyer_coeffs,
    iterate2,
    l_coeff,
    long_coeffs,
    phase_condition,
    present_coeffs,
    sweep_max,
    t_coeff,
    _BLOCK,
    _UNIT_BOUND,
    _every_k,
    _peak_of,
    _term_table,
)
from phasematch.engine4d import FourDimInputs, approx4, four_dim_coeffs, iterate4
from phasematch.linalg import basis_state
from phasematch.rotations import build, phase_scale

from helpers import stacked

angles = st.floats(min_value=-math.pi, max_value=math.pi,
                   allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# coefficient families


def test_long_at_pi_reduces_to_grover():
    lc = long_coeffs(math.pi, math.pi, 0.1)
    gc = grover_coeffs(0.1)
    for name in ("alpha", "beta", "lam", "delta"):
        assert getattr(lc, name) == pytest.approx(getattr(gc, name), abs=1e-12)
    assert gc.alpha == pytest.approx(0.96, abs=1e-12)
    assert gc.beta == pytest.approx(0.2, abs=1e-12)
    assert gc.lam == pytest.approx(-0.2, abs=1e-12)
    assert gc.delta == 1


@given(angles, angles, st.floats(0.0, 1.0), st.floats(-math.pi, math.pi))
@settings(max_examples=100, deadline=None)
def test_long_coeffs_match_longs_quadruple_at_twice_the_angle_plus_pi(theta, phi, r, arg):
    """Long's rotation at 2t + pi is the package's rotation at t, so
    ``long_coeffs`` there is Long's own quadruple in e^(it) and e^(ip)."""
    u = cmath.rect(r, arg)
    t, p = 2 * theta + math.pi, 2 * phi + math.pi
    et, ep = cmath.exp(1j * t), cmath.exp(1j * p)
    longs = TwoDimCoefficients(
        alpha=-et - (1 - et) * (1 - ep) * abs(u) ** 2,
        beta=(1 - ep) * u,
        lam=(1 - et) * ep * u.conjugate(),
        delta=-ep,
    )
    lc = long_coeffs(t, p, u)
    for name in ("alpha", "beta", "lam", "delta"):
        assert abs(getattr(lc, name) - getattr(longs, name)) <= 1e-13


@given(st.floats(0.0, 1.0), st.floats(-math.pi, math.pi))
@settings(max_examples=100, deadline=None)
def test_present_at_zero_angles_matches_grover(r, arg):
    """theta = phi = 0 is the inversion point of the double-rotation family,
    where ``grover_coeffs`` takes ``present_coeffs``: g(0) = 2, so the
    quadruple is Grover's (1 - 4|u|^2, 2u, -2 conj(u), 1). Every product in
    it is by a power of two, so it holds exactly."""
    u = cmath.rect(r, arg)
    gc = grover_coeffs(u)
    assert (gc.alpha, gc.beta, gc.lam, gc.delta) == (1 - 4 * abs(u) ** 2, 2 * u, -2 * u.conjugate(), 1)


def test_hoyer_at_pi():
    a = 0.17
    hc = hoyer_coeffs(HoyerParams(a, math.pi, 0.0))
    root = 2 * math.sqrt(a * (1 - a))
    assert hc.alpha == pytest.approx(1 - 2 * a, abs=1e-12)
    assert hc.beta == pytest.approx(root, abs=1e-12)
    assert hc.lam == pytest.approx(root, abs=1e-12)
    assert hc.delta == pytest.approx(2 * a - 1, abs=1e-12)


def _trace_and_det(c):
    return c.alpha + c.delta, c.alpha * c.delta - c.lam * c.beta


def test_hoyer_map_has_the_trace_and_determinant_of_longs():
    """Hoyer's orthonormal-basis map at (a, phi, varphi) is similar to Long's
    at angles (phi, varphi) in either order with |u| = sqrt(a)."""
    rng = np.random.default_rng(19)
    for a, phi, varphi in zip(rng.uniform(0, 1, 2000), *rng.uniform(-math.pi, math.pi, (2, 2000))):
        hoyer = _trace_and_det(hoyer_coeffs(HoyerParams(a, phi, varphi)))
        for long in (long_coeffs(phi, varphi, math.sqrt(a)), long_coeffs(varphi, phi, math.sqrt(a))):
            for h, l in zip(hoyer, _trace_and_det(long)):
                assert abs(h - l) <= 1e-14, (a, phi, varphi)


def test_grover_beta_is_two_u():
    assert grover_coeffs(0.5).beta == pytest.approx(1.0, abs=1e-15)


def test_hoyer_rejects_bad_probability():
    with pytest.raises(ValueError):
        HoyerParams(1.2, 0.0, 0.0)


def _takes_u():
    """Every constructor that takes the element u, as a function of u alone."""
    return (lambda u: AlgorithmParams(0.0, 0.0, u), grover_coeffs,
            lambda u: long_coeffs(0.3, 0.1, u))


def test_params_reject_large_u():
    for make in _takes_u():
        make(1.0)
        with pytest.raises(ValueError):
            make(1.5)


@given(st.integers(0, 3), st.sampled_from([math.nan, math.inf, -math.inf]))
def test_params_reject_non_finite(slot, bad):
    values = [0.3, 0.1, 0.05, 0.02]
    values[slot] = bad
    theta, phi, u_re, u_im = values
    with pytest.raises(ValueError):
        AlgorithmParams(theta, phi, complex(u_re, u_im))
    if slot >= 2:
        for make in _takes_u():
            with pytest.raises(ValueError):
                make(complex(u_re, u_im))


@pytest.mark.parametrize("make", [
    lambda x, y: HoyerParams(0.1, x, y),
    lambda x, y: long_coeffs(x, y, 0.1),
], ids=["HoyerParams", "long_coeffs"])
@given(slot=st.integers(0, 1), bad=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_angles_reject_non_finite(make, slot, bad):
    angles_ = [0.3, 0.1]
    make(*angles_)
    angles_[slot] = bad
    with pytest.raises(ValueError):
        make(*angles_)


@pytest.mark.parametrize("make, message", [
    (lambda: long_coeffs(math.nan, 0.3, 0.1), "non-finite angles theta=nan, phi=0.3"),
    (lambda: long_coeffs(0.3, -math.inf, 0.1), "non-finite angles theta=0.3, phi=-inf"),
    (lambda: HoyerParams(0.1, math.inf, 0.3), "non-finite angles phi=inf, varphi=0.3"),
    (lambda: HoyerParams(0.1, 0.3, math.nan), "non-finite angles phi=0.3, varphi=nan"),
], ids=["long theta", "long phi", "hoyer phi", "hoyer varphi"])
def test_angle_errors_name_the_callers_angles(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_beta_vanishes_at_half_pi_phi():
    c = present_coeffs(AlgorithmParams(0.4, math.pi / 2, 0.2))
    assert c.beta == 0.0


#: Odd multiples of pi/2, whose cosines snapped_cos flushes to 0; both zeros;
#: |theta| far beyond pi, up to the largest float; the smallest subnormal.
THETA_POINTS = [math.pi / 2, -math.pi / 2, 3 * math.pi / 2, -101 * math.pi / 2, 0.0, -0.0,
                1e6 + 0.1, -3e15, 1e300, 1.7976931348623157e308, 5e-324]
THETAS = st.floats(-10.0, 10.0) | st.floats(allow_nan=False, allow_infinity=False) \
    | st.sampled_from(THETA_POINTS)


@given(st.lists(THETAS, min_size=1, max_size=30),
       angles | st.sampled_from([math.pi / 2, -math.pi / 2, 0.0, -0.0]),
       st.floats(0.0, 1.0), st.floats(-math.pi, math.pi))
@settings(max_examples=200, deadline=None)
@example(THETA_POINTS, math.pi / 2, 0.3, 0.7)  # threshold 0: ratio_l inf
@example(THETA_POINTS, 0.3, 0.1, -2.0)
@example(THETA_POINTS, -0.0, 0.0, 0.0)
def test_theta_array_entries_equal_the_scalar_calls_bit_for_bit(thetas, phi, r, arg):
    """Each entry of present_coeffs and phase_condition on an array of theta
    has the bits of the call on its angle alone, the sign of a zero
    included; and the call on one angle has the bits of the complex-number
    formula. This guards NumPy's cos and sin against libm's, which the
    scalar calls use."""
    u = cmath.rect(r, arg)
    batch = AlgorithmParams(np.array(thetas), phi, u)
    coeffs, cond = present_coeffs(batch), phase_condition(batch)
    gp = phase_scale(phi)
    for i, theta in enumerate(thetas):
        one = AlgorithmParams(theta, phi, u)
        c, p = present_coeffs(one), phase_condition(one)
        gt = phase_scale(theta)
        formula = (-(1 - gt + gt * gp * abs(u) ** 2), gp * u, gt * (1 - gp) * u.conjugate(), gp - 1)
        for name, want in zip(("alpha", "beta", "lam", "delta"), formula):
            assert type(getattr(c, name)) is complex
            assert _bits(getattr(c, name)) == _bits(want)
            assert _bits(getattr(coeffs, name)[i]) == _bits(want)
        assert _bits(cond.ratio_l[i]) == _bits(p.ratio_l)
        assert cond.satisfied[i] == p.satisfied and type(p.satisfied) is bool
        assert _bits(cond.threshold) == _bits(p.threshold)
    # ratio_l takes |gap|, so the sign of the reduced gap, which math.remainder
    # sets at a tie (3 pi/2 - 0.0 is one), is checked on the gap itself.
    _, gaps = engine2d._threshold_and_gap(batch)
    assert [_bits(g) for g in gaps.tolist()] == [_bits(math.remainder(t - phi, math.pi))
                                                 for t in thetas]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_theta_in_an_array_is_named(bad):
    for thetas in ([0.1, 0.2, bad, 0.4, bad], np.array([0.1, 0.2, bad, 0.4, bad])):
        with pytest.raises(ValueError, match=rf"^non-finite angles theta\[2\]={bad}, phi=0.3$"):
            AlgorithmParams(thetas, 0.3, 0.1)
    with pytest.raises(ValueError, match=r"^non-finite angles theta=<2 finite angles>, phi=nan$"):
        AlgorithmParams([0.1, 0.2], math.nan, 0.1)


def test_theta_arrays_are_one_dimensional_read_only_copies():
    thetas = np.array([0.1, 0.2])
    params = AlgorithmParams(thetas, 0.3, 0.1)
    thetas[0] = 5.0
    assert params.theta.tolist() == [0.1, 0.2] and params.theta.dtype == np.float64
    with pytest.raises(ValueError):
        params.theta[0] = 1.0
    with pytest.raises(ValueError, match=r"theta dimensions = 2 is outside \[1, 1\]"):
        AlgorithmParams(np.zeros((2, 2)), 0.3, 0.1)


def test_first_order_sums_refuse_a_theta_array():
    """An array of 3 theta at k = 3 would broadcast against approx_b's 3
    terms and give a number; both first-order forms refuse it by name."""
    params = AlgorithmParams([0.1, 0.2, 0.3], 0.3, 0.1)
    for call in (approx_b, closed_form_magnitude):
        with pytest.raises(TypeError, match=f"^{call.__name__} takes one theta, not an array of 3$"):
            call(params, 3)


def test_a_theta_array_whose_gap_overflows_is_refused():
    """A theta - phi that overflows is refused by name, for one theta by
    phase_condition and the first-order forms, and for an array by entry."""
    params = AlgorithmParams(1e308, -1e308, 0.1)
    for call in (lambda: phase_condition(params), lambda: approx_b(params, 1),
                 lambda: closed_form_magnitude(params, 1),
                 lambda: approx4(1e308, -1e308, 0.1, 1)):
        with pytest.raises(ValueError, match=r"^theta - phi overflows at theta=1e\+308, phi=-1e\+308$"):
            call()
    message = r"^theta - phi overflows at theta\[1\]=1e\+308, phi=-1e\+308$"
    with pytest.raises(ValueError, match=message):
        phase_condition(AlgorithmParams([0.5, 1e308], -1e308, 0.1))


# ---------------------------------------------------------------------------
# recurrence


def test_grover_point_values():
    traj = iterate2(grover_coeffs(0.1), 7)
    assert abs(traj.b[1]) == pytest.approx(0.2, abs=1e-12)
    assert abs(traj.b[6]) == pytest.approx(0.9375, abs=5e-5)
    assert abs(traj.b[7]) == pytest.approx(0.990811915059, abs=1e-9)
    assert traj.b[3] == pytest.approx(0.56832, abs=1e-12)


def test_iterate2_matches_matrix_power():
    """Independent cross-check with an explicit 2x2 transfer matrix."""
    c = present_coeffs(AlgorithmParams(0.7, -0.4, 0.2 + 0.1j))
    m = np.array([[c.alpha, c.lam], [c.beta, c.delta]])
    traj = iterate2(c, 20)
    vec = np.array([1.0 + 0j, 0j])
    for k in range(21):
        assert traj.a[k] == pytest.approx(vec[0], abs=1e-12)
        assert traj.b[k] == pytest.approx(vec[1], abs=1e-12)
        vec = m @ vec


instances = st.lists(
    st.tuples(angles, angles, st.floats(0.0, 0.9), st.floats(-math.pi, math.pi)),
    min_size=2, max_size=6,
)


@given(instances)
@settings(max_examples=60, deadline=None)
def test_iterate2_batch_matches_scalar_columns(cases):
    coeffs = [present_coeffs(AlgorithmParams(t, p, cmath.rect(r, arg)))
              for t, p, r, arg in cases]
    batch = iterate2(stacked(coeffs), 50)
    assert batch.a.shape == batch.b.shape == (51, len(coeffs))
    for i, c in enumerate(coeffs):
        scalar = iterate2(c, 50)
        for got, want in ((batch.a[:, i], scalar.a), (batch.b[:, i], scalar.b)):
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
    res = sweep_max(stacked(coeffs), 50)
    for i, c in enumerate(coeffs):
        one = sweep_max(c, 50)
        assert res.max_abs_b[i] == pytest.approx(one.max_abs_b, rel=1e-11)


def test_batch_runs_overflow_silently_as_their_scalar_runs():
    """Under the pytest settings, which turn warnings into errors, each of 40
    instances run as one batch equals its scalar run in iterate2 and in
    sweep_max, where three of them overflow to inf and nan: the batch loop
    is as silent as Python's complex arithmetic, and k* is the first k whose
    |b_k| is not finite, an inf two steps before the first nan (or one, for
    the third), with max |b_k| inf."""
    rng = np.random.default_rng(22)
    coeffs = [present_coeffs(AlgorithmParams(*rng.uniform(-math.pi, math.pi, 2).tolist(),
                                             cmath.rect(rng.uniform(0, 0.9), rng.uniform(-3, 3))))
              for _ in range(37)]
    # Powers of two: exact until they overflow near k = 512, in either arithmetic.
    coeffs[5:5] = [TwoDimCoefficients(2, 2, 2, 2), TwoDimCoefficients(2j, 2j, 2j, 2j),
                   TwoDimCoefficients(-4, 1, 0, 0.5)]
    batch = stacked(coeffs)
    traj, res = iterate2(batch, 600), sweep_max(batch, 600)
    for i, c in enumerate(coeffs):
        one = iterate2(c, 600)
        for got, want in ((traj.a[:, i], one.a), (traj.b[:, i], one.b)):
            # Real and imaginary parts apart: inf and nan must sit in the same places.
            np.testing.assert_allclose(np.ascontiguousarray(got).view(np.float64),
                                       want.view(np.float64), rtol=1e-12, atol=1e-12)
        peak = sweep_max(c, 600)
        np.testing.assert_allclose(res.max_abs_b[i], peak.max_abs_b, rtol=1e-11)
        tied = np.sum(np.abs(one.b[1:]) >= peak.max_abs_b - 1e-11) > 1
        assert res.k_star[i] == peak.k_star or tied
    assert res.k_star[5:8].tolist() == [513, 513, 513]
    assert np.isposinf(res.max_abs_b[5:8]).all()
    assert np.argmax(np.isnan(np.abs(traj.b[:, 5:8])), axis=0).tolist() == [515, 515, 514]


def test_quadratic_expansion_of_b2():
    for u in (0.05, 0.2 + 0.1j, -0.3j):
        traj = iterate2(grover_coeffs(u), 2)
        assert traj.b[2] == pytest.approx(4 * u - 8 * u * abs(u) ** 2, abs=1e-12)


@given(st.floats(min_value=0.0, max_value=2 * math.pi, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_grover_reality(arg):
    """b_k / beta stays real for the inversion family, whatever the phase of u."""
    u = 0.1 * cmath.exp(1j * arg)
    c = grover_coeffs(u)
    traj = iterate2(c, 100)
    if abs(c.beta) == 0:
        return
    ratios = traj.b[1:] / c.beta
    assert np.max(np.abs(ratios.imag)) < 1e-12


# ---------------------------------------------------------------------------
# closed form: symbolic oracle for the integer coefficient pyramid


def _symbolic_tables(k_top):
    """Iterate the recurrence symbolically and collect coefficient dicts.

    a_k and B_k = b_k / beta are polynomials over alpha, delta and the product
    (beta*lambda); a step maps a -> alpha*a + (beta*lambda)*B and B -> a + delta*B.
    Returns per-k dicts {j: {(m, n): int}} with m, n the alpha/delta powers.
    """
    a = {(0, 0, 0): 1}
    bb = {}
    a_tables, b_tables = [], []
    for _ in range(k_top):
        a_next, b_next = {}, {}
        for (m, n, j), coef in a.items():
            key = (m + 1, n, j)
            a_next[key] = a_next.get(key, 0) + coef
            b_next[(m, n, j)] = b_next.get((m, n, j), 0) + coef
        for (m, n, j), coef in bb.items():
            key = (m, n, j + 1)
            a_next[key] = a_next.get(key, 0) + coef
            key = (m, n + 1, j)
            b_next[key] = b_next.get(key, 0) + coef
        a, bb = a_next, b_next
        a_tables.append(_group_by_power(a))
        b_tables.append(_group_by_power(bb))
    return a_tables, b_tables


def _group_by_power(poly):
    grouped = {}
    for (m, n, j), coef in poly.items():
        grouped.setdefault(j, {})[(m, n)] = coef
    return grouped


def test_integer_coefficients_against_symbolic_expansion():
    a_tables, b_tables = _symbolic_tables(12)
    for k in range(1, 13):
        for j, terms in b_tables[k - 1].items():
            for (m, n), coef in terms.items():
                assert m == k - 1 - 2 * j - n
                assert l_coeff(k, n, j) == coef, (k, n, j)
        for j, terms in a_tables[k - 1].items():
            if j == 0:
                assert terms == {(k, 0): 1}
                continue
            for (m, n), coef in terms.items():
                assert m == k - 2 * j - n
                assert t_coeff(k, n, j) == coef, (k, n, j)
    # and nothing outside the supported index ranges is nonzero
    assert l_coeff(7, 5, 1) == 0
    assert t_coeff(6, 0, 4) == 0


PYRAMID_BL1 = {3: [1], 4: [2, 2], 5: [3, 4, 3], 6: [4, 6, 6, 4], 7: [5, 8, 9, 8, 5]}
PYRAMID_BL2 = {5: [1], 6: [3, 3], 7: [6, 9, 6], 8: [10, 18, 18, 10]}
PYRAMID_BL3 = {7: [1], 8: [4, 4], 9: [10, 16, 10], 10: [20, 40, 40, 20]}


def test_printed_pyramids():
    for j, table in ((1, PYRAMID_BL1), (2, PYRAMID_BL2), (3, PYRAMID_BL3)):
        for k, row in table.items():
            assert [l_coeff(k, i, j) for i in range(len(row))] == row


def test_printed_a5_a6_coefficient_lists():
    assert [t_coeff(5, i, 1) for i in range(4)] == [4, 3, 2, 1]
    assert [t_coeff(5, i, 2) for i in range(2)] == [3, 2]
    assert [t_coeff(6, i, 1) for i in range(5)] == [5, 4, 3, 2, 1]
    assert [t_coeff(6, i, 2) for i in range(3)] == [6, 6, 3]
    assert [t_coeff(6, i, 3) for i in range(1)] == [1]


def test_closed_form_matches_recurrence():
    rng = np.random.default_rng(11)
    for _ in range(50):
        alpha, delta = np.exp(1j * rng.uniform(-math.pi, math.pi, 2))
        beta, lam = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        c = TwoDimCoefficients(complex(alpha), complex(beta), complex(lam), complex(delta))
        traj = iterate2(c, 25)
        for k in (1, 2, 7, 18, 25):
            assert exact_b(c, k) == pytest.approx(traj.b[k], abs=1e-9)
            assert exact_a(c, k) == pytest.approx(traj.a[k], abs=1e-9)


def _sum_of_term_moduli(c, k, form, modulus=abs):
    """The moduli of the terms of ``form(c, k)`` summed in Python floats:
    |beta| sum_j |beta*lambda|^j sum_i l_coeff(k, i, j) |alpha|^(k-1-2j-i) |delta|^i
    for exact_b, and |alpha|^k + the same sum over t_coeff and j >= 1, with
    k for k - 1, for exact_a. They scale the closed form's a-priori rounding
    bound. ``modulus`` takes the place of abs, as max(1, abs) does for the
    bound's underflow part."""
    alpha, delta, bl = modulus(c.alpha), modulus(c.delta), modulus(c.beta * c.lam)
    coeff, first_j, scale, top_term = ((l_coeff, 0, modulus(c.beta), 0.0) if form is exact_b
                                       else (t_coeff, 1, 1.0, alpha**k))
    top = k - 1 + first_j
    return scale * (top_term + sum(coeff(k, i, j) * alpha ** (top - 2 * j - i) * delta**i * bl**j
                                   for j in range(first_j, top // 2 + 1)
                                   for i in range(top - 2 * j + 1)))


def _at_least_one(z):
    return max(1.0, abs(z))


def _bits(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


_unit_disk = st.builds(cmath.rect, st.floats(0.0, 1.0), st.floats(-math.pi, math.pi))
# Every term of a_5 is x^5 or 0, and the exact a_5 = 3 x^5 rounds to 5e-324.
_UNDERFLOWS = 1.5756784297558089e-65


@given(st.one_of(
    st.builds(TwoDimCoefficients, _unit_disk, _unit_disk, _unit_disk, _unit_disk),
    st.builds(grover_coeffs, _unit_disk),
))
# beta = lambda = 0, so every j >= 1 term is a zero times a power.
@example(grover_coeffs(0))
# alpha = delta = 0j: 0j**0 is the power in every padding cell.
@example(TwoDimCoefficients(0j, 0.6 + 0.2j, -0.3j, 0j))
# A nan part: b_k from k = 2 and a_k from k = 3 hold a power of delta; beta is a real float.
@example(TwoDimCoefficients(0.6j, 0.5, -0.5j, complex(0.1, math.nan)))
# An inf alpha: inf * 0 makes nan, without a warning.
@example(TwoDimCoefficients(math.inf, 0.5j, 0.3, 0.5j))
# The two inputs least accurate at k = 64: 1.5e-9 and 3.6e-9 from the exact value.
@example(present_coeffs(AlgorithmParams(2, 2.9, 0.3)))
@example(hoyer_coeffs(HoyerParams(0.05, 3.1, 0.0)))
# Products that underflow: exact_a(c, 5) is 0, a_5 is 5e-324, and sum |terms| is 0.
@example(TwoDimCoefficients(0, _UNDERFLOWS, _UNDERFLOWS, _UNDERFLOWS))
# alpha^k alone: a_35 is subnormal, and the closed form's is 5e-324 off.
@example(TwoDimCoefficients(5.403023058681398e-10 + 8.414709848078965e-10j, 0j, 0j, 0j))
# beta alpha^(k-1) alone, from a subnormal beta: the closed form's b_14 is 5e-324 off.
@example(TwoDimCoefficients(0.2701511529340699 + 0.42073549240394825j,
                            6.0110626823918e-309 + 9.361675454941807e-309j, 0j, 0j))
@settings(max_examples=20, deadline=None)
def test_closed_form_is_within_its_rounding_bound_of_the_exact_recurrence(c):
    """b_k = beta sum_j c_kj (beta*lambda)^j and a_k = alpha^k + sum_{j>=1} d_kj (beta*lambda)^j
    are within 2k eps |beta| sum |terms| and 2k eps sum |terms| of the exact
    rational recurrence, for every k <= K_EXACT_MAX (measured: at most 0.60
    of k eps |beta| sum |terms|, at k = 2, over 3 000 random maps with
    coefficients in the unit disk). Non-finite coefficients give a non-finite
    value exactly where a term is non-finite, without a warning.

    That bound is relative. A product that underflows may lose up to
    2^-1075 outright (fl(xy) = xy(1 + d) + e, |e| <= 2^-1075), which the
    later factors of its term scale. So each bound also has an absolute
    part, 12 (k + 2) 2^-1075 times the sum with every modulus (|beta| too)
    taken as at least 1: a term passes through at most 4 (k + 2) products,
    counted by how often later steps reuse each one, and each complex
    product adds at most 2 sqrt(2) 2^-1075. With every modulus at most 1
    that sum is 2^(k-1), and the part is below 2e-302.

    Grover's coefficients have float alpha and delta, so mixed float and
    complex coefficients are covered.
    """
    finite = all(cmath.isfinite(z) for z in (c.alpha, c.beta, c.lam, c.delta))
    exact = _exact_trajectory(c, K_EXACT_MAX) if finite else None
    eps = sys.float_info.epsilon
    for k in range(1, K_EXACT_MAX + 1):
        for form, column in ((exact_b, 1), (exact_a, 0)):
            got = form(c, k)
            bound = (2 * k * eps * _sum_of_term_moduli(c, k, form)
                     + math.ldexp(12 * (k + 2) * _sum_of_term_moduli(c, k, form, _at_least_one), -1075))
            if finite:
                assert abs(got - exact[k, column]) <= bound, (k, form.__name__)
            else:
                assert cmath.isfinite(got) == math.isfinite(bound), (k, form.__name__)


@pytest.mark.parametrize("form", [exact_b, exact_a], ids=["exact_b", "exact_a"])
def test_closed_form_refuses_a_batch_by_name(form):
    """A batch of 3 would broadcast against the 3 powers 0..2 at k = 2."""
    batch = stacked([present_coeffs(AlgorithmParams(t, 0.1, 0.2)) for t in (0.1, 0.2, 0.3)])
    for k in range(1, 7):
        with pytest.raises(TypeError, match=f"^{form.__name__} takes one instance, not a batch of 3$"):
            form(batch, k)


def test_closed_form_range_guard():
    c = grover_coeffs(0.1)
    with pytest.raises(ValueError):
        exact_b(c, 0)
    with pytest.raises(ClosedFormRangeError):
        exact_b(c, K_EXACT_MAX + 1)


def test_closed_form_evaluates_every_k_once_per_coefficient_set():
    """A refused, float or bool k never reaches the cache; an integer type's
    k reads the int's entry; 64 exact_b and 64 exact_a calls on one set
    evaluate both forms once."""
    c = grover_coeffs(0.1)
    _every_k.cache_clear()
    for form in (exact_b, exact_a):
        for k in (0, K_EXACT_MAX + 1):
            with pytest.raises(ValueError):
                form(c, k)
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            form(c, 2.0)
        for k in (True, False):
            with pytest.raises(TypeError, match=f"^k = {k} is a bool, not an integer$"):
                form(c, k)
    info = _every_k.cache_info()
    assert info.hits == info.misses == info.currsize == 0
    assert _bits(exact_b(c, np.int64(3))) == _bits(exact_b(c, 3))
    assert _bits(exact_a(c, np.int64(3))) == _bits(exact_a(c, 3))
    _every_k.cache_clear()
    for k in range(1, K_EXACT_MAX + 1):
        exact_b(c, k)
        exact_a(c, k)
    info = _every_k.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2 * K_EXACT_MAX - 1, 1)


@pytest.mark.parametrize("coeff,first_j", [(l_coeff, 0), (t_coeff, 1)], ids=["l_coeff", "t_coeff"])
def test_term_table_rows_are_the_printed_integers(coeff, first_j):
    """Row (k, j) of a form's table holds coeff(k, i, j) as floats for
    i = 0..top-2j, top = k - 1 + first_j (for l_coeff, the integers
    ``pyramid`` prints), with exponents top-2j-i of alpha and i of delta as
    uint8; a_k's row (k, 0) is alpha^k alone, coefficient 1. Rows run by k,
    then j, and every array is read-only."""
    table = _term_table(coeff, first_j)
    coef, alpha_exp, delta_exp, row_start, row_k, row_j, k_start = table
    assert not any(array.flags.writeable for array in table)
    assert alpha_exp.dtype == delta_exp.dtype == np.uint8
    expected = [(k, j) for k in range(1, K_EXACT_MAX + 1)
                for j in ([0] if first_j else []) + list(range(first_j, (k - 1 + first_j) // 2 + 1))]
    assert list(zip(row_k.tolist(), row_j.tolist())) == expected
    assert k_start.tolist() == [[k for k, _ in expected].index(k) for k in range(1, K_EXACT_MAX + 1)]
    ends = [*row_start[1:].tolist(), len(coef)]
    for (k, j), start, end in zip(expected, row_start.tolist(), ends):
        top = k - 1 + first_j
        rest = top - 2 * j
        coefs = [1.0] if first_j and not j else [float(coeff(k, i, j)) for i in range(rest + 1)]
        assert coef[start:end].tolist() == coefs
        assert alpha_exp[start:end].tolist() == list(range(rest, rest - len(coefs), -1))
        assert delta_exp[start:end].tolist() == list(range(len(coefs)))


def _payload_nan(payload):
    return struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000 | payload))[0]


def _every_bits(c):
    return [_bits(form(c, k)) for form in (exact_b, exact_a) for k in range(1, K_EXACT_MAX + 1)]


def test_the_closed_form_cache_is_a_pure_memo():
    """Every value read warm is the cold evaluation's, bit for bit, for sets
    with signed zeros and nan parts; sets that differ only in the sign of a
    zero, or in a nan payload, get entries of their own, of read-only
    arrays; and the cache holds at most its fixed number of sets."""
    base = (0.6 + 0.2j, 0.3 - 0.1j, -0.2 + 0.4j, 0.5 - 0.5j)
    sets = [
        TwoDimCoefficients(*base),
        TwoDimCoefficients(complex(0.6, 0.0), complex(0.3, 0.0), complex(-0.2, -0.0), complex(-0.5, 0.0)),
        TwoDimCoefficients(complex(0.6, -0.0), complex(0.3, 0.0), complex(-0.2, -0.0), complex(-0.5, 0.0)),
        TwoDimCoefficients(complex(0.6, -0.0), complex(0.3, -0.0), complex(-0.2, 0.0), complex(-0.5, -0.0)),
        TwoDimCoefficients(base[0], base[1], base[2], complex(0.5, _payload_nan(1))),
        TwoDimCoefficients(base[0], base[1], base[2], complex(0.5, _payload_nan(2))),
        TwoDimCoefficients(complex(_payload_nan(3), 0.2), *base[1:]),
    ]
    cold = []
    for c in sets:
        _every_k.cache_clear()
        cold.append(_every_bits(c))
    _every_k.cache_clear()
    assert [_every_bits(c) for c in sets] == cold
    assert [_every_bits(c) for c in reversed(sets)] == cold[::-1]
    assert _every_k.cache_info().misses == _every_k.cache_info().currsize == len(sets)
    assert not any(form.flags.writeable
                   for form in _every_k(np.array(base, dtype=np.complex128).tobytes()))
    size = _every_k.cache_parameters()["maxsize"]
    rng = np.random.default_rng(5)
    for _ in range(3 * size):
        exact_b(TwoDimCoefficients(*(complex(z) for z in 0.5 * np.exp(1j * rng.uniform(-3, 3, 4)))), 7)
    assert _every_k.cache_info().currsize == size
    assert _every_bits(sets[-1]) == cold[-1]


# ---------------------------------------------------------------------------
# first-order analysis


def test_delta1_equals_exact_delta():
    """The one-step delta = 2 cos(phi) e^(i*phi) - 1 is e^(2i*phi) exactly."""
    for phi in (-2.2, -0.4, 0.0, 0.9, 3.0):
        c = present_coeffs(AlgorithmParams(0.0, phi, 0.1))
        assert c.delta == pytest.approx(cmath.exp(2j * phi), abs=1e-14)


@given(angles, angles, st.integers(1, 10**4), st.floats(0, 1))
@example(theta=3.1415926535897927, phi=1e-9, k=10**4, u=0.05)  # gap just below pi
@example(theta=0.7, phi=0.7 - 3e-7, k=10**4, u=0.05)  # terms nearly in phase
@example(theta=0.2, phi=0.2, k=10**4, u=1.0)  # a gap of exactly 0
# Subnormal beta, where the relative bound rounds to 0 or to a few 2^-1074; the
# last case is off by 2.17 k 2^-1074 past it:
@example(theta=0.0, phi=0.5, k=179, u=5e-324)
@example(theta=1.04296875, phi=0.5, k=435, u=5e-324)
@example(theta=1.0, phi=0.0, k=2, u=2.225073858507e-311)
@example(theta=1.124735498128036, phi=1.1247321317983972, k=155, u=1.67904079775e-313)
@settings(max_examples=60, deadline=None)
def test_approx_b_matches_the_term_sum(theta, phi, k, u):
    """approx_b against beta sum_{i<k} sigma^(k-1-i) delta1^i, summed term by term in NumPy.

    The term sum shares no step with the closed form but beta. The bound is
    approx_b's error model, (|theta - phi| + 3) k^2 eps |beta|, plus the term
    sum's own: each term's phases 2 theta (k-1-i) and 2 phi i round by up to
    (|theta| + |phi|) k eps together, and the products and the pairwise sum
    add far less than k^2 eps.

    A subnormal result rounds by up to half of 2^-1074 absolute, which no
    relative bound covers. Per component, approx_b's products beta sigma^(k-1)
    and then times e^(-i(k-1) gap) add up to 2^-1074 each (modulus sqrt(2)
    2^-1074), and the ratio |D_k| <= k scales both; its last product, the
    term sum's product with beta, the rounded bound and the modulus of the
    difference add under 4 2^-1074. That is 2 sqrt(2) k + 4 < 3k + 4 units of
    2^-1074; closed_form_magnitude needs about 1.2k + 4 of them.
    """
    params = AlgorithmParams(theta, phi, u)
    beta = phase_scale(phi) * u
    i = np.arange(k)
    expected = beta * (np.exp(1j * (2 * theta * (k - 1 - i))) * np.exp(1j * (2 * phi * i))).sum()
    eps = np.finfo(np.float64).eps
    bound = ((abs(theta - phi) + 3 + abs(theta) + abs(phi) + 1) * k * k * eps * abs(beta)
             + (3 * k + 4) * math.ulp(0.0))
    assert abs(approx_b(params, k) - expected) <= bound
    assert closed_form_magnitude(params, k) == pytest.approx(abs(expected), rel=0, abs=bound)


def test_first_order_accuracy():
    # tolerance frozen from a pre-build scan of the same grid (max 1.32e-6)
    worst = 0.0
    for theta in np.linspace(-3, 3, 13):
        for phi in np.linspace(-3, 3, 13):
            params = AlgorithmParams(float(theta), float(phi), 1e-3)
            traj = iterate2(present_coeffs(params), 10)
            for k in range(1, 11):
                worst = max(worst, abs(approx_b(params, k) - traj.b[k]))
    assert worst <= 2e-6


def test_matched_phases_magnitude_is_linear_in_k():
    params = AlgorithmParams(0.2, 0.2, 0.01)
    for k in (1, 5, 40):
        expected = 2 * k * abs(math.cos(0.2)) * 0.01
        assert closed_form_magnitude(params, k) == pytest.approx(expected, abs=1e-14)


def test_closed_form_magnitude_at_tiny_gaps():
    """The ratio form holds for any nonzero gap, checked against 50-digit arithmetic.

    A floor on |sin(gap)| that substitutes the limit k * scale is off by a
    relative (k gap)^2 / 6, which is 1.3e-13 at gap 9e-13 and k = 10^6.
    """
    import mpmath

    for gap in (5e-324, 1e-310, 1e-200, 1e-20, 1e-13, 9e-13, -9e-13):
        params = AlgorithmParams(gap, 0.0, 0.1)
        for k in (1, 2, 7, 1000, 50_000, 1_000_000):
            with mpmath.workdps(50):
                g = mpmath.mpf(gap)
                exact = mpmath.mpf(2 * 0.1) * abs(mpmath.sin(k * g) / mpmath.sin(g))
            assert closed_form_magnitude(params, k) == pytest.approx(float(exact), rel=1e-15)


#: Step counts for the first-order sum, from one term to 10^12.
_APPROX_KS = (1, 2, 7, 64, 3 * 2**14 + 5, 50_000, 10**6, 10**12)


def _approx_b_cases():
    rng = np.random.default_rng(2024)
    drawn = [(float(t), float(p)) for t, p in rng.uniform(-math.pi, math.pi, (12, 2))]
    # Terms nearly in phase, the worst case of the error model: theta - phi
    # near 0, near pi (2.1052 + 1.0362 = 3.1414) and near 2 pi.
    in_phase = [(0.7, 0.7 - 3e-7), (2.1052, -1.0362), (3.1, 3.1 - 2 * math.pi + 2e-7)]
    return drawn + in_phase


@pytest.mark.parametrize("theta,phi", _approx_b_cases())
def test_approx_b_matches_a_40_digit_geometric_sum(theta, phi):
    """approx_b against beta (sigma^k - delta1^k) / (sigma - delta1) at 40 digits.

    The bound is approx_b's error model, (|theta - phi| + 3) k^2 eps |beta|:
    the reduced gap's rounding and the one power sigma^(k-1) each move a
    phase by O(eps) per step.
    """
    import mpmath

    params = AlgorithmParams(theta, phi, 0.05)
    beta = phase_scale(phi) * params.u
    eps = np.finfo(np.float64).eps
    with mpmath.workdps(40):
        sigma = mpmath.exp(2j * mpmath.mpf(theta))
        delta1 = mpmath.exp(2j * mpmath.mpf(phi))
        for k in _APPROX_KS:
            exact = mpmath.mpc(beta) * (sigma**k - delta1**k) / (sigma - delta1)
            bound = (abs(theta - phi) + 3) * k * k * eps * abs(beta)
            assert abs(approx_b(params, k) - complex(exact)) <= bound, k


def test_first_order_sums_at_k_1e12_take_constant_memory():
    """approx_b and approx4's c channel at k = 10^12 are within approx_b's
    error model of the 40-digit geometric sum, and a_k within its phase's
    rounding, with a tracemalloc peak below 64 KB: the closed form holds no
    term, where the 10^12 terms would take 16 TB."""
    import mpmath
    import tracemalloc

    theta, phi, u, k = 0.3, -0.4, 0.05, 10**12
    tracemalloc.start()
    try:
        b_k = approx_b(AlgorithmParams(theta, phi, u), k)
        a_k, c_next = approx4(theta, phi, u, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10
    beta = phase_scale(phi) * u
    eps = np.finfo(np.float64).eps
    m = k // 2
    with mpmath.workdps(40):
        sigma = mpmath.exp(2j * mpmath.mpf(theta))
        delta1 = mpmath.exp(2j * mpmath.mpf(phi))
        for terms, got, sign in ((k, b_k, 1), (m + 1, c_next, (-1) ** m)):
            exact = sign * mpmath.mpc(beta) * (sigma**terms - delta1**terms) / (sigma - delta1)
            assert abs(got - complex(exact)) <= (abs(theta - phi) + 3) * terms**2 * eps * abs(beta)
        assert abs(a_k - complex((-1) ** m * sigma**m)) <= 2 * m * abs(theta) * eps


@pytest.mark.parametrize("k", [10**20, 10**400], ids=["1e20", "1e400"])
def test_a_k_past_the_first_order_limit_is_refused_before_any_work(monkeypatch, k):
    """Past (|theta - phi| + 3) k eps = 1 approx_b's error bound exceeds
    |beta| k, the largest the sum can be: k is refused by name before any
    sine or exponential is taken, so 10^400 overflows no float."""
    def no_work(*args):
        raise AssertionError("a first-order form was evaluated")

    monkeypatch.setattr(math, "sin", no_work)
    monkeypatch.setattr(cmath, "exp", no_work)
    params = AlgorithmParams(0.3, -0.4, 0.05)
    for call in (lambda: approx_b(params, k), lambda: closed_form_magnitude(params, k),
                 lambda: approx4(0.3, -0.4, 0.05, k)):
        with pytest.raises(ValueError, match=rf"^k = {k} is outside \[1, \d+\]$"):
            call()


# ---------------------------------------------------------------------------
# sweeps and the phase condition


def test_sweep_max_small_angle():
    c = present_coeffs(AlgorithmParams(0.01, 0.0, 0.1))
    res = sweep_max(c, 100)
    assert res.k_star == 86
    assert res.max_abs_b == pytest.approx(1.003405056579, abs=1e-9)
    assert abs(iterate2(c, 7).b[7]) == pytest.approx(0.989901089357, abs=1e-9)


def test_sweep_max_grover_short():
    c = grover_coeffs(0.1)
    res = sweep_max(c, 10)
    assert res.k_star == 8
    assert res.max_abs_b == pytest.approx(1.004527053996, abs=1e-9)
    assert abs(iterate2(c, 7).b[7]) == pytest.approx(0.990811915059, abs=1e-9)


def test_sweep_max_ties_resolve_to_smallest_k():
    # phi = pi/2 makes every b_k zero, so the tie is at k = 1
    params = AlgorithmParams(0.3, math.pi / 2, 0.1)
    res = sweep_max(present_coeffs(params), 20)
    assert res.k_star == 1
    assert res.max_abs_b == 0.0
    batch = sweep_max(stacked([present_coeffs(AlgorithmParams(theta, math.pi / 2, 0.1))
                                for theta in (-1.0, 0.0, 0.3, 2.0)]), 20)
    np.testing.assert_array_equal(batch.k_star, [1, 1, 1, 1])
    np.testing.assert_array_equal(batch.max_abs_b, [0.0, 0.0, 0.0, 0.0])


def test_sweep_max_result_types_follow_the_coefficient_shape():
    c = present_coeffs(AlgorithmParams(0.01, 0.0, 0.1))
    one = sweep_max(c, 100)
    assert type(one.k_star) is int and type(one.max_abs_b) is float
    batch = sweep_max(stacked([c, c]), 100)
    assert batch.k_star.shape == batch.max_abs_b.shape == (2,)
    assert batch.k_star.tolist() == [one.k_star] * 2


def test_iterate2_continues_from_a_start_row():
    """12 steps and then 18 more from the last row are the 30 steps of one
    run, bit for bit, for one instance and for a batch; so are 1500 and then
    700 the 2200 steps from an explicit (1, 0), as a run given a start row
    loops, however long."""
    c = present_coeffs(AlgorithmParams(0.4, -0.2, 0.3 + 0.1j))
    for coeffs, last in ((c, complex), (stacked([c, grover_coeffs(0.2)]), np.copy)):
        for first, then in ((12, 18), (1500, 700)):
            whole = iterate2(coeffs, first + then, (1.0 + 0j, 0j))
            head = iterate2(coeffs, first, (1.0 + 0j, 0j))
            rest = iterate2(coeffs, then, (last(head.a[-1]), last(head.b[-1])))
            assert _bit_equal(head.a, whole.a[: first + 1]) and _bit_equal(head.b, whole.b[: first + 1])
            assert _bit_equal(rest.a, whole.a[first:]) and _bit_equal(rest.b, whole.b[first:])


def test_iterate2_rows_up_to_a_block_are_the_plain_recurrence():
    """From the origin, a run of 2 _BLOCK steps is the loop throughout, and
    in a longer one, whose rows past _BLOCK are superposed, rows k <= _BLOCK
    stay those of a run that stops there. A run given a start row, (1, 0)
    included, is the loop throughout."""
    c = present_coeffs(AlgorithmParams(0.4, -0.2, 0.3 + 0.1j))
    batch = stacked([c, grover_coeffs(0.2)])
    for coeffs in (c, batch):
        short = iterate2(coeffs, 2 * _BLOCK)
        loop = engine2d._recurrence2(coeffs, 2 * _BLOCK, engine2d._ORIGIN)
        assert _bit_equal(short.a, loop.a) and _bit_equal(short.b, loop.b)
        head = iterate2(coeffs, _BLOCK)
        whole = iterate2(coeffs, 3 * _BLOCK + 7)
        assert _bit_equal(whole.a[: _BLOCK + 1], head.a) and _bit_equal(whole.b[: _BLOCK + 1], head.b)
    for coeffs, start in ((c, (1.0 + 0j, 0j)), (c, (0.3 - 0.2j, -0.5j)),
                          (batch, (1.0 + 0j, 0j)), (batch, (np.array([0.3, 1j]), np.zeros(2)))):
        whole = iterate2(coeffs, 3 * _BLOCK + 7, start)
        loop = engine2d._recurrence2(coeffs, 3 * _BLOCK + 7, start)
        assert _bit_equal(whole.a, loop.a) and _bit_equal(whole.b, loop.b)


def _exact_trajectory(c, k_max):
    """Rows 0..k_max of the recurrence in exact Gaussian-rational arithmetic,
    each rounded once to complex.

    ``Fraction`` reads every float exactly as an integer over a power of two,
    so one common 2^s makes all eight coefficient parts integers, and row k
    is a Gaussian integer over 2^(k s). The steps then run exactly in Python
    ints, and each part is rounded by int true division, which is correctly
    rounded. Fraction arithmetic itself gives the same rows, but renormalises
    by a gcd of its growing denominators at every operation and takes minutes
    at k = 2000.
    """
    parts = [Fraction(x) for z in (c.alpha, c.beta, c.lam, c.delta)
             for x in (complex(z).real, complex(z).imag)]
    s = max(p.denominator for p in parts).bit_length() - 1
    ar, ai, br, bi, lr, li, dr, di = (int(p * 2**s) for p in parts)
    (xr, xi), (yr, yi) = (1, 0), (0, 0)
    rows = [(1 + 0j, 0j)]
    for k in range(1, k_max + 1):
        xr, xi, yr, yi = (ar * xr - ai * xi + lr * yr - li * yi, ar * xi + ai * xr + lr * yi + li * yr,
                          br * xr - bi * xi + dr * yr - di * yi, br * xi + bi * xr + dr * yi + di * yr)
        den = 1 << (k * s)
        rows.append((complex(xr / den, xi / den), complex(yr / den, yi / den)))
    return np.array(rows)


@pytest.mark.parametrize("c", [
    present_coeffs(AlgorithmParams(0.3, 0.1, 0.1)),
    hoyer_coeffs(HoyerParams(0.05, 3.1, 0.2)),
    grover_coeffs(1 / 30),
], ids=["present", "hoyer", "grover"])
def test_superposed_rows_match_the_exact_recurrence(c):
    """Measured: at most 9.7e-15 off (the plain loop, 5.0e-15)."""
    exact = _exact_trajectory(c, 2000)
    traj = iterate2(c, 2000)
    assert np.max(np.abs(traj.a - exact[:, 0])) <= 1e-13
    assert np.max(np.abs(traj.b - exact[:, 1])) <= 1e-13


@pytest.mark.parametrize("c", [
    TwoDimCoefficients(1, 1, -2e-5, 1),
    TwoDimCoefficients(1.2, 0.3, 0.3, 1.1),
], ids=["near-coalescing", "growing"])
def test_iterate2_keeps_the_loop_past_the_unit_bound(monkeypatch, c):
    """Where a unit entry passes _UNIT_BOUND, ``iterate2`` and ``sweep_max``
    give the loop's rows and peak, bit for bit, and the sweep takes the unit
    trajectories once. The near-coalescing map's entries reach 224, and its
    b is as close to the exact recurrence as the loop's (measured 3.7e-13,
    where superposed blocks were 2.6e-12 off); the second map's rows overflow
    to inf and nan before k = 4000."""
    units = [engine2d._recurrence2(c, _BLOCK, e) for e in engine2d._UNITS]
    assert max(np.max(np.abs(np.stack([u.a, u.b]))) for u in units) > _UNIT_BOUND
    loop = engine2d._recurrence2(c, 4000, engine2d._ORIGIN)
    traj = iterate2(c, 4000)
    assert _bit_equal(traj.a, loop.a) and _bit_equal(traj.b, loop.b)
    steps = []
    recurrence = engine2d._recurrence2
    monkeypatch.setattr(engine2d, "_recurrence2",
                        lambda c, k_max, *rest: steps.append(k_max) or recurrence(c, k_max, *rest))
    got, want = sweep_max(c, 4000), _peak_of(loop.b, 4000)
    assert got.k_star == want.k_star and _bit_equal(got.max_abs_b, want.max_abs_b)
    assert steps.count(_BLOCK) == len(engine2d._UNITS)
    if np.isfinite(loop.b).all():
        exact = _exact_trajectory(c, 4000)
        assert np.max(np.abs(traj.b - exact[:, 1])) <= 4e-13


_coefficients = st.builds(cmath.rect, st.floats(0.0, 1.0), st.floats(-math.pi, math.pi))


@given(st.builds(TwoDimCoefficients, *[_coefficients] * 4), st.integers(0, 4000))
@settings(max_examples=30, deadline=None)
# Near-coalescing eigenvalues: unit entries reach 224, so the run keeps the loop.
@example(TwoDimCoefficients(1, 1, -2e-5, 1), 4000)
def test_iterate2_is_the_loop_or_within_rounding_of_it(c, k_max):
    """A run of k_max <= 2 _BLOCK steps, and rows k <= _BLOCK of a longer
    one, are the loop's, bit for bit. Later rows of a longer run are
    superposed blocks, or the loop's: within 1e-12 of the loop relative to
    the largest entry so far, up to where the entries near overflow."""
    traj = iterate2(c, k_max)
    loop = engine2d._recurrence2(c, k_max, engine2d._ORIGIN)
    got, ref = np.stack([traj.a, traj.b]), np.stack([loop.a, loop.b])
    head = slice(0, (k_max if k_max <= 2 * _BLOCK else _BLOCK) + 1)
    assert _bit_equal(got[:, head], ref[:, head])
    with np.errstate(over="ignore"):
        scale = np.maximum.accumulate(np.max(np.abs(ref), axis=0))
    tail = (np.arange(k_max + 1) > _BLOCK) & (scale < 1e290)
    dev = np.max(np.abs(got[:, tail] - ref[:, tail]), axis=0, initial=0.0)
    assert np.all(dev <= 1e-12 * np.maximum(1.0, scale[tail]))


@pytest.mark.parametrize("count", [2, 8])
def test_small_batch_sweeps_at_large_kmax_match_scalar_sweeps(count):
    """A few theta at kmax 40 000 superpose as a batch, and each gives its
    scalar sweep's k_star, here with no second |b_k| within 1e-11 of the peak."""
    coeffs = [present_coeffs(AlgorithmParams(theta, 0.0, 0.1))
              for theta in np.linspace(0.01, 0.5, count).tolist()]
    batch = sweep_max(stacked(coeffs), 40_000)
    for i, c in enumerate(coeffs):
        one = sweep_max(c, 40_000)
        runner_up = np.sort(np.abs(iterate2(c, 40_000).b[1:]))[-2]
        assert runner_up < one.max_abs_b - 1e-11
        assert batch.k_star[i] == one.k_star
        assert abs(batch.max_abs_b[i] - one.max_abs_b) <= 1e-12


def _whole_peak(c, k_max):
    return _peak_of(iterate2(c, k_max).b, k_max)


# Present theta = 0.01: k* = 86 of 100. (0, 1, 1, 0): |b_k| alternates 1, 0,
# so every chunk ties the first and k* = 1. Past overflow k* is the first k
# whose |b_k| is not finite, with max |b_k| inf, and no later chunk takes
# over from it. 2 throughout keeps the loop (its unit entries pass
# _UNIT_BOUND): |b_k| overflows to inf at k = 513, its k*, and is first nan
# at k = 515, in a later chunk for some chunk sizes; at kmax 1600 the loop
# chunks take block - 1 steps, as superposed ones do. The next two maps
# superpose (unit entries at most 3.68 and 2.44). In the first, |b_k| is
# first nan at its first row that is not finite, k = 279 041. In the
# second, a real map, |b_k| is first inf at k = 284 546, its k*, and first
# nan at k = 284 673, the first row of the block after. Chunks cut superposed blocks at any k.
@pytest.mark.parametrize("coeffs, k_max, blocks", [
    (present_coeffs(AlgorithmParams(0.01, 0.0, 0.1)), 100, range(2, 120)),
    (stacked([present_coeffs(AlgorithmParams(t, 0.0, 0.1)) for t in (0.01, 0.02, 0.05)]),
     100, range(6, 320)),
    (TwoDimCoefficients(0, 1, 1, 0), 40, range(2, 50)),
    (stacked([TwoDimCoefficients(0, 1, 1, 0)] * 2), 40, range(4, 100)),
    (TwoDimCoefficients(2, 2, 2, 2), 700, (2, 100, 514, 515, 516)),
    (TwoDimCoefficients(2, 2, 2, 2), 1600, (2, 100, 1536, 1537, 1538)),
    (TwoDimCoefficients(1.0025, 0.01, 0.01, 1.0025 * cmath.exp(1j)), 300_000,
     (100, 279_041, 279_042)),
    (TwoDimCoefficients(1.0015, 0.001, 0.001, 1.0015), 300_000,
     (284_546, 284_547, 284_673, 284_674)),
    (stacked([present_coeffs(AlgorithmParams(t, 0.0, 0.1)) for t in (0.01, 0.02, 0.05)]),
     1500, (6, 300, 1542, 1545, 3078)),
], ids=["scalar", "batch", "tie", "batch tie", "nan", "long loop nan", "superposed nan",
        "superposed inf then nan", "superposed batch"])
def test_sweep_max_chunks_keep_the_whole_trajectory_peak(monkeypatch, coeffs, k_max, blocks):
    """Every chunk size, k* on a chunk's last or first k included, gives the
    bits of the peak over the whole trajectory, and no chunk array holds more
    than SWEEP_BLOCK entries."""
    want = _whole_peak(coeffs, k_max)
    sizes = []
    chunks = engine2d._chunks

    def recording(c, k_max, steps):
        for b in chunks(c, k_max, steps):
            sizes.append(b.size)
            yield b

    monkeypatch.setattr(engine2d, "_chunks", recording)
    for block in blocks:
        monkeypatch.setattr(engine2d, "SWEEP_BLOCK", block)
        sizes.clear()
        got = sweep_max(coeffs, k_max)
        assert max(sizes) <= block and sum(sizes) == (k_max + len(sizes)) * np.size(coeffs.alpha)
        assert type(got.k_star) is type(want.k_star)
        assert type(got.max_abs_b) is type(want.max_abs_b)
        np.testing.assert_array_equal(got.k_star, want.k_star)
        np.testing.assert_array_equal(got.max_abs_b, want.max_abs_b)


def test_the_first_row_past_overflow_takes_the_peak_alone_and_in_a_batch():
    """Once rows overflow, a lone run's matrix-vector product gives |b_k| nan
    where a batch's multiply-adds give inf, at the same k; either way that
    first k whose |b_k| is not finite is k*, with max |b_k| inf."""
    c = TwoDimCoefficients(1.0025, 0.01, 0.01, 1.0025 * cmath.exp(1j))
    with np.errstate(over="ignore"):
        lone = np.abs(iterate2(c, 279_041).b)
        pair = np.abs(iterate2(stacked([c, c]), 279_041).b)
    assert np.isfinite(lone[:-1]).all() and np.isnan(lone[-1])
    assert np.isfinite(pair[:-1]).all() and np.isposinf(pair[-1]).all()
    for got in (sweep_max(c, 300_000), sweep_max(stacked([c, c]), 300_000)):
        np.testing.assert_array_equal(got.k_star, 279_041)
        np.testing.assert_array_equal(got.max_abs_b, math.inf)


def _bit_equal(got, want):
    """Every bit equal: signs of zeros, infinities and nan payloads included."""
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _out_of_place(c, k_max, start):
    """The batch loop as the expression alpha a + lambda b, beta a + delta b,
    with new arrays at every step."""
    a = np.empty((k_max + 1, np.size(c.alpha)), dtype=np.complex128)
    b = np.empty_like(a)
    ak, bk = start
    a[0], b[0] = ak, bk
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, k_max + 1):
            ak, bk = c.alpha * ak + c.lam * bk, c.beta * ak + c.delta * bk
            a[k], b[k] = ak, bk
    return a, b


def test_in_place_batch_steps_are_the_out_of_place_expression_bit_for_bit():
    """40 instances, three of which overflow to inf and then nan near k = 512
    and one with nan, inf and -0.0 among its coefficients, run 600 steps from
    (1, 0) and from another start row, with and without ``out``: every row
    is the expression's, bit for bit."""
    rng = np.random.default_rng(24)
    coeffs = [TwoDimCoefficients(*(complex(*rng.uniform(-1, 1, 2)) for _ in range(4)))
              for _ in range(36)]
    coeffs += [TwoDimCoefficients(2, 2, 2, 2), TwoDimCoefficients(2j, 2j, 2j, 2j),
               TwoDimCoefficients(-4, 1, 0, 0.5),
               TwoDimCoefficients(0.5, complex(math.nan, 1), complex(-0.0, -0.0), math.inf)]
    c = stacked(coeffs)
    other = rng.uniform(-1, 1, 40) + 0j, np.full(40, complex(-0.0, 0.0))
    for start in ((1.0 + 0j, 0j), other):
        want_a, want_b = _out_of_place(c, 600, start)
        assert np.isnan(want_b[-1]).sum() >= 3 and np.isinf(want_a).any()
        rows = np.empty((601, 40), dtype=np.complex128), np.empty((601, 40), dtype=np.complex128)
        for got in (iterate2(c, 600, start), iterate2(c, 600, start, out=rows)):
            assert _bit_equal(got.a, want_a) and _bit_equal(got.b, want_b)


@pytest.mark.parametrize("coeffs, k_max, steps", [
    (present_coeffs(AlgorithmParams(0.3, 0.1, 0.1)), 100, 30),
    (stacked([present_coeffs(AlgorithmParams(t, 0.0, 0.1)) for t in (0.01, 0.02, 0.05)]), 400, 64),
    (present_coeffs(AlgorithmParams(0.3, 0.1, 0.1)), 3000, 700),
    (stacked([present_coeffs(AlgorithmParams(t, 0.0, 0.1)) for t in (0.01, 0.02, 0.05)]), 1500, 400),
], ids=["scalar loop", "batch loop", "scalar superposed", "batch superposed"])
def test_sweep_chunks_share_one_pair_of_buffers(coeffs, k_max, steps):
    """Each chunk is a view of the first one's buffer, and the rows of
    ``iterate2``'s whole run, bit for bit, up to a last chunk shorter than
    the rest."""
    whole = iterate2(coeffs, k_max).b
    chunks = engine2d._chunks(coeffs, k_max, steps)
    first = next(chunks)
    done = 0
    for b in itertools.chain([first], chunks):
        assert np.shares_memory(b, first)
        assert _bit_equal(b, whole[done : done + len(b)])
        done += len(b) - 1
    assert done == k_max and k_max % steps and len(b) == k_max % steps + 1


def test_sweep_max_peak_holds_over_a_partial_last_chunk():
    """1001 theta take 65 536 // 1001 - 1 = 64 steps per chunk: kmax 400 is
    six whole chunks and one of 16 steps."""
    c = present_coeffs(AlgorithmParams(np.linspace(-0.5, 0.5, 1001), 0.3, 0.1 + 0.05j))
    got, want = sweep_max(c, 400), _whole_peak(c, 400)
    np.testing.assert_array_equal(got.k_star, want.k_star)
    np.testing.assert_array_equal(got.max_abs_b, want.max_abs_b)


@pytest.mark.parametrize("coeffs", [
    present_coeffs(AlgorithmParams(0.3, 0.1, 0.1)),
    stacked([present_coeffs(AlgorithmParams(t, 0.1, 0.2)) for t in (0.1, 0.2, 0.3)]),
    stacked([present_coeffs(AlgorithmParams(t, 0.1, 0.2)) for t in np.linspace(0, 1, 40)]),
], ids=["scalar", "batch", "wide batch"])
@pytest.mark.parametrize("k_max", [10, 3 * _BLOCK], ids=["short", "long"])
def test_iterate2_fills_out_or_refuses_it(coeffs, k_max):
    """``out`` receives the rows of the loop, bit for bit, also where the
    run without it superposes (long scalar and batch runs); a pair of the
    wrong shape, dtype or length, or two arrays that share memory, is
    refused."""
    shape = (k_max + 1, *np.shape(coeffs.alpha))
    rows = np.empty(shape, dtype=np.complex128), np.empty(shape, dtype=np.complex128)
    superposes = engine2d._units(engine2d._unit_trajectories2, coeffs, k_max,
                                 np.size(coeffs.alpha)) is not None
    assert superposes == (k_max > 2 * _BLOCK and np.size(coeffs.alpha) <= engine2d._NARROW)
    want = engine2d._recurrence2(coeffs, k_max, engine2d._ORIGIN)
    got = iterate2(coeffs, k_max, out=rows)
    for part, expected, buffer in zip((got.a, got.b), (want.a, want.b), rows):
        assert np.shares_memory(part, buffer) and _bit_equal(part, expected)
    # Interleaved columns share bounds but no element.
    both = np.empty((k_max + 1, 2 * shape[-1]), dtype=np.complex128)
    if len(shape) == 2:
        got = iterate2(coeffs, k_max, out=(both[:, 0::2], both[:, 1::2]))
        assert _bit_equal(got.a, want.a) and _bit_equal(got.b, want.b)
    message = f"out must be two complex128 arrays of shape {shape} that share no memory"
    for out in ((rows[0].astype(np.complex64), rows[1]),
                (rows[0], np.empty((k_max, *shape[1:]), dtype=np.complex128)),
                (rows[0].real.copy(), rows[1]),
                (rows[0], rows[1].tolist()),
                (rows[0], rows[1], rows[1].copy()),
                (rows[0], rows[0])):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            iterate2(coeffs, k_max, out=out)


def test_phase_condition():
    cond = phase_condition(AlgorithmParams(0.01, 0.0, 0.1))
    assert cond.threshold == pytest.approx(0.2, abs=1e-15)
    assert cond.ratio_l == pytest.approx(0.05, abs=1e-12)
    assert cond.satisfied
    far = phase_condition(AlgorithmParams(0.5, 0.0, 0.1))
    assert far.ratio_l == pytest.approx(2.5, abs=1e-12)
    assert not far.satisfied
    # theta = 3.15159, about 0.01 + pi, gives nearly the operator of theta = 0.01
    wrapped = phase_condition(AlgorithmParams(3.15159, 0.0, 0.1))
    assert wrapped.ratio_l == pytest.approx((3.15159 - math.pi) / 0.2, abs=1e-12)
    assert wrapped.satisfied


@given(angles, angles, st.floats(1e-3, 1.0), st.integers(-4, 4))
@settings(max_examples=100, deadline=None)
def test_phase_condition_has_period_pi_in_theta(theta, phi, u, n):
    base = phase_condition(AlgorithmParams(theta, phi, u))
    shifted = phase_condition(AlgorithmParams(theta + n * math.pi, phi, u))
    assert shifted.threshold == base.threshold
    if base.threshold > 0:
        gap, shifted_gap = base.ratio_l * base.threshold, shifted.ratio_l * shifted.threshold
        assert shifted_gap == pytest.approx(gap, abs=1e-12)
        assert gap <= math.pi / 2 + 1e-12
        if abs(base.ratio_l - 1) > 1e-9:
            assert shifted.satisfied == base.satisfied
    else:
        assert math.isinf(shifted.ratio_l) and not shifted.satisfied


def test_phase_condition_degenerate_threshold():
    cond = phase_condition(AlgorithmParams(0.3, math.pi / 2, 0.1))
    assert cond.threshold == 0.0
    assert math.isinf(cond.ratio_l)
    assert not cond.satisfied


@pytest.mark.parametrize("call", [
    closed_form_magnitude, approx_b,
    lambda params, k: exact_b(present_coeffs(params), k),
    lambda params, k: exact_a(present_coeffs(params), k),
    lambda params, k: iterate2(present_coeffs(params), k),
    lambda params, k: sweep_max(present_coeffs(params), k),
    lambda params, index: basis_state(4, index),
    lambda params, index: build(index, params.theta, 4),
], ids=["closed_form_magnitude", "approx_b", "exact_b", "exact_a", "iterate2", "sweep_max",
        "basis_state", "build"])
def test_a_fractional_step_count_is_a_type_error(call):
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        call(AlgorithmParams(0.05, 0.0, 0.1), 2.5)


@pytest.mark.parametrize("run, c", [
    (iterate2, grover_coeffs(0.1)),
    (sweep_max, grover_coeffs(0.1)),
    (iterate4, four_dim_coeffs(FourDimInputs.idealized(0.3, 0.1, 0.1))),
    (lambda params, k: approx4(params.theta, params.phi, params.u, k), AlgorithmParams(0.3, 0.1, 0.1)),
], ids=["iterate2", "sweep_max", "iterate4", "approx4"])
def test_a_float_k_max_is_refused_before_any_step(monkeypatch, run, c):
    """3000.0 steps would superpose; the float is refused as a float before
    a unit trajectory runs, and approx4's k before its first-order sum."""
    def no_step(*args):
        raise AssertionError("a step ran")

    monkeypatch.setattr(engine2d, "_recurrence2", no_step)
    monkeypatch.setattr(engine4d, "_recurrence4", no_step)
    monkeypatch.setattr(engine4d, "approx_b", no_step)
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        run(c, 3000.0)


def test_sweep_rejects_empty_range():
    for k_max in (0, -1):
        with pytest.raises(ValueError, match=rf"k_max = {k_max} is outside \[1, inf\]"):
            sweep_max(grover_coeffs(0.1), k_max)
