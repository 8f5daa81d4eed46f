"""Tests for the two-dimensional subspace engine."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
)

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
def test_long_coeffs_are_present_coeffs_at_twice_the_angle_plus_pi(theta, phi, r, arg):
    """Long's rotation at 2t + pi is the package's rotation at t."""
    u = cmath.rect(r, arg)
    lc = long_coeffs(2 * theta + math.pi, 2 * phi + math.pi, u)
    pc = present_coeffs(AlgorithmParams(theta, phi, u))
    for name in ("alpha", "beta", "lam", "delta"):
        assert abs(getattr(lc, name) - getattr(pc, name)) <= 1e-13


def test_present_at_zero_angles_matches_grover():
    """theta = phi = 0 is the inversion point of the double-rotation family."""
    pc = present_coeffs(AlgorithmParams(0.0, 0.0, 0.3))
    gc = grover_coeffs(0.3)
    for name in ("alpha", "beta", "lam", "delta"):
        assert getattr(pc, name) == pytest.approx(getattr(gc, name), abs=1e-15)


def test_hoyer_at_pi():
    a = 0.17
    hc = hoyer_coeffs(HoyerParams(a, math.pi, 0.0))
    root = 2 * math.sqrt(a * (1 - a))
    assert hc.alpha == pytest.approx(1 - 2 * a, abs=1e-12)
    assert hc.beta == pytest.approx(root, abs=1e-12)
    assert hc.lam == pytest.approx(root, abs=1e-12)
    assert hc.delta == pytest.approx(2 * a - 1, abs=1e-12)


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


def test_beta_vanishes_at_half_pi_phi():
    c = present_coeffs(AlgorithmParams(0.4, math.pi / 2, 0.2))
    assert c.beta == 0.0


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


def _stack(coeffs):
    return TwoDimCoefficients(*(
        np.array([getattr(c, name) for c in coeffs], dtype=np.complex128)
        for name in ("alpha", "beta", "lam", "delta")
    ))


instances = st.lists(
    st.tuples(angles, angles, st.floats(0.0, 0.9), st.floats(-math.pi, math.pi)),
    min_size=2, max_size=6,
)


@given(instances)
@settings(max_examples=60, deadline=None)
def test_iterate2_batch_matches_scalar_columns(cases):
    coeffs = [present_coeffs(AlgorithmParams(t, p, cmath.rect(r, arg)))
              for t, p, r, arg in cases]
    batch = iterate2(_stack(coeffs), 50)
    assert batch.a.shape == batch.b.shape == (51, len(coeffs))
    for i, c in enumerate(coeffs):
        scalar = iterate2(c, 50)
        for got, want in ((batch.a[:, i], scalar.a), (batch.b[:, i], scalar.b)):
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
    res = sweep_max(_stack(coeffs), 50)
    for i, c in enumerate(coeffs):
        one = sweep_max(c, 50)
        assert res.max_abs_b[i] == pytest.approx(one.max_abs_b, rel=1e-11)


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


def _paper_double_sum(c, k, coeff, top, first_j, total):
    """sum_{j >= first_j} (beta*lambda)^j sum_i coeff(k, i, j) alpha^(top-2j-i) delta^i
    added onto ``total``, with every power computed where its term needs it."""
    for j in range(first_j, top // 2 + 1):
        rest = top - 2 * j
        total += sum(
            coeff(k, i, j) * c.alpha ** (rest - i) * c.delta**i for i in range(rest + 1)
        ) * (c.beta * c.lam) ** j
    return total


def _bits(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


_unit_disk = st.builds(cmath.rect, st.floats(0.0, 1.0), st.floats(-math.pi, math.pi))


@given(st.one_of(
    st.builds(TwoDimCoefficients, _unit_disk, _unit_disk, _unit_disk, _unit_disk),
    st.builds(grover_coeffs, _unit_disk),
))
@settings(max_examples=20, deadline=None)
def test_closed_form_is_bit_identical_to_the_paper_double_sum(c):
    """b_k = beta sum_j c_kj (beta*lambda)^j and a_k = alpha^k + sum_{j>=1} d_kj (beta*lambda)^j.

    Grover's coefficients keep alpha and delta real floats, so both the
    complex and the mixed float/complex arithmetic are covered.
    """
    for k in range(1, K_EXACT_MAX + 1):
        b_k = c.beta * _paper_double_sum(c, k, l_coeff, k - 1, 0, 0j)
        a_k = _paper_double_sum(c, k, t_coeff, k, 1, c.alpha**k + 0j)
        assert _bits(exact_b(c, k)) == _bits(b_k)
        assert _bits(exact_a(c, k)) == _bits(a_k)


def test_closed_form_range_guard():
    c = grover_coeffs(0.1)
    with pytest.raises(ValueError):
        exact_b(c, 0)
    with pytest.raises(ClosedFormRangeError):
        exact_b(c, K_EXACT_MAX + 1)


# ---------------------------------------------------------------------------
# first-order analysis


def test_delta1_equals_exact_delta():
    """The one-step delta = 2 cos(phi) e^(i*phi) - 1 is e^(2i*phi) exactly."""
    for phi in (-2.2, -0.4, 0.0, 0.9, 3.0):
        c = present_coeffs(AlgorithmParams(0.0, phi, 0.1))
        assert c.delta == pytest.approx(cmath.exp(2j * phi), abs=1e-14)


@given(angles, angles)
@example(theta=3.1415926535897927, phi=1e-9)  # gap just below pi
@settings(max_examples=60, deadline=None)
def test_closed_form_magnitude_matches_approx(theta, phi):
    params = AlgorithmParams(theta, phi, 0.05)
    for k in (1, 3, 10):
        assert abs(approx_b(params, k)) == pytest.approx(
            closed_form_magnitude(params, k), abs=1e-10
        )


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
    batch = sweep_max(_stack([present_coeffs(AlgorithmParams(theta, math.pi / 2, 0.1))
                              for theta in (-1.0, 0.0, 0.3, 2.0)]), 20)
    np.testing.assert_array_equal(batch.k_star, [1, 1, 1, 1])
    np.testing.assert_array_equal(batch.max_abs_b, [0.0, 0.0, 0.0, 0.0])


def test_sweep_max_result_types_follow_the_coefficient_shape():
    c = present_coeffs(AlgorithmParams(0.01, 0.0, 0.1))
    one = sweep_max(c, 100)
    assert type(one.k_star) is int and type(one.max_abs_b) is float
    batch = sweep_max(_stack([c, c]), 100)
    assert batch.k_star.shape == batch.max_abs_b.shape == (2,)
    assert batch.k_star.tolist() == [one.k_star] * 2


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


def test_sweep_rejects_empty_range():
    for k_max in (0, -1):
        with pytest.raises(ValueError, match="k_max must be >= 1"):
            sweep_max(grover_coeffs(0.1), k_max)
