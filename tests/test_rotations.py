"""Tests for the selective phase rotation."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasematch.rotations import build, phase_scale, snapped_cos

angles = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi,
                   allow_nan=False, allow_infinity=False)


def test_unitary_family_entry_is_minus_double_phase():
    # 1 - 2 cos(t) e^(it) = -e^(2it)
    for t in (0.0, 0.3, 1.1, -2.5, math.pi):
        m = build(0, t, 2)
        assert m[0, 0] == pytest.approx(-cmath.exp(2j * t), abs=1e-14)


def test_unitary_at_half_pi_is_exact_identity():
    """cos(pi/2) is snapped to zero, so the rotation degenerates exactly."""
    m = build(0, math.pi / 2, 3)
    np.testing.assert_array_equal(m, np.eye(3))


def test_snapped_cos():
    assert snapped_cos(math.pi / 2) == 0.0
    assert snapped_cos(3 * math.pi / 2) == 0.0
    assert snapped_cos(0.0) == 1.0
    assert snapped_cos(1.0) == math.cos(1.0)


def test_phase_scale_zero():
    assert phase_scale(0.0) == 2.0
    assert phase_scale(math.pi / 2) == 0.0


@given(angles)
@settings(max_examples=60, deadline=None)
def test_families_are_unitary(theta):
    m = build(1, theta, 4)
    np.testing.assert_allclose(m @ m.conj().T, np.eye(4), atol=1e-12)


def test_build_rejects_bad_index():
    with pytest.raises(ValueError):
        build(4, 0.1, 4)
