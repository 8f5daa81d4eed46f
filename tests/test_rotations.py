"""Tests for the selective phase rotation."""

import cmath
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasematch import cli, engine2d
from phasematch.cli import run_table2, run_verify
from phasematch.engine2d import (
    AlgorithmParams,
    HoyerParams,
    approx_b,
    closed_form_magnitude,
    exact_a,
    exact_b,
    grover_coeffs,
    iterate2,
    sweep_max,
)
from phasematch.engine4d import FourDimInputs, approx4, four_dim_coeffs, iterate4
from phasematch.linalg import basis_state, random_unitary
from phasematch.oracle import OracleConfig, build_q, evolve, unitary_with_overlap
from phasematch.pairs import pair_swap, random_commuting_unitary
from phasematch.rotations import _checked_index, build, phase_scale, snapped_cos

from helpers import stacked

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


def test_a_count_is_an_index_then_a_bound():
    """The one check of every count and index: a NumPy integer comes back a
    Python int, and a float is a TypeError, even outside the bounds."""
    got = _checked_index("k", np.int64(3), 1)
    assert got == 3 and type(got) is int
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        _checked_index("k", -0.5, 1)
    with pytest.raises(ValueError, match=re.escape("k = 0 is outside [1, 2]")):
        _checked_index("k", 0, 1, 2)
    for flag in (True, False):
        with pytest.raises(TypeError, match=f"^k = {flag} is a bool, not an integer$"):
            _checked_index("k", flag, 0, 2)
    with pytest.raises(TypeError, match="'numpy.bool' object cannot be interpreted as an integer"):
        _checked_index("k", np.True_, 0, 2)


def test_a_bool_count_is_refused_before_any_work(monkeypatch):
    """operator.index takes True and False as 1 and 0; as a count either is
    a TypeError naming the parameter, before the first call of the work."""
    def no_work(*args, **kwargs):
        raise AssertionError("work ran")

    monkeypatch.setattr(cli, "AlgorithmParams", no_work)
    monkeypatch.setattr(engine2d, "_every_k", no_work)
    monkeypatch.setattr(np.random, "default_rng", no_work)
    for call, name, flag in ((lambda: run_table2(k_max=True), "k_max", True),
                             (lambda: exact_b(_C2, True), "k", True),
                             (lambda: exact_a(_C2, True), "k", True),
                             (lambda: run_verify(n_cases=True, seed=0), "n_cases", True),
                             (lambda: run_verify(n_cases=1, seed=False), "seed", False)):
        with pytest.raises(TypeError, match=f"^{name} = {flag} is a bool, not an integer$"):
            call()


def test_a_float_count_is_refused_before_any_work():
    """The dimension of each seeded draw, evolve's k_max and pair_swap's
    dimension are counts too: a float is a TypeError before a generator is
    made or an array sized, and an integral NumPy count is taken. The
    overlap draw is an operator; its dense form is read with ``np.asarray``."""
    draws = (lambda dim: random_unitary(dim, 1), lambda dim: unitary_with_overlap(dim, 1, 0.3),
             lambda dim: random_commuting_unitary(dim, 1))
    with mock.patch.object(np.random, "default_rng", side_effect=AssertionError("drew")):
        for draw in draws:
            with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
                draw(4.0)
    for draw in draws:
        assert np.asarray(draw(np.int64(4))).shape == (4, 4)
    assert unitary_with_overlap(np.int64(4), 1, 0.3).shape == (4, 4)
    for call in (lambda: evolve(build_q(_CFG), _CFG, 3.0), lambda: pair_swap(4.0)):
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            call()
    assert evolve(build_q(_CFG), _CFG, np.int64(3)).k_max == 3
    assert pair_swap(np.int64(4)).shape == (4, 4)


_C2 = grover_coeffs(0.1)
_PARAMS = AlgorithmParams(0.05, 0.0, 0.1)
_C4 = four_dim_coeffs(FourDimInputs.idealized(0.1, 0.2, 0.05))
_CFG = OracleConfig(2, 0.1, 0.2, random_unitary(2, 0))
_ABOVE_ONE = math.nextafter(1.0, 2.0)
_BELOW_ZERO = -math.ulp(0.0)
#: The largest k of the first-order forms at _PARAMS: the largest with
#: (|theta - phi| + 3) k eps < 1, here 3.05 k eps, in exact rational arithmetic.
_FIRST_ORDER_MAX = 1_476_590_041_760_818
#: approx4's at (0.1, 0.2): its sum of k // 2 + 1 terms has at most
#: 1_452_774_073_345_321, the limit at |theta - phi| = 0.1.
_APPROX4_MAX = 2 * 1_452_774_073_345_321 - 1

#: (site, call of the bounded value, name, low, high, a value just outside,
#: the bound next to it, or None where another check may refuse the bound itself).
BOUNDS = (
    ("HoyerParams.a-low", lambda a: HoyerParams(a, 0.0, 0.0), "a", 0, 1, _BELOW_ZERO, 0.0),
    ("HoyerParams.a-high", lambda a: HoyerParams(a, 0.0, 0.0), "a", 0, 1, _ABOVE_ONE, 1.0),
    ("iterate2", lambda k: iterate2(_C2, k), "k_max", 0, math.inf, -1, 0),
    ("exact_b", lambda k: exact_b(_C2, k), "k", 1, math.inf, 0, 1),
    ("exact_a", lambda k: exact_a(_C2, k), "k", 1, math.inf, 0, 1),
    ("approx_b", lambda k: approx_b(_PARAMS, k), "k", 1, _FIRST_ORDER_MAX, 0, 1),
    ("approx_b-high", lambda k: approx_b(_PARAMS, k), "k", 1, _FIRST_ORDER_MAX,
     _FIRST_ORDER_MAX + 1, _FIRST_ORDER_MAX),
    ("closed_form_magnitude", lambda k: closed_form_magnitude(_PARAMS, k), "k", 1, _FIRST_ORDER_MAX,
     0, 1),
    ("closed_form_magnitude-high", lambda k: closed_form_magnitude(_PARAMS, k), "k", 1,
     _FIRST_ORDER_MAX, _FIRST_ORDER_MAX + 1, _FIRST_ORDER_MAX),
    ("sweep_max", lambda k: sweep_max(_C2, k), "k_max", 1, math.inf, 0, 1),
    ("sweep_max-instances", lambda n: sweep_max(stacked([_C2] * n), 1), "instances", 1, math.inf,
     0, 1),
    ("iterate4", lambda k: iterate4(_C4, k), "k_max", 0, math.inf, -1, 0),
    ("approx4", lambda k: approx4(0.1, 0.2, 0.05, k), "k", 1, _APPROX4_MAX, 0, 1),
    ("approx4-high", lambda k: approx4(0.1, 0.2, 0.05, k), "k", 1, _APPROX4_MAX, _APPROX4_MAX + 1,
     _APPROX4_MAX),
    ("basis_state-low", lambda i: basis_state(4, i), "index", 0, 3, -1, 0),
    ("basis_state-high", lambda i: basis_state(4, i), "index", 0, 3, 4, 3),
    ("random_unitary", lambda d: random_unitary(d, 0), "dim", 1, math.inf, 0, 1),
    ("OracleConfig", lambda d: OracleConfig(d, 0.1, 0.2, np.eye(d)), "dim", 2, math.inf, 1, 2),
    ("evolve", lambda k: evolve(build_q(_CFG), _CFG, k), "k_max", 0, math.inf, -1, 0),
    ("unitary_with_overlap-magnitude-low", lambda m: unitary_with_overlap(4, 0, m),
     "magnitude", 0, 1, _BELOW_ZERO, 0.0),
    # Magnitude 1 itself is refused unless the seed's tau row can reach it.
    ("unitary_with_overlap-magnitude-high", lambda m: unitary_with_overlap(4, 0, m),
     "magnitude", 0, 1, _ABOVE_ONE, None),
    ("unitary_with_overlap-dim", lambda d: unitary_with_overlap(d, 0, 0.5), "dim", 2, math.inf, 1, 2),
    ("build-low", lambda i: build(i, 0.1, 4), "index", 0, 3, -1, 0),
    ("build-high", lambda i: build(i, 0.1, 4), "index", 0, 3, 4, 3),
)


@pytest.mark.parametrize("call,name,low,high,outside,at_bound",
                         [site[1:] for site in BOUNDS], ids=[site[0] for site in BOUNDS])
def test_every_bound_names_the_value_and_the_range(call, name, low, high, outside, at_bound):
    with pytest.raises(ValueError, match=re.escape(f"{name} = {outside} is outside [{low}, {high}]")):
        call(outside)
    if at_bound is not None:
        call(at_bound)
