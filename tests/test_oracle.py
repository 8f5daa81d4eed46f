"""Tests for the full-space simulator and its agreement with the engines."""

import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phasematch import linalg
from phasematch.cli import TABLE1_CASES
from phasematch.engine2d import AlgorithmParams, iterate2, present_coeffs
from phasematch.engine4d import FourDimInputs, four_dim_coeffs, iterate4
from phasematch.linalg import (
    STRUCTURAL_TOL,
    HouseholderUnitary,
    adjoint,
    basis_state,
    gram_decompose,
    is_unitary,
    random_unitary,
    unitary_dev,
)
from phasematch.oracle import (
    DENSE_Q_DIM_PER_STEP,
    OracleConfig,
    QOperator,
    build_q,
    evolve,
    invariant_basis,
    target_amplitude,
    unitary_with_overlap,
)
from phasematch.pairs import companion, random_commuting_unitary
from phasematch.rotations import build
from test_goldens import _build
from test_linalg import _assert_matches_per_state


def test_four_state_search_succeeds_in_one_step():
    """The classic N=4 instance, |u| = 1/2: one inversion iteration reaches the target."""
    cfg = OracleConfig(dim=4, theta=0.0, phi=0.0, u_matrix=unitary_with_overlap(4, 0, 0.5))
    run = evolve(build_q(cfg), cfg, 1)
    amp = target_amplitude(run, cfg, 1)
    assert abs(amp) == pytest.approx(1.0, abs=1e-12)
    # and the subspace sees it as |b_1| = 1 with a_1 real
    dec = run.decompositions[1]
    assert abs(dec.coefficients[1]) == pytest.approx(1.0, abs=1e-12)


def test_oracle_matches_engine2d():
    cfg = OracleConfig(dim=16, theta=0.9, phi=-0.4, u_matrix=random_unitary(16, 8))
    run = evolve(build_q(cfg), cfg, 50)
    traj = iterate2(present_coeffs(AlgorithmParams(0.9, -0.4, cfg.u_element)), 50)
    for k in range(51):
        dec = run.decompositions[k]
        assert dec.residual < 1e-9
        assert abs(dec.coefficients[0] - traj.a[k]) < 1e-9
        assert abs(dec.coefficients[1] - traj.b[k]) < 1e-9
        assert abs(np.linalg.norm(run.states[k]) - 1) < 1e-9
        predicted = traj.a[k] * cfg.u_element + traj.b[k]
        assert abs(target_amplitude(run, cfg, k) - predicted) < 1e-9


def test_oracle_matches_cubic_expansion():
    # b_3 = 6u - 32u|u|^2 + 32u|u|^4 for the inversion family
    cfg = OracleConfig(dim=8, theta=0.0, phi=0.0, u_matrix=random_unitary(8, 3))
    run = evolve(build_q(cfg), cfg, 3)
    u = cfg.u_element
    b3 = run.decompositions[3].coefficients[1]
    assert b3 == pytest.approx(6 * u - 32 * u * abs(u) ** 2 + 32 * u * abs(u) ** 4, abs=1e-12)


def test_half_pi_target_phase_reduces_q_to_start_rotation():
    """At phi = pi/2 the target rotation is the identity, so Q = -I_gamma."""
    cfg = OracleConfig(dim=8, theta=1.1, phi=math.pi / 2, u_matrix=random_unitary(8, 4))
    q = build_q(cfg).dense()
    i_gamma = build(0, 1.1, 8)
    np.testing.assert_allclose(q, -i_gamma, atol=1e-12)


def _dense_unitary(rng, dim):
    """A dense complex unitary that is cheap to draw at N = 900: a Householder
    reflection with its columns multiplied by random phases."""
    w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    w /= np.linalg.norm(w)
    phases = np.exp(1j * rng.uniform(-math.pi, math.pi, dim))
    return (np.eye(dim) - 2 * np.outer(w, w.conj())) * phases


def _same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("mode", ["2d", "4d"])
@pytest.mark.parametrize("dim", [2, 3, 4, 16, 64, 100, 128, 256, 900])
def test_build_q_rounds_like_the_three_product_form(dim, mode):
    """The premise that lets ``build_q`` skip the dense rotations without a golden change.

    On the build the goldens were made with, the 2-row block product gives
    row gamma of I_gamma V, and the matrix-vector product gives column tau
    of (I_gamma V) I_tau, bit for bit as the full products do; so the factor
    equals the literal I_gamma V I_tau, and the Q that ``evolve``'s dense
    side forms equals the literal -(I_gamma V I_tau U), in every bit.
    """
    rng = np.random.default_rng(10 * dim + (mode == "4d"))
    build_info = f"running {_build()}"
    u = _dense_unitary(rng, dim)
    v = _dense_unitary(rng, dim) if mode == "4d" else None
    u_before, v_before = u.copy(), None if v is None else v.copy()
    # The row premise depends on theta only and the column premise on phi
    # only, so three pairs give each angle each of 0, pi/2 and a random draw.
    for theta, phi in ((0.0, math.pi / 2), (math.pi / 2, None), (None, 0.0)):
        theta = float(rng.uniform(-math.pi, math.pi)) if theta is None else theta
        phi = float(rng.uniform(-math.pi, math.pi)) if phi is None else phi
        cfg = OracleConfig(dim=dim, theta=theta, phi=phi, u_matrix=u, v_matrix=v)
        g, t = cfg.gamma_index, cfg.tau_index
        i_gamma, i_tau = build(g, theta, dim), build(t, phi, dim)
        v_full = adjoint(u) if v is None else v
        gamma_v = i_gamma @ v_full
        gamma_v_tau = gamma_v @ i_tau
        assert _same_bits((i_gamma[g:g + 2] @ v_full)[0], gamma_v[g]), \
            f"2-row block differs from the full product in row gamma; {build_info}"
        assert _same_bits((gamma_v @ i_tau[:, t:t + 1])[:, 0], gamma_v_tau[:, t]), \
            f"matrix-vector product differs from the full product in column tau; {build_info}"
        factors = build_q(cfg)
        assert _same_bits(factors.a, gamma_v_tau) and factors.u is cfg.u_matrix
        assert _same_bits(factors.dense(), -(gamma_v_tau @ u)), \
            f"dense Q differs from -(I_gamma V I_tau U) at {theta=}, {phi=}; {build_info}"
        assert _same_bits(cfg.u_matrix, u_before)
        assert v is None or _same_bits(cfg.v_matrix, v_before)


@pytest.mark.parametrize("mode", ["2d", "4d"])
def test_build_q_builds_no_dense_rotation(mode):
    """At N = 512 the tracemalloc peak of ``build_q`` stays below 1.5 N^2
    complex entries: V's copy, with no N x N rotation and no dense Q."""
    dim = 512
    rng = np.random.default_rng(dim)
    cfg = OracleConfig(dim=dim, theta=0.4, phi=-1.1, u_matrix=_dense_unitary(rng, dim),
                       v_matrix=_dense_unitary(rng, dim) if mode == "4d" else None)
    tracemalloc.start()
    try:
        build_q(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * dim * dim * np.dtype(np.complex128).itemsize, f"peak {peak / 2**20:.1f} MiB"


def test_oracle_matches_engine4d():
    pair = companion(random_commuting_unitary(16, 12))
    cfg = OracleConfig(dim=16, theta=0.35, phi=-1.2, u_matrix=pair.u, v_matrix=pair.v)
    g, t = cfg.gamma_index, cfg.tau_index
    vu = pair.product
    uv = pair.u @ pair.v
    inputs = FourDimInputs(
        0.35, -1.2,
        u=pair.u[t, g], v=pair.v[g, t],
        vu_gg=vu[g, g], uv_tt=uv[t, t],
    )
    run = evolve(build_q(cfg), cfg, 30)
    traj = iterate4(four_dim_coeffs(inputs), 30)
    channels = (traj.a, traj.b, traj.c, traj.d)
    for k in range(31):
        dec = run.decompositions[k]
        assert dec.residual < 1e-9
        for idx, channel in enumerate(channels):
            assert abs(dec.coefficients[idx] - channel[k]) < 1e-9


def test_generic_v_leaks_out_of_the_four_dim_subspace():
    """Without the hermitian-product structure the 4D reduction must fail.

    This is the negative control for the equivalence suite: a generic
    (V, U) pair produces a large subspace residual instead of agreement.
    """
    v = random_unitary(8, 21)
    u = random_unitary(8, 22)
    cfg = OracleConfig(dim=8, theta=0.3, phi=0.3, u_matrix=u, v_matrix=v)
    run = evolve(build_q(cfg), cfg, 12)
    worst = max(dec.residual for dec in run.decompositions)
    assert worst > 1e-6


def test_invariant_basis_modes():
    cfg2 = OracleConfig(dim=4, theta=0.0, phi=0.0, u_matrix=random_unitary(4, 1))
    assert len(invariant_basis(cfg2)) == 2
    pair = companion(random_commuting_unitary(4, 1))
    cfg4 = OracleConfig(dim=4, theta=0.0, phi=0.0, u_matrix=pair.u, v_matrix=pair.v)
    basis = invariant_basis(cfg4)
    assert len(basis) == 4
    np.testing.assert_array_equal(basis[0], basis_state(4, 0))
    # residual of the start state over its own basis is zero
    assert gram_decompose([basis[0]], basis)[0].residual < 1e-12


@pytest.mark.parametrize("dim", [2, 16, 100, 256])
def test_invariant_basis_reads_rows_and_columns(dim):
    """Each vector equals the matrix-vector product that defines it."""
    u, v = random_unitary(dim, dim), random_unitary(dim, dim + 1)
    e_gamma, e_tau = basis_state(dim, 0), basis_state(dim, dim - 1)
    for v_matrix, expected in (
        (None, [e_gamma, adjoint(u) @ e_tau]),
        (v, [e_gamma, v @ (u @ e_gamma), v @ e_tau, adjoint(u) @ e_tau]),
    ):
        basis = invariant_basis(OracleConfig(dim, 0.3, -0.2, u_matrix=u, v_matrix=v_matrix))
        assert len(basis) == len(expected)
        for got, want in zip(basis, expected):
            assert _same_bits(got, want)
            assert got.flags.c_contiguous
            assert not (np.shares_memory(got, u) or np.shares_memory(got, v))


def _evolve_cfg(mode, dim, seed):
    if mode == "2d":
        return OracleConfig(dim=dim, theta=0.9, phi=-0.4, u_matrix=random_unitary(dim, seed))
    pair = companion(random_commuting_unitary(dim, seed))
    return OracleConfig(dim=dim, theta=0.35, phi=-1.2, u_matrix=pair.u, v_matrix=pair.v)


#: (mode, dim, k_max, side): each side of evolve's rule in both modes, then
#: dim = 8 k_max and 8 k_max + 1 on either side of its edge.
EVOLVE_CASES = [
    pytest.param("2d", 16, 30, "dense", id="2d"),
    pytest.param("4d", 16, 30, "dense", id="4d"),
    pytest.param("2d", 64, 6, "factored", id="2d-factored"),
    pytest.param("4d", 64, 6, "factored", id="4d-factored"),
    pytest.param("2d", 48, 6, "dense", id="2d-edge"),
    pytest.param("2d", 49, 6, "factored", id="2d-past-edge"),
]


@pytest.mark.parametrize("mode, dim, k_max, side", EVOLVE_CASES)
def test_evolve_equals_per_state_solves(mode, dim, k_max, side):
    """Each state is one step from the last, bit for bit as the side's rule
    says: ``Q @ prev`` with the dense Q, or ``-(a @ (u @ prev))``; each
    decomposition agrees with the per-state solve within its rounding."""
    assert (dim <= DENSE_Q_DIM_PER_STEP * k_max) == (side == "dense")
    cfg = _evolve_cfg(mode, dim, 8)
    q = build_q(cfg)
    run = evolve(q, cfg, k_max)
    dense = q.dense()
    basis = invariant_basis(cfg)
    assert len(run.states) == len(run.decompositions) == k_max + 1
    np.testing.assert_array_equal(run.states[0], basis_state(dim, 0))
    for k, (state, dec) in enumerate(zip(run.states, run.decompositions)):
        if k:
            prev = run.states[k - 1]
            step = dense @ prev if side == "dense" else -(q.a @ (q.u @ prev))
            assert _same_bits(state, step), f"state {k}"
        _assert_matches_per_state(dec, state, basis)


@pytest.mark.parametrize("mode", ["2d", "4d"])
@pytest.mark.parametrize("dim", [128, 900])
def test_factored_and_dense_states_agree(dim, mode):
    """One config's states from both sides of evolve's rule agree within 64 eps.

    The factored run takes up to 17 steps (Table 1's largest k) and the
    dense run the fewest steps that form Q. Over their common steps the
    largest difference measured at N = 128..1024, three seeds and both modes
    each, was 6.6e-15, about 30 eps.
    """
    cfg = _evolve_cfg(mode, dim, dim)
    q = build_q(cfg)
    k_factored = min(17, (dim - 1) // DENSE_Q_DIM_PER_STEP)
    factored = evolve(q, cfg, k_factored).states
    dense = evolve(q, cfg, -(-dim // DENSE_Q_DIM_PER_STEP)).states[:k_factored + 1]
    assert not _same_bits(factored, dense)
    assert np.max(np.abs(factored - dense)) <= 64 * np.finfo(float).eps


@pytest.mark.parametrize("mode, dim, k_max", [
    (mode, dim, k_max) for mode in ("2d", "4d") for dim, k_max in ((16, 30), (64, 6))])
def test_evolve_mutates_nothing(mode, dim, k_max):
    """Two runs from one ``build_q`` result are identical, and neither writes
    to the factors or to the config's matrices."""
    cfg = _evolve_cfg(mode, dim, 5)
    q = build_q(cfg)
    before = [m.copy() for m in (q.a, cfg.u_matrix, cfg.v_matrix) if m is not None]
    first, second = evolve(q, cfg, k_max), evolve(q, cfg, k_max)
    assert _same_bits(first.states, second.states)
    assert _same_bits(first.decompositions, second.decompositions)
    after = [m for m in (q.a, cfg.u_matrix, cfg.v_matrix) if m is not None]
    assert all(_same_bits(x, y) for x, y in zip(before, after))


@pytest.mark.parametrize("mode", ["2d", "4d"])
def test_decomposition_fields_equal_the_per_state_records(mode):
    """Whole-field reads give the arrays that stacking per-state records gives."""
    if mode == "2d":
        cfg = OracleConfig(dim=16, theta=0.7, phi=0.2, u_matrix=random_unitary(16, 3))
    else:
        pair = companion(random_commuting_unitary(16, 5))
        cfg = OracleConfig(dim=16, theta=-0.5, phi=1.1, u_matrix=pair.u, v_matrix=pair.v)
    run = evolve(build_q(cfg), cfg, 20)
    assert _same_bits(run.decompositions.coefficients,
                      np.array([d.coefficients for d in run.decompositions]))
    assert _same_bits(run.decompositions.residual,
                      np.array([d.residual for d in run.decompositions]))


def test_config_validation():
    w = random_unitary(4, 2)
    cfg = OracleConfig(dim=4, theta=0.0, phi=0.0, u_matrix=w)
    assert (cfg.gamma_index, cfg.tau_index) == (0, 3)
    with pytest.raises(ValueError, match=r"dim = 1 is outside \[2, inf\]"):
        OracleConfig(dim=1, theta=0.0, phi=0.0, u_matrix=np.eye(1))
    with pytest.raises(ValueError, match=r"U has shape \(3, 3\), expected \(4, 4\)"):
        OracleConfig(dim=4, theta=0.0, phi=0.0, u_matrix=np.eye(3))
    with pytest.raises(ValueError, match="U must be unitary"):
        OracleConfig(dim=4, theta=0.0, phi=0.0, u_matrix=np.ones((4, 4)))
    with pytest.raises(ValueError, match=r"V has shape \(4, 2\), expected \(4, 4\)"):
        OracleConfig(dim=4, theta=0.0, phi=0.0, u_matrix=w, v_matrix=np.eye(4, 2))
    with pytest.raises(ValueError, match="V must be unitary"):
        OracleConfig(dim=4, theta=0.0, phi=0.0, u_matrix=w, v_matrix=np.ones((4, 4)))


def test_config_takes_dim_as_an_integer():
    """A float dim equal to an int would pass the shape check and fail later, in indexing."""
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        OracleConfig(dim=4.0, theta=0.0, phi=0.0, u_matrix=np.eye(4))
    cfg = OracleConfig(dim=np.int64(4), theta=0.0, phi=0.0, u_matrix=random_unitary(4, 2))
    assert type(cfg.dim) is int
    assert cfg.tau_index == 3 and cfg.u_element == cfg.u_matrix[3, 0]


@given(slot=st.integers(0, 1), bad=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_config_rejects_non_finite_angles(slot, bad):
    angles = [0.3, 0.1]
    OracleConfig(4, *angles, u_matrix=random_unitary(4, 3))
    angles[slot] = bad
    with pytest.raises(ValueError, match="non-finite angles"):
        OracleConfig(4, *angles, u_matrix=random_unitary(4, 3))


def test_target_amplitude_range_check():
    cfg = OracleConfig(dim=4, theta=0.0, phi=0.0, u_matrix=random_unitary(4, 4))
    run = evolve(build_q(cfg), cfg, 2)
    with pytest.raises(IndexError):
        target_amplitude(run, cfg, 3)
    for ks in ([0, 1, 3], [-1, 0], np.array([[0, 1], [2, 5]])):
        with pytest.raises(IndexError, match=r"outside the run's range 0\.\.2"):
            target_amplitude(run, cfg, np.array(ks))
    with pytest.raises(IndexError):
        target_amplitude(run, cfg, -1)


def test_target_amplitude_takes_integer_steps_only():
    cfg = OracleConfig(dim=4, theta=0.0, phi=0.0, u_matrix=random_unitary(4, 4))
    run = evolve(build_q(cfg), cfg, 2)
    for k in (2.5, True, np.array([0.0, 1.0]), np.array([True, False, True])):
        with pytest.raises(TypeError, match="is not an integer"):
            target_amplitude(run, cfg, k)
    states_at = run.states @ cfg.u_matrix[cfg.tau_index]
    assert target_amplitude(run, cfg, np.int64(2)) == states_at[2]
    np.testing.assert_array_equal(target_amplitude(run, cfg, np.array([2, 0])), states_at[[2, 0]])


@pytest.mark.parametrize("dim", [4, 16, 64])
def test_target_amplitude_array_equals_per_k_calls(dim):
    cfg = OracleConfig(dim=dim, theta=0.7, phi=-1.1, u_matrix=random_unitary(dim, dim))
    run = evolve(build_q(cfg), cfg, 50)
    ks = np.array([50, 0, 7, 7, 31])
    amplitudes = target_amplitude(run, cfg, ks)
    assert amplitudes.shape == ks.shape
    for k, amp in zip(ks.tolist(), amplitudes):
        one = target_amplitude(run, cfg, k)
        assert type(one) is complex
        assert one == amp
        # At the verify dimensions the row product rounds like the full matvec
        # of U Q^k|gamma>, which keeps the verify golden's amplitude column.
        assert one == (cfg.u_matrix @ run.states[k])[cfg.tau_index], f"running {_build()}"
    np.testing.assert_array_equal(target_amplitude(run, cfg, np.arange(51))[ks], amplitudes)


EPS = np.finfo(np.float64).eps

#: Slack c of the operator's agreement with its dense form, in units of N
#: eps. Over 40 seeds at N <= 65 and 4 at N = 100 to 900, with and without
#: the plane rotation, the largest deviation of U y, U+ y or the tau row was
#: 2.3 N eps, at N = 1, and 0.012 N eps from N = 100 on.
_OPERATOR_SLACK = 4


def _operator_cases(dim, seed):
    """The bare draw, and at dim >= 2 the draw rotated to |u| = 1/sqrt(N)."""
    yield HouseholderUnitary.draw(dim, seed)
    if dim >= 2:
        yield unitary_with_overlap(dim, seed, 1 / math.sqrt(dim))


@pytest.mark.parametrize("dim", [1, 2, 31, 32, 33, 63, 64, 65, 100, 257, 900])
def test_householder_operator_agrees_with_its_dense_form(dim):
    """U y, U+ y and the tau row through the operator agree with ``np.asarray``
    of it within 4 N eps, at dims on either side of the block edges 32 and
    64. The dense form is ``random_unitary(dim, seed)``, with the stored
    rotation applied to columns 0 and the partner, which are the only
    columns that differ from it. The partner is the one ``random_unitary``'s
    tau row gives."""
    seed = 3 * dim
    base = random_unitary(dim, seed)
    rng = np.random.default_rng(dim)
    y = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    y /= np.linalg.norm(y)
    bound = _OPERATOR_SLACK * dim * EPS
    for op in _operator_cases(dim, seed):
        dense = np.asarray(op)
        assert dense.shape == op.shape == (dim, dim)
        assert np.max(np.abs(op.apply(y) - dense @ y)) <= bound
        assert np.max(np.abs(op.apply_adjoint(y) - adjoint(dense) @ y)) <= bound
        assert np.max(np.abs(op.row(dim - 1) - dense[dim - 1])) <= bound
        assert op.certificate() <= STRUCTURAL_TOL
        moved = [] if op.plane is None else [0, op.plane.partner]
        kept = [c for c in range(dim) if c not in moved]
        assert _same_bits(dense[:, kept], base[:, kept])
        if moved:
            assert op.plane.partner == 1 + int(np.argmax(np.abs(base[dim - 1, 1:])))
            assert np.all(dense[:, moved] != base[:, moved])
            assert abs(abs(op.row(dim - 1)[0]) - 1 / math.sqrt(dim)) <= 1e-13


def test_unitary_with_overlap_hits_requested_magnitude():
    """|u| read through the operator and from its dense form."""
    for dim, mag in ((10, 0.3), (100, 0.1), (7, 1 / math.sqrt(7))):
        w = unitary_with_overlap(dim, seed=6, magnitude=mag)
        assert w.certificate() <= STRUCTURAL_TOL and is_unitary(np.asarray(w))
        cfg = OracleConfig(dim=dim, theta=0.0, phi=0.0, u_matrix=w)
        assert abs(cfg.u_element) == pytest.approx(mag, abs=1e-13)
        assert abs(np.asarray(w)[dim - 1, 0]) == pytest.approx(mag, abs=1e-13)


def test_unitary_with_overlap_rotates_only_gamma_and_its_partner():
    for dim, mag in ((10, 0.3), (100, 0.1), (7, 1 / math.sqrt(7))):
        w = unitary_with_overlap(dim, seed=6, magnitude=mag)
        base = random_unitary(dim, 6)
        partner = 1 + int(np.argmax(np.abs(base[dim - 1, 1:])))
        assert w.plane.partner == partner
        dense = np.asarray(w)
        kept = [c for c in range(dim) if c not in (0, partner)]
        np.testing.assert_array_equal(dense[:, kept], base[:, kept])
        assert np.all(dense[:, [0, partner]] != base[:, [0, partner]])


def test_unitary_with_overlap_validation():
    with pytest.raises(ValueError):
        unitary_with_overlap(8, seed=0, magnitude=1.5)
    with pytest.raises(ValueError):
        unitary_with_overlap(1, seed=0, magnitude=0.1)


def test_unitary_with_overlap_reaches_magnitude_one_at_dim_two():
    """At dim 2 the reach is the tau row's norm, 1 up to its last bits: 1 is attained, not refused."""
    for seed in range(20):
        w = unitary_with_overlap(2, seed, 1.0)
        assert w.certificate() <= STRUCTURAL_TOL
        assert abs(abs(w.row(1)[0]) - 1) <= 1e-15
    with pytest.raises(ValueError):
        unitary_with_overlap(2, 0, 1 + 1e-9)


def test_table_scale_instance_through_the_oracle():
    """N = 100 with |u| forced to 1/sqrt(N) reproduces the printed |b_6|."""
    w = unitary_with_overlap(100, seed=17, magnitude=0.1)
    cfg = OracleConfig(dim=100, theta=0.0, phi=0.0, u_matrix=w)
    run = evolve(build_q(cfg), cfg, 6)
    b6 = run.decompositions[6].coefficients[1]
    assert abs(b6) == pytest.approx(0.9375, abs=5e-4)
    assert run.decompositions[6].residual < 1e-12


def test_the_oracle_runs_an_operator_without_forming_it():
    """A HouseholderUnitary U goes through the config, ``build_q``, ``evolve``
    and ``target_amplitude`` with no N^3 check and no Q formed."""
    w = unitary_with_overlap(64, 2, 0.125)
    refuse = mock.Mock(side_effect=AssertionError("formed or checked densely"))
    with mock.patch.object(linalg, "_form_q", refuse), mock.patch.object(linalg, "is_unitary", refuse):
        cfg = OracleConfig(dim=64, theta=0.3, phi=-0.2, u_matrix=w)
        q = build_q(cfg)
        assert isinstance(q, QOperator) and q.u is w
        run = evolve(q, cfg, 10)
        target_amplitude(run, cfg, np.arange(11))
    assert cfg.u_matrix is w and run.decompositions.residual.max() < 1e-12


def _mutated(w, tau=None, reflectors=None, signs=None, plane=None):
    return HouseholderUnitary(w.reflectors if reflectors is None else reflectors,
                              w.tau if tau is None else tau,
                              w.signs if signs is None else signs, plane or w.plane)


def test_config_refuses_an_operator_by_its_certificate():
    """One tau_k scaled by 1 + 1e-9 makes H_k miss unitarity by about
    2e-9 ||v_k||^2 Re tau_k; the certificate bounds the dense deviation and
    the config names it. A nan in one reflector is refused as nan, and a
    sign or the plane rotation off unitarity is refused too."""
    w = unitary_with_overlap(40, 9, 0.2)
    tau = w.tau.copy()
    tau[17] *= 1 + 1e-9
    scaled = _mutated(w, tau=tau)
    cert = scaled.certificate()
    n2 = np.linalg.norm(w.reflectors[17:, 17]) ** 2
    assert cert == pytest.approx(abs(abs(tau[17]) ** 2 * n2 - 2 * tau[17].real) * n2, rel=1e-3)
    assert STRUCTURAL_TOL < unitary_dev(np.asarray(scaled)) <= cert
    with pytest.raises(ValueError, match=re.escape(
            f"U must be unitary for the oracle: certified ||U+ U - I||_2 = {cert:.3g} "
            f"exceeds the tolerance {STRUCTURAL_TOL:g}")):
        OracleConfig(dim=40, theta=0.0, phi=0.0, u_matrix=scaled)
    reflectors = w.reflectors.copy(order="F")
    reflectors[25, 11] = math.nan
    with pytest.raises(ValueError, match=r"U must be unitary for the oracle: .* = nan exceeds"):
        OracleConfig(dim=40, theta=0.0, phi=0.0, u_matrix=_mutated(w, reflectors=reflectors))
    with pytest.raises(ValueError, match=re.escape("U must be unitary for the oracle: max|U U+ - I| =")):
        OracleConfig(dim=40, theta=0.0, phi=0.0, u_matrix=np.asarray(scaled))
    signs = w.signs.copy()
    signs[30] *= 1 + 1e-9
    for off in (_mutated(w, signs=signs), _mutated(w, plane=w.plane._replace(cos=w.plane.cos * 1.001))):
        assert STRUCTURAL_TOL < unitary_dev(np.asarray(off)) <= off.certificate()
        with pytest.raises(ValueError, match="U must be unitary for the oracle: certified"):
            OracleConfig(dim=40, theta=0.0, phi=0.0, u_matrix=off)


def test_config_refuses_an_operator_in_4d_mode():
    w = unitary_with_overlap(8, 1, 0.3)
    with pytest.raises(ValueError, match="a HouseholderUnitary U is for the 2D mode only"):
        OracleConfig(dim=8, theta=0.0, phi=0.0, u_matrix=w, v_matrix=random_unitary(8, 2))
    with pytest.raises(ValueError, match=r"U has shape \(8, 8\), expected \(9, 9\)"):
        OracleConfig(dim=9, theta=0.0, phi=0.0, u_matrix=w)


@pytest.mark.parametrize("n, k", [case for case in TABLE1_CASES if case[0] <= 400])
def test_table1_through_the_operator_agrees_with_the_dense_oracle(n, k):
    """Table 1's run on ``unitary_with_overlap(n, s, 1/sqrt(n))`` and on its
    dense form agree within 64 eps in every coefficient, residual and target
    amplitude. Over 8 seeds at N = 100 and 400 and 2 at N = 625 and 900 the
    largest difference was 22.6 eps."""
    w = unitary_with_overlap(n, n + 1, 1 / math.sqrt(n))
    runs = []
    for u in (w, np.asarray(w)):
        cfg = OracleConfig(dim=n, theta=0.0, phi=0.0, u_matrix=u)
        run = evolve(build_q(cfg), cfg, k)
        runs.append((run.decompositions.coefficients, run.decompositions.residual,
                     target_amplitude(run, cfg, np.arange(k + 1))))
    for op_side, dense_side in zip(*runs):
        assert np.max(np.abs(op_side - dense_side)) <= 64 * EPS
