"""Tests for the full-space simulator and its agreement with the engines."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phasematch.engine2d import AlgorithmParams, iterate2, present_coeffs
from phasematch.engine4d import FourDimInputs, four_dim_coeffs, iterate4
from phasematch.linalg import adjoint, basis_state, gram_decompose, is_unitary, random_unitary
from phasematch.oracle import (
    OracleConfig,
    build_q,
    evolve,
    invariant_basis,
    target_amplitude,
    unitary_with_overlap,
)
from phasematch.pairs import companion, random_commuting_unitary
from phasematch.rotations import build
from test_goldens import _build
from test_linalg import _per_state_decomposition


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
    q = build_q(cfg)
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
    """The premise that lets ``build_q`` make one dense product without a golden change.

    On the build the goldens were made with, the 2-row block product gives
    row gamma of I_gamma V, and the matrix-vector product gives column tau
    of (I_gamma V) I_tau, bit for bit as the full products do; so Q equals
    the literal -(I_gamma V I_tau U) in every bit.
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
        assert _same_bits(build_q(cfg), -(gamma_v_tau @ u)), \
            f"build_q differs from -(I_gamma V I_tau U) at {theta=}, {phi=}; {build_info}"
        assert _same_bits(cfg.u_matrix, u_before)
        assert v is None or _same_bits(cfg.v_matrix, v_before)


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


@pytest.mark.parametrize("mode", ["2d", "4d"])
def test_evolve_equals_per_state_solves(mode):
    if mode == "2d":
        cfg = OracleConfig(dim=16, theta=0.9, phi=-0.4, u_matrix=random_unitary(16, 8))
    else:
        pair = companion(random_commuting_unitary(16, 12))
        cfg = OracleConfig(dim=16, theta=0.35, phi=-1.2, u_matrix=pair.u, v_matrix=pair.v)
    q = build_q(cfg)
    run = evolve(q, cfg, 30)
    basis = invariant_basis(cfg)
    assert len(run.states) == len(run.decompositions) == 31
    np.testing.assert_array_equal(run.states[0], basis_state(16, 0))
    for k, (state, dec) in enumerate(zip(run.states, run.decompositions)):
        if k:
            np.testing.assert_array_equal(state, q @ run.states[k - 1])
        coeffs, residual = _per_state_decomposition(state, basis)
        np.testing.assert_array_equal(dec.coefficients, coeffs)
        assert dec.residual == residual


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
    with pytest.raises(ValueError, match="dimension 1 leaves no room"):
        OracleConfig(dim=1, theta=0.0, phi=0.0, u_matrix=np.eye(1))
    with pytest.raises(ValueError, match=r"U has shape \(3, 3\), expected \(4, 4\)"):
        OracleConfig(dim=4, theta=0.0, phi=0.0, u_matrix=np.eye(3))
    with pytest.raises(ValueError, match="U must be unitary"):
        OracleConfig(dim=4, theta=0.0, phi=0.0, u_matrix=np.ones((4, 4)))
    with pytest.raises(ValueError, match=r"V has shape \(4, 2\), expected \(4, 4\)"):
        OracleConfig(dim=4, theta=0.0, phi=0.0, u_matrix=w, v_matrix=np.eye(4, 2))
    with pytest.raises(ValueError, match="V must be unitary"):
        OracleConfig(dim=4, theta=0.0, phi=0.0, u_matrix=w, v_matrix=np.ones((4, 4)))


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


def test_unitary_with_overlap_hits_requested_magnitude():
    for dim, mag in ((10, 0.3), (100, 0.1), (7, 1 / math.sqrt(7))):
        w = unitary_with_overlap(dim, seed=6, magnitude=mag)
        assert is_unitary(w)
        assert abs(w[dim - 1, 0]) == pytest.approx(mag, abs=1e-13)


def test_unitary_with_overlap_rotates_only_gamma_and_its_partner():
    for dim, mag in ((10, 0.3), (100, 0.1), (7, 1 / math.sqrt(7))):
        w = unitary_with_overlap(dim, seed=6, magnitude=mag)
        base = random_unitary(dim, 6)
        partner = 1 + int(np.argmax(np.abs(base[dim - 1, 1:])))
        kept = [c for c in range(dim) if c not in (0, partner)]
        np.testing.assert_array_equal(w[:, kept], base[:, kept])
        assert np.all(w[:, [0, partner]] != base[:, [0, partner]])


def test_unitary_with_overlap_validation():
    with pytest.raises(ValueError):
        unitary_with_overlap(8, seed=0, magnitude=1.5)
    with pytest.raises(ValueError):
        unitary_with_overlap(1, seed=0, magnitude=0.1)


def test_table_scale_instance_through_the_oracle():
    """N = 100 with |u| forced to 1/sqrt(N) reproduces the printed |b_6|."""
    w = unitary_with_overlap(100, seed=17, magnitude=0.1)
    cfg = OracleConfig(dim=100, theta=0.0, phi=0.0, u_matrix=w)
    run = evolve(build_q(cfg), cfg, 6)
    b6 = run.decompositions[6].coefficients[1]
    assert abs(b6) == pytest.approx(0.9375, abs=5e-4)
    assert run.decompositions[6].residual < 1e-12
