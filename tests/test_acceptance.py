"""Acceptance suite: one test per shipped guarantee, one printed verdict each.

Verdict lines are written with capture suspended so they stay visible in
the terminal whatever capture mode pytest runs under.
"""

import math
import time

import numpy as np
import pytest

from phasematch.engine2d import (
    AlgorithmParams,
    TwoDimCoefficients,
    closed_form_magnitude,
    exact_b,
    grover_coeffs,
    iterate2,
    l_coeff,
    present_coeffs,
    sweep_max,
    t_coeff,
)
from phasematch.engine4d import FourDimInputs, four_dim_coeffs, iterate4
from phasematch.linalg import random_unitary
from phasematch.oracle import OracleConfig, build_q, evolve
from phasematch.pairs import (
    companion,
    hermitian_iff_involution,
    random_commuting_unitary,
)


@pytest.fixture()
def verdict(capsys):
    def _verdict(num, ok, detail):
        line = f"acceptance criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _verdict


def test_criterion_1_table1(verdict):
    targets = {(100, 6): 0.9375, (400, 12): 0.9334, (625, 14): 0.9010, (900, 17): 0.9064}
    start = time.perf_counter()
    worst = 0.0
    for (n, k), printed in targets.items():
        traj = iterate2(grover_coeffs(1 / math.sqrt(n)), k)
        worst = max(worst, abs(abs(traj.b[k]) - printed))
    elapsed = time.perf_counter() - start
    ok = worst <= 5e-4 and elapsed < 1.0
    verdict(1, ok, f"max |b_k| error {worst:.2e} <= 5e-4, {elapsed:.3f}s < 1s")


def test_criterion_2_table2(verdict):
    targets = {(0.01, 7): 0.9899, (0.02, 8): 0.9994, (0.03, 8): 0.9930,
               (0.04, 100): 0.9861, (0.05, 100): 0.9525}
    start = time.perf_counter()
    worst = 0.0
    for (theta, k), printed in targets.items():
        traj = iterate2(present_coeffs(AlgorithmParams(theta, 0.0, 0.1)), k)
        worst = max(worst, abs(abs(traj.b[k]) - printed))
    elapsed = time.perf_counter() - start
    ok = worst <= 2e-3 and elapsed < 1.0
    verdict(2, ok, f"max |b_k| error {worst:.2e} <= 2e-3, {elapsed:.3f}s < 1s")


def test_criterion_3_integer_tables(verdict):
    pyramids = {
        1: {3: [1], 4: [2, 2], 5: [3, 4, 3], 6: [4, 6, 6, 4], 7: [5, 8, 9, 8, 5]},
        2: {5: [1], 6: [3, 3], 7: [6, 9, 6], 8: [10, 18, 18, 10]},
        3: {7: [1], 8: [4, 4], 9: [10, 16, 10], 10: [20, 40, 40, 20]},
    }
    checked = 0
    ok = True
    for j, rows in pyramids.items():
        for k, row in rows.items():
            got = [l_coeff(k, i, j) for i in range(len(row))]
            ok = ok and got == row
            checked += len(row)
    a_lists = (
        (5, 1, [4, 3, 2, 1]),
        (5, 2, [3, 2]),
        (6, 1, [5, 4, 3, 2, 1]),
        (6, 2, [6, 6, 3]),
        (6, 3, [1]),
    )
    for k, j, row in a_lists:
        got = [t_coeff(k, i, j) for i in range(len(row))]
        ok = ok and got == row
        checked += len(row)
    verdict(3, ok, f"{checked} printed integers reproduced exactly")


def test_criterion_4_closed_form_vs_recurrence(verdict):
    rng = np.random.default_rng(2718)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        ra, rd = rng.uniform(0.0, 1.0, 2)
        pa, pd = rng.uniform(-math.pi, math.pi, 2)
        alpha = ra * complex(math.cos(pa), math.sin(pa))
        delta = rd * complex(math.cos(pd), math.sin(pd))
        beta, lam = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        c = TwoDimCoefficients(alpha, complex(beta), complex(lam), delta)
        traj = iterate2(c, 25)
        for k in range(1, 26):
            worst = max(worst, abs(exact_b(c, k) - traj.b[k]))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    verdict(4, ok, f"200 quadruples, k <= 25, max dev {worst:.2e} <= 1e-9, {elapsed:.2f}s < 10s")


def test_criterion_5_oracle_equivalence_2d(verdict):
    rng = np.random.default_rng(100)
    worst = norm_worst = 0.0
    cases = 21
    for case in range(cases):
        dim = (4, 16, 64)[case % 3]
        theta, phi = rng.uniform(-math.pi, math.pi, 2)
        cfg = OracleConfig(
            dim=dim, theta=float(theta), phi=float(phi),
            u_matrix=random_unitary(dim, int(rng.integers(2**32))),
        )
        run = evolve(build_q(cfg), cfg, 50)
        params = AlgorithmParams(float(theta), float(phi), cfg.u_element)
        traj = iterate2(present_coeffs(params), 50)
        for k in range(51):
            dec = run.decompositions[k]
            worst = max(
                worst,
                abs(dec.coefficients[0] - traj.a[k]),
                abs(dec.coefficients[1] - traj.b[k]),
            )
            norm_worst = max(
                norm_worst, abs(float(np.linalg.norm(run.states[k])) - 1.0)
            )
    ok = worst <= 1e-9 and norm_worst <= 1e-9
    verdict(5, ok, f"{cases} cases, max component dev {worst:.2e}, "
                    f"max norm dev {norm_worst:.2e}, both <= 1e-9")


def test_criterion_6_oracle_equivalence_4d(verdict):
    rng = np.random.default_rng(200)
    worst = res_worst = diag_worst = 0.0
    cases = 10
    for case in range(cases):
        dim = (8, 16)[case % 2]
        theta, phi = rng.uniform(-math.pi, math.pi, 2)
        pair = companion(random_commuting_unitary(dim, int(rng.integers(2**32))))
        cfg = OracleConfig(dim=dim, theta=float(theta), phi=float(phi),
                           u_matrix=pair.u, v_matrix=pair.v)
        g, t = cfg.gamma_index, cfg.tau_index
        vu = pair.product
        uv = pair.u @ pair.v
        inputs = FourDimInputs(
            float(theta), float(phi),
            u=pair.u[t, g], v=pair.v[g, t], vu_gg=vu[g, g], uv_tt=uv[t, t],
        )
        run = evolve(build_q(cfg), cfg, 30)
        traj = iterate4(four_dim_coeffs(inputs), 30)
        channels = (traj.a, traj.b, traj.c, traj.d)
        for k in range(31):
            dec = run.decompositions[k]
            res_worst = max(res_worst, dec.residual)
            for idx, channel in enumerate(channels):
                worst = max(worst, abs(dec.coefficients[idx] - channel[k]))
        diag_worst = max(diag_worst, float(np.max(np.abs(np.diagonal(vu)))))
    flags_agree = True
    for seed in range(500):
        if seed % 3 == 0:
            w = companion(random_commuting_unitary(8, seed)).product
        elif seed % 3 == 1:
            gen = np.random.default_rng(seed)
            v = gen.standard_normal(8) + 1j * gen.standard_normal(8)
            v /= np.linalg.norm(v)
            w = np.eye(8) - 2 * np.outer(v, v.conj())
        else:
            w = random_unitary(8, seed)
        flags = hermitian_iff_involution(w)
        flags_agree = flags_agree and (flags.hermitian == flags.involution)
    ok = (worst <= 1e-9 and res_worst <= 1e-9 and diag_worst <= 1e-10
          and flags_agree)
    verdict(6, ok, f"{cases} pairs: dev {worst:.2e}, residual {res_worst:.2e} <= 1e-9, "
                    f"diag {diag_worst:.2e} <= 1e-10; flags agree on 500 unitaries")


def test_criterion_7_first_order_optimality(verdict):
    grid = [0.0, 0.1, -0.1, 0.5, -0.5, 1.0, -1.0, math.pi / 2, math.pi]
    u = 0.1
    bound_ok = True
    equality_ok = True
    for theta in grid:
        for phi in grid:
            params = AlgorithmParams(theta, phi, u)
            gaps = []
            for k in range(1, 51):
                value = closed_form_magnitude(params, k)
                gaps.append(2 * k * u - value)
                bound_ok = bound_ok and value <= 2 * k * u + 1e-12
            attains = max(gaps) <= 1e-12
            expected = abs(math.sin(theta)) < 1e-9 and abs(math.sin(phi)) < 1e-9
            equality_ok = equality_ok and (attains == expected)
    ok = bound_ok and equality_ok
    verdict(7, ok, "|b_k| <= 2k|u| + 1e-12 on the 9x9 angle grid, k <= 50; "
                    "equality exactly at theta, phi multiples of pi")


def test_criterion_8_non_symmetry(verdict):
    zeros_ok = True
    for theta in (0.0, 0.3, 1.0, math.pi / 2, 2.5):
        traj = iterate2(present_coeffs(AlgorithmParams(theta, math.pi / 2, 0.1)), 100)
        zeros_ok = zeros_ok and bool(np.all(traj.b == 0))
    u = 0.2 + 0.1j
    traj = iterate2(present_coeffs(AlgorithmParams(math.pi / 2, 0.0, u)), 100)
    worst = 0.0
    for k in range(1, 101):
        expected = 2 * abs(u) * abs(math.sin(k * math.pi / 2))
        worst = max(worst, abs(abs(traj.b[k]) - expected))
    ok = zeros_ok and worst <= 1e-9
    verdict(8, ok, f"b_k(phi=pi/2) identically zero; swapped angles dev {worst:.2e} <= 1e-9")


def test_criterion_9_low_order_expansions(verdict):
    worst = 0.0
    for u in (0.05, 0.1, 0.25):
        traj = iterate2(grover_coeffs(u), 3)
        worst = max(
            worst,
            abs(traj.b[1] - 2 * u),
            abs(traj.b[2] - (4 * u - 8 * u * abs(u) ** 2)),
            abs(traj.b[3] - (6 * u - 32 * u * abs(u) ** 2 + 32 * u * abs(u) ** 4)),
        )
    ok = worst <= 1e-9
    verdict(9, ok, f"b_1..b_3 polynomial expansions, max dev {worst:.2e} <= 1e-9")


def test_criterion_10_phase_condition_trend(verdict):
    capped_ok = True
    details = []
    for theta in (0.3, 0.4, 0.6):
        params = AlgorithmParams(theta, 0.0, 0.1)
        ratio_l = theta / 0.2
        res = sweep_max(present_coeffs(params), 2000)
        cap = 1 / ratio_l + 0.05
        capped_ok = capped_ok and res.max_abs_b <= cap
        details.append(f"{res.max_abs_b:.3f}<={cap:.3f}")
    matched_ok = True
    for theta in (0.01, 0.02):
        params = AlgorithmParams(theta, 0.0, 0.1)
        res = sweep_max(present_coeffs(params), 2000)
        matched_ok = matched_ok and res.max_abs_b >= 0.99
    ok = capped_ok and matched_ok
    verdict(10, ok, f"mismatched caps {', '.join(details)}; matched maxima >= 0.99")
