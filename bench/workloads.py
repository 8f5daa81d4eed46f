"""The four benchmark workloads: seeded inputs, the timed program call, the check.

A workload is a function ``(seed, index) -> list[Case]`` that builds cycle
``index`` of the run. A cycle holds the same item kinds, in the same order
and at the same sizes, whatever the seed; the seed and the cycle index only
choose angles, overlaps and matrix seeds. So a run's cost does not depend
on the seed, and every cycle does the same count of calls into each layer.

``Case.run`` is the timed item: the package calls of the item, and picking
out of their results what the check needs. ``Case.check`` compares its
output with a reference computed by benchmark code (the recurrences are
written out from their coefficient formulas) and raises :class:`Mismatch`.
Checks call no package function, so a traced run records spans of the
program's work only, and keep little memory, so that the peak resident set
is the program's.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import numpy as np

import calibrate
from phasematch import cli, engine2d, engine4d, oracle, pairs, reporting

#: Tolerance of every check that compares two computation paths.
EQUIVALENCE_TOL = 1e-9
#: |cos(x)| below this is treated as an exact zero, as the package does.
COS_SNAP = 1e-14


class Mismatch(Exception):
    """An item's output disagrees with its reference."""


@dataclass(frozen=True)
class Case:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def _expect(ok, message):
    if not ok:
        raise Mismatch(message)


def _rng(seed, index):
    return np.random.default_rng([seed, index])


def _overlap(rng, low, high):
    """A complex u with |u| uniform in [low, high] and a uniform phase."""
    return complex(rng.uniform(low, high) * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))


def _g(x):
    """2 cos(x) e^(ix), with the cosine flushed to 0 near odd multiples of pi/2."""
    c = np.cos(x)
    c = np.where(np.abs(c) < COS_SNAP, 0.0, c)
    return 2 * c * np.exp(1j * np.asarray(x))


# --- sweep -----------------------------------------------------------------

SWEEP_THETAS = 1001
SWEEP_KMAX = 400
#: Half-width of the theta grid in units of the threshold 2|cos(phi)||u|,
#: so ratio_l runs from 0 to 3 across the grid.
SWEEP_SPAN = 3.0
#: |b_k| values closer than this to the maximum count as a tie for k_star.
SWEEP_TIE = 1e-12


def _coeffs2(theta, phi, u):
    """Double-rotation coefficients written out from their formulas.

    With g = 2 cos(x) e^(ix): alpha = -(1 - g(t) + g(t) g(p) |u|^2),
    beta = g(p) u, lambda = g(t) (1 - g(p)) conj(u), delta = g(p) - 1.
    ``theta`` may be an array.
    """
    gt = _g(np.asarray(theta, dtype=np.float64))
    gp = complex(_g(phi))
    alpha = -(1 - gt + gt * gp * abs(u) ** 2)
    return alpha, gp * u, gt * (1 - gp) * complex(u).conjugate(), gp - 1


def reference_sweep(thetas, phi, u, k_max, k_star):
    """max_k |b_k| over k = 1..k_max per theta, its first argmax, and |b| at ``k_star``.

    A batched recurrence that keeps only running values, so that the check
    adds no memory of its own to the workload's peak.
    """
    alpha, beta, lam, delta = _coeffs2(thetas, phi, u)
    a = np.ones_like(alpha)
    b = np.zeros_like(alpha)
    best = np.full(len(alpha), -1.0)
    k_best = np.zeros(len(alpha), dtype=np.int64)
    at_star = np.full(len(alpha), np.nan)
    for k in range(1, k_max + 1):
        a, b = alpha * a + lam * b, beta * a + delta * b
        mag = np.abs(b)
        better = mag > best
        best[better] = mag[better]
        k_best[better] = k
        hit = k_star == k
        at_star[hit] = mag[hit]
    return best, k_best, at_star


_WHITESPACE = re.compile(r"\s*")


def _json_rows(text):
    """The rows of a rendered JSON report, decoded one at a time.

    The check never holds a parsed copy of all rows next to the report.
    """
    decoder = json.JSONDecoder()
    pos = _WHITESPACE.match(text, text.index("[", text.index('"rows"')) + 1).end()
    while text[pos] != "]":
        row, pos = decoder.raw_decode(text, pos)
        yield row
        pos = _WHITESPACE.match(text, pos).end()
        if text[pos] == ",":
            pos = _WHITESPACE.match(text, pos + 1).end()


def _sweep_run(thetas, phi, u):
    report = cli.run_sweep(thetas, phi, u, k_max=SWEEP_KMAX)
    return report, reporting.render(report, "json"), reporting.render(report, "csv")


def _sweep_check(thetas, phi, u, out):
    report, text_json, text_csv = out
    rows = report.rows
    _expect(len(rows) == len(thetas), f"{len(rows)} rows for {len(thetas)} thetas")
    k_star = np.array([row["k_star"] for row in rows])
    max_b = np.array([row["max_abs_b"] for row in rows], dtype=np.float64)
    _expect(np.all((k_star >= 1) & (k_star <= SWEEP_KMAX)), "k_star out of range")
    best, k_ref, at_star = reference_sweep(thetas, phi, u, SWEEP_KMAX, k_star)
    differs = k_star != k_ref
    # Where k_star differs, the reference must see a numerical tie there.
    tied = at_star >= best - SWEEP_TIE
    _expect(np.all(~differs | tied), f"k_star differs at {int(np.sum(differs & ~tied))} thetas")
    worst = float(np.max(np.abs(max_b - best)))
    _expect(worst <= EQUIVALENCE_TOL, f"max_abs_b off by {worst:.3e}")
    decoded = _json_rows(text_json)
    for i, want in enumerate(rows):
        _expect(next(decoded, None) == want, f"JSON rendering does not round-trip row {i}")
    _expect(next(decoded, None) is None, "JSON rendering holds extra rows")
    _expect(text_csv.count("\n") == len(rows) + 1, "CSV line count")


def _theta_grid(phi, u):
    half = SWEEP_SPAN * 2 * abs(math.cos(phi)) * abs(u)
    if half < 1e-9:
        # phi = pi/2: the threshold vanishes, so take the width from |u| alone.
        half = SWEEP_SPAN * 2 * abs(u)
    return (phi + np.linspace(-half, half, SWEEP_THETAS)).tolist()


def sweep(seed, index):
    """Five dense theta grids around the phase-matching threshold."""
    rng = _rng(seed, index)
    settings = (
        (0.0, complex(rng.uniform(0.05, 0.15))),  # the table-2 setting: phi = 0, real u
        (rng.uniform(0.2, 1.2), _overlap(rng, 0.05, 0.15)),
        (rng.uniform(-1.2, -0.2), _overlap(rng, 0.05, 0.15)),
        (rng.uniform(1.9, 2.9), _overlap(rng, 0.05, 0.15)),  # cos(phi) < 0
        (math.pi / 2, _overlap(rng, 0.05, 0.15)),  # beta = 0, ratio_l = inf
    )
    cases = []
    for phi, u in settings:
        phi = float(phi)
        thetas = _theta_grid(phi, u)
        cases.append(Case("grid", partial(_sweep_run, thetas, phi, u),
                          partial(_sweep_check, thetas, phi, u)))
    return cases


# --- verify ----------------------------------------------------------------

#: run_verify cycles its dimensions with the case index (2D: 4, 16, 64;
#: 4D: 8, 16), so a call of nine cases per scope covers each of them three
#: times. Items this long keep short host stalls from setting the tail.
VERIFY_CASES = 9
VERIFY_ITEMS = 10


def _verify_run(seed):
    return cli.run_verify(scope="all", seed=seed, n_cases=VERIFY_CASES)


def _verify_check(report):
    _expect(len(report.rows) == 2 * VERIFY_CASES, f"{len(report.rows)} verify rows")
    bad = [row["case"] for row in report.rows if row["ok"] is not True]
    _expect(not bad, f"verify rows not ok: {bad}")
    _expect(report.passed is True, "verify report pass is not true")


def verify(seed, index):
    """Ten run_verify calls of nine 2D and nine 4D cases each."""
    seeds = _rng(seed, index).integers(2**31, size=VERIFY_ITEMS)
    return [Case("verify", partial(_verify_run, int(s)), _verify_check) for s in seeds]


# --- oracle-scale ----------------------------------------------------------

#: |b_k| as printed in Table 1 of the paper, and the agreement required.
TABLE1_PRINTED = {100: 0.9375, 400: 0.9334, 625: 0.9010, 900: 0.9064}
PRINTED_TOL = 5e-4
PAIR_DIMS = (128, 256)
PAIR_KMAX = 30
CONSTRUCT_DIM = 128


def _table1_run(n, k, seed):
    w = oracle.unitary_with_overlap(n, seed, 1 / math.sqrt(n))
    cfg = oracle.OracleConfig(dim=n, theta=0.0, phi=0.0, u_matrix=w)
    run = oracle.evolve(oracle.build_q(cfg), cfg, k)
    return {
        "u": cfg.u_element,
        "coefficients": np.array([d.coefficients for d in run.decompositions]),
        "residuals": np.array([d.residual for d in run.decompositions]),
        "amplitudes": np.array([oracle.target_amplitude(run, cfg, j) for j in range(k + 1)]),
    }


def _recurrence(matrix, k_max):
    """Rows k = 0..k_max of the trajectory of ``matrix`` from (1, 0, ...)."""
    state = np.zeros(len(matrix), dtype=np.complex128)
    state[0] = 1
    rows = [state]
    for _ in range(k_max):
        state = matrix @ state
        rows.append(state)
    return np.array(rows)


def _table1_check(n, k, out):
    alpha, beta, lam, delta = (complex(x) for x in _coeffs2(0.0, 0.0, out["u"]))
    rec = _recurrence(np.array([[alpha, lam], [beta, delta]]), k)
    coeffs = out["coefficients"]
    dev = float(np.max(np.abs(coeffs - rec)))
    _expect(dev <= EQUIVALENCE_TOL, f"N={n}: oracle vs recurrence {dev:.3e}")
    res = float(np.max(out["residuals"]))
    _expect(res <= EQUIVALENCE_TOL, f"N={n}: decomposition residual {res:.3e}")
    predicted = rec[:, 0] * out["u"] + rec[:, 1]
    amp = float(np.max(np.abs(out["amplitudes"] - predicted)))
    _expect(amp <= EQUIVALENCE_TOL, f"N={n}: target amplitude {amp:.3e}")
    printed = abs(abs(coeffs[k, 1]) - TABLE1_PRINTED[n])
    _expect(printed <= PRINTED_TOL, f"N={n}: |b_{k}| off the printed value by {printed:.2e}")


def _construct_run(seed):
    return cli.run_construct(CONSTRUCT_DIM, seed=seed)


def _construct_check(report):
    _expect(report.passed is True, "construct report pass is not true")


def _pair_run(dim, seed, theta, phi):
    v = pairs.random_commuting_unitary(dim, seed)
    pair = pairs.companion(v)
    cfg = oracle.OracleConfig(dim=dim, theta=theta, phi=phi, u_matrix=pair.u, v_matrix=pair.v)
    run = oracle.evolve(oracle.build_q(cfg), cfg, PAIR_KMAX)
    g, t = cfg.gamma_index, cfg.tau_index
    return {
        "elements": (pair.u[t, g], pair.v[g, t], pair.product[g, g],
                     complex(pair.u[t] @ pair.v[:, t])),
        "coefficients": np.array([d.coefficients for d in run.decompositions]),
        "residuals": np.array([d.residual for d in run.decompositions]),
        "block_symmetric": pairs.is_block_symmetric(v),
        "flags": tuple(pairs.hermitian_iff_involution(pair.product)),
    }


def _four_dim_matrix(theta, phi, u, v, vu_gg, uv_tt):
    """The 4D one-step matrix on (a, b, c, d), written out from its formulas.

    With g = 2 cos(x) e^(ix): a' = l1 a + l2 b + l3 c + l4 d, b' = -a,
    c' = p1 a + p2 b + p3 c + p4 d, d' = -c.
    """
    gt, gp = complex(_g(theta)), complex(_g(phi))
    return np.array([
        [gt * (vu_gg - gp * u * v), -1 + gt - gt * gp * abs(v) ** 2,
         gt * u.conjugate() - gt * gp * v * uv_tt, gt * (1 - gp) * v],
        [-1, 0, 0, 0],
        [gp * u, gp * v.conjugate(), gp * uv_tt, gp - 1],
        [0, 0, -1, 0],
    ], dtype=np.complex128)


def _pair_check(dim, theta, phi, out):
    elements = (complex(x) for x in out["elements"])
    rec = _recurrence(_four_dim_matrix(theta, phi, *elements), PAIR_KMAX)
    dev = float(np.max(np.abs(out["coefficients"] - rec)))
    _expect(dev <= EQUIVALENCE_TOL, f"4D dim={dim}: oracle vs recurrence {dev:.3e}")
    res = float(np.max(out["residuals"]))
    _expect(res <= EQUIVALENCE_TOL, f"4D dim={dim}: decomposition residual {res:.3e}")
    _expect(out["block_symmetric"] is True, f"4D dim={dim}: V is not block symmetric")
    _expect(out["flags"] == (True, True), f"4D dim={dim}: VU flags {out['flags']}")


def oracle_scale(seed, index):
    """Table 1 at N = 100..900 by the dense oracle, a construct report, two 4D pairs."""
    rng = _rng(seed, index)
    cases = []
    for n, k in cli.TABLE1_CASES:
        cases.append(Case(f"table1-{n}", partial(_table1_run, n, k, int(rng.integers(2**31))),
                          partial(_table1_check, n, k)))
    cases.append(Case("construct", partial(_construct_run, int(rng.integers(2**31))),
                      _construct_check))
    for dim in PAIR_DIMS:
        theta, phi = (float(x) for x in rng.uniform(-math.pi, math.pi, 2))
        cases.append(Case(f"pair-{dim}",
                          partial(_pair_run, dim, int(rng.integers(2**31)), theta, phi),
                          partial(_pair_check, dim, theta, phi)))
    return cases


# --- long-trajectory -------------------------------------------------------

LONG_K2 = 50_000
LONG_K4 = 50_000
#: Closed form vs recurrence is required to agree up to this k.
EXACT_CHECK_K = 64
#: Up to this k the agreement required is EQUIVALENCE_TOL, as exact_b's
#: docstring promises.
EXACT_TIGHT_K = 25
#: The agreement required beyond EXACT_TIGHT_K. The integer-pyramid form is
#: least accurate on hoyer at k = 64 with a near 0.05 and phi near pi, the
#: corner of what long_trajectory draws: the largest deviation measured there
#: at the seed commit is 1.4e-8 (11 000 draws), and 4.7e-9 over 1 600 draws of
#: the whole workload. This is about 3.5 times the corner's largest.
EXACT_LOOSE_TOL = 5e-8
_CHECKPOINTS = 4
EPS = float(np.finfo(np.float64).eps)


def _first_order_tol(scale, terms):
    """Agreement required between a first-order sum and its closed form.

    The sum (approx_b, approx4) adds ``terms`` products of powers of unit
    phases, with exponents up to ``terms - 1``, and multiplies by ``scale`` =
    2 |cos(phi)| |u|. Python raises a complex to a large power n through
    n * arg(z), whose rounding alone moves the phase by up to about
    (pi/2 + 1) n EPS, so a term may be off by about 3 terms EPS and the sum,
    its additions included, by 4 terms^2 EPS. This worst case is below 1e-12
    up to 64 terms, where EQUIVALENCE_TOL governs, and up to about 4e-7 at
    50 000 terms. The closed forms are accurate to about terms EPS.
    """
    return EQUIVALENCE_TOL + 4 * terms * terms * EPS * scale


def _approx_ks(k_long):
    return (*range(1, engine2d.K_EXACT_MAX + 1), k_long)


def _trajectory2_run(family, args, params):
    coeffs = getattr(engine2d, family)(*args)
    traj = engine2d.iterate2(coeffs, LONG_K2)
    ks = range(1, engine2d.K_EXACT_MAX + 1)
    out = {
        "coeffs": (coeffs.alpha, coeffs.beta, coeffs.lam, coeffs.delta),
        "a": traj.a,
        "b": traj.b,
        "exact_b": np.array([engine2d.exact_b(coeffs, k) for k in ks]),
        "exact_a": np.array([engine2d.exact_a(coeffs, k) for k in ks]),
    }
    if params is not None:
        approx_ks = _approx_ks(LONG_K2)
        out["approx_b"] = np.array([engine2d.approx_b(params, k) for k in approx_ks])
        out["closed_form"] = np.array(
            [engine2d.closed_form_magnitude(params, k) for k in approx_ks])
    return out


def _checkpoints(k_long):
    return [k_long * (i + 1) // _CHECKPOINTS for i in range(_CHECKPOINTS)]


def _trajectory2_check(family, out):
    a, b = out["a"], out["b"]
    _expect(len(b) == LONG_K2 + 1, f"{family}: trajectory length {len(b)}")
    alpha, beta, lam, delta = out["coeffs"]
    for k in range(1, min(EXACT_CHECK_K, len(out["exact_b"])) + 1):
        dev = max(abs(out["exact_b"][k - 1] - b[k]), abs(out["exact_a"][k - 1] - a[k]))
        tol = EQUIVALENCE_TOL if k <= EXACT_TIGHT_K else EXACT_LOOSE_TOL
        _expect(dev <= tol, f"{family}: closed form vs recurrence at k={k}: {dev:.3e} > {tol:.1e}")
    m = np.array([[alpha, lam], [beta, delta]])
    for k in _checkpoints(LONG_K2):
        ref = np.linalg.matrix_power(m, k)[:, 0]
        dev = max(abs(ref[0] - a[k]), abs(ref[1] - b[k]))
        _expect(dev <= EQUIVALENCE_TOL, f"{family}: recurrence vs matrix power at k={k}: {dev:.3e}")
    if "approx_b" in out:
        cf = out["closed_form"]
        dev = np.abs(np.abs(out["approx_b"]) - cf) / np.maximum(1.0, cf)
        tol = _first_order_tol(abs(beta), np.array(_approx_ks(LONG_K2), dtype=np.float64))
        worst = int(np.argmax(dev / tol))
        _expect(dev[worst] <= tol[worst],
                f"{family}: |approx_b| vs closed form {dev[worst]:.3e} > {tol[worst]:.1e}")


def _trajectory4_run(theta, phi, u):
    coeffs = engine4d.four_dim_coeffs(engine4d.FourDimInputs.idealized(theta, phi, u))
    traj = engine4d.iterate4(coeffs, LONG_K4)
    return {
        "m": coeffs.m,
        "abcd": np.stack([traj.a, traj.b, traj.c, traj.d], axis=1),
        "approx4": np.array([engine4d.approx4(theta, phi, u, k) for k in _approx_ks(LONG_K4)]),
    }


def _first_order_scale(phi, u):
    """2 |cos(phi)| |u|, with the cosine flushed to 0 near odd multiples of pi/2."""
    c = math.cos(phi)
    return 2 * (0.0 if abs(c) < COS_SNAP else abs(c)) * abs(u)


def _first_order_magnitude(theta, phi, u, k):
    """2 |cos(phi)| |u| |sin(k x) / sin(x)| with x = theta - phi (k |...| at x = 0)."""
    scale = _first_order_scale(phi, u)
    gap = theta - phi
    if abs(math.sin(gap)) < 1e-12:
        return k * scale
    return scale * abs(math.sin(k * gap) / math.sin(gap))


def _trajectory4_check(theta, phi, u, out):
    abcd = out["abcd"]
    _expect(len(abcd) == LONG_K4 + 1, f"4D: trajectory length {len(abcd)}")
    for k in _checkpoints(LONG_K4):
        ref = np.linalg.matrix_power(out["m"], k)[0]
        dev = float(np.max(np.abs(ref - abcd[k])))
        _expect(dev <= EQUIVALENCE_TOL, f"4D: recurrence vs matrix power at k={k}: {dev:.3e}")
    for k, (a_k, c_next) in zip(_approx_ks(LONG_K4), out["approx4"]):
        want_a = 0.0 if k % 2 else 1.0
        _expect(abs(abs(a_k) - want_a) <= EQUIVALENCE_TOL, f"4D: |a_{k}| = {abs(a_k)}")
        terms = k // 2 + 1
        cf = _first_order_magnitude(theta, phi, u, terms)
        dev = abs(abs(c_next) - cf) / max(1.0, cf)
        tol = _first_order_tol(_first_order_scale(phi, u), terms)
        _expect(dev <= tol, f"4D: |c_{k + 1}| vs first-order form {dev:.3e} > {tol:.1e}")


def long_trajectory(seed, index):
    """One long trajectory per coefficient family, plus an idealized 4D one."""
    rng = _rng(seed, index)

    def angle():
        return float(rng.uniform(-math.pi, math.pi))

    u_grover = _overlap(rng, 0.01, 0.1)
    present = engine2d.AlgorithmParams(angle(), angle(), _overlap(rng, 0.01, 0.1))
    hoyer = engine2d.HoyerParams(float(rng.uniform(0.001, 0.05)), angle(), angle())
    two_dim = (
        ("grover_coeffs", (u_grover,), engine2d.AlgorithmParams(0.0, 0.0, u_grover)),
        ("present_coeffs", (present,), present),
        ("long_coeffs", (angle(), angle(), _overlap(rng, 0.01, 0.1)), None),
        ("hoyer_coeffs", (hoyer,), None),
    )
    cases = [
        Case(family, partial(_trajectory2_run, family, args, params),
             partial(_trajectory2_check, family))
        for family, args, params in two_dim
    ]
    theta, phi, u = angle(), angle(), _overlap(rng, 0.01, 0.1)
    cases.append(Case("idealized-4d", partial(_trajectory4_run, theta, phi, u),
                      partial(_trajectory4_check, theta, phi, u)))
    return cases


WORKLOADS = {
    "sweep": sweep,
    "verify": verify,
    "oracle-scale": oracle_scale,
    "long-trajectory": long_trajectory,
}

#: The calibration kernel parts (calibrate.py) that scale each workload.
#: verify is nearly all small numpy calls in the Gram decomposition; under
#: contention that part follows its speed, and the whole kernel under-corrects
#: it. No single part follows the other workloads better across host
#: conditions, so they get the whole kernel (bench/README.md).
KERNELS = {
    "sweep": calibrate.ALL,
    "verify": ("small-calls",),
    "oracle-scale": calibrate.ALL,
    "long-trajectory": calibrate.ALL,
}
