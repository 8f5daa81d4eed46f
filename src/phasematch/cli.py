"""Command-line front end.

Reproduces the reference tables, sweeps phase parameters, runs the
dense-simulation verification suites, and emits every result as a CSV or
JSON report with a small reproducibility header (seed, tolerances,
version).
"""

import cmath
import math
import sys

import click
import numpy as np

from . import __version__
from .engine2d import (
    AlgorithmParams,
    HoyerParams,
    grover_coeffs,
    hoyer_coeffs,
    iterate2,
    l_coeff,
    long_coeffs,
    phase_condition,
    present_coeffs,
    sweep_max,
)
from .engine4d import FourDimInputs, four_dim_coeffs, iterate4
from .linalg import (
    EQUIVALENCE_TOL,
    STRUCTURAL_TOL,
    hermitian_dev,
    involution_dev,
    random_unitary,
    unitary_dev,
)
from .oracle import OracleConfig, build_q, evolve, target_amplitude
from .pairs import (
    block_symmetry_dev,
    companion,
    hermitian_iff_involution,
    pair_swap,
    random_commuting_unitary,
)
from .reporting import make_report, render

#: (N, k) rows of the fixed-point table; u = 1/sqrt(N), theta = phi = 0.
TABLE1_CASES = ((100, 6), (400, 12), (625, 14), (900, 17))

#: (theta, listed k) rows of the small-angle table; phi = 0, u = 0.1.
TABLE2_CASES = ((0.01, 7), (0.02, 8), (0.03, 8), (0.04, 100), (0.05, 100))

_SEED_MAX = 2**32

#: Most theta values a ``START:STOP:STEP`` range may expand to.
MAX_RANGE_POINTS = 100_000

#: Largest ``--kmax``; each trajectory holds two complex arrays of kmax + 1 entries.
MAX_K = 1_000_000


def _base_metadata(seed, tolerance, **extra):
    meta = {"seed": int(seed), "tolerance": float(tolerance), "version": __version__}
    meta.update(extra)
    return meta


def run_table1(equivalence_tol=EQUIVALENCE_TOL):
    """Amplitude |b_k| at the listed k for N in {100, 400, 625, 900}.

    Uses the two-dimensional engine with theta = phi = 0 and u = 1/sqrt(N);
    only |u| enters the recurrence, so no N-dimensional unitary is needed.
    """
    rows = []
    for n, k in TABLE1_CASES:
        u = 1.0 / math.sqrt(n)
        traj = iterate2(grover_coeffs(u), k)
        rows.append(
            {
                "n": n,
                "sqrt_n_over_2": math.sqrt(n) / 2.0,
                "u": u,
                "k": k,
                "abs_b_k": float(abs(traj.b[k])),
            }
        )
    meta = _base_metadata(0, equivalence_tol, theta=0.0, phi=0.0)
    return make_report("table1", meta, rows)


def run_table2(k_max=100, equivalence_tol=EQUIVALENCE_TOL):
    """|b_k| at the listed k, plus argmax over k <= k_max, for small theta.

    Each row reports both the tabulated iteration count and the true
    argmax of |b_k| so that disagreements between the two are visible in
    the output instead of silently absorbed.
    """
    rows = []
    for theta, k_listed in TABLE2_CASES:
        params = AlgorithmParams(theta, 0.0, 0.1)
        coeffs = present_coeffs(params)
        traj = iterate2(coeffs, max(k_max, k_listed))
        res = sweep_max(coeffs, k_max, params)
        rows.append(
            {
                "theta": theta,
                "k": k_listed,
                "abs_b_k": float(abs(traj.b[k_listed])),
                "k_star": res.k_star,
                "max_abs_b": res.max_abs_b,
                "ratio_l": res.ratio_l,
            }
        )
    meta = _base_metadata(0, equivalence_tol, phi=0.0, u=0.1, k_max=k_max)
    return make_report("table2", meta, rows)


def run_pyramid(max_k=12):
    """Integer coefficient rows l_{k,i} of (beta*lambda)^j for j >= 1.

    Emits, for each power j with 2j+1 <= max_k, the first few rows
    k = 2j+1 .. min(2j+5, max_k) of the Pascal-like pyramid.
    """
    rows = []
    j = 1
    while 2 * j + 1 <= max_k:
        for k in range(2 * j + 1, min(2 * j + 5, max_k) + 1):
            values = [l_coeff(k, i, j) for i in range(k - 2 * j)]
            rows.append(
                {
                    "power": j,
                    "k": k,
                    "values": " ".join(str(v) for v in values),
                }
            )
        j += 1
    return make_report("pyramid", _base_metadata(0, 0.0, max_k=max_k), rows)


def run_sweep(thetas, phi, u, k_max=100, equivalence_tol=EQUIVALENCE_TOL):
    """Optimal iteration count and phase-condition check per theta."""
    rows = []
    for theta in thetas:
        params = AlgorithmParams(theta, phi, u)
        res = sweep_max(present_coeffs(params), k_max, params)
        cond = phase_condition(params)
        rows.append(
            {
                "theta": float(theta),
                "phi": float(phi),
                "u_re": params.u.real,
                "u_im": params.u.imag,
                "k_star": res.k_star,
                "max_abs_b": res.max_abs_b,
                "threshold": cond.threshold,
                "ratio_l": cond.ratio_l,
                "satisfied": cond.satisfied,
            }
        )
    meta = _base_metadata(0, equivalence_tol, phi=float(phi), k_max=k_max)
    return make_report("sweep", meta, rows)


def run_coeffs(family, theta=0.0, phi=0.0, u=0.1, a=0.01, varphi=0.0):
    """Matrix elements (alpha, beta, lambda, delta) for one coefficient family."""
    if family == "present":
        coeffs = present_coeffs(AlgorithmParams(theta, phi, u))
    elif family == "grover":
        coeffs = grover_coeffs(u)
    elif family == "long":
        coeffs = long_coeffs(theta, phi, u)
    elif family == "hoyer":
        coeffs = hoyer_coeffs(HoyerParams(a, phi, varphi))
    else:
        raise ValueError(f"unknown coefficient family {family!r}")
    row = {"family": family, "provenance": coeffs.provenance}
    for name in ("alpha", "beta", "lam", "delta"):
        value = getattr(coeffs, name)
        row[f"{name}_re"] = value.real
        row[f"{name}_im"] = value.imag
    meta = _base_metadata(
        0, 0.0, theta=theta, phi=phi, u_re=complex(u).real, u_im=complex(u).imag,
        a=a, varphi=varphi,
    )
    return make_report("coeffs", meta, [row])


def _verify_row(mode, case, matrix_seed, cfg, run, channels):
    """The columns both suites share, and the worst of their deviations.

    The deviations are the largest, over all k, of |coefficient - channel|
    (``channels`` holds one recurrence array per invariant basis vector, in
    the order of the decomposition coefficients), of the decomposition
    residual and of | |Q^k gamma| - 1 |.
    """
    comp_dev = residual = norm_dev = 0.0
    for k, dec in enumerate(run.decompositions):
        for idx, channel in enumerate(channels):
            comp_dev = max(comp_dev, abs(dec.coefficients[idx] - channel[k]))
        residual = max(residual, dec.residual)
        norm_dev = max(norm_dev, abs(float(np.linalg.norm(run.states[k])) - 1.0))
    row = {
        "mode": mode,
        "case": case,
        "dim": cfg.dim,
        "matrix_seed": matrix_seed,
        "theta": cfg.theta,
        "phi": cfg.phi,
        "max_component_dev": comp_dev,
        "max_residual": residual,
        "max_norm_dev": norm_dev,
    }
    return row, max(comp_dev, residual, norm_dev)


def _verify_2d_case(case, rng, equivalence_tol, k_max=50):
    dim = (4, 16, 64)[case % 3]
    matrix_seed = int(rng.integers(_SEED_MAX))
    theta, phi = (float(x) for x in rng.uniform(-math.pi, math.pi, 2))
    cfg = OracleConfig(dim=dim, theta=theta, phi=phi,
                       u_matrix=random_unitary(dim, matrix_seed))
    run = evolve(build_q(cfg), cfg, k_max)
    traj = iterate2(present_coeffs(AlgorithmParams(theta, phi, cfg.u_element)), k_max)
    row, worst = _verify_row("2d", case, matrix_seed, cfg, run, (traj.a, traj.b))
    amp_dev = 0.0
    for k in range(k_max + 1):
        predicted = traj.a[k] * cfg.u_element + traj.b[k]
        amp_dev = max(amp_dev, abs(target_amplitude(run, cfg, k) - predicted))
    row["max_amplitude_dev"] = amp_dev
    row["ok"] = max(worst, amp_dev) <= equivalence_tol
    return row


def _verify_4d_case(case, rng, structural_tol, equivalence_tol, k_max=30):
    dim = (8, 16)[case % 2]
    matrix_seed = int(rng.integers(_SEED_MAX))
    theta, phi = (float(x) for x in rng.uniform(-math.pi, math.pi, 2))
    pair = companion(random_commuting_unitary(dim, matrix_seed), structural_tol)
    cfg = OracleConfig(dim=dim, theta=theta, phi=phi,
                       u_matrix=pair.u, v_matrix=pair.v)
    g, t = cfg.gamma_index, cfg.tau_index
    vu = pair.product
    uv = pair.u @ pair.v
    inputs = FourDimInputs(
        theta,
        phi,
        u=pair.u[t, g],
        v=pair.v[g, t],
        vu_gg=vu[g, g],
        uv_tt=uv[t, t],
    )
    run = evolve(build_q(cfg), cfg, k_max)
    traj = iterate4(four_dim_coeffs(inputs), k_max)
    row, worst = _verify_row("4d", case, matrix_seed, cfg, run, (traj.a, traj.b, traj.c, traj.d))
    diag_dev = float(np.max(np.abs(np.diagonal(vu))))
    flags = hermitian_iff_involution(vu, structural_tol)
    row["product_diag_dev"] = diag_dev
    row["product_hermitian"] = flags.hermitian
    row["product_involution"] = flags.involution
    row["ok"] = (
        worst <= equivalence_tol
        and diag_dev <= structural_tol
        and flags.hermitian
        and flags.involution
    )
    return row


def run_verify(scope="all", seed=1, n_cases=20,
               structural_tol=STRUCTURAL_TOL, equivalence_tol=EQUIVALENCE_TOL):
    """Dense-simulation equivalence suite for the reduced recurrences.

    Every case builds a full-space search operator from seeded unitaries,
    decomposes Q^k applied to the start state over the invariant basis,
    and compares the coefficients against the 2D/4D recurrences.
    """
    if n_cases < 1:
        raise ValueError("n_cases must be >= 1")
    if scope not in ("2d", "4d", "all"):
        raise ValueError(f"unknown verify scope {scope!r}")
    rng = np.random.default_rng(seed)
    rows = []
    if scope in ("2d", "all"):
        for case in range(n_cases):
            rows.append(_verify_2d_case(case, rng, equivalence_tol))
    if scope in ("4d", "all"):
        for case in range(n_cases):
            rows.append(_verify_4d_case(case, rng, structural_tol, equivalence_tol))
    passed = all(row["ok"] for row in rows)
    meta = _base_metadata(
        seed, equivalence_tol, structural_tolerance=structural_tol,
        scope=scope, cases=n_cases, k_max_2d=50, k_max_4d=30,
    )
    return make_report("verify", meta, rows, passed=passed)


def run_construct(dim, seed=0, structural_tol=STRUCTURAL_TOL):
    """Build a commuting pair (V, U) with V U = U V = P and report its checks.

    The JSON report embeds both matrices under metadata as nested lists of
    {re, im} objects; the CSV encoding carries the check rows only.
    """
    v = random_commuting_unitary(dim, seed)
    pair = companion(v, structural_tol)
    p = pair_swap(dim)
    vu = pair.product
    uv = pair.u @ pair.v
    deviations = (
        ("v_unitary", unitary_dev(v)),
        ("u_unitary", unitary_dev(pair.u)),
        ("v_block_symmetric", block_symmetry_dev(v)),
        ("vu_equals_pair_swap", float(np.max(np.abs(vu - p)))),
        ("uv_equals_pair_swap", float(np.max(np.abs(uv - p)))),
        ("vu_zero_diagonal", float(np.max(np.abs(np.diagonal(vu))))),
        ("vu_hermitian_dev", hermitian_dev(vu)),
        ("vu_involution_dev", involution_dev(vu)),
    )
    rows = [
        {"check": name, "deviation": dev, "tol": structural_tol,
         "ok": dev <= structural_tol}
        for name, dev in deviations
    ]
    passed = all(row["ok"] for row in rows)
    meta = _base_metadata(
        seed, structural_tol, dim=dim,
        v=v.tolist(), u=pair.u.tolist(),
    )
    return make_report("construct", meta, rows, passed=passed)


def _parse_range(text):
    """Parse 'X' or 'A:B:STEP' into an inclusive list of at most MAX_RANGE_POINTS floats."""
    try:
        parts = [float(p) for p in text.split(":")]
    except ValueError:
        raise click.BadParameter(f"{text!r} is not a number or START:STOP:STEP") from None
    if not all(math.isfinite(p) for p in parts):
        raise click.BadParameter(f"{text!r} has a non-finite part")
    if len(parts) == 1:
        return parts
    if len(parts) != 3:
        raise click.BadParameter("expected a number or START:STOP:STEP")
    start, stop, step = parts
    if step <= 0:
        raise click.BadParameter("step must be positive")
    steps = (stop - start) / step + 1e-9
    if steps < 0:
        raise click.BadParameter("stop must not precede start")
    if steps >= MAX_RANGE_POINTS:
        raise click.BadParameter(f"the range has more than {MAX_RANGE_POINTS} points")
    return [start + i * step for i in range(int(math.floor(steps)) + 1)]


class FiniteFloat(click.types.FloatParamType):
    """Click parameter accepting a finite float, or with ``positive`` one above 0."""

    def __init__(self, positive=False):
        self.positive = positive

    def convert(self, value, param, ctx):
        value = super().convert(value, param, ctx)
        if not math.isfinite(value) or (self.positive and value <= 0):
            kind = "finite positive" if self.positive else "finite"
            self.fail(f"{value!r} is not a {kind} number", param, ctx)
        return value


FINITE = FiniteFloat()
POSITIVE = FiniteFloat(positive=True)


class ComplexParam(click.ParamType):
    """Click parameter accepting any finite number python's complex() parses."""

    name = "complex"

    def convert(self, value, param, ctx):
        if isinstance(value, complex):
            return value
        try:
            z = complex(str(value).replace(" ", ""))
        except ValueError:
            self.fail(f"{value!r} is not a complex number", param, ctx)
        if not cmath.isfinite(z):
            self.fail(f"{value!r} is not finite", param, ctx)
        return z


COMPLEX = ComplexParam()


def _emit(report, fmt, out):
    text = render(report, fmt)
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _output_options(func):
    func = click.option(
        "--format", "fmt", type=click.Choice(["csv", "json"]), default="json",
        show_default=True, help="Report encoding.")(func)
    func = click.option(
        "--out", type=click.Path(dir_okay=False, writable=True), default=None,
        help="Write the report here instead of stdout.")(func)
    return func


@click.group()
@click.version_option(version=__version__, prog_name="phasematch")
def main():
    """Generalized quantum search with arbitrary phase rotations."""


@main.command("table1")
@_output_options
def table1_cmd(fmt, out):
    """Fixed-point amplitudes |b_k| for N in {100, 400, 625, 900}."""
    _emit(run_table1(), fmt, out)


@main.command("table2")
@click.option("--kmax", type=click.IntRange(min=1, max=MAX_K), default=100,
              show_default=True, help="Upper iteration bound for the argmax.")
@_output_options
def table2_cmd(kmax, fmt, out):
    """Small mismatched-angle amplitudes at phi=0, u=0.1."""
    _emit(run_table2(k_max=kmax), fmt, out)


@main.command("pyramid")
@click.option("--max-k", type=click.IntRange(min=1), default=12,
              show_default=True, help="Largest iteration index to print.")
@_output_options
def pyramid_cmd(max_k, fmt, out):
    """Integer coefficient pyramids of the closed-form expansion."""
    _emit(run_pyramid(max_k=max_k), fmt, out)


@main.command("sweep")
@click.option("--theta", "theta_range", default="0.0", show_default=True,
              help="Rotation angle of the start-state phase, X or A:B:STEP.")
@click.option("--phi", type=FINITE, default=0.0, show_default=True,
              help="Rotation angle of the target-state phase.")
@click.option("--u", type=COMPLEX, default="0.1", show_default=True,
              help="Matrix element U_tau_gamma (complex accepted).")
@click.option("--kmax", type=click.IntRange(min=1, max=MAX_K), default=100,
              show_default=True, help="Upper iteration bound.")
@_output_options
def sweep_cmd(theta_range, phi, u, kmax, fmt, out):
    """Optimal iteration count over a range of theta."""
    _emit(run_sweep(_parse_range(theta_range), phi, u, k_max=kmax), fmt, out)


@main.command("coeffs")
@click.option("--family", type=click.Choice(["present", "grover", "long", "hoyer"]),
              required=True, help="Which reduced 2x2 coefficient family.")
@click.option("--theta", type=FINITE, default=0.0, show_default=True)
@click.option("--phi", type=FINITE, default=0.0, show_default=True)
@click.option("--u", type=COMPLEX, default="0.1", show_default=True)
@click.option("--a", type=FINITE, default=0.01, show_default=True,
              help="Initial success probability (hoyer family only).")
@click.option("--varphi", type=FINITE, default=0.0, show_default=True,
              help="Extra phase angle (hoyer family only).")
@_output_options
def coeffs_cmd(family, theta, phi, u, a, varphi, fmt, out):
    """Reduced iteration-matrix entries for one coefficient family."""
    _emit(run_coeffs(family, theta=theta, phi=phi, u=u, a=a, varphi=varphi), fmt, out)


@main.command("verify")
@click.option("--scope", type=click.Choice(["2d", "4d", "all"]), default="all",
              show_default=True, help="Which equivalence suites to run.")
@click.option("--seed", type=int, default=1, show_default=True)
@click.option("--cases", type=click.IntRange(min=1), default=20,
              show_default=True, help="Random cases per suite.")
@click.option("--structural-tol", type=POSITIVE, default=STRUCTURAL_TOL,
              show_default=True, help="Tolerance for structural matrix checks.")
@click.option("--equiv-tol", type=POSITIVE, default=EQUIVALENCE_TOL,
              show_default=True, help="Tolerance for recurrence equivalence.")
@_output_options
def verify_cmd(scope, seed, cases, structural_tol, equiv_tol, fmt, out):
    """Compare the reduced recurrences against dense simulation."""
    report = run_verify(scope=scope, seed=seed, n_cases=cases,
                        structural_tol=structural_tol, equivalence_tol=equiv_tol)
    _emit(report, fmt, out)
    if not report.passed:
        sys.exit(1)


@main.command("construct")
@click.option("--dim", type=click.IntRange(min=2), default=8, show_default=True,
              help="Even matrix dimension.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--structural-tol", type=POSITIVE, default=STRUCTURAL_TOL,
              show_default=True, help="Tolerance for the emitted checks.")
@_output_options
def construct_cmd(dim, seed, structural_tol, fmt, out):
    """Emit a commuting unitary pair whose product is the pair swap."""
    if dim % 2:
        raise click.BadParameter("--dim must be even")
    report = run_construct(dim, seed=seed, structural_tol=structural_tol)
    _emit(report, fmt, out)
    if not report.passed:
        sys.exit(1)


if __name__ == "__main__":
    main()
