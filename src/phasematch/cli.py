"""Command-line front end.

Reproduces the reference tables, sweeps phase parameters, runs the
dense-simulation verification suites, and emits every result as a CSV or
JSON report with a small reproducibility header (seed, tolerances,
version).
"""

import math
import sys

import click
import numpy as np

from . import __version__
from .engine2d import (
    K_EXACT_MAX,
    AlgorithmParams,
    HoyerParams,
    TwoDimCoefficients,
    _peak_of,
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
    DegenerateBasisError,
    hermitian_dev,
    involution_dev,
    random_unitary,
    row_norms,
    unitary_dev,
)
from .oracle import OracleConfig, build_q, evolve, target_amplitude
from .pairs import (
    block_symmetry_dev,
    companion,
    hermitian_iff_involution,
    pair_swap,
    random_commuting_unitary,
    zero_diagonal_dev,
)
from .reporting import FORMATS, make_report, render

#: (N, k) rows of the fixed-point table; u = 1/sqrt(N), theta = phi = 0.
TABLE1_CASES = ((100, 6), (400, 12), (625, 14), (900, 17))

#: (theta, listed k) rows of the small-angle table; phi = 0, u = 0.1.
TABLE2_CASES = ((0.01, 7), (0.02, 8), (0.03, 8), (0.04, 100), (0.05, 100))

_SEED_MAX = 2**32

#: Most theta values a ``START:STOP:STEP`` range may expand to.
MAX_RANGE_POINTS = 100_000

#: Largest ``--kmax``; each trajectory holds two complex arrays of kmax + 1 entries.
MAX_K = 1_000_000

#: Most trajectory entries per array of one batched ``sweep`` recurrence: a
#: block of SWEEP_BLOCK // (kmax + 1) theta values runs at once, or one theta
#: at a time when fewer than two fit.
SWEEP_BLOCK = 2**16

#: Most trajectory entries, theta count x (kmax + 1), of one whole ``sweep``:
#: the bounds on the two factors alone admit about 10^11, some 12 hours.
MAX_SWEEP_ENTRIES = 10**8

#: Largest ``construct --dim``; the JSON report embeds two N x N matrices (about 46 MB at 512).
MAX_DIM = 512

#: Largest ``verify --cases``, per suite.
MAX_CASES = 1000

#: Per coefficient family: the ``run_coeffs`` parameters it reads, and its builder
#: from them. A lambda calls the builder this module binds when it runs, patched or not.
COEFFS_FAMILIES = {
    "present": (("theta", "phi", "u"), lambda t, p, u: present_coeffs(AlgorithmParams(t, p, u))),
    "grover": (("u",), lambda u: grover_coeffs(u)),
    "long": (("theta", "phi", "u"), lambda t, p, u: long_coeffs(t, p, u)),
    "hoyer": (("a", "phi", "varphi"), lambda a, p, v: hoyer_coeffs(HoyerParams(a, p, v))),
}

#: The value of each ``run_coeffs`` parameter the caller does not give.
COEFFS_DEFAULTS = {"theta": 0.0, "phi": 0.0, "u": 0.1, "a": 0.01, "varphi": 0.0}

#: The ``run_verify`` scopes: one suite, or both.
VERIFY_SCOPES = ("2d", "4d", "all")

#: Steps of each dense simulation in the 2D and 4D verify suites.
VERIFY_K_MAX_2D = 50
VERIFY_K_MAX_4D = 30


def _check_bound(name, value, low, high):
    """Raise ``ValueError`` unless low <= value <= high."""
    if not low <= value <= high:
        raise ValueError(f"{name} = {value} is outside [{low}, {high}]")


def _base_metadata(seed, tolerance, **extra):
    meta = {"seed": int(seed), "tolerance": float(tolerance), "version": __version__}
    meta.update(extra)
    return meta


def run_table1():
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
    meta = _base_metadata(0, EQUIVALENCE_TOL, theta=0.0, phi=0.0)
    return make_report("table1", meta, rows)


def run_table2(k_max=100):
    """|b_k| at the listed k, plus argmax over k <= k_max, for small theta.

    Each row reports both the tabulated iteration count and the true
    argmax of |b_k| so that disagreements between the two are visible in
    the output instead of silently absorbed. ``k_max`` is at most ``MAX_K``.
    """
    _check_bound("k_max", k_max, 1, MAX_K)
    rows = []
    for theta, k_listed in TABLE2_CASES:
        params = AlgorithmParams(theta, 0.0, 0.1)
        traj = iterate2(present_coeffs(params), max(k_max, k_listed))
        res = _peak_of(traj.b, k_max)
        rows.append(
            {
                "theta": theta,
                "k": k_listed,
                "abs_b_k": float(abs(traj.b[k_listed])),
                "k_star": res.k_star,
                "max_abs_b": res.max_abs_b,
                "ratio_l": phase_condition(params).ratio_l,
            }
        )
    meta = _base_metadata(0, EQUIVALENCE_TOL, phi=0.0, u=0.1, k_max=k_max)
    return make_report("table2", meta, rows)


def run_pyramid(max_k=12):
    """Integer coefficient rows l_{k,i} of (beta*lambda)^j for j >= 1.

    Emits, for each power j with 2j+1 <= max_k, the first few rows
    k = 2j+1 .. min(2j+5, max_k) of the Pascal-like pyramid. ``max_k`` lies
    in [3, ``K_EXACT_MAX``]: the first row is k = 3, the last the closed form's.
    """
    _check_bound("max_k", max_k, 3, K_EXACT_MAX)
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


def _stacked(block):
    """The coefficients of a block of instances: the one instance itself, or
    each field as a 1-D array over the block."""
    if len(block) == 1:
        return block[0]
    return TwoDimCoefficients(*(
        np.array([getattr(c, name) for c in block], dtype=np.complex128)
        for name in ("alpha", "beta", "lam", "delta")
    ))


def run_sweep(thetas, phi, u, k_max=100):
    """Optimal iteration count and phase-condition check per theta.

    The recurrences run in blocks of theta values, each block holding at
    most ``SWEEP_BLOCK`` trajectory entries per array. No theta, or more
    than ``MAX_SWEEP_ENTRIES`` entries in all, is rejected before any work.
    """
    if len(thetas) == 0:
        raise ValueError("a sweep needs at least one theta")
    _check_bound("k_max", k_max, 1, MAX_K)
    entries = len(thetas) * (k_max + 1)
    if entries > MAX_SWEEP_ENTRIES:
        raise ValueError(
            f"{len(thetas)} theta values x (kmax + 1 = {k_max + 1}) = {entries} trajectory "
            f"entries exceeds the sweep limit {MAX_SWEEP_ENTRIES}"
        )
    params = [AlgorithmParams(theta, phi, u) for theta in thetas]
    coeffs = [present_coeffs(p) for p in params]
    width = max(1, SWEEP_BLOCK // (k_max + 1))
    k_star, max_abs_b = [], []
    for start in range(0, len(coeffs), width):
        res = sweep_max(_stacked(coeffs[start : start + width]), k_max)
        k_star.extend(np.atleast_1d(res.k_star).tolist())
        max_abs_b.extend(np.atleast_1d(res.max_abs_b).tolist())
    rows = []
    for p, k, m in zip(params, k_star, max_abs_b):
        cond = phase_condition(p)
        rows.append(
            {
                "theta": float(p.theta),
                "phi": float(phi),
                "u_re": p.u.real,
                "u_im": p.u.imag,
                "k_star": k,
                "max_abs_b": m,
                "threshold": cond.threshold,
                "ratio_l": cond.ratio_l,
                "satisfied": cond.satisfied,
            }
        )
    meta = _base_metadata(0, EQUIVALENCE_TOL, phi=float(phi), k_max=k_max)
    return make_report("sweep", meta, rows)


def run_coeffs(family, theta=None, phi=None, u=None, a=None, varphi=None):
    """Matrix elements (alpha, beta, lambda, delta) for one coefficient family.

    ``None`` means not given: the parameter takes its ``COEFFS_DEFAULTS``
    value. Giving a parameter the family does not read is rejected.
    """
    if family not in COEFFS_FAMILIES:
        raise ValueError(f"unknown coefficient family {family!r}")
    reads, build = COEFFS_FAMILIES[family]
    given = {"theta": theta, "phi": phi, "u": u, "a": a, "varphi": varphi}
    for name, value in given.items():
        if value is not None and name not in reads:
            raise ValueError(f"--{name} is not read by the {family} family, which reads "
                             + " ".join(f"--{n}" for n in reads))
    values = {**COEFFS_DEFAULTS, **{n: v for n, v in given.items() if v is not None}}
    coeffs = build(*(values[name] for name in reads))
    row = {"family": family, "provenance": family}
    for name in ("alpha", "beta", "lam", "delta"):
        value = getattr(coeffs, name)
        row[f"{name}_re"] = value.real
        row[f"{name}_im"] = value.imag
    u = complex(values["u"])
    meta = _base_metadata(
        0, 0.0, theta=values["theta"], phi=values["phi"], u_re=u.real, u_im=u.imag,
        a=values["a"], varphi=values["varphi"],
    )
    return make_report("coeffs", meta, [row])


def _verify_row(mode, case, matrix_seed, cfg, run, channels):
    """The columns both suites share, and the worst of their deviations.

    The deviations are the largest, over all k, of |coefficient - channel|
    (``channels`` holds one recurrence array per invariant basis vector, in
    the order of the decomposition coefficients), of the decomposition
    residual and of | |Q^k gamma| - 1 |. Each is one array reduction over
    the run's states or a field of its decomposition record array.
    """
    comp_dev = float(np.max(np.abs(run.decompositions.coefficients - np.stack(channels, axis=1))))
    residual = float(np.max(run.decompositions.residual))
    norm_dev = float(np.max(np.abs(row_norms(run.states) - 1.0)))
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


def _verify_2d_case(case, rng):
    dim = (4, 16, 64)[case % 3]
    matrix_seed = int(rng.integers(_SEED_MAX))
    theta, phi = (float(x) for x in rng.uniform(-math.pi, math.pi, 2))
    cfg = OracleConfig(dim=dim, theta=theta, phi=phi,
                       u_matrix=random_unitary(dim, matrix_seed))
    run = evolve(build_q(cfg), cfg, VERIFY_K_MAX_2D)
    traj = iterate2(present_coeffs(AlgorithmParams(theta, phi, cfg.u_element)), VERIFY_K_MAX_2D)
    row, worst = _verify_row("2d", case, matrix_seed, cfg, run, (traj.a, traj.b))
    # a u + b in Python complex arithmetic: NumPy's vector complex multiply
    # rounds differently in the last bits.
    u = cfg.u_element
    predicted = np.array([a * u + b for a, b in zip(traj.a.tolist(), traj.b.tolist())])
    amplitudes = target_amplitude(run, cfg, np.arange(VERIFY_K_MAX_2D + 1))
    amp_dev = float(np.max(np.abs(amplitudes - predicted)))
    row["max_amplitude_dev"] = amp_dev
    row["ok"] = max(worst, amp_dev) <= EQUIVALENCE_TOL
    return row


def _verify_4d_case(case, rng):
    dim = (8, 16)[case % 2]
    matrix_seed = int(rng.integers(_SEED_MAX))
    theta, phi = (float(x) for x in rng.uniform(-math.pi, math.pi, 2))
    pair = companion(random_commuting_unitary(dim, matrix_seed))
    cfg = OracleConfig(dim=dim, theta=theta, phi=phi,
                       u_matrix=pair.u, v_matrix=pair.v)
    g, t = cfg.gamma_index, cfg.tau_index
    vu = pair.product
    inputs = FourDimInputs(
        theta,
        phi,
        u=pair.u[t, g],
        v=pair.v[g, t],
        vu_gg=vu[g, g],
        uv_tt=pair.u[t] @ pair.v[:, t],
    )
    run = evolve(build_q(cfg), cfg, VERIFY_K_MAX_4D)
    traj = iterate4(four_dim_coeffs(inputs), VERIFY_K_MAX_4D)
    row, worst = _verify_row("4d", case, matrix_seed, cfg, run, (traj.a, traj.b, traj.c, traj.d))
    diag_dev = zero_diagonal_dev(vu)
    flags = hermitian_iff_involution(vu)
    row["product_diag_dev"] = diag_dev
    row["product_hermitian"] = flags.hermitian
    row["product_involution"] = flags.involution
    row["ok"] = (
        worst <= EQUIVALENCE_TOL
        and diag_dev <= STRUCTURAL_TOL
        and flags.hermitian
        and flags.involution
    )
    return row


def run_verify(scope="all", seed=1, n_cases=20):
    """Dense-simulation equivalence suite for the reduced recurrences.

    Every case builds a full-space search operator from seeded unitaries,
    decomposes Q^k applied to the start state over the invariant basis,
    and compares the coefficients against the 2D/4D recurrences, to
    ``EQUIVALENCE_TOL``; the 4D product's checks use ``STRUCTURAL_TOL``.
    ``n_cases`` per suite is at most ``MAX_CASES``.
    """
    _check_bound("n_cases", n_cases, 1, MAX_CASES)
    if scope not in VERIFY_SCOPES:
        raise ValueError(f"unknown verify scope {scope!r}")
    rng = np.random.default_rng(seed)
    rows = []
    if scope in ("2d", "all"):
        for case in range(n_cases):
            rows.append(_verify_2d_case(case, rng))
    if scope in ("4d", "all"):
        for case in range(n_cases):
            rows.append(_verify_4d_case(case, rng))
    passed = all(row["ok"] for row in rows)
    meta = _base_metadata(
        seed, EQUIVALENCE_TOL, structural_tolerance=STRUCTURAL_TOL,
        scope=scope, cases=n_cases, k_max_2d=VERIFY_K_MAX_2D, k_max_4d=VERIFY_K_MAX_4D,
    )
    return make_report("verify", meta, rows, passed=passed)


def run_construct(dim, seed=0):
    """Build a commuting pair (V, U) with V U = U V = P and report its checks
    against ``STRUCTURAL_TOL``. ``dim`` is even and at most ``MAX_DIM``.

    The JSON report embeds both matrices under metadata as nested lists of
    {re, im} objects; the CSV encoding carries the check rows only.
    """
    _check_bound("dim", dim, 2, MAX_DIM)
    v = random_commuting_unitary(dim, seed)
    pair = companion(v)
    p = pair_swap(dim)
    vu = pair.product
    uv = pair.u @ pair.v
    deviations = (
        ("v_unitary", unitary_dev(v)),
        ("u_unitary", unitary_dev(pair.u)),
        ("v_block_symmetric", block_symmetry_dev(v)),
        ("vu_equals_pair_swap", float(np.max(np.abs(vu - p)))),
        ("uv_equals_pair_swap", float(np.max(np.abs(uv - p)))),
        ("vu_zero_diagonal", zero_diagonal_dev(vu)),
        ("vu_hermitian_dev", hermitian_dev(vu)),
        ("vu_involution_dev", involution_dev(vu)),
    )
    rows = [
        {"check": name, "deviation": dev, "tol": STRUCTURAL_TOL, "ok": dev <= STRUCTURAL_TOL}
        for name, dev in deviations
    ]
    passed = all(row["ok"] for row in rows)
    meta = _base_metadata(seed, STRUCTURAL_TOL, dim=dim, v=v, u=pair.u)
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


class ComplexParam(click.ParamType):
    """Click parameter accepting any number python's complex() parses."""

    name = "complex"

    def convert(self, value, param, ctx):
        if isinstance(value, complex):
            return value
        try:
            return complex(str(value).replace(" ", ""))
        except ValueError:
            self.fail(f"{value!r} is not a complex number", param, ctx)


COMPLEX = ComplexParam()


def _emit(report, fmt, out):
    """Write the report, then exit with code 1 if it carries a failing verdict."""
    text = render(report, fmt)
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    if report.passed is False:
        sys.exit(1)


def _output_options(func):
    func = click.option(
        "--format", "fmt", type=click.Choice(FORMATS), default="json",
        show_default=True, help="Report encoding.")(func)
    func = click.option(
        "--out", type=click.Path(dir_okay=False, writable=True), default=None,
        help="Write the report here instead of stdout.")(func)
    return func


class _Commands(click.Group):
    """Turns a ``ValueError`` from a command's input into a usage error (exit code 2).

    :class:`DegenerateBasisError` is a fault of the computation, not of the input.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except DegenerateBasisError:
            raise
        except ValueError as exc:
            raise click.UsageError(str(exc)) from None


@click.group(cls=_Commands)
@click.version_option(version=__version__, prog_name="phasematch")
def main():
    """Generalized quantum search with arbitrary phase rotations."""


@main.command("table1")
@_output_options
def table1_cmd(fmt, out):
    """Fixed-point amplitudes |b_k| for N in {100, 400, 625, 900}."""
    _emit(run_table1(), fmt, out)


@main.command("table2")
@click.option("--kmax", type=int, default=100, show_default=True,
              help=f"Upper iteration bound for the argmax, 1 to {MAX_K}.")
@_output_options
def table2_cmd(kmax, fmt, out):
    """Small mismatched-angle amplitudes at phi=0, u=0.1."""
    _emit(run_table2(k_max=kmax), fmt, out)


@main.command("pyramid")
@click.option("--max-k", type=int, default=12, show_default=True,
              help=f"Largest iteration index to print, 3 to {K_EXACT_MAX} (the closed form's range).")
@_output_options
def pyramid_cmd(max_k, fmt, out):
    """Integer coefficient pyramids of the closed-form expansion."""
    _emit(run_pyramid(max_k=max_k), fmt, out)


@main.command("sweep")
@click.option("--theta", "theta_range", default="0.0", show_default=True,
              help="Rotation angle of the start-state phase, X or A:B:STEP.")
@click.option("--phi", type=float, default=0.0, show_default=True,
              help="Rotation angle of the target-state phase.")
@click.option("--u", type=COMPLEX, default="0.1", show_default=True,
              help="Matrix element U_tau_gamma (complex accepted).")
@click.option("--kmax", type=int, default=100, show_default=True,
              help=f"Upper iteration bound, 1 to {MAX_K}.")
@_output_options
def sweep_cmd(theta_range, phi, u, kmax, fmt, out):
    """Optimal iteration count over a range of theta."""
    _emit(run_sweep(_parse_range(theta_range), phi, u, k_max=kmax), fmt, out)


@main.command("coeffs")
@click.option("--family", type=click.Choice(list(COEFFS_FAMILIES)),
              required=True, help="Which reduced 2x2 coefficient family.")
@click.option("--theta", type=float, show_default=str(COEFFS_DEFAULTS["theta"]))
@click.option("--phi", type=float, show_default=str(COEFFS_DEFAULTS["phi"]))
@click.option("--u", type=COMPLEX, show_default=str(COEFFS_DEFAULTS["u"]))
@click.option("--a", type=float, show_default=str(COEFFS_DEFAULTS["a"]),
              help="Initial success probability (hoyer family only).")
@click.option("--varphi", type=float, show_default=str(COEFFS_DEFAULTS["varphi"]),
              help="Extra phase angle (hoyer family only).")
@_output_options
def coeffs_cmd(family, theta, phi, u, a, varphi, fmt, out):
    """Reduced iteration-matrix entries for one coefficient family.

    present and long read --theta --phi --u; grover reads --u; hoyer reads
    --a --phi --varphi. Giving any other of these options is a usage error.
    """
    _emit(run_coeffs(family, theta=theta, phi=phi, u=u, a=a, varphi=varphi), fmt, out)


@main.command("verify")
@click.option("--scope", type=click.Choice(VERIFY_SCOPES), default="all",
              show_default=True, help="Which equivalence suites to run.")
@click.option("--seed", type=int, default=1, show_default=True)
@click.option("--cases", type=int, default=20, show_default=True,
              help=f"Random cases per suite, 1 to {MAX_CASES}.")
@_output_options
def verify_cmd(scope, seed, cases, fmt, out):
    """Compare the reduced recurrences against dense simulation."""
    _emit(run_verify(scope=scope, seed=seed, n_cases=cases), fmt, out)


@main.command("construct")
@click.option("--dim", type=int, default=8, show_default=True,
              help=f"Even matrix dimension, 2 to {MAX_DIM}.")
@click.option("--seed", type=int, default=0, show_default=True)
@_output_options
def construct_cmd(dim, seed, fmt, out):
    """Emit a commuting unitary pair whose product is the pair swap."""
    _emit(run_construct(dim, seed=seed), fmt, out)


if __name__ == "__main__":
    main()
