"""End-to-end tests of the command-line interface."""

import csv
import functools
import io
import json

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from phasematch import cli, engine2d
from phasematch.cli import (
    MAX_CASES,
    MAX_DIM,
    MAX_K,
    MAX_RANGE_POINTS,
    MAX_SWEEP_ENTRIES,
    SWEEP_BLOCK,
    _parse_range,
    main,
    run_coeffs,
    run_construct,
    run_pyramid,
    run_sweep,
    run_table1,
    run_table2,
    run_verify,
)
from phasematch.engine2d import K_EXACT_MAX, AlgorithmParams, present_coeffs
from phasematch.linalg import DegenerateBasisError
from phasematch.reporting import make_report, render, round_sig

NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "+inf", "NaN", "-Infinity"])


@pytest.fixture()
def runner():
    return CliRunner()


def _json(result):
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


def test_table1_values(runner):
    doc = _json(runner.invoke(main, ["table1"]))
    assert doc["command"] == "table1"
    rows = {row["n"]: row for row in doc["rows"]}
    assert rows[100]["abs_b_k"] == pytest.approx(0.9375, abs=5e-4)
    assert rows[400]["abs_b_k"] == pytest.approx(0.9334, abs=5e-4)
    assert rows[625]["abs_b_k"] == pytest.approx(0.9010, abs=5e-4)
    assert rows[900]["abs_b_k"] == pytest.approx(0.9064, abs=5e-4)
    assert rows[625]["sqrt_n_over_2"] == 12.5
    assert rows[900]["u"] == pytest.approx(1 / 30, abs=1e-12)


def test_table2_lists_both_k_semantics(runner):
    doc = _json(runner.invoke(main, ["table2"]))
    by_theta = {row["theta"]: row for row in doc["rows"]}
    assert by_theta[0.01]["k"] == 7
    assert by_theta[0.01]["abs_b_k"] == pytest.approx(0.9899, abs=2e-3)
    assert by_theta[0.01]["k_star"] == 86
    assert by_theta[0.05]["abs_b_k"] == pytest.approx(0.9525, abs=2e-3)
    assert by_theta[0.04]["k_star"] == 100


@pytest.fixture()
def iterate2_calls(monkeypatch):
    """Every iterate2 call as (shape of its coefficients, shape of its b)."""
    calls = []
    original = engine2d.iterate2

    def recording(c, k_max):
        traj = original(c, k_max)
        calls.append((np.shape(c.alpha), traj.b.shape))
        return traj

    monkeypatch.setattr(engine2d, "iterate2", recording)
    monkeypatch.setattr(cli, "iterate2", recording)
    return calls


def test_table2_runs_each_recurrence_once(iterate2_calls):
    run_table2()
    assert len(iterate2_calls) == len(cli.TABLE2_CASES)


def _scalar_sweep_rows(thetas, phi, u, k_max):
    """Per theta: the scalar sweep_max result, and whether its maximum is a tie."""
    out = []
    for theta in thetas:
        coeffs = present_coeffs(AlgorithmParams(theta, phi, u))
        res = engine2d.sweep_max(coeffs, k_max)
        mags = np.abs(engine2d.iterate2(coeffs, k_max).b[1:])
        out.append((res, int(np.sum(mags >= res.max_abs_b - 1e-12)) > 1))
    return out


def test_sweep_blocks_agree_with_scalar_sweeps(iterate2_calls):
    k_max = 2000
    width = SWEEP_BLOCK // (k_max + 1)
    thetas = list(np.linspace(0.1, 0.5, 2 * width + 11))
    phi, u = 0.3, 0.1 * np.exp(0.5j)
    rows = run_sweep(thetas, phi, u, k_max=k_max).rows
    assert [shape for shape, _ in iterate2_calls] == [(width,), (width,), (11,)]
    assert all(b[0] * b[1] <= SWEEP_BLOCK for _, b in iterate2_calls)
    for row, (res, tied) in zip(rows, _scalar_sweep_rows(thetas, phi, u, k_max)):
        assert type(row["k_star"]) is int and type(row["max_abs_b"]) is float
        if not tied:
            assert row["k_star"] == res.k_star
        assert row["max_abs_b"] == pytest.approx(res.max_abs_b, rel=1e-11)


def test_sweep_beyond_one_block_runs_scalar_and_bit_identical(iterate2_calls):
    thetas, phi, u = [0.0, 0.05, 0.1], 0.05, 0.1
    rows = run_sweep(thetas, phi, u, k_max=SWEEP_BLOCK).rows
    assert [shape for shape, _ in iterate2_calls] == [()] * len(thetas)
    assert all(b == (SWEEP_BLOCK + 1,) for _, b in iterate2_calls)
    for row, (res, _) in zip(rows, _scalar_sweep_rows(thetas, phi, u, SWEEP_BLOCK)):
        assert (row["k_star"], row["max_abs_b"]) == (res.k_star, round_sig(res.max_abs_b))


def test_table2_respects_kmax(runner):
    doc = _json(runner.invoke(main, ["table2", "--kmax", "10"]))
    assert all(row["k_star"] <= 10 for row in doc["rows"])
    # the listed-k column still reports the tabulated iteration counts
    assert {row["k"] for row in doc["rows"]} == {7, 8, 100}


def test_table2_rejects_kmax_below_one():
    for k_max in (0, -1):
        with pytest.raises(ValueError, match=rf"k_max = {k_max} is outside \[1, {MAX_K}\]"):
            run_table2(k_max=k_max)


def test_pyramid_csv(runner):
    result = runner.invoke(main, ["pyramid", "--max-k", "8", "--format", "csv"])
    assert result.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(result.output)))
    table = {(int(r["power"]), int(r["k"])): r["values"] for r in rows}
    assert table[(1, 7)] == "5 8 9 8 5"
    assert table[(2, 8)] == "10 18 18 10"
    assert table[(3, 7)] == "1"
    assert (4, 9) not in table


def test_sweep_range_parsing(runner):
    doc = _json(runner.invoke(
        main, ["sweep", "--theta", "0.0:0.02:0.01", "--u", "0.1", "--kmax", "50"]
    ))
    assert [row["theta"] for row in doc["rows"]] == [0.0, 0.01, 0.02]
    assert all(row["satisfied"] for row in doc["rows"])


def test_sweep_single_theta_and_complex_u(runner):
    doc = _json(runner.invoke(main, ["sweep", "--theta", "0.3", "--u", "0.1+0.05j"]))
    (row,) = doc["rows"]
    assert row["u_im"] == 0.05
    assert row["k_star"] >= 1


def test_sweep_rejects_malformed_range(runner):
    result = runner.invoke(main, ["sweep", "--theta", "0.1:0.5"])
    assert result.exit_code != 0
    result = runner.invoke(main, ["sweep", "--theta", "0.5:0.1:0.1"])
    assert result.exit_code != 0
    result = runner.invoke(main, ["sweep", "--u", "spaghetti"])
    assert result.exit_code != 0


def _assert_usage_error(result):
    assert result.exit_code == 2, result.output
    assert result.stdout == ""


@given(st.integers(0, 3), NON_FINITE)
@settings(max_examples=30, deadline=None)
def test_sweep_rejects_non_finite_range_part(slot, bad):
    parts = ["0", "0.02", "0.01"]
    if slot == 3:
        text = bad
    else:
        parts[slot] = bad
        text = ":".join(parts)
    _assert_usage_error(CliRunner().invoke(main, ["sweep", "--theta", text]))


@given(st.sampled_from(["--phi", "--u"]), NON_FINITE)
@settings(max_examples=30, deadline=None)
def test_rejects_non_finite_phi_and_u(option, bad):
    for command in (["sweep"], ["coeffs", "--family", "present"]):
        _assert_usage_error(CliRunner().invoke(main, [*command, option, bad]))


@pytest.mark.parametrize("args", [
    ["verify", "--structural-tol", "1e-20"],
    ["verify", "--equiv-tol", "1e-18"],
    ["construct", "--structural-tol", "1e-20"],
], ids=" ".join)
def test_tolerances_are_not_options(runner, args):
    result = runner.invoke(main, args)
    _assert_usage_error(result)
    # click words the message "No such option: X" or "No such option 'X'." by version
    assert "No such option" in result.stderr and args[1] in result.stderr


def test_sweep_bounds_work_before_allocating(runner):
    # The small over-cap range comes first, so that code without the bound
    # fails here instead of trying to allocate ~1e10 floats below.
    for theta in (f"0:{MAX_RANGE_POINTS}:1", "0:1e-300:1e-310", "-1e308:1e308:1e-300"):
        _assert_usage_error(runner.invoke(main, ["sweep", "--theta", theta, "--kmax", "1"]))
    assert len(_parse_range(f"0:{MAX_RANGE_POINTS - 1}:1")) == MAX_RANGE_POINTS
    for command in ("sweep", "table2"):
        _assert_usage_error(runner.invoke(main, [command, "--kmax", str(MAX_K + 1)]))


def test_size_options_are_bounded_before_work(runner):
    for args in (["construct", "--dim", str(MAX_DIM + 2)],
                 ["verify", "--cases", str(MAX_CASES + 1)],
                 ["pyramid", "--max-k", str(K_EXACT_MAX + 1)],
                 ["pyramid", "--max-k", "2"]):
        _assert_usage_error(runner.invoke(main, args))
    assert runner.invoke(main, ["pyramid", "--max-k", str(K_EXACT_MAX)]).exit_code == 0
    result = runner.invoke(main, ["pyramid", "--max-k", "3", "--format", "csv"])
    assert result.exit_code == 0
    assert result.output.splitlines()[1:] == ["1,3,1"]
    for max_k in (1, 2):
        with pytest.raises(ValueError, match=rf"max_k = {max_k} is outside \[3, {K_EXACT_MAX}\]"):
            run_pyramid(max_k=max_k)


def test_sweep_total_work_is_bounded_before_work(runner, monkeypatch):
    class Reached(Exception):
        pass

    def reached(params):
        raise Reached

    # Code without the bound stops here at once instead of running for hours.
    monkeypatch.setattr(cli, "present_coeffs", reached)
    _assert_usage_error(runner.invoke(
        main, ["sweep", "--theta", f"0:{MAX_RANGE_POINTS - 1}:1", "--kmax", str(MAX_K)]))
    thetas = [0.0] * 100
    with pytest.raises(Reached):
        run_sweep(thetas, 0.0, 0.1, k_max=MAX_SWEEP_ENTRIES // len(thetas) - 1)
    with pytest.raises(ValueError, match="exceeds the sweep limit"):
        run_sweep(thetas, 0.0, 0.1, k_max=MAX_SWEEP_ENTRIES // len(thetas))


class Reached(Exception):
    """Raised by a stub in place of a run's first expensive call."""


def _reached(*args, **kwargs):
    raise Reached


@pytest.mark.parametrize("run, name, low, high, first_call", [
    (run_table2, "k_max", 1, MAX_K, "present_coeffs"),
    (run_pyramid, "max_k", 3, K_EXACT_MAX, "l_coeff"),
    (functools.partial(run_sweep, [0.0], 0.0, 0.1), "k_max", 1, MAX_K, "present_coeffs"),
    (run_verify, "n_cases", 1, MAX_CASES, "_verify_2d_case"),
    (run_construct, "dim", 2, MAX_DIM, "random_commuting_unitary"),
], ids=["table2", "pyramid", "sweep", "verify", "construct"])
def test_run_bounds_hold_before_work(monkeypatch, run, name, low, high, first_call):
    # The stub stands for work that, past a bound, could take hours or
    # gigabytes: a run without its bound fails here at once.
    monkeypatch.setattr(cli, first_call, _reached)
    for value in (low - 1, high + 1):
        with pytest.raises(ValueError, match=rf"{name} = {value} is outside \[{low}, {high}\]"):
            run(**{name: value})
    for value in (low, high):
        with pytest.raises(Reached):
            run(**{name: value})


@pytest.mark.parametrize("family, builder, unread", [
    ("present", "present_coeffs", "a"),
    ("grover", "grover_coeffs", "theta"),
    ("long", "long_coeffs", "varphi"),
    ("hoyer", "hoyer_coeffs", "u"),
])
def test_run_coeffs_rejects_a_parameter_its_family_does_not_read(monkeypatch, family, builder,
                                                                  unread):
    # The builder is looked up in the module when called, so a patched binding runs.
    monkeypatch.setattr(cli, builder, _reached)
    with pytest.raises(ValueError, match=f"--{unread} is not read by the {family} family"):
        run_coeffs(family, **{unread: 0.0})
    with pytest.raises(Reached):
        run_coeffs(family)


def test_sweep_rejects_no_theta():
    with pytest.raises(ValueError, match="at least one theta"):
        run_sweep([], 0.0, 0.1)


@pytest.mark.parametrize("command", sorted(main.commands))
def test_help_names_each_bound(runner, command):
    limits = {
        ("table2", "kmax"): MAX_K,
        ("sweep", "kmax"): MAX_K,
        ("pyramid", "max_k"): K_EXACT_MAX,
        ("verify", "cases"): MAX_CASES,
        ("construct", "dim"): MAX_DIM,
    }
    result = runner.invoke(main, [command, "--help"])
    assert result.exit_code == 0, result.output
    params = {param.name: param for param in main.commands[command].params}
    for (bounded, name), limit in limits.items():
        if bounded == command:
            assert str(limit) in params[name].help and str(limit) in result.output


@pytest.mark.parametrize("args", [
    ["sweep", "--u", "2"],
    ["coeffs", "--family", "hoyer", "--a", "2"],
    ["coeffs", "--family", "grover", "--u", "2"],
    ["coeffs", "--family", "long", "--u", "2"],
], ids=" ".join)
def test_out_of_range_input_is_a_usage_error(runner, args):
    _assert_usage_error(runner.invoke(main, args))


def test_degenerate_basis_is_not_a_usage_error(runner, monkeypatch):
    def degenerate(**kwargs):
        raise DegenerateBasisError("basis is numerically dependent")

    monkeypatch.setattr(cli, "run_verify", degenerate)
    result = runner.invoke(main, ["verify"])
    assert result.exit_code == 1
    assert isinstance(result.exception, DegenerateBasisError)


@pytest.mark.parametrize("command, runner_name", [
    ("verify", "run_verify"), ("construct", "run_construct"),
])
def test_failing_verdict_exits_one_after_writing(runner, monkeypatch, tmp_path,
                                                 command, runner_name):
    failing = make_report(command, {}, [{"ok": False}], passed=False)
    monkeypatch.setattr(cli, runner_name, lambda *args, **kwargs: failing)
    result = runner.invoke(main, [command])
    assert result.exit_code == 1
    assert json.loads(result.output)["pass"] is False
    out = tmp_path / "report.csv"
    result = runner.invoke(main, [command, "--format", "csv", "--out", str(out)])
    assert result.exit_code == 1
    assert out.read_text(encoding="utf-8") == render(failing, "csv")


def test_coeffs_families(runner):
    doc = _json(runner.invoke(main, ["coeffs", "--family", "grover", "--u", "0.5"]))
    (row,) = doc["rows"]
    assert row["beta_re"] == 1.0
    assert row["provenance"] == "grover"
    doc = _json(runner.invoke(
        main, ["coeffs", "--family", "hoyer", "--a", "0.25", "--phi", "3.141592653589793"]
    ))
    (row,) = doc["rows"]
    assert row["alpha_re"] == pytest.approx(0.5, abs=1e-12)
    result = runner.invoke(main, ["coeffs", "--family", "unknown"])
    assert result.exit_code != 0


@pytest.mark.parametrize("args", [
    ["present", "--a", "0.7"],
    ["present", "--varphi", "1"],
    ["long", "--a", "0.7"],
    ["grover", "--theta", "0.3"],
    ["grover", "--phi", "1.0"],
    ["grover", "--varphi", "1"],
    ["hoyer", "--u", "0.5"],
    ["hoyer", "--theta", "0.3"],
], ids=" ".join)
def test_coeffs_rejects_options_its_family_does_not_read(runner, args):
    family, option, value = args
    result = runner.invoke(main, ["coeffs", "--family", family, option, value])
    _assert_usage_error(result)
    assert f"{option} is not read by the {family} family" in result.stderr


def test_verify_all_passes(runner):
    result = runner.invoke(
        main, ["verify", "--scope", "all", "--seed", "2", "--cases", "2"]
    )
    doc = _json(result)
    assert doc["pass"] is True
    assert len(doc["rows"]) == 4
    modes = {row["mode"] for row in doc["rows"]}
    assert modes == {"2d", "4d"}
    assert all(row["max_component_dev"] <= 1e-9 for row in doc["rows"])


def test_verify_is_deterministic(runner):
    args = ["verify", "--scope", "2d", "--seed", "9", "--cases", "3"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.output == second.output


def test_verify_failure_exits_nonzero(runner, monkeypatch):
    # an absurd tolerance forces every case to fail
    monkeypatch.setattr(cli, "EQUIVALENCE_TOL", 1e-18)
    result = runner.invoke(main, ["verify", "--scope", "2d", "--seed", "1", "--cases", "1"])
    assert result.exit_code == 1
    doc = json.loads(result.output)
    assert doc["pass"] is False


def test_construct_reports_checks(runner):
    doc = _json(runner.invoke(main, ["construct", "--dim", "4", "--seed", "7"]))
    assert doc["pass"] is True
    checks = {row["check"]: row for row in doc["rows"]}
    assert checks["vu_equals_pair_swap"]["ok"] is True
    assert checks["vu_zero_diagonal"]["deviation"] <= 1e-10
    assert len(doc["metadata"]["v"]) == 4
    assert set(doc["metadata"]["v"][0][0]) == {"re", "im"}


def test_construct_rejects_odd_dimension(runner):
    result = runner.invoke(main, ["construct", "--dim", "5"])
    assert result.exit_code != 0


def test_out_writes_file(runner, tmp_path):
    target = tmp_path / "report.json"
    result = runner.invoke(main, ["table1", "--out", str(target)])
    assert result.exit_code == 0
    assert result.output == ""
    doc = json.loads(target.read_text())
    assert doc["command"] == "table1"


def test_csv_and_json_agree_numerically(runner):
    json_doc = _json(runner.invoke(main, ["table1"]))
    csv_result = runner.invoke(main, ["table1", "--format", "csv"])
    reader = csv.DictReader(io.StringIO(csv_result.output))
    for json_row, csv_row in zip(json_doc["rows"], reader):
        for key, value in json_row.items():
            assert csv_row[key] == json.dumps(value).strip('"')


def test_run_functions_return_reports_directly():
    report = run_table1()
    assert report.command == "table1"
    assert len(report.rows) == 4
    report = run_table2(k_max=20)
    assert all(row["k_star"] <= 20 for row in report.rows)
    report = run_verify(scope="2d", seed=3, n_cases=1)
    assert report.passed is True


def test_verify_rejects_bad_scope():
    with pytest.raises(ValueError):
        run_verify(scope="5d", seed=0, n_cases=1)
    with pytest.raises(ValueError):
        run_verify(scope="2d", seed=0, n_cases=0)
