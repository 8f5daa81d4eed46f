"""End-to-end tests of the command-line interface."""

import csv
import io
import json

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from phasematch.cli import (
    MAX_K,
    MAX_RANGE_POINTS,
    _parse_range,
    main,
    run_table1,
    run_table2,
    run_verify,
)

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


def test_table2_respects_kmax(runner):
    doc = _json(runner.invoke(main, ["table2", "--kmax", "10"]))
    assert all(row["k_star"] <= 10 for row in doc["rows"])
    # the listed-k column still reports the tabulated iteration counts
    assert {row["k"] for row in doc["rows"]} == {7, 8, 100}


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


@given(
    st.sampled_from([["verify", "--structural-tol"], ["verify", "--equiv-tol"],
                     ["construct", "--structural-tol"]]),
    NON_FINITE | st.sampled_from(["0", "-1", "-1e-10", "0.0"]),
)
@settings(max_examples=40, deadline=None)
def test_tolerances_must_be_finite_and_positive(option, bad):
    _assert_usage_error(CliRunner().invoke(main, [*option, bad]))


def test_sweep_bounds_work_before_allocating(runner):
    # The small over-cap range comes first, so that code without the bound
    # fails here instead of trying to allocate ~1e10 floats below.
    for theta in (f"0:{MAX_RANGE_POINTS}:1", "0:1e-300:1e-310", "-1e308:1e308:1e-300"):
        _assert_usage_error(runner.invoke(main, ["sweep", "--theta", theta, "--kmax", "1"]))
    assert len(_parse_range(f"0:{MAX_RANGE_POINTS - 1}:1")) == MAX_RANGE_POINTS
    for command in ("sweep", "table2"):
        _assert_usage_error(runner.invoke(main, [command, "--kmax", str(MAX_K + 1)]))


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


def test_verify_failure_exits_nonzero(runner):
    # an absurd tolerance forces every case to fail
    result = runner.invoke(
        main,
        ["verify", "--scope", "2d", "--seed", "1", "--cases", "1",
         "--equiv-tol", "1e-18"],
    )
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
