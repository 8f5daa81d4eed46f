"""Tests for report assembly and the CSV/JSON encodings."""

import csv
import io
import json
import math

import numpy as np
import pytest

from phasematch.linalg import random_unitary
from phasematch.reporting import Report, make_report, render, round_sig, to_csv, to_json


def test_round_sig_twelve_digits():
    assert round_sig(0.9374642995199999) == 0.93746429952
    assert round_sig(1.0) == 1.0
    assert round_sig(-2.5e-17) == -2.5e-17
    assert round_sig(123456789012345.0) == 123456789012000.0
    assert round_sig(0.0) == 0.0 and math.copysign(1, round_sig(0.0)) == 1
    assert round_sig(-0.0) == 0.0 and math.copysign(1, round_sig(-0.0)) == -1


def test_round_sig_passes_non_finite_through():
    assert math.isnan(round_sig(math.nan))
    assert round_sig(math.inf) == math.inf
    assert round_sig(-math.inf) == -math.inf


def test_make_report_normalizes_values():
    report = make_report(
        "demo",
        {"seed": 1, "tolerance": 1e-9},
        [{"x": np.float64(0.25), "z": 1 + 2j, "flag": np.True_, "n": np.int64(3)}],
    )
    row = report.rows[0]
    assert row["x"] == 0.25 and isinstance(row["x"], float)
    assert row["z"] == {"re": 1.0, "im": 2.0}
    assert row["flag"] is True
    assert row["n"] == 3 and isinstance(row["n"], int)


def test_non_finite_floats_become_strings():
    report = make_report("demo", {"seed": 0, "tolerance": 0.0},
                         [{"r": math.inf, "s": math.nan}])
    assert report.rows[0]["r"] == "inf"
    assert report.rows[0]["s"] == "nan"


def test_unsupported_values_rejected():
    for value in (object(), np.zeros((2, 2)), np.zeros(3, dtype=np.complex128),
                  np.zeros((2, 2), dtype=np.complex64)):
        with pytest.raises(TypeError):
            make_report("demo", {"seed": 0, "tolerance": 0.0}, [{"x": value}])


def test_complex_matrix_normalizes_like_its_nested_lists():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    m[0, 0] = complex(-0.0, 5e-324)
    m[1, 2] = complex(1e300, -0.0)
    m[2, 4] = complex(0.0, -2.2250738585072014e-308)
    for matrix in (m, m.T, random_unitary(16, 3), np.zeros((0, 2), dtype=np.complex128)):
        fast = make_report("demo", {"m": matrix}, [])
        slow = make_report("demo", {"m": matrix.tolist()}, [])
        assert fast.metadata == slow.metadata
        assert to_json(fast) == to_json(slow)
    cell = make_report("demo", {"m": m}, []).metadata["m"][0][0]
    assert math.copysign(1.0, cell["re"]) == -1.0 and cell["im"] == 5e-324
    bad = m.copy()
    bad[0, 1] = complex(math.nan, math.inf)
    bad[2, 0] = complex(-math.inf, 0.5)
    report = make_report("demo", {"m": bad}, [])
    assert to_json(report) == to_json(make_report("demo", {"m": bad.tolist()}, []))
    assert report.metadata["m"][0][1] == {"re": "nan", "im": "inf"}
    assert report.metadata["m"][2][0] == {"re": "-inf", "im": 0.5}


def test_json_schema():
    report = make_report("demo", {"seed": 5, "tolerance": 1e-9}, [{"a": 1}])
    doc = json.loads(to_json(report))
    assert set(doc) == {"command", "metadata", "rows"}
    assert doc["command"] == "demo"
    assert doc["metadata"]["seed"] == 5
    doc = json.loads(to_json(make_report("demo", {"seed": 5, "tolerance": 0.0},
                                         [], passed=True)))
    assert doc["pass"] is True


def test_csv_encoding():
    report = make_report(
        "demo",
        {"seed": 0, "tolerance": 0.0},
        [{"a": 1, "b": True}, {"a": 2, "c": 0.5}],
    )
    text = to_csv(report)
    assert "\r" not in text
    lines = text.splitlines()
    assert lines[0] == "a,b,c"  # union of keys in first-seen order
    assert lines[1] == "1,true,"
    assert lines[2] == "2,,0.5"


def test_csv_and_json_numbers_render_identically():
    rows = [{"value": v} for v in
            (0.1, 2 / 3, 1.003405056579, 9.87654321e-13, 1e300, 0.0, -0.0, 5e-324)]
    report = make_report("demo", {"seed": 0, "tolerance": 1e-9}, rows)
    json_numbers = [
        json.dumps(row["value"]) for row in json.loads(to_json(report))["rows"]
    ]
    reader = csv.DictReader(io.StringIO(to_csv(report)))
    csv_numbers = [row["value"] for row in reader]
    assert json_numbers == csv_numbers
    # A CSV cell of a float is its repr.
    assert csv_numbers == [repr(row["value"]) for row in report.rows]


def test_render_dispatch_and_determinism():
    report = make_report("demo", {"seed": 0, "tolerance": 0.0}, [{"a": 1}])
    assert render(report, "json") == to_json(report)
    assert render(report, "csv") == to_csv(report)
    assert render(report, "json") == render(report, "json")
    with pytest.raises(ValueError):
        render(report, "yaml")


def test_report_is_frozen():
    report = make_report("demo", {"seed": 0, "tolerance": 0.0}, [])
    with pytest.raises(AttributeError):
        report.command = "other"
    assert isinstance(report, Report)
