"""Tests for report assembly and the CSV/JSON encodings."""

import csv
import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from phasematch import reporting
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


def _rounded(value):
    """The report form of ``value``, with :func:`round_sig` as the rounding."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float):
        return round_sig(value) if math.isfinite(value) else str(value)
    if isinstance(value, complex):
        return {"re": _rounded(value.real), "im": _rounded(value.imag)}
    if isinstance(value, np.ndarray):
        return _rounded(value.tolist())
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


# Rounds up into the next decade, a subnormal, the extremes and the non-finite values.
EDGE_FLOATS = [9.9999999999995e-5, 9.99999999999951, -9.9999999999995e-300, 5e-324,
               2.2250738585072014e-308, 1.7976931348623157e308, 0.0, -0.0,
               math.inf, -math.inf, math.nan]
FLOATS = st.floats() | st.sampled_from(EDGE_FLOATS)
COMPLEXES = st.builds(complex, FLOATS, FLOATS)
MATRICES = arrays(np.complex128, st.tuples(st.integers(0, 3), st.integers(0, 3)),
                  elements=COMPLEXES)


@given(st.lists(FLOATS, min_size=1, max_size=6), st.lists(COMPLEXES, max_size=4),
       st.lists(MATRICES, max_size=2))
@settings(max_examples=150, deadline=None)
@example(EDGE_FLOATS, [complex(f, g) for f, g in zip(EDGE_FLOATS, EDGE_FLOATS[::-1])],
         [np.array([EDGE_FLOATS[:4], EDGE_FLOATS[4:8]], dtype=np.complex128)])
def test_batched_rounding_is_round_sig_of_every_value(floats, complexes, matrices):
    metadata = {"f": floats[0], "np": np.float64(floats[-1]), "fs": floats, "z": complexes,
                "m": matrices, "nested": {"inner": [floats, complexes]}}
    rows = [{"f": f, "z": z, "n": i, "s": "x", "b": True, "none": None}
            for i, (f, z) in enumerate(zip(floats, complexes))]
    rows += [{"m": m, "f": floats[0]} for m in matrices]
    report = make_report("demo", metadata, rows)
    # repr tells -0.0 from 0.0, 1 from 1.0 and "nan" from nan; == does not.
    assert repr(report.metadata) == repr(_rounded(metadata))
    assert repr(report.rows) == repr(_rounded(rows))


def _reference_json(report):
    doc = {"command": report.command, "metadata": report.metadata, "rows": report.rows}
    if report.passed is not None:
        doc["pass"] = report.passed
    return json.dumps(doc, indent=2) + "\n"


class _CountingEncoder:
    """Stands in for the row encoder and counts its calls."""

    def __init__(self):
        self.calls = 0
        self.encoder = reporting._ROW_ENCODER

    def encode(self, rows):
        self.calls += 1
        return self.encoder.encode(rows)


def _to_json_counting(report):
    encoder = _CountingEncoder()
    with mock.patch.object(reporting, "_ROW_ENCODER", encoder):
        return to_json(report), encoder.calls


TRICKY = ['"', "\\", "\n", "\r\t", "é", "\u2603", "\U0001f600", "},\n      {",
          '"},\n      {"', "\n    },\n    {\n      ", "]", "rows"]
TEXT = st.lists(st.sampled_from(TRICKY) | st.text(max_size=4), max_size=4).map("".join)
SCALARS = (TEXT | st.integers() | st.integers(2**63, 2**70) | FLOATS | st.booleans()
           | st.none())


@given(TEXT, st.dictionaries(TEXT, SCALARS, max_size=3),
       st.lists(st.dictionaries(TEXT, SCALARS, min_size=1, max_size=5), min_size=1, max_size=5),
       st.none() | st.booleans())
@settings(max_examples=150, deadline=None)
@example("c", {}, [{"-0": -0.0, "tiny": 5e-324, "huge": 1e300, "big": 2**64 + 1}], None)
def test_scalar_rows_encode_as_json_dumps_does(command, metadata, rows, passed):
    report = Report(command, metadata, rows, passed)
    text, calls = _to_json_counting(report)
    assert text == _reference_json(report)
    assert calls == 1  # one encoder call for all rows


@pytest.mark.parametrize("report, calls", [
    (Report("c", {"seed": 1}, []), 0),
    (Report("c", {"seed": 1}, [], True), 0),
    (Report("c", {}, [{"a": 1}, {}], False), 0),
    (Report("c", {}, [{}]), 0),
    (make_report("c", {}, [{"a": 1.5}, {"z": 1 + 2j}]), 0),
    (make_report("c", {}, [{"m": np.eye(2, dtype=np.complex128)}]), 2),
], ids=["no rows", "no rows with verdict", "a row with no keys", "only a row with no keys",
        "a complex row value", "a matrix row value"])
def test_other_rows_take_json_dumps_whole(report, calls):
    """Rows that are not all flat objects are laid out value by value; only
    a list of flat objects inside them, here each row of a matrix, takes the
    encoder."""
    text, counted = _to_json_counting(report)
    assert text == _reference_json(report)
    assert counted == calls


def test_metadata_holding_the_rows_text_does_not_move_the_splice():
    metadata = {"rows": [], "copy": {"rows": [{"a": 1}]}, "x": '"rows": [\n    {', "y": "\n}"}
    for passed in (None, True, False):
        report = make_report("c", metadata, [{"a": 1, "b": "rows"}, {"rows": 2}], passed)
        text, calls = _to_json_counting(report)
        assert text == _reference_json(report)
        assert calls == 2  # the copy in the metadata, then the rows


KEYS = TEXT | st.integers() | st.booleans() | st.none() | FLOATS
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(KEYS, inner, max_size=3)),
    max_leaves=10,
)


@given(TEXT, st.dictionaries(KEYS, DOCUMENTS, max_size=4), st.lists(MATRICES, max_size=2),
       st.lists(st.dictionaries(KEYS, DOCUMENTS, max_size=4), max_size=4),
       st.none() | st.booleans())
@settings(max_examples=200, deadline=None)
@example("construct", {"dim": 2}, [np.eye(2, dtype=np.complex128) * (1 - 1j)] * 2,
         [{"check": "v_unitary", "deviation": 0.0, "ok": True}], True)
def test_json_is_json_dumps_with_indent(command, metadata, matrices, rows, passed):
    """Any report renders as ``json.dumps(..., indent=2)``: as given, tuples
    and all, and as assembled, with complex matrices in its metadata, each
    non-empty matrix row of which is one encoder call."""
    raw = Report(command, metadata, rows, passed)
    assert to_json(raw) == _reference_json(raw)
    report = make_report(command, {**metadata, "z": 1 - 2j, "matrices": matrices}, rows, passed)
    text, calls = _to_json_counting(report)
    assert text == _reference_json(report)
    assert calls >= sum(len(m) for m in matrices if m.size)
