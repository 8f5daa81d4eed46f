"""Tests for report assembly and the CSV/JSON encodings."""

import csv
import io
import itertools
import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from phasematch import reporting
from phasematch.cli import run_sweep
from phasematch.linalg import random_unitary
from phasematch.reporting import Report, make_report, render, to_csv, to_json

from helpers import round_sig


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


@pytest.mark.parametrize("key", [1, 1.0, True, None])
def test_a_key_that_is_not_a_str_is_refused_before_any_rounding(key):
    """Every key of a report is a str. Any other, in a row, in a dict of
    columns, in the metadata or in a dict nested in a value, is refused by
    name before anything is normalized: ``{1: "a", "1": "b"}`` would render
    as two "1" keys."""
    placements = [
        ({}, [{"a": 0.5}, {key: "a", "1": "b"}]),
        ({}, {"a": [0.5, 1.5], key: [1, 2]}),
        ({"t": 0.5, key: 1}, [{"a": 0.5}]),
        ({"t": 0.5, "m": [{"x": {key: 0.5}}]}, [{"a": 0.5}]),
        ({}, [{"a": 0.5, "b": ({"c": 1}, {key: 1})}]),
        ({}, {"a": [0.5], "b": {"c": {key: 1.5}}}),
    ]
    message = re.escape(f"a report key must be a str, not the {type(key).__name__} {key!r}")
    with mock.patch.object(reporting, "_rounded", side_effect=AssertionError), \
            mock.patch.object(reporting, "_normalize", side_effect=AssertionError):
        for metadata, rows in placements:
            with pytest.raises(TypeError, match=f"^{message}$"):
                make_report("c", metadata, rows)


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
    if isinstance(value, (list, tuple)):
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


def _to_json_counting(report):
    """The JSON text of ``report``, and how many templates were filled for it."""
    with mock.patch.object(reporting, "_filled", wraps=reporting._filled) as filled:
        return to_json(report), filled.call_count


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
    report = make_report(command, metadata, rows, passed)
    assert repr(report.metadata) == repr(_rounded(metadata))
    assert repr(report.rows) == repr(_rounded(rows))
    text, calls = _to_json_counting(report)
    assert text == _reference_json(report)
    # One template for each run of rows with the same keys.
    assert calls == len(list(itertools.groupby(rows, tuple)))


@pytest.mark.parametrize("report, calls", [
    (make_report("c", {"seed": 1}, []), 0),
    (make_report("c", {"seed": 1}, [], True), 0),
    (make_report("c", {}, [{"a": 1}, {}], False), 2),
    (make_report("c", {}, [{}]), 1),
    (make_report("c", {}, [{"a": 1.5}, {"z": 1 + 2j}]), 2),
    (make_report("c", {}, [{"m": np.eye(2, dtype=np.complex128)}]), 3),
], ids=["no rows", "no rows with verdict", "a row with no keys", "only a row with no keys",
        "a complex row value", "a matrix row value"])
def test_other_rows_take_json_dumps_whole(report, calls):
    """Rows that are not all flat objects render as json.dumps does, one
    template per run of rows with the same keys; a matrix inside a row takes
    one more per matrix row, a {re, im} object none."""
    text, counted = _to_json_counting(report)
    assert text == _reference_json(report)
    assert counted == calls


def test_metadata_holding_the_rows_text_does_not_move_the_splice():
    metadata = {"rows": [], "copy": {"rows": [{"a": 1}]}, "x": '"rows": [\n    {', "y": "\n}"}
    for passed in (None, True, False):
        report = make_report("c", metadata, [{"a": 1, "b": "rows"}, {"rows": 2}], passed)
        text, calls = _to_json_counting(report)
        assert text == _reference_json(report)
        assert calls == 3  # the copy in the metadata, then the rows' two key sets


DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(TEXT, inner, max_size=3)),
    max_leaves=10,
)


@given(TEXT, st.dictionaries(TEXT, DOCUMENTS, max_size=4), st.lists(MATRICES, max_size=2),
       st.lists(st.dictionaries(TEXT, DOCUMENTS, max_size=4), max_size=4),
       st.none() | st.booleans())
@settings(max_examples=200, deadline=None)
@example("construct", {"dim": 2}, [np.eye(2, dtype=np.complex128) * (1 - 1j)] * 2,
         [{"check": "v_unitary", "deviation": 0.0, "ok": True}], True)
def test_json_is_json_dumps_with_indent(command, metadata, matrices, rows, passed):
    """Any report renders as ``json.dumps(..., indent=2)`` of what it holds,
    tuples become lists, with complex matrices in its metadata, each
    non-empty matrix row of which fills one template."""
    report = make_report(command, {**metadata, "z": 1 - 2j, "matrices": matrices}, rows, passed)
    assert repr(report.rows) == repr(_rounded(rows))
    text, calls = _to_json_counting(report)
    assert text == _reference_json(report)
    assert calls >= sum(len(m) for m in matrices if m.size)


def _reference_csv(report):
    """``report.rows`` through ``csv.writer`` row by row: the union of the
    keys in first-seen order as the header, bools as true/false."""
    rows = report.rows
    columns = list(dict.fromkeys(key for row in rows for key in row))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([("true" if v else "false") if isinstance(v, bool) else v
                         for v in map(row.get, columns)])
    return buf.getvalue()


#: Cells the csv module quotes (a comma, a quote, a line end), an empty one,
#: and text that the templates must not read as a format.
CSV_TRICKY = [",", '"', "\n", "\r", "\r\n", "a,b", 'say "hi"', "", " ", "%", "%s", "%%", "%(x)s"]
CSV_TEXT = st.sampled_from(CSV_TRICKY) | TEXT
CSV_KEYS = CSV_TEXT | st.sampled_from(["a", "b", "c"])


@given(st.lists(st.dictionaries(CSV_KEYS, CSV_TEXT | DOCUMENTS, max_size=4), max_size=6))
@settings(max_examples=200, deadline=None)
@example([{"a": -0.0, "b": math.nan, "c": math.inf}, {}, {"b": None, "a": True},
          {"c": "", "a": -math.inf, "b": False}, {"a": 'x,"y"\n', "b": 2**70}])
@example([{"a": ""}, {"a": None}, {}, {"a": "%s"}])
@example([])
def test_csv_is_csv_writer_over_the_rows(rows):
    """Any rows render as csv.writer writes them one at a time: mixed key
    sets, empty rows, quoting, None, bools, -0.0 and non-finite floats."""
    report = make_report("c", {}, rows)
    assert repr(report.rows) == repr(_rounded(rows))
    assert to_csv(report) == _reference_csv(report)


@st.composite
def _column_sets(draw):
    """A dict of columns, each a list of one value per row or one shared
    value, and the same content as a list of row dicts (at least one, as no
    rows would have no keys; column-wise, they keep them)."""
    size = draw(st.integers(1, 6))
    values = SCALARS | COMPLEXES | st.sampled_from(CSV_TRICKY)
    columns = {}
    for i, key in enumerate(draw(st.lists(TEXT, min_size=1, max_size=5, unique=True))):
        if i == 0 or draw(st.booleans()):
            columns[key] = draw(st.lists(values, min_size=size, max_size=size))
        else:
            columns[key] = draw(values)
    rows = [{k: v[i] if isinstance(v, list) else v for k, v in columns.items()}
            for i in range(size)]
    return columns, rows


@given(_column_sets(), st.none() | st.booleans())
@settings(max_examples=200, deadline=None)
@example(({"theta": [0.1, -0.0, 2 / 3], "phi": 0.3, "k": [1, 2, 3], "r": math.inf,
           "ok": [True, False, True], "z": 1 - 2j, "s": ['a,"b"', "", "%s"]},
          [{"theta": t, "phi": 0.3, "k": k, "r": math.inf, "ok": ok, "z": 1 - 2j, "s": s}
           for t, k, ok, s in zip([0.1, -0.0, 2 / 3], [1, 2, 3], [True, False, True],
                                  ['a,"b"', "", "%s"])]), None)
def test_columns_and_rows_render_the_same_bytes(columns_and_rows, passed):
    """The same content given row-wise and column-wise makes the same rows,
    JSON and CSV, and a shared value is rounded once for all its rows."""
    columns, rows = columns_and_rows
    by_column = make_report("c", {"seed": 1}, columns, passed)
    by_row = make_report("c", {"seed": 1}, rows, passed)
    assert repr(by_column.rows) == repr(by_row.rows)
    assert to_json(by_column) == to_json(by_row) == _reference_json(by_row)
    assert to_csv(by_column) == to_csv(by_row) == _reference_csv(by_row)


def test_column_wise_rows_need_list_columns_of_one_length():
    for columns in ({"a": 1.5, "b": "x"}, {"a": [1, 2], "b": [1]}):
        with pytest.raises(ValueError, match="column-wise rows need list columns of one length"):
            make_report("c", {}, columns)
    report = make_report("c", {}, {"a": [], "b": 0.5})
    assert report.rows == [] and to_csv(report) == "a,b\n"
    assert json.loads(to_json(report))["rows"] == []


def test_each_container_is_rounded_in_one_call():
    """A report's floats are rounded container by container: a column of
    floats or a matrix in one call, never one call per float."""
    thetas = np.linspace(-math.pi, math.pi, 1001).tolist()
    columns = {"theta": thetas, "phi": 0.3, "u_re": 0.1, "u_im": -0.0,
               "k_star": list(range(1001)), "max_abs_b": [t / 7 for t in thetas],
               "threshold": 0.2, "ratio_l": [t * 3 for t in thetas],
               "satisfied": [t > 0 for t in thetas]}
    metadata = {"seed": 0, "tolerance": 1e-9, "phi": 0.3, "k_max": 400}
    with mock.patch.object(reporting, "_rounded", wraps=reporting._rounded) as rounded:
        report = make_report("sweep", metadata, columns)
    sizes = sorted(len(call.args[0]) for call in rounded.call_args_list)
    # The metadata, the shared values, and each float column once.
    assert sizes == [2, 4, 1001, 1001, 1001]
    assert report.rows[1000]["theta"] == round_sig(math.pi)

    dim = 8
    v = random_unitary(dim, 1)
    with mock.patch.object(reporting, "_rounded", wraps=reporting._rounded) as rounded:
        make_report("construct", {"tolerance": 1e-9, "v": v, "u": v.conj().T},
                    [{"check": "v_unitary", "deviation": 1e-15, "ok": True}])
    sizes = [len(call.args[0]) for call in rounded.call_args_list]
    assert sizes.count(2 * dim * dim) == 2 and len(sizes) == 4


#: Finite floats where ``"%.12g"`` and ``repr`` of the rounded value differ
#: (subnormal, integral below 1e16, signed zero), and an exponent both write.
KEPT_TEXT_EDGES = [5e-324, -0.0, 123456789012.0, 1.5e12, 9.999999999995001e+119]
FINITE = (st.floats(allow_nan=False, allow_infinity=False)
          | st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308)
          | st.integers(-2**60, 2**60).map(float)
          | st.floats(1e12, 1e16).flatmap(lambda x: st.sampled_from([x, -x]))
          | st.sampled_from(KEPT_TEXT_EDGES))


@given(st.lists(FINITE, min_size=1, max_size=12), st.lists(st.integers(), max_size=12))
@settings(max_examples=300, deadline=None)
@example(KEPT_TEXT_EDGES, [0, -1, 2**70])
def test_each_kept_text_is_the_repr_of_the_value_held(floats, ints):
    """A column of finite floats keeps, per value, ``repr`` of the float the
    report holds, which is also what ``json.dumps`` writes; so does a column
    of ints. The texts are one string per chunk of rows, here of 3."""
    with mock.patch.object(reporting, "_CHUNK", 3):
        report = make_report("c", {}, {"f": floats, "n": ints} if len(ints) == len(floats)
                             else {"f": floats})
        (block,) = report.blocks
        for column in block.columns:
            assert isinstance(column, reporting._Numbers)
            assert len(column.texts) == -(-block.size // 3)
            texts = ",".join(column.texts).split(",")
            assert texts == [repr(v) for v in column.values]
            assert texts == [json.dumps(v) for v in column.values]
        assert block.columns[0].values == [round_sig(f) for f in floats]
        assert to_json(report) == _reference_json(report)
        assert to_csv(report) == _reference_csv(report)


def test_rendering_a_sweep_formats_no_number_of_a_column():
    """A sweep's number columns are written from the texts kept when it was
    assembled: rendering it calls neither ``json.dumps`` on a column nor
    ``repr`` once per row, so the formatting calls do not grow with it."""
    def formatting_calls(report):
        reprs = mock.Mock(wraps=repr)
        with mock.patch.object(reporting.json, "dumps", wraps=json.dumps) as dumps, \
                mock.patch.object(reporting, "repr", reprs, create=True):
            render(report, "json"), render(report, "csv")
        assert not [c for c in dumps.call_args_list if isinstance(c.args[0], (list, tuple))]
        return dumps.call_count + reprs.call_count

    small, large = (run_sweep(np.linspace(-0.2, 0.2, n).tolist(), 0.0, 0.1, k_max=20)
                    for n in (11, 1001))
    assert large.rows[500]["theta"] == 0.0  # a text that "%.12g" writes as "0"
    assert formatting_calls(large) == formatting_calls(small)
    (block,) = large.blocks
    assert sum(isinstance(c, reporting._Numbers) for c in block.columns) == 4


def test_a_matrix_report_holds_no_second_copy_of_its_floats():
    """Each matrix is rounded alone, so the peak memory of assembling a
    ``construct``-sized report is little more than the report it keeps."""
    v = random_unitary(128, 0)
    u = v.conj().T
    rows = [{"check": "v_unitary", "deviation": 1e-15, "tol": 1e-9, "ok": True}]
    tracemalloc.start()
    try:
        report = make_report("construct", {"seed": 0, "dim": 128, "v": v, "u": u}, rows, True)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.metadata["u"]) == 128
    assert peak <= 1.1 * kept
