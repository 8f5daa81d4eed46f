"""Report container with CSV and JSON encodings.

Float values are rounded to 12 significant digits when a report is
assembled, so the two encodings render bit-identical numbers (both go
through Python's shortest-roundtrip float repr). Non-finite floats become
the strings "inf"/"-inf"/"nan" in both encodings. A 2-D complex array
becomes nested lists of {re, im} objects, as its ``tolist()`` would.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

SIG_DIGITS = 12


def round_sig(x: float) -> float:
    """Round to 12 significant digits."""
    if x == 0 or not math.isfinite(x):
        return float(x)
    return float(f"{x:.{SIG_DIGITS}g}")


def _normalize(value):
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool) or isinstance(value, (int, str)) or value is None:
        return value
    if isinstance(value, float):
        return round_sig(value) if math.isfinite(value) else str(value)
    if isinstance(value, complex):
        return {"re": _normalize(value.real), "im": _normalize(value.imag)}
    if isinstance(value, dict):
        return {k: _normalize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_normalize(v) for v in value]
    if isinstance(value, np.ndarray) and value.ndim == 2 and value.dtype == np.complex128:
        return _rounded_matrix(value) if np.isfinite(value).all() else _normalize(value.tolist())
    raise TypeError(f"cannot put a {type(value).__name__} in a report")


def _rounded_matrix(m: np.ndarray) -> list[list[dict]]:
    """``_normalize(m.tolist())`` for a finite complex matrix.

    All the real and imaginary parts are formatted in one string and parsed
    back, which gives the values of :func:`round_sig` one by one.
    """
    parts = np.ascontiguousarray(m).view(np.float64).ravel().tolist()
    values = iter(map(float, (f"%.{SIG_DIGITS}g " * len(parts) % tuple(parts)).split()))
    rows, cols = m.shape
    return [[{"re": next(values), "im": next(values)} for _ in range(cols)] for _ in range(rows)]


@dataclass(frozen=True)
class Report:
    """Rows plus metadata, optionally with an overall pass verdict."""

    command: str
    metadata: dict
    rows: list[dict]
    passed: bool | None = None


def make_report(command: str, metadata: dict, rows: list[dict], passed: bool | None = None) -> Report:
    """Assemble a report, normalizing every value for stable rendering."""
    return Report(
        command=command,
        metadata=_normalize(metadata),
        rows=[_normalize(row) for row in rows],
        passed=passed,
    )


def to_json(report: Report) -> str:
    doc = {
        "command": report.command,
        "metadata": report.metadata,
        "rows": report.rows,
    }
    if report.passed is not None:
        doc["pass"] = report.passed
    return json.dumps(doc, indent=2) + "\n"


def to_csv(report: Report) -> str:
    """Header row then records; UTF-8, LF line endings, '.' decimal separator.

    Columns are the union of row keys in first-seen order; metadata is not
    part of the CSV (it is the plotting hand-off format, rows only).
    """
    columns = list(dict.fromkeys(key for row in report.rows for key in row))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_cell(row.get(key)) for key in columns] for row in report.rows)
    return buf.getvalue()


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


#: The report encodings :func:`render` accepts.
FORMATS = ("csv", "json")


def render(report: Report, fmt: str) -> str:
    if fmt not in FORMATS:
        raise ValueError(f"unknown report format {fmt!r}")
    return to_json(report) if fmt == "json" else to_csv(report)
