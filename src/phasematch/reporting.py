"""Report container with CSV and JSON encodings.

Float values are rounded to 12 significant digits when a report is
assembled, so the two encodings render bit-identical numbers (both go
through Python's shortest-roundtrip float repr). All floats of a report are
formatted in one ``"%.12g"`` string and parsed back, which gives
:func:`round_sig` of each. A non-finite float keeps its text, so it becomes
the string "inf", "-inf" or "nan" in both encodings. A 2-D complex array
becomes nested lists of {re, im} objects, as its ``tolist()`` would.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

SIG_DIGITS = 12


def round_sig(x: float) -> float:
    """Round to 12 significant digits; zeros (with their sign), infinities and nan pass through."""
    return float(f"{x:.{SIG_DIGITS}g}")


#: The value types a report holds as they are, its floats once rounded.
_SCALARS = frozenset({str, int, bool, float, type(None)})
#: JSON's names of the non-finite floats, and the text a report holds for each.
_NAMES = {"Infinity": "inf", "-Infinity": "-inf", "NaN": "nan"}


def _normalize(value, floats: list, fills: list):
    """A copy of ``value`` with numpy scalars unwrapped and complex values as
    {re, im} objects. Its floats go to ``floats``; ``fills`` gets functions
    that write them back, rounded, in order from an iterator (a copied list
    or matrix stays empty until then)."""
    if isinstance(value, (dict, list, tuple)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        out = {k: v if type(v) in _SCALARS else _normalize(v, floats, fills) for k, v in items}
        keys = [k for k, v in out.items() if type(v) is float]
        floats += map(out.__getitem__, keys)
        fills.append(lambda rounded: out.update(zip(keys, rounded)))
        if isinstance(value, dict):
            return out
        listed = []
        fills.append(lambda rounded: listed.extend(out.values()))
        return listed
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, (int, str)) or value is None:
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, complex):
        return _normalize({"re": value.real, "im": value.imag}, floats, fills)
    if isinstance(value, np.ndarray) and value.ndim == 2 and value.dtype == np.complex128:
        floats += np.ascontiguousarray(value).view(np.float64).ravel().tolist()
        matrix, (rows, cols) = [], value.shape
        fills.append(lambda rounded: matrix.extend([
            [{"re": next(rounded), "im": next(rounded)} for _ in range(cols)] for _ in range(rows)
        ]))
        return matrix
    raise TypeError(f"cannot put a {type(value).__name__} in a report")


@dataclass(frozen=True)
class Report:
    """Rows plus metadata, optionally with an overall pass verdict."""

    command: str
    metadata: dict
    rows: list[dict]
    passed: bool | None = None


def make_report(command: str, metadata: dict, rows: list[dict], passed: bool | None = None) -> Report:
    """Assemble a report, normalizing every value for stable rendering."""
    floats, fills = [], []
    metadata = _normalize(metadata, floats, fills)
    rows = [_normalize(row, floats, fills) for row in rows]
    # Parsed back as one JSON array, so that no list of texts is held: an
    # integral text ("1", "-0") stays a float, a non-finite one gets its name.
    text = ("[" + ",".join([f"%.{SIG_DIGITS}g"] * len(floats)) + "]") % tuple(floats)
    del floats  # a matrix's unrounded parts go before its rounded ones come
    text = text.replace("inf", "Infinity").replace("nan", "NaN")
    rounded = iter(json.loads(text, parse_int=float, parse_constant=_NAMES.__getitem__))
    for fill in fills:
        fill(rounded)
    return Report(command=command, metadata=metadata, rows=rows, passed=passed)


#: Encodes a list of flat objects with the C encoder, which ``indent`` turns
#: off. Every separator ends in a newline, which no string holds (JSON escapes
#: newlines), so the indentation can be put in after.
_ROW_ENCODER = json.JSONEncoder(separators=(",\n", ": "))


def _flat_objects(value) -> bool:
    """Whether ``value`` is a non-empty list of non-empty objects of scalars."""
    return (isinstance(value, (list, tuple)) and bool(value)
            and all(isinstance(v, dict) and v and _SCALARS.issuperset(map(type, v.values()))
                    for v in value))


def _layout(value, level: int) -> str:
    """``json.dumps(value, indent=2)`` as it reads ``level`` levels deep.

    A list of flat objects, such as a report's rows or a matrix row of
    {re, im} cells, goes through the C encoder in one call; the containers
    around them are laid out here, their scalars by ``json.dumps``.
    """
    pad = "\n" + "  " * level
    outer, inner = pad + "  ", pad + "    "
    if _flat_objects(value):
        body = _ROW_ENCODER.encode(value)[2:-2].replace("\n", inner)
        body = body.replace(f"}},{inner}{{", f"{outer}}},{outer}{{{inner}")
        return f"[{outer}{{{inner}{body}{outer}}}{pad}]"
    if isinstance(value, dict) and value:
        # A one-key object gives the key as json writes it, a non-string one too.
        items = [f"{json.dumps({k: 0})[1:-4]}: {_layout(v, level + 1)}" for k, v in value.items()]
        return f"{{{outer}{f',{outer}'.join(items)}{pad}}}"
    if isinstance(value, (list, tuple)) and value:
        return f"[{outer}{f',{outer}'.join(_layout(v, level + 1) for v in value)}{pad}]"
    return json.dumps(value)


def to_json(report: Report) -> str:
    """``json.dumps`` of the report with ``indent=2``, plus a newline.

    Each list of flat objects in it, the rows of scalars or a matrix row of
    a ``construct`` report, goes through the C encoder in one call (see
    :func:`_layout`).
    """
    doc = {"command": report.command, "metadata": report.metadata, "rows": report.rows}
    if report.passed is not None:
        doc["pass"] = report.passed
    return _layout(doc, 0) + "\n"


def to_csv(report: Report) -> str:
    """Header row then records; UTF-8, LF line endings, '.' decimal separator.

    Columns are the union of row keys in first-seen order; metadata is not
    part of the CSV (it is the plotting hand-off format, rows only). The csv
    module writes None as "" and a float as its repr; bools become true/false.
    """
    columns = list(dict.fromkeys(key for row in report.rows for key in row))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(
        [("true" if v else "false") if isinstance(v, bool) else v for v in map(row.get, columns)]
        for row in report.rows
    )
    return buf.getvalue()


#: The report encodings :func:`render` accepts.
FORMATS = ("csv", "json")


def render(report: Report, fmt: str) -> str:
    if fmt not in FORMATS:
        raise ValueError(f"unknown report format {fmt!r}")
    return to_json(report) if fmt == "json" else to_csv(report)
