"""Report container with CSV and JSON encodings.

:func:`make_report` is the one way rows become a :class:`Report`. Every key
in a report is a ``str``: the keys of the rows, of a dict of columns, of the
metadata and of any dict nested in a value. Any other key is refused with a
``TypeError`` that names it, before any float is rounded: as JSON object
keys 1 and "1" would both read "1", and None and "null" both "null".

Float values are rounded to 12 significant digits when a report is
assembled, so the two encodings render bit-identical numbers (both go
through Python's shortest-roundtrip float repr). Each container is rounded
where it is copied: its floats are formatted in one ``"%.12g"`` string per
``_CHUNK`` of them and parsed back, each rounded to 12 significant digits, so
a column of 1 001 floats is one string. A non-finite float keeps its text, so
it becomes the string "inf", "-inf" or "nan" in both encodings. A 2-D complex
array becomes nested lists of {re, im} objects, as its ``tolist()`` would.

Rows are held column by column, in blocks of consecutive rows with the same
keys; in a block each column is a list of one value per row, or one value
shared by every row. A column of ints and finite floats also keeps the text
of each value, which ``json.dumps`` and ``repr`` both write: a rounded
column takes it from its ``"%.12g"`` string, any other from one
``json.dumps`` when its block is built. Each encoding renders a block from
one template per row, in which the keys and the shared values are written
once, and fills the template from those texts, so that it formats no number
of a column.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from itertools import groupby, repeat
from typing import NamedTuple

import numpy as np

SIG_DIGITS = 12

#: The value types a report holds as they are, its floats once rounded.
_SCALARS = frozenset({str, int, bool, float, type(None)})
#: JSON's names of the non-finite floats, and the text a report holds for each.
_NAMES = {"Infinity": "inf", "-Infinity": "-inf", "NaN": "nan"}
#: Column value types of which a column keeps one text per value, when all
#: are finite.
_NUMBERS = frozenset({int, float})
#: Column value types an encoding writes once per distinct value; no two
#: values of these types are equal but of different types.
_LABELS = frozenset({str, bool, type(None)})
#: Rows of a column rounded, and of a block filled, at a time, so that the
#: texts of only so many rows are held apart.
_CHUNK = 4096
#: The smallest positive normal float: below it repr's shortest digits may
#: be fewer than ``"%.12g"`` writes.
_TINY = float.fromhex("0x1p-1022")


#: Parses a report's ``"%.12g"`` texts back as one JSON array, so that no
#: list of texts is held: an integral text ("1", "-0") stays a float, a
#: non-finite one gets its name.
_PARSER = json.JSONDecoder(parse_int=float, parse_constant=_NAMES.__getitem__)


def _as_repr(text: str, values: list) -> str:
    """``text``, the ``"%.12g"`` texts of the finite ``values`` joined by
    commas, with each value as ``repr`` (and ``json.dumps``) writes it.

    For a value with at most 12 significant digits ``repr`` writes the same
    digits, except where the value is subnormal (``"4.94065645841e-324"`` is
    ``5e-324``), and the same notation, except where it is integral below
    1e16 (``repr`` adds ".0" and switches to an exponent at 1e16, not 1e12).
    Only those values are written again.
    """
    y = np.array(values)
    magnitude = np.abs(y)
    odd = np.flatnonzero(((y == np.trunc(y)) & (magnitude < 1e16)) | (magnitude < _TINY))
    if not odd.size:
        return text
    texts = text.split(",")
    for i in odd.tolist():
        texts[i] = repr(values[i])
    return ",".join(texts)


def _rounded(floats, texts: list | None = None) -> list:
    """``floats`` rounded to 12 significant digits, formatted in one
    ``"%.12g"`` string per ``_CHUNK`` of them and parsed back.

    If every float is finite, each chunk's string as :func:`_as_repr` writes
    it is appended to ``texts``, when given; otherwise nothing is.
    """
    values, kept = [], []
    for start in range(0, len(floats), _CHUNK):
        chunk = floats[start : start + _CHUNK]
        text = ",".join([f"%.{SIG_DIGITS}g"] * len(chunk)) % tuple(chunk)
        if "n" in text:  # an "inf" or a "nan"
            texts = None
            text = text.replace("inf", "Infinity").replace("nan", "NaN")
        parsed = _PARSER.decode(f"[{text}]")
        if texts is not None:
            kept.append(_as_repr(text, parsed))
        values += parsed
    if texts is not None:
        texts += kept
    return values


def _normalize(value):
    """A copy of ``value`` with numpy scalars unwrapped, complex values as
    {re, im} objects, and the floats of each container it copies rounded by
    one :func:`_rounded` call. A float alone is its container's to round."""
    if isinstance(value, list):
        types = set(map(type, value))
        if types == {float}:
            return _rounded(value)
        if types <= _SCALARS and float not in types:
            return list(value)
    if isinstance(value, (dict, list, tuple)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        out = {k: v if type(v) in _SCALARS else _normalize(v) for k, v in items}
        keys = [k for k, v in out.items() if type(v) is float]
        out.update(zip(keys, _rounded([out[k] for k in keys])))
        return out if isinstance(value, dict) else list(out.values())
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, (int, str)) or value is None:
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, complex):
        return _normalize({"re": value.real, "im": value.imag})
    if isinstance(value, np.ndarray) and value.ndim == 2 and value.dtype == np.complex128:
        rounded = iter(_rounded(np.ascontiguousarray(value).view(np.float64).ravel().tolist()))
        rows, cols = value.shape
        return [[{"re": next(rounded), "im": next(rounded)} for _ in range(cols)]
                for _ in range(rows)]
    raise TypeError(f"cannot put a {type(value).__name__} in a report")


class _Shared(NamedTuple):
    """The one value of a column, shared by every row of its block."""

    value: object


class _Numbers(NamedTuple):
    """A column of ints and finite floats, and the text of each value as
    ``json.dumps`` and ``repr`` both write it: the texts of each ``_CHUNK``
    rows joined by commas, one string per chunk."""

    values: list
    texts: tuple


def _column(values: list):
    """A column of ``values`` normalized: a :class:`_Numbers` when all are
    ints and finite floats, else the list. A column of floats is rounded in
    one :func:`_rounded` call, which writes its texts too; any other column
    of numbers takes its texts from ``json.dumps``."""
    if set(map(type, values)) == {float}:
        texts = []
        values = _rounded(values, texts)
        return _Numbers(values, tuple(texts)) if texts else values
    values = _normalize(values)
    if set(map(type, values)) <= _NUMBERS:
        try:
            return _Numbers(values, tuple(
                json.dumps(values[start : start + _CHUNK], separators=(",", ":"),
                           allow_nan=False)[1:-1]
                for start in range(0, len(values), _CHUNK)))
        except ValueError:  # a non-finite float, or an int json.dumps cannot write
            pass
    return values


class _Block(NamedTuple):
    """Consecutive rows with the same keys: per key, a list of one value per
    row, a :class:`_Numbers` column, or a :class:`_Shared` value."""

    size: int
    keys: tuple
    columns: tuple

    def values(self):
        """The values of each row, in the order of the keys."""
        columns = [repeat(c.value, self.size) if isinstance(c, _Shared)
                   else c.values if isinstance(c, _Numbers) else c
                   for c in self.columns]
        return zip(*columns) if columns else repeat((), self.size)


def _blocks(rows) -> tuple:
    """The blocks of ``rows``, given as :func:`make_report` takes them: a
    dict of columns is one block, and a list of row dicts one block per run
    of rows with the same keys. Each list column is made by :func:`_column`;
    the shared values are normalized together, and rounded in one call.
    Rows already normalized, as :func:`_layout` hands them over, come out
    the same, as rounding is idempotent."""
    if isinstance(rows, dict):
        sizes = {len(c) for c in rows.values() if isinstance(c, list)}
        if len(sizes) != 1:
            raise ValueError(f"column-wise rows need list columns of one length, "
                             f"not of lengths {sorted(sizes)}")
        shared = _normalize({k: c for k, c in rows.items() if not isinstance(c, list)})
        columns = tuple(_column(c) if isinstance(c, list) else _Shared(shared[k])
                        for k, c in rows.items())
        return (_Block(sizes.pop(), tuple(rows), columns),)
    return tuple(_Block(len(run), tuple(run[0]),
                        tuple(map(_column, map(list, zip(*map(dict.values, run))))))
                 for run in (list(run) for _, run in groupby(rows, tuple)))


def _refuse_keys(value) -> None:
    """Raise ``TypeError`` naming the first key, in ``value`` or in any dict,
    list or tuple it holds, that is not a ``str``."""
    if isinstance(value, dict):
        for key in value:
            if type(key) is not str:
                raise TypeError(f"a report key must be a str, not the "
                                f"{type(key).__name__} {key!r}")
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        return
    if not set(map(type, value)) <= _SCALARS:
        for item in value:
            _refuse_keys(item)


@dataclass(frozen=True)
class Report:
    """Rows plus metadata, optionally with an overall pass verdict, as
    :func:`make_report` assembles them.

    ``rows`` reads as a list of row dicts, built when it is read. The rows
    are held in ``blocks`` (see the module docstring).
    """

    command: str
    metadata: dict
    blocks: tuple
    passed: bool | None = None

    @property
    def rows(self) -> list[dict]:
        return [dict(zip(block.keys, values)) for block in self.blocks for values in block.values()]


def make_report(command: str, metadata: dict, rows, passed: bool | None = None) -> Report:
    """Assemble a report, normalizing every value for stable rendering.

    ``rows`` is a list of row dicts, or a dict of columns: each column a list
    of one value per row, or any other value, shared by every row. Either way
    the rows are cut into blocks first, and each list column of a block is
    normalized once, its floats rounded in one call. A shared value is
    normalized and rounded once, with the other shared values. A key that
    is not a ``str``, anywhere, is refused before anything is rounded.
    """
    _refuse_keys(metadata)
    _refuse_keys(rows)
    return Report(command, _normalize(metadata), _blocks(rows), passed)


def _texts(column: list, text) -> list:
    """``text`` of each value of a column, once per distinct value when all
    are strings, bools or None."""
    if set(map(type, column)) <= _LABELS:
        distinct = {value: text(value) for value in set(column)}
        return list(map(distinct.__getitem__, column))
    return list(map(text, column))


def _filled(template: str, separator: str, columns: list, size: int, text):
    """``size`` copies of ``template``, each with its ``%s`` slots filled, in
    order, from the next value of each column: the rows of each chunk of up
    to ``_CHUNK``, joined by ``separator``. A :class:`_Numbers` column gives
    its kept texts, any other list ``text`` of each value."""
    for start in range(0, size, _CHUNK):
        rows = (zip(*(c.texts[start // _CHUNK].split(",") if isinstance(c, _Numbers)
                      else _texts(c[start : start + _CHUNK], text) for c in columns)) if columns
                else repeat((), min(_CHUNK, size - start)))
        yield separator.join(map(template.__mod__, rows))


def _layout(value, level: int) -> str:
    """``json.dumps(value, indent=2)`` as it reads ``level`` levels deep.

    A list of objects, such as a matrix row of {re, im} cells, is laid out
    by :func:`_json_rows`; other containers are laid out here, and scalars
    by ``json.dumps``.
    """
    pad = "\n" + "  " * level
    outer = pad + "  "
    if isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
        return "".join(_json_rows(_blocks(value), level))
    if isinstance(value, dict) and value:
        items = [f"{json.dumps(k)}: {_layout(v, level + 1)}" for k, v in value.items()]
        return f"{{{outer}{f',{outer}'.join(items)}{pad}}}"
    if isinstance(value, list) and value:
        return f"[{outer}{f',{outer}'.join(_layout(v, level + 1) for v in value)}{pad}]"
    return json.dumps(value)


def _json_rows(blocks: tuple, level: int) -> list:
    """A list of objects, held in ``blocks``, as ``json.dumps(..., indent=2)``
    lays it out ``level`` levels deep, as the pieces of its text: each block
    from one template, in chunks of rows."""
    pad = "\n" + "  " * level
    outer, inner = pad + "  ", pad + "    "
    pieces = []
    for block in blocks:
        fields, columns = [], []
        for key, column in zip(block.keys, block.columns):
            field = json.dumps(key) + ": "
            if isinstance(column, _Shared):
                fields.append((field + _layout(column.value, level + 2)).replace("%", "%%"))
            else:
                fields.append(field.replace("%", "%%") + "%s")
                columns.append(column)
        template = "{" + inner + f",{inner}".join(fields) + outer + "}" if fields else "{}"
        for chunk in _filled(template, f",{outer}", columns, block.size,
                             lambda value: _layout(value, level + 2)):
            pieces += (f",{outer}", chunk)
    if not pieces:
        return ["[]"]
    pieces[0] = "[" + outer
    pieces.append(pad + "]")
    return pieces


def to_json(report: Report) -> str:
    """``json.dumps`` of the report with ``indent=2``, plus a newline.

    The metadata is laid out by :func:`_layout`, the rows by
    :func:`_json_rows`, one template per block, as is every list of objects
    in the metadata, such as each matrix row of a ``construct`` report. The
    pieces are joined once, so the text is built in one copy.
    """
    pieces = ['{\n  "command": ', json.dumps(report.command),
              ',\n  "metadata": ', _layout(report.metadata, 1),
              ',\n  "rows": ', *_json_rows(report.blocks, 1)]
    if report.passed is not None:
        pieces += [',\n  "pass": ', json.dumps(report.passed)]
    pieces.append("\n}\n")
    return "".join(pieces)


def _csv_cell(value) -> str:
    """``value`` as the csv module writes it in a record of several fields,
    with a bool as true/false."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([value, None])
    return buf.getvalue()[:-2]


def to_csv(report: Report) -> str:
    """Header row then records; UTF-8, LF line endings, '.' decimal separator.

    Columns are the union of row keys in first-seen order; metadata is not
    part of the CSV (it is the plotting hand-off format, rows only). Each
    cell is written as the csv module writes it: None as "", a float as its
    repr, and a lone empty field as ""; bools become true/false. Each block
    of rows is filled into one template.
    """
    columns = list(dict.fromkeys(key for block in report.blocks for key in block.keys))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(columns)
    parts = [buf.getvalue()]
    for block in report.blocks:
        index = dict(zip(block.keys, block.columns))
        cells, values = [], []
        for key in columns:
            column = index.get(key)
            if column is None:
                cells.append("")
            elif isinstance(column, _Shared):
                cells.append(_csv_cell(column.value).replace("%", "%%"))
            else:
                cells.append("%s")
                values.append(column)
        text = _csv_cell
        if len(columns) == 1:
            # The csv module quotes a record's one field when it is empty.
            cells = [cell or '""' for cell in cells]
            text = lambda value: _csv_cell(value) or '""'  # noqa: E731
        parts += _filled(",".join(cells) + "\n", "", values, block.size, text)
    return "".join(parts)


#: The report encodings :func:`render` accepts.
FORMATS = ("csv", "json")


def render(report: Report, fmt: str) -> str:
    if fmt not in FORMATS:
        raise ValueError(f"unknown report format {fmt!r}")
    return to_json(report) if fmt == "json" else to_csv(report)
