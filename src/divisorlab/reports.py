"""Deterministic CSV/JSON report emission.

Every number is serialized with 15 significant digits ('%.15g') and rows
keep their given order, so identical inputs produce byte-identical files
regardless of worker counts or dict iteration quirks.  Timing fields are
deliberately absent from reports for the same reason.

The delta-report CSV header is a frozen contract:

    x,exact,predicted,delta,delta_over_x14,delta_over_x12
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import fields, is_dataclass

from .explicit import DeltaSample

DELTA_CSV_HEADER = "x,exact,predicted,delta,delta_over_x14,delta_over_x12"
SUM_CSV_HEADER = "x,fn,value,algorithm"
FORMATS = ("csv", "json")


# ---------------------------------------------------------------------------
# scalar and JSON serialization
# ---------------------------------------------------------------------------

def format_number(v) -> str:
    """15-significant-digit text for floats; ints and bools stay exact.

    A float within 5e-15 relative of the largest double rounds up to text
    that reads back as infinity; it is refused like a non-finite one.
    """
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    return _format_float(float(v))


def _format_float(f: float) -> str:
    if not math.isfinite(f):
        raise ValueError("reports do not serialize non-finite numbers")
    text = format(f, ".15g")
    if abs(f) > 1e308 and math.isinf(float(text)):
        raise ValueError(f"{f!r} reads back as infinity at 15 digits")
    return text


def _json_escape(s: str) -> str:
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append("\\u%04x" % ord(ch))
        else:
            out.append(ch)
    return "".join(out)


def _to_json(v) -> str:
    """Hand-rolled writer so float formatting stays at 15 significant digits."""
    if v is None:
        return "null"
    if isinstance(v, (bool, int, float)):
        return format_number(v)
    if isinstance(v, str):
        return '"' + _json_escape(v) + '"'
    if isinstance(v, dict):
        inner = ",".join(
            '"' + _json_escape(str(k)) + '":' + _to_json(val)
            for k, val in v.items())
        return "{" + inner + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_to_json(item) for item in v) + "]"
    raise TypeError(f"cannot serialize {type(v).__name__} into a report")


# ---------------------------------------------------------------------------
# row conversion
# ---------------------------------------------------------------------------

def row_dict(row) -> dict:
    """A report row as an ordered dict; a dict row is returned as it is."""
    if is_dataclass(row):
        return {f.name: getattr(row, f.name) for f in fields(row)}
    if isinstance(row, dict):
        return row
    raise TypeError(f"cannot turn {type(row).__name__} into a report row")


def _csv_cell(v) -> str:
    if type(v) is float:
        return _format_float(v)
    if isinstance(v, str):
        if "," in v or '"' in v or "\n" in v:
            raise ValueError("report strings must stay free of CSV metacharacters")
        return v
    if v is None:
        return ""
    return format_number(v)


def render_csv(rows) -> str:
    """CSV text for homogeneous rows, read once in order; delta header frozen.

    A row of floats only is formatted by one '%.15g' template, the same
    text as a cell at a time; where that text holds "n" (inf or nan) or
    "e+308" (a float that may read back as infinity) the row goes cell by
    cell, which refuses it.
    """
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        raise ValueError("a report needs at least one row")
    first_dict = row_dict(first)
    if any(isinstance(v, (list, tuple)) for v in first_dict.values()):
        raise ValueError("nested rows cannot go to CSV; use json")
    keys = list(first_dict)
    header = ",".join(keys)
    if isinstance(first, DeltaSample) and header != DELTA_CSV_HEADER:
        raise AssertionError("delta CSV header drifted from the contract")
    floats = (float,) * len(keys)
    template = ",".join(["%.15g"] * len(keys))
    lines = [header]
    for row in itertools.chain((first,), rows):
        d = row_dict(row)
        if list(d) != keys:
            raise ValueError("CSV rows must share one column set")
        values = tuple(d.values())
        if tuple(map(type, values)) == floats:
            line = template % values
            if "n" not in line and "e+308" not in line:
                lines.append(line)
                continue
        lines.append(",".join(_csv_cell(v) for v in values))
    lines.append("")  # the final newline, without a copy of the text
    return "\n".join(lines)


def render_json(rows) -> str:
    """JSON text: an array of row objects, read once in order."""
    items = [_to_json(row_dict(r)) for r in rows]
    if not items:
        raise ValueError("a report needs at least one row")
    return "[" + ",".join(items) + "]\n"


def emit_report(rows, fmt: str, path) -> int:
    """Write rows to path (- for stdout) in fmt; returns the bytes written.

    rows is any iterable of report rows, read once.  The whole text is
    rendered before anything is written, so a row that cannot be serialized
    leaves no partial report.  An empty report is refused: it is always a
    caller bug.
    """
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}")
    text = render_csv(rows) if fmt == "csv" else render_json(rows)
    if not text.isascii():
        raise ValueError("reports are ASCII text")
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    return len(text)


def read_delta_csv(path) -> list[DeltaSample]:
    """Parse a delta CSV written by emit_report back into samples."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != DELTA_CSV_HEADER:
        raise ValueError("not a delta report: header mismatch")
    out = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != 6:
            raise ValueError(f"malformed delta row: {ln!r}")
        x, exact, predicted, delta, d14, d12 = map(float, cells)
        out.append(DeltaSample(x=x, exact=exact, predicted=predicted,
                               delta=delta, delta_over_x14=d14,
                               delta_over_x12=d12))
    return out
