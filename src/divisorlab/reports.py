"""Deterministic CSV/JSON report emission.

Every number is serialized with 15 significant digits ('%.15g') and rows
keep their given order, so identical inputs produce byte-identical files
regardless of worker counts or dict iteration quirks.  Timing fields are
deliberately absent from reports for the same reason.

The delta-report CSV header is a frozen contract:

    x,exact,predicted,delta,delta_over_x14,delta_over_x12
"""

from __future__ import annotations

import math
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
    f = float(v)
    if math.isnan(f) or math.isinf(f):
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
    """Flatten a report row into an ordered plain dict."""
    if is_dataclass(row):
        return {f.name: getattr(row, f.name) for f in fields(row)}
    if isinstance(row, dict):
        return dict(row)
    raise TypeError(f"cannot turn {type(row).__name__} into a report row")


def _csv_cell(v) -> str:
    if isinstance(v, str):
        if "," in v or '"' in v or "\n" in v:
            raise ValueError("report strings must stay free of CSV metacharacters")
        return v
    if v is None:
        return ""
    return format_number(v)


def render_csv(rows) -> str:
    """CSV text for a homogeneous list of rows, delta header frozen."""
    dicts = [row_dict(r) for r in rows]
    keys = list(dicts[0].keys())
    for d in dicts[1:]:
        if list(d.keys()) != keys:
            raise ValueError("CSV rows must share one column set")
    if any(isinstance(v, (list, tuple)) for v in dicts[0].values()):
        raise ValueError("nested rows cannot go to CSV; use json")
    header = ",".join(keys)
    if isinstance(rows[0], DeltaSample) and header != DELTA_CSV_HEADER:
        raise AssertionError("delta CSV header drifted from the contract")
    lines = [header]
    for d in dicts:
        lines.append(",".join(_csv_cell(v) for v in d.values()))
    return "\n".join(lines) + "\n"


def render_json(rows) -> str:
    """JSON text: an array of row objects, or one object for a single row."""
    if isinstance(rows, (list, tuple)):
        return _to_json([row_dict(r) for r in rows]) + "\n"
    return _to_json(row_dict(rows)) + "\n"


def emit_report(rows, fmt: str, path) -> int:
    """Write rows to path in the chosen format; returns bytes written.

    rows may be a list of report rows or a single row object.  Empty row
    lists are rejected: an empty report is always a caller bug.
    """
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}")
    if isinstance(rows, (list, tuple)) and len(rows) == 0:
        raise ValueError("emit_report needs at least one row")
    if fmt == "csv":
        listed = rows if isinstance(rows, (list, tuple)) else [rows]
        text = render_csv(listed)
    else:
        text = render_json(rows)
    data = text.encode("ascii")
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


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
