"""Deterministic report serialization: rows to one JSON envelope or one CSV table.

A report is a list of row dicts with a fixed key order.  Floats are rendered
with 17 significant digits, so every double round-trips losslessly and
identical rows give byte-identical output in either format.  Each value is
rendered by one serializer; an object fills a template of its keys, made
once per key order.
"""

from __future__ import annotations

import math
from datetime import datetime, timezone
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote  # json.dumps of a str

import numpy as np

from . import __version__ as VERSION
from .errors import NumericError
from .inequalities import Certificate, SweepCell

__all__ = [
    "VERSION",
    "format_float",
    "rfc3339_now",
    "certificate_row",
    "sweep_rows",
    "emit_payload_json",
    "emit_csv",
]

def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise NumericError(f"cannot serialize non-finite float {x}")
    return f"{x:.17g}"


def rfc3339_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@lru_cache(maxsize=256)
def _template(keys: tuple) -> str:
    # an object with these keys, each value left as a %s slot
    return "{" + ",".join(_quote(str(k)).replace("%", "%%") + ":%s" for k in keys) + "}"


def _text(value) -> str:
    """One value as JSON text: the serializer of both report formats."""
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, dict):
        return _template(tuple(value)) % tuple(map(_text, value.values()))
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, np.floating):
        return format_float(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ",".join(map(_text, value)) + "]"
    raise NumericError(f"cannot serialize {type(value).__name__}")


def certificate_row(cert: Certificate) -> dict:
    return {
        "family": cert.case.family.value,
        "params": cert.case.params(),
        "function": cert.function,
        "lhs": cert.lhs,
        "constant": cert.constant,
        "rhs": cert.rhs,
        "ratio": cert.ratio,
        "disc_tol": cert.disc_tol,
        "pass": cert.passed,
        "grid_n": cert.grid_n,
    }


def sweep_rows(cells: list[SweepCell]) -> list[dict]:
    rows = []
    for cell in cells:
        if cell.certificate is not None:
            rows.append(certificate_row(cell.certificate))
        else:
            rows.append({
                "family": cell.case.family.value,
                "params": cell.case.params(),
                "function": cell.function,
                "error": cell.error,
            })
    return rows


def emit_payload_json(rows, command: str, generated_at: str | None = None) -> str:
    """Rows in the report envelope: version, command, generated_at, results."""
    envelope = {"version": VERSION, "command": command}
    if generated_at is not None:
        envelope["generated_at"] = generated_at
    envelope["results"] = rows
    return _text(envelope)


def emit_csv(rows: list[dict]) -> str:
    """Flat rows as CSV: header = the row keys, LF line endings, None as an empty cell."""
    if not rows:
        return ""
    header = list(rows[0])
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if row[key] is None else _text(row[key]) for key in header))
    return "\n".join(lines) + "\n"
