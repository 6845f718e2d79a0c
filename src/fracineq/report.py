"""Deterministic report serialization: rows to one JSON envelope or one CSV table.

A report is a list of row dicts with a fixed key order.  Floats are rendered
with 17 significant digits, so every double round-trips losslessly and
identical rows give byte-identical output in either format.  Each value is
rendered by one serializer; an object fills a template of its keys, made
once per key order and value types, with a ``%.17g`` slot for each plain
float.  An object nested in another is rendered once per emission.
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
def _template(keys: tuple, types: tuple) -> str:
    # an object with these keys: a %.17g slot for each plain float, a %s slot for the rest
    return "{" + ",".join(_quote(str(k)).replace("%", "%%") + (":%.17g" if t is float else ":%s")
                          for k, t in zip(keys, types)) + "}"


def _object(value: dict, done: dict) -> str:
    # a %.17g slot takes each finite plain float; format_float refuses any other float
    return _template(tuple(value), tuple(map(type, value.values()))) % tuple(
        [x if type(x) is float and math.isfinite(x) else _text(x, done) for x in value.values()])


def _text(value, done: dict) -> str:
    """One value as JSON text: the serializer of both report formats."""
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, dict):  # by id: the emitted value holds every object, so no id is reused
        if id(value) not in done:
            done[id(value)] = _object(value, done)
        return done[id(value)]
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, np.floating):
        return format_float(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        # the objects of an array, such as rows, are seldom repeated: none is kept in ``done``
        return "[" + ",".join([_object(x, done) if type(x) is dict else _text(x, done)
                               for x in value]) + "]"
    raise NumericError(f"cannot serialize {type(value).__name__}")


def certificate_row(cert: Certificate) -> dict:
    return sweep_rows([SweepCell(cert.case, cert.function, cert)])[0]


def sweep_rows(cells: list[SweepCell]) -> list[dict]:
    """One row per cell; the rows of one case share one ``params`` dict."""
    rows, case = [], None
    for cell in cells:
        cert = cell.certificate
        owner = cell if cert is None else cert  # a certificate holds the validated case
        if owner.case is not case:
            case, params = owner.case, owner.case.params()
        if cert is None:
            rows.append({"family": case.family.value, "params": params,
                         "function": cell.function, "error": cell.error})
        else:
            rows.append({"family": case.family.value, "params": params,
                         "function": cert.function, "lhs": cert.lhs, "constant": cert.constant,
                         "rhs": cert.rhs, "ratio": cert.ratio, "disc_tol": cert.disc_tol,
                         "pass": cert.passed, "grid_n": cert.grid_n})
    return rows


def emit_payload_json(rows, command: str, generated_at: str | None = None) -> str:
    """Rows in the report envelope: version, command, generated_at, results."""
    envelope = {"version": VERSION, "command": command}
    if generated_at is not None:
        envelope["generated_at"] = generated_at
    envelope["results"] = rows
    return _text(envelope, {})


def emit_csv(rows: list[dict]) -> str:
    """Flat rows as CSV: header = the row keys, LF line endings, None as an empty cell."""
    if not rows:
        return ""
    header, done = list(rows[0]), {}
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if row[key] is None else _text(row[key], done) for key in header))
    return "\n".join(lines) + "\n"
