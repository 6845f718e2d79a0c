"""Deterministic report serialization: rows to one JSON envelope or one CSV table.

A report is a list of row dicts with a fixed key order.  Floats are rendered
with 17 significant digits, so every double round-trips losslessly and
identical rows give byte-identical output in either format.
"""

from __future__ import annotations

import json
from dataclasses import fields
from datetime import datetime, timezone

import numpy as np

from .errors import NumericError
from .inequalities import Certificate, InequalityCase, SweepCell

__all__ = [
    "VERSION",
    "format_float",
    "rfc3339_now",
    "certificate_row",
    "sweep_rows",
    "emit_payload_json",
    "emit_csv",
]

VERSION = "0.1.0"


def format_float(x: float) -> str:
    x = float(x)
    if not np.isfinite(x):
        raise NumericError(f"cannot serialize non-finite float {x}")
    return f"{x:.17g}"


def rfc3339_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _serialize(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ",".join(_serialize(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{_serialize(v)}"
                              for k, v in value.items()) + "}"
    raise NumericError(f"cannot serialize {type(value).__name__}")


def _params_dict(case: InequalityCase) -> dict:
    return {f.name: getattr(case, f.name) for f in fields(case)
            if f.name != "family" and getattr(case, f.name) is not None}


def certificate_row(cert: Certificate) -> dict:
    return {
        "family": cert.case.family.value,
        "params": _params_dict(cert.case),
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
                "params": _params_dict(cell.case),
                "function": cell.function,
                "error": cell.error,
            })
    return rows


def emit_payload_json(rows, command: str, generated_at: str | None = None) -> str:
    """Rows in the report envelope: version, command, generated_at, results."""
    parts = [f'"version":{_serialize(VERSION)}', f'"command":{_serialize(command)}']
    if generated_at is not None:
        parts.append(f'"generated_at":{_serialize(generated_at)}')
    parts.append(f'"results":{_serialize(rows)}')
    return "{" + ",".join(parts) + "}"


def emit_csv(rows: list[dict]) -> str:
    """Flat rows as CSV: header = the row keys, LF line endings, None as an empty cell."""
    if not rows:
        return ""
    header = list(rows[0])
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if row[key] is None else _serialize(row[key])
                              for key in header))
    return "\n".join(lines) + "\n"
