"""Deterministic report serialization: JSON certificates, CSV traces.

Floats are rendered with 17 significant digits so every double round-trips
losslessly; key order is fixed, so identical inputs give byte-identical
output.
"""

from __future__ import annotations

import json
from dataclasses import fields
from datetime import datetime, timezone

import numpy as np

from .diffusion import EnergyTrace
from .errors import NumericError
from .inequalities import Certificate, InequalityCase, SweepCell

__all__ = [
    "VERSION",
    "format_float",
    "rfc3339_now",
    "certificate_row",
    "sweep_rows",
    "emit_json",
    "emit_payload_json",
    "emit_csv",
    "emit_samples_csv",
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


def _envelope(command: str, results, generated_at: str | None) -> str:
    parts = [f'"version":{_serialize(VERSION)}', f'"command":{_serialize(command)}']
    if generated_at is not None:
        parts.append(f'"generated_at":{_serialize(generated_at)}')
    parts.append(f'"results":{_serialize(results)}')
    return "{" + ",".join(parts) + "}"


def emit_json(certs: list[Certificate], command: str,
              generated_at: str | None = None) -> str:
    """Certificate report with the fixed key order of the schema."""
    return _envelope(command, [certificate_row(c) for c in certs], generated_at)


def emit_payload_json(rows, command: str, generated_at: str | None = None) -> str:
    """Generic envelope for non-certificate payloads (sample tables, ...)."""
    return _envelope(command, rows, generated_at)


def emit_csv(trace: EnergyTrace) -> str:
    """Energy trace as CSV: header t,energy,bound with LF line endings."""
    i0 = trace.energy[0]
    lines = ["t,energy,bound"]
    for t, energy in zip(trace.times, trace.energy):
        bound = i0 * np.exp(-2.0 * trace.lam * t)
        lines.append(f"{format_float(t)},{format_float(energy)},{format_float(bound)}")
    return "\n".join(lines) + "\n"


def emit_samples_csv(ts: np.ndarray, values: np.ndarray) -> str:
    lines = ["t,value"]
    for t, v in zip(ts, values):
        lines.append(f"{format_float(t)},{format_float(v)}")
    return "\n".join(lines) + "\n"
