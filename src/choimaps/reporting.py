"""Machine-readable report documents for the command-line interface.

Documents serialize to JSON with every real written at 15 significant
digits, so serialize -> parse -> serialize is byte-stable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

SCHEMA_VERSION = "2"


def round_real(x: float) -> float:
    """Round to 15 significant digits (the serialization grid), keeping a
    finite x that would round to infinity (|x| above 1.79769313486231e308)."""
    x = float(x)
    rounded = float(f"{x:.15g}")
    return x if math.isinf(rounded) and math.isfinite(x) else rounded


def _canonical(value):
    """Recursively coerce numpy scalars/arrays and round all reals."""
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_canonical(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return round_real(float(value))
    if isinstance(value, (complex, np.complexfloating)):
        return {"re": round_real(value.real), "im": round_real(value.imag)}
    return value


@dataclass
class ReportDocument:
    """A single classification / construction report."""

    params: dict
    flags: dict
    evidence: dict
    schema_version: str = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "params": _canonical(self.params),
            "flags": _canonical(self.flags),
            "evidence": _canonical(self.evidence),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "ReportDocument":
        return cls(**json.loads(text))


def render_plain(doc: ReportDocument) -> str:
    """Human-readable rendering derived from the same document."""
    lines: list[str] = []

    def emit(prefix: str, value) -> None:
        if isinstance(value, dict):
            if set(value) == {"re", "im"}:
                lines.append(f"{prefix}: {value['re']:+.10g}{value['im']:+.10g}j")
                return
            for k, v in value.items():
                emit(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(value, list) and value and not isinstance(value[0], (list, dict)):
            lines.append(f"{prefix}: " + ", ".join(f"{v:.10g}" if isinstance(v, float) else str(v) for v in value))
        elif isinstance(value, list):
            for i, v in enumerate(value):
                emit(f"{prefix}[{i}]", v)
        elif isinstance(value, float):
            lines.append(f"{prefix}: {value:.10g}")
        else:
            lines.append(f"{prefix}: {value}")

    d = doc.to_dict()
    for section in ("params", "flags", "evidence"):
        lines.append(f"[{section}]")
        emit("", d[section])
    return "\n".join(lines) + "\n"
