"""Machine-readable report documents for the command-line interface.

Every real of a report, and of a CSV the command line writes, is written
at 15 significant digits (``real_text``), so serialize -> parse ->
serialize is byte-stable.

A document is written in one walk over its values as built: ``to_json``
rounds each real with ``round_real`` as it writes it and gives the bytes
of ``json.dumps(..., indent=2)`` over the rounded document (float
``repr``, ``NaN`` and ``Infinity``, ASCII-escaped keys and strings, ``{}``
and ``[]`` for empty containers, a two-space indent).  A tuple or array is
written as a list, a numpy scalar as its Python value and a complex as
``{"re": ..., "im": ...}``.  ``render_plain`` walks the same values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

SCHEMA_VERSION = "2"


def real_text(x: float) -> str:
    """``x`` at 15 significant digits: the one rounding rule of reports and
    CSV rows."""
    return f"{x:.15g}"


def round_real(x: float) -> float:
    """Round to 15 significant digits (the serialization grid), keeping a
    finite x that would round to infinity (|x| above 1.79769313486231e308)."""
    x = float(x)
    rounded = float(real_text(x))
    return x if math.isinf(rounded) and math.isfinite(x) else rounded


_EXACT = (dict, list, str, bool, int, float, type(None))


def _exact(value):
    """``value`` as a value of one of the types _EXACT (a real is not rounded
    here): a complex as {"re", "im"}, an array or tuple as a list, a numpy
    scalar as its Python value; raises TypeError for any other type."""
    if type(value) in _EXACT:
        return value
    if isinstance(value, (complex, np.complexfloating)):
        return {"re": float(value.real), "im": float(value.imag)}
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, tuple):
        return list(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_real(x: float) -> str:
    x = round_real(x)
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _write(value, indent: str, out: list) -> None:
    """Append the JSON text of ``value``, nested at ``indent``, to ``out``."""
    kind = type(value)
    if kind is float:
        out.append(_json_real(value))
    elif kind is dict or kind is list:
        opening, closing = "{}" if kind is dict else "[]"
        if not value:
            out.append(opening + closing)
            return
        inner = indent + "  "
        sep = opening + "\n" + inner
        for key, item in value.items() if kind is dict else enumerate(value):
            out.append(f"{sep}{encode_basestring_ascii(str(key))}: " if kind is dict else sep)
            _write(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + closing)
    elif kind is str:
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if value else "false")
    elif kind is int:
        out.append(int.__repr__(value))
    else:
        _write(_exact(value), indent, out)


@dataclass
class ReportDocument:
    """A single classification / construction report."""

    params: dict
    flags: dict
    evidence: dict
    schema_version: str = SCHEMA_VERSION

    def to_json(self) -> str:
        sections = {
            "schema_version": self.schema_version,
            "params": self.params,
            "flags": self.flags,
            "evidence": self.evidence,
        }
        out: list[str] = []
        _write(sections, "", out)
        return "".join(out)

    @classmethod
    def from_json(cls, text: str) -> "ReportDocument":
        return cls(**json.loads(text))


def render_plain(doc: ReportDocument) -> str:
    """Human-readable rendering of the same values: one line per scalar or
    list of scalars, each real rounded by ``round_real`` and shown at 10
    significant digits."""
    lines: list[str] = []

    def scalar(value):
        value = _exact(value)
        return round_real(value) if isinstance(value, float) else value

    def text(value) -> str:
        value = scalar(value)
        return f"{value:.10g}" if isinstance(value, float) else str(value)

    def emit(prefix: str, value) -> None:
        value = _exact(value)
        if isinstance(value, dict):
            if set(value) == {"re", "im"}:
                lines.append(f"{prefix}: {scalar(value['re']):+.10g}{scalar(value['im']):+.10g}j")
                return
            for k, v in value.items():
                emit(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(value, list) and value and not isinstance(_exact(value[0]), (list, dict)):
            lines.append(f"{prefix}: " + ", ".join(text(v) for v in value))
        elif isinstance(value, list):
            for i, v in enumerate(value):
                emit(f"{prefix}[{i}]", v)
        else:
            lines.append(f"{prefix}: {text(value)}")

    for section in ("params", "flags", "evidence"):
        lines.append(f"[{section}]")
        emit("", getattr(doc, section))
    return "\n".join(lines) + "\n"
