"""Machine-readable report documents for the command-line interface.

A report holds plain values only: dict, list, str, bool, int, float and
None.  The writer refuses any other type (a numpy scalar, a complex, a
tuple or an array) with TypeError, so the command line converts what it
computes before it builds a document.

Every real of a report, and of a CSV the command line writes, is written
at 15 significant digits (``real_text``), so serialize -> parse ->
serialize is byte-stable.

A document is written in one walk over its values: ``to_json`` rounds
each real with ``round_real`` as it writes it and gives the bytes of
``json.dumps(..., indent=2)`` over the rounded document (float ``repr``,
``NaN`` and ``Infinity``, ASCII-escaped keys and strings, ``{}`` and
``[]`` for empty containers, a two-space indent).  ``render_plain`` walks
the same values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

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
        raise TypeError(f"Object of type {kind.__name__} is not a plain report value")


@dataclass
class ReportDocument:
    """A single classification / construction report: three sections of
    plain values, written under the schema version ``SCHEMA_VERSION``."""

    params: dict
    flags: dict
    evidence: dict

    def to_json(self) -> str:
        sections = {
            "schema_version": SCHEMA_VERSION,
            "params": self.params,
            "flags": self.flags,
            "evidence": self.evidence,
        }
        out: list[str] = []
        _write(sections, "", out)
        return "".join(out)


def render_plain(doc: ReportDocument) -> str:
    """Human-readable rendering of the same values: one line per scalar or
    list of scalars, each real rounded by ``round_real`` and shown at 10
    significant digits."""
    lines: list[str] = []

    def text(value) -> str:
        return f"{round_real(value):.10g}" if isinstance(value, float) else str(value)

    def emit(prefix: str, value) -> None:
        if isinstance(value, dict):
            for k, v in value.items():
                emit(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(value, list) and value and not isinstance(value[0], (list, dict)):
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
