"""Command-line interface: classification, witness construction, spanning
reports and figure-data sweeps with deterministic machine-readable output.

Exit codes:
  0  success
  1  usage error: a bad argument or angle literal, a negative or non-finite
     coordinate (OutOfRangeError), `spanning` on a map that is not positive
     (NotPositiveMapError), `witness` with b <= 0, and `figure-data 3` with
     more than 1000000 rows (it writes 3*points^3 rows, so --points at most 69)
  2  unsupported angle (UnsupportedThetaError, ThetaOutOfRangeError)
  3  the constructed witness does not detect (NoDetectingChoiceError)
  4  I/O error
  5  internal consistency check failed (InternalConsistencyError: a defect
     of the program, not of the input; the one-line message names the
     failing evidence)
"""

from __future__ import annotations

import argparse
import math
import re
import sys

import numpy as np

from .errors import (
    InternalConsistencyError,
    NoDetectingChoiceError,
    NotPositiveMapError,
    OutOfRangeError,
    ThetaOutOfRangeError,
    UnsupportedThetaError,
)
from .faces import FaceKind, classify_face, require_generic_theta
from .linalg import hermitian_eigenvalues, partial_transpose
from .maps import MapParams, choi_matrix, cp_threshold
from .optimality import classify_optimality
from .positivity import is_completely_copositive, is_completely_positive, is_positive
from .reporting import ReportDocument, render_plain
from .spanning import has_cospanning_property, has_spanning_property
from .witness import build_witness

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNSUPPORTED_THETA = 2
EXIT_NO_DETECTION = 3
EXIT_IO = 4
EXIT_INTERNAL = 5

#: Exit code of each error a command may raise, the first match winning.
_EXIT_CODES = {
    InternalConsistencyError: EXIT_INTERNAL,
    NoDetectingChoiceError: EXIT_NO_DETECTION,
    UnsupportedThetaError: EXIT_UNSUPPORTED_THETA,
    ThetaOutOfRangeError: EXIT_UNSUPPORTED_THETA,
    NotPositiveMapError: EXIT_USAGE,
    OutOfRangeError: EXIT_USAGE,
}

#: Largest number of rows `figure-data 3` may write.
FIGURE3_MAX_ROWS = 1_000_000

_ANGLE_RE = re.compile(r"^([+-]?)(\d+)?pi(?:/(\d+))?$")


def parse_angle(text: str) -> float:
    """Parse an angle: decimal radians or a rational multiple of pi such as
    'pi/6', '-2pi/3' or '2pi'.  Raises ValueError on any other text."""
    s = text.strip().lower().replace(" ", "")
    m = _ANGLE_RE.match(s)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        num = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        if den == 0:
            raise ValueError(f"bad angle literal {text!r}")
        return sign * num * math.pi / den
    return float(s)


def _fmt(x: float) -> str:
    return f"{x:.15g}"


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):  # noqa: D102
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _spanning_evidence(report) -> dict:
    return {
        "has_property": report.has_property,
        "case": report.case,
        "rank": report.rank,
        "det_abs": report.det_abs,
        "det_closed_form": report.det_closed_form,
    }


def _classification_document(p: MapParams) -> ReportDocument:
    w = choi_matrix(p)
    eigs = hermitian_eigenvalues(w)
    pt_eigs = hermitian_eigenvalues(partial_transpose(w))
    face = classify_face(p)
    flags: dict = {
        "cp": is_completely_positive(p),
        "ccp": is_completely_copositive(p),
        "positive": is_positive(p),
        "face": face.kind.value,
        "face_t": face.t_value,
        "face_interior": face.interior_of_face,
    }
    evidence: dict = {
        "cp_threshold": cp_threshold(p.theta),
        "choi_eigenvalues": list(eigs),
        "partial_transpose_eigenvalues": list(pt_eigs),
    }
    if flags["positive"]:
        span = has_spanning_property(p)
        cospan = has_cospanning_property(p)
        flags.update(
            spanning=span.has_property,
            co_spanning=cospan.has_property,
            bi_spanning=span.has_property and cospan.has_property,
        )
        evidence["spanning"] = _spanning_evidence(span)
        evidence["co_spanning"] = _spanning_evidence(cospan)
        if face.kind not in (FaceKind.INTERIOR, FaceKind.EXTERIOR):
            cls = classify_optimality(p)
            flags.update(
                optimal=cls.row.optimal,
                co_optimal=cls.row.co_optimal,
                bi_optimal=cls.row.bi_optimal,
            )
            evidence["optimality"] = cls.evidence
    params = {"a": p.a, "b": p.b, "c": p.c, "theta": p.theta}
    return ReportDocument(params=params, flags=flags, evidence=evidence)


def _emit(doc: ReportDocument, as_json: bool) -> None:
    sys.stdout.write(doc.to_json() + "\n" if as_json else render_plain(doc))


def cmd_classify(args) -> int:
    _emit(_classification_document(MapParams(args.a, args.b, args.c, args.theta)), args.json)
    return EXIT_OK


def cmd_spanning(args) -> int:
    p = MapParams(args.a, args.b, args.c, args.theta)
    span = has_spanning_property(p)
    cospan = has_cospanning_property(p)
    doc = ReportDocument(
        params={"a": p.a, "b": p.b, "c": p.c, "theta": p.theta},
        flags={
            "spanning": span.has_property,
            "co_spanning": cospan.has_property,
            "bi_spanning": span.has_property and cospan.has_property,
        },
        evidence={
            "spanning": _spanning_evidence(span),
            "co_spanning": _spanning_evidence(cospan),
        },
    )
    _emit(doc, args.json)
    return EXIT_OK


def cmd_witness(args) -> int:
    spec = build_witness(args.theta, args.b, args.alpha_tilde)
    doc = ReportDocument(
        params={"theta": spec.theta, "b": spec.b, "t": spec.t},
        flags={
            "detects": spec.detects,
            "detection_value": spec.detection_value,
        },
        evidence={
            "alpha_tilde": spec.alpha_tilde,
            "beta_tilde": spec.beta_tilde,
            "gamma_tilde": spec.gamma_tilde,
            "b_slot": spec.b_slot,
            "c_slot": spec.c_slot,
            "scale": spec.scale,
            "normalized_params": {
                "a": spec.normalized_params.a,
                "b": spec.normalized_params.b,
                "c": spec.normalized_params.c,
                "theta": spec.normalized_params.theta,
            },
        },
    )
    _emit(doc, args.json)
    if not spec.detects:
        sys.stderr.write("witness: warning: nonnegative detection pairing, witness does not detect\n")
        return EXIT_NO_DETECTION
    return EXIT_OK


_SWEEP_HEADER = "a,b,c,theta,face,cp,ccp,positive"


def _sweep_rows(theta: float, grid_n: int, plane: str, box: float):
    pth = cp_threshold(theta)
    axis = np.linspace(0.0, box, grid_n)
    if plane == "abc_simplex":
        axis = np.linspace(0.0, pth, grid_n)
        for a in axis:
            for b in axis:
                c = pth - a - b
                if c < -1e-12:
                    continue
                yield a, b, max(c, 0.0)
    elif plane == "ab":
        for a in axis:
            for b in axis:
                yield a, b, 0.0
    elif plane == "ac":
        for a in axis:
            for c in axis:
                yield a, 0.0, c
    elif plane == "bc":
        for b in axis:
            for c in axis:
                yield 0.0, b, c
    else:
        raise ValueError(f"unknown plane {plane!r}")


def _write_lines(path: str, lines) -> int:
    """Write each line of the iterable ``lines`` to ``path`` as it is produced."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for line in lines:
                fh.write(line + "\n")
    except OSError as exc:
        sys.stderr.write(f"error: cannot write {path}: {exc}\n")
        return EXIT_IO
    return EXIT_OK


def cmd_sweep(args) -> int:
    if not 1 <= args.grid_n <= 2000:
        raise OutOfRangeError(f"grid_n must be in [1, 2000], got {args.grid_n}")
    if not 0.0 <= args.box < math.inf:
        raise OutOfRangeError(f"box must be finite and nonnegative, got {args.box}")
    require_generic_theta(args.theta)

    def lines():
        yield _SWEEP_HEADER
        for a, b, c in _sweep_rows(args.theta, args.grid_n, args.plane, args.box):
            p = MapParams(a, b, c, args.theta)
            face = classify_face(p)
            yield ",".join(
                (
                    _fmt(a),
                    _fmt(b),
                    _fmt(c),
                    _fmt(args.theta),
                    face.kind.value,
                    str(int(is_completely_positive(p))),
                    str(int(is_completely_copositive(p))),
                    str(int(is_positive(p))),
                )
            )

    return _write_lines(args.out, lines())


def cmd_figure_data(args) -> int:
    if not 2 <= args.points <= 100000:
        raise OutOfRangeError(f"points must be in [2, 100000], got {args.points}")
    if args.figure == "1":
        lines = ["theta,p_theta"]
        for th in np.linspace(-math.pi, math.pi, args.points):
            lines.append(f"{_fmt(th)},{_fmt(cp_threshold(th))}")
        return _write_lines(args.out, lines)
    if args.figure == "2":
        ns = argparse.Namespace(
            theta=args.theta, grid_n=args.points, plane="abc_simplex", box=2.5, out=args.out
        )
        return cmd_sweep(ns)
    # figure 3: positivity scans at thresholds 1, the given angle, 2
    rows = 3 * args.points**3
    if rows > FIGURE3_MAX_ROWS:
        raise OutOfRangeError(
            f"figure 3 would write 3*points^3 = {rows} rows, above the cap of {FIGURE3_MAX_ROWS}"
        )

    def scans():
        yield "label,theta,a,b,c,positive"
        axis = np.linspace(0.0, 2.5, args.points)
        for label, th in (("p=1", math.pi / 3.0), ("1<p<2", args.theta), ("p=2", 0.0)):
            for a in axis:
                for b in axis:
                    for c in axis:
                        positive = int(is_positive(MapParams(a, b, c, th)))
                        yield f"{label},{_fmt(th)},{_fmt(a)},{_fmt(b)},{_fmt(c)},{positive}"

    return _write_lines(args.out, scans())


def build_parser() -> _Parser:
    parser = _Parser(prog="choimaps", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("classify", help="classify one parameter tuple")
    pc.add_argument("a", type=float)
    pc.add_argument("b", type=float)
    pc.add_argument("c", type=float)
    pc.add_argument("theta", type=parse_angle)
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(func=cmd_classify)

    ps = sub.add_parser("spanning", help="spanning / co-spanning report for a point")
    ps.add_argument("a", type=float)
    ps.add_argument("b", type=float)
    ps.add_argument("c", type=float)
    ps.add_argument("theta", type=parse_angle)
    ps.add_argument("--json", action="store_true")
    ps.set_defaults(func=cmd_spanning)

    pw = sub.add_parser("witness", help="construct an edge-state witness")
    pw.add_argument("theta", type=parse_angle)
    pw.add_argument("b", type=float)
    pw.add_argument("--alpha-tilde", type=float, default=None)
    pw.add_argument("--json", action="store_true")
    pw.set_defaults(func=cmd_witness)

    pv = sub.add_parser("sweep", help="classification sweep to CSV")
    pv.add_argument("theta", type=parse_angle)
    pv.add_argument("grid_n", type=int)
    pv.add_argument("--out", required=True)
    pv.add_argument("--plane", choices=("abc_simplex", "ab", "ac", "bc"), default="abc_simplex")
    pv.add_argument("--box", type=float, default=2.5)
    pv.set_defaults(func=cmd_sweep)

    pf = sub.add_parser("figure-data", help="emit figure data CSV")
    pf.add_argument("figure", choices=("1", "2", "3"))
    pf.add_argument("--out", required=True)
    pf.add_argument("--theta", type=parse_angle, default="pi/6")
    pf.add_argument("--points", type=int, default=1000)
    pf.set_defaults(func=cmd_figure_data)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        code = next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
        message = " ".join(str(exc).split())
        if code == EXIT_INTERNAL:
            message = f"internal consistency check failed: {message}"
        sys.stderr.write(f"{args.command}: {message}\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
