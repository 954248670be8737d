"""Command-line interface: classification, witness construction, spanning
reports and figure-data sweeps with deterministic machine-readable output.

Exit codes:
  0  success
  1  usage error: a bad argument or angle literal (a non-finite angle such
     as inf or nan included), a negative or non-finite coordinate
     (OutOfRangeError), `spanning` on a map that is not positive
     (NotPositiveMapError), `witness` with b <= 0, with b so large or so
     small that the edge state's trace overflows, with b or 1/b so large
     (beyond about 1e8) that the ansatz's optimal alpha~ lies in the face
     band below 2cos(theta/2), or with a given alpha~ outside its range
     (that band included), and `figure-data 3` with more than 1000000 rows
     (it writes 3*points^3 rows, so --points at most 69)
  2  unsupported angle (UnsupportedThetaError, ThetaOutOfRangeError),
     `classify` at the two vertices with first coordinate 1 while
     cp_threshold(theta) - 1 < 1e-6 (within about 6e-7 of +-pi/3 and pi)
     included
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
from .faces import FACE_KINDS, FaceKind, classify_face, classify_faces, require_generic_theta
from .linalg import INCLUSION_SLACK, hermitian_eigenvalues, partial_transpose
from .maps import MapParams, choi_matrix, cp_threshold, normalize_angle
from .optimality import classify_optimality
from .positivity import (
    completely_copositive_at,
    completely_positive_at,
    is_completely_copositive,
    is_completely_positive,
    is_positive,
    positive_at,
)
from .reporting import ReportDocument, real_text, render_plain
from .spanning import SpanningReport, has_cospanning_property, has_spanning_property
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
#: Largest grid of `sweep`, and so largest --points of `figure-data 2`.
SWEEP_MAX_N = 2000

_ANGLE_RE = re.compile(r"^([+-]?)(\d+)?pi(?:/(\d+))?$")
#: Arguments that are negative values, not options.
_NEGATIVE_RE = re.compile(r"^-(?:\d|\.|pi)", re.IGNORECASE)


def parse_angle(text: str) -> float:
    """Parse an angle: finite decimal radians or a rational multiple of pi
    such as 'pi/6', '-2pi/3' or '2pi'.  Raises ValueError on any other text,
    'inf' and 'nan' included.  A negative literal works in place on the
    command line (``classify 1 0.5 0.5 -pi/6``): the parser takes it for a
    value, not an option."""
    s = text.strip().lower().replace(" ", "")
    m = _ANGLE_RE.match(s)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        num = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        value = sign * num * math.pi / den if den else math.nan
    else:
        value = float(s)
    if not math.isfinite(value):
        raise ValueError(f"bad angle literal {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1, which takes a token
    of ``-`` then a digit, ``.`` or ``pi`` (``-pi/6``, ``-2e-3``) for a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_RE

    def error(self, message):  # noqa: D102
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _point(p: MapParams) -> dict:
    return {"a": p.a, "b": p.b, "c": p.c, "theta": p.theta}


def _rank_evidence(r: SpanningReport) -> dict:
    return {
        "has_property": r.has_property,
        "case": r.case,
        "rank": r.rank,
        "smallest_kept": r.smallest_kept,
        "largest_dropped": r.largest_dropped,
    }


def _spanning_parts(p: MapParams) -> tuple[dict, dict]:
    """Flags and evidence of the spanning and co-spanning reports of ``p``."""
    span, cospan = has_spanning_property(p), has_cospanning_property(p)
    flags = {
        "spanning": span.has_property,
        "co_spanning": cospan.has_property,
        "bi_spanning": span.has_property and cospan.has_property,
    }
    return flags, {"spanning": _rank_evidence(span), "co_spanning": _rank_evidence(cospan)}


def _classification_document(p: MapParams) -> ReportDocument:
    w = choi_matrix(p)
    # W and its partial transpose: one validated, batched eigensolve
    choi_eigenvalues, pt_eigenvalues = hermitian_eigenvalues(np.stack([w, partial_transpose(w)])).tolist()
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
        "choi_eigenvalues": choi_eigenvalues,
        "partial_transpose_eigenvalues": pt_eigenvalues,
    }
    if flags["positive"]:
        span_flags, span_evidence = _spanning_parts(p)
        flags.update(span_flags)
        evidence.update(span_evidence)
        if face.kind not in (FaceKind.INTERIOR, FaceKind.EXTERIOR):
            cls = classify_optimality(p)
            row = cls.row
            flags.update(optimal=row.optimal, co_optimal=row.co_optimal, bi_optimal=row.bi_optimal)
            evidence["optimality"] = cls.evidence
    return ReportDocument(params=_point(p), flags=flags, evidence=evidence)


def _emit(doc: ReportDocument, as_json: bool) -> None:
    sys.stdout.write(doc.to_json() + "\n" if as_json else render_plain(doc))


def cmd_classify(args) -> int:
    _emit(_classification_document(MapParams(args.a, args.b, args.c, args.theta)), args.json)
    return EXIT_OK


def cmd_spanning(args) -> int:
    p = MapParams(args.a, args.b, args.c, args.theta)
    _emit(ReportDocument(_point(p), *_spanning_parts(p)), args.json)
    return EXIT_OK


def cmd_witness(args) -> int:
    spec = build_witness(args.theta, args.b, args.alpha_tilde)
    doc = ReportDocument(
        params={"theta": spec.theta, "b": spec.b, "t": spec.t},
        flags={"detects": spec.detects, "detection_value": spec.detection_value},
        evidence={
            "alpha_tilde": spec.alpha_tilde,
            "beta_tilde": spec.beta_tilde,
            "gamma_tilde": spec.gamma_tilde,
            "b_slot": spec.b_slot,
            "c_slot": spec.c_slot,
            "scale": spec.scale,
            "normalized_params": _point(spec.normalized_params),
        },
    )
    _emit(doc, args.json)
    if not spec.detects:
        sys.stderr.write("witness: warning: nonnegative detection pairing, witness does not detect\n")
        return EXIT_NO_DETECTION
    return EXIT_OK


#: Per sweep plane: the coordinates (0 = a, 1 = b, 2 = c) that its two grid
#: axes carry, and the texts of a grid row (outer) and of a column (inner).
_PLANES = {
    "abc_simplex": ((0, 1), "{}", ",{},"),  # c goes between the column and the tail
    "ab": ((0, 1), "{}", ",{},0"),
    "ac": ((0, 2), "{}", ",0,{}"),
    "bc": ((1, 2), "0,{}", ",{}"),
}

#: Most grid points classified per block, which bounds the memory of a
#: sweep; a simplex block holds only the points the sweep keeps.
_BLOCK = 1 << 12


def _write_lines(path: str, chunks) -> int:
    """Write each chunk of the iterable ``chunks``, text of whole lines that
    ends in a newline, to ``path`` as it is produced."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write {path}: {exc}\n")
        return EXIT_IO
    return EXIT_OK


def _join_rows(*pieces) -> str:
    """The rows whose k-th piece is ``pieces[k]``: one text for every row, or
    an object array of one text per row.  The last piece, which ends each
    row with its newline, is such an array."""
    k = len(pieces)
    row = np.empty(k * len(pieces[-1]), dtype=object)
    for n, piece in enumerate(pieces):
        row[n::k] = piece
    return "".join(row.tolist())


def _sweep(theta: float, grid_n: int, plane: str, box: float, out: str) -> int:
    """Write the face and the cp / ccp / positive flags of each point of a
    grid_n^2 grid on ``plane`` over [0, box]^2, or over [0, pth]^2 on the
    simplex (keeping c = pth - a - b >= -INCLUSION_SLACK, clipped at 0), classified by
    ``classify_faces`` in blocks of whole outer-axis rows, at most ``_BLOCK``
    points each.

    A simplex block builds only the columns j <= grid_n - 1 - i of its rows
    i.  Up to ``SWEEP_MAX_N`` that is exactly the set the c test keeps: the
    computed c is within a few ulps of pth of its exact value
    pth (grid_n - 1 - i - j) / (grid_n - 1), which is nonnegative where
    i + j <= grid_n - 1 and at most -pth / 1999, far below the slack, where
    i + j >= grid_n.  The test stays all the same.

    A row is the text of its grid row (``a``, or ``0,b`` on bc), the text of
    its column (``,b,0``, ``,0,c``, ``,c``, or ``,b,`` on the simplex) and
    one of 68 tails ``,theta,face,cp,ccp,positive`` and a newline, one per
    (face, cp, ccp).  On the simplex the text of c goes before the tail:
    each block formats its distinct c values once.  The row and column
    texts are formatted once per sweep, and each block is one join."""
    if not 1 <= grid_n <= SWEEP_MAX_N:
        raise OutOfRangeError(f"grid_n must be in [1, {SWEEP_MAX_N}], got {grid_n}")
    if not 0.0 <= box < math.inf:
        raise OutOfRangeError(f"box must be finite and nonnegative, got {box}")
    require_generic_theta(theta)
    pth = cp_threshold(theta)
    simplex = plane == "abc_simplex"
    axis = np.linspace(0.0, pth if simplex else box, grid_n)
    slots, outer_form, inner_form = _PLANES[plane]
    labels = [real_text(x) for x in axis.tolist()]
    outer = np.array([outer_form.format(t) for t in labels], dtype=object)
    inner = np.array([inner_form.format(t) for t in labels], dtype=object)
    cp_pth = cp_threshold(normalize_angle(theta))  # the threshold MapParams would use
    # one row tail per (face, cp, ccp); positive is every face but exterior
    theta_text = real_text(theta)
    kinds = [(f",{theta_text},{kind.value},", int(kind is not FaceKind.EXTERIOR)) for kind in FACE_KINDS]
    tails = np.array([
        f"{head}{cp},{ccp},{positive}\n" for head, positive in kinds for cp in (0, 1) for ccp in (0, 1)
    ], dtype=object)

    # row i holds its columns j < widths[i]: every column on a plane, those
    # with i + j <= grid_n - 1 on the simplex
    widths = grid_n - np.arange(grid_n) if simplex else np.full(grid_n, grid_n)
    ends = np.cumsum(widths)  # where each row ends in the row-major order of the points
    firsts = ends - widths

    def blocks():
        yield "a,b,c,theta,face,cp,ccp,positive\n"
        start = 0
        while start < grid_n:  # whole rows, at most _BLOCK points
            stop = max(start + 1, int(np.searchsorted(ends, firsts[start] + _BLOCK, side="right")))
            i = np.repeat(np.arange(start, stop), widths[start:stop])
            j = np.arange(firsts[start], ends[stop - 1]) - firsts[i]
            start = stop
            x, y = axis[i], axis[j]
            coords = [np.zeros_like(x)] * 3
            if simplex:
                z = pth - x - y
                keep = z >= -INCLUSION_SLACK
                i, j, x, y, z = i[keep], j[keep], x[keep], y[keep], np.maximum(z[keep], 0.0)
                values, inverse = np.unique(z, return_inverse=True)
                coords[2] = z
                c_texts = np.array([real_text(v) for v in values.tolist()], dtype=object)[inverse]
            coords[slots[0]], coords[slots[1]] = x, y
            a, b, c = coords
            codes = classify_faces(a, b, c, theta).astype(int) * 4
            with np.errstate(over="ignore"):  # b * c = inf is above the threshold, as it should be
                codes += 2 * completely_positive_at(a, cp_pth) + completely_copositive_at(b, c)
            middle = (c_texts,) if simplex else ()
            yield _join_rows(outer[i], inner[j], *middle, tails[codes])

    return _write_lines(out, blocks())


def cmd_sweep(args) -> int:
    return _sweep(args.theta, args.grid_n, args.plane, args.box, args.out)


def cmd_figure_data(args) -> int:
    if not 2 <= args.points <= 100000:
        raise OutOfRangeError(f"points must be in [2, 100000], got {args.points}")
    if args.figure == "1":
        thetas = np.linspace(-math.pi, math.pi, args.points)
        lines = [f"{real_text(th)},{real_text(cp_threshold(th))}\n" for th in thetas]
        return _write_lines(args.out, ["theta,p_theta\n" + "".join(lines)])
    if args.figure == "2":
        if args.points > SWEEP_MAX_N:
            raise OutOfRangeError(f"figure 2 takes points in [2, {SWEEP_MAX_N}], got {args.points}")
        return _sweep(args.theta, args.points, "abc_simplex", 2.5, args.out)
    # figure 3: positivity scans at thresholds 1, the given angle, 2
    rows = 3 * args.points**3
    if rows > FIGURE3_MAX_ROWS:
        raise OutOfRangeError(
            f"figure 3 would write 3*points^3 = {rows} rows, above the cap of {FIGURE3_MAX_ROWS}"
        )

    def scans():
        yield "label,theta,a,b,c,positive\n"
        axis = np.linspace(0.0, 2.5, args.points)
        labels = [real_text(x) for x in axis.tolist()]
        b, c = (g.ravel() for g in np.meshgrid(axis, axis, indexing="ij"))
        pairs = np.array([f"{tb},{tc}," for tb in labels for tc in labels], dtype=object)
        flags = np.array(["0\n", "1\n"], dtype=object)
        for label, th in (("p=1", math.pi / 3.0), ("1<p<2", args.theta), ("p=2", 0.0)):
            pth = cp_threshold(normalize_angle(th))
            for a, ta in zip(axis, labels):
                positive = positive_at(a, b, c, pth).astype(int)
                yield _join_rows(f"{label},{real_text(th)},{ta},", pairs, flags[positive])

    return _write_lines(args.out, scans())


def build_parser() -> _Parser:
    parser = _Parser(
        prog="choimaps", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, about in (
        ("classify", cmd_classify, "classify one parameter tuple"),
        ("spanning", cmd_spanning, "spanning / co-spanning report for a point"),
    ):
        pp = sub.add_parser(name, help=about)
        for coordinate in "abc":
            pp.add_argument(coordinate, type=float)
        pp.add_argument("theta", type=parse_angle)
        pp.add_argument("--json", action="store_true")
        pp.set_defaults(func=func)

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
    pv.add_argument("--box", type=float, default=2.5, help=(
        "the grid covers [0, box]^2 on ab, ac and bc; abc_simplex ignores it (its axis is [0, p_theta])"))
    pv.set_defaults(func=cmd_sweep)

    pf = sub.add_parser("figure-data", help="emit figure data CSV")
    pf.add_argument("figure", choices=("1", "2", "3"))
    pf.add_argument("--out", required=True)
    pf.add_argument("--theta", type=parse_angle, default="pi/6")
    most = int((FIGURE3_MAX_ROWS / 3) ** (1 / 3))  # figure 3 writes 3*points^3 rows
    pf.add_argument("--points", type=int, default=1000, help=(
        f"points per axis: at most 100000 for figure 1, {SWEEP_MAX_N} for figure 2, {most} for figure 3"))
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
