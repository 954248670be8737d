"""Known answers for every verdict the benchmark asks for.

Nothing here imports ``choimaps``.  The face table is transcribed from the
paper's property table; positivity, CP and co-CP come from the (p1)/(p2)
conditions of Cho, Kye and Lee; the witness detection value comes from the
family pairing identity 3(p_theta*alpha~ + b*b_slot + c_slot/b - 4cos^2(theta/2)).

Each ``check_*`` function returns a list of mismatch descriptions (empty when
the answer is right), or None when the output is not a well-formed report.
"""

from __future__ import annotations

import json
import math

#: Points within this distance of a (p1)/(p2) boundary count as on it.
BAND = 1e-9

# face -> (spanning, co_spanning, optimal, co_optimal), from the paper's table.
_N = (False, False, False, False)
PROPERTY_TABLE = {
    "f_abc": _N,
    "f_ab": _N,
    "f_ac": _N,
    "f_bc": _N,
    "e_a": _N,
    "e_b": _N,
    "e_c": _N,
    "e_ab": (False, True, False, True),
    "e_ac": (False, True, False, True),
    "v_p00": (False, True, False, True),
    "e_t": (True, False, True, False),
    "v_0t": (True, False, True, False),
    "v_10c": (False, True, True, True),
    "v_1b0": (False, True, True, True),
    "v_param_t": (True, True, True, True),
}
FACES = set(PROPERTY_TABLE) | {"interior", "exterior"}

#: The face every point of a stratum lies on (its smallest face).
STRATUM_FACE = {
    "interior": "interior",
    "exterior": "exterior",
    "f_abc": "f_abc",
    "f_abc_a1": "f_abc",
    "f_ab": "f_ab",
    "f_bc": "f_bc",
    "e_a": "e_a",
    "e_b": "e_b",
    "e_ab": "e_ab",
    "e_t": "e_t",
    "v_p00": "v_p00",
    "v_10c": "v_10c",
    "v_1b0": "v_1b0",
    "v_param_t": "v_param_t",
    "v_0t": "v_0t",
    "surface_a_gt_1": "interior",
    "v_10c_outer": "v_10c",
    "v_1b0_outer": "v_1b0",
}


def cp_threshold(theta: float) -> float:
    """p_theta: largest root of x^3 - 3x - 2cos(3 theta)."""
    return max(2.0 * math.cos(theta + k * 2.0 * math.pi / 3.0) for k in (-1, 0, 1))


def _closed(margin: float) -> bool:
    """Membership of a closed set {margin >= 0}, rounding forgiven."""
    return margin >= -BAND


def _banded(margin: float) -> bool | None:
    """True/False away from the boundary, None (either answer) on it."""
    if margin > BAND:
        return True
    if margin < -BAND:
        return False
    return None


def closed_form_margins(a: float, b: float, c: float, theta: float) -> dict[str, float]:
    """Signed slack of CP (a >= p_theta), co-CP (b*c >= 1) and positivity
    ((p1) and, for a <= 1, (p2))."""
    pth = cp_threshold(theta)
    p1 = a + b + c - pth
    positive = p1 if a > 1.0 else min(p1, b * c - (1.0 - a) ** 2)
    return {"cp": a - pth, "ccp": b * c - 1.0, "positive": positive}


def expected_face_t(stratum: str, a: float, b: float, c: float) -> float | None:
    face = STRATUM_FACE[stratum]
    if face == "e_t":
        return b / (1.0 - a)
    if face == "v_param_t":
        return math.sqrt(b / c)
    if face == "v_0t":
        return b
    return None


def expected_classify(stratum: str, a: float, b: float, c: float, theta: float) -> dict:
    """The flags ``classify --json`` must report for a point of ``stratum``."""
    face = STRATUM_FACE[stratum]
    m = closed_form_margins(a, b, c, theta)
    flags = {name: _closed(v) for name, v in m.items()}
    if flags["positive"] != (face != "exterior"):
        raise ValueError(f"sampled point {(a, b, c, theta)} does not lie in {stratum}")
    flags.update(face=face, face_interior=face != "exterior")
    if flags["positive"]:
        span, cospan, opt, coopt = PROPERTY_TABLE.get(face, _N)
        flags.update(spanning=span, co_spanning=cospan, bi_spanning=span and cospan)
        if face != "interior":
            flags.update(optimal=opt, co_optimal=coopt, bi_optimal=opt and coopt)
    return flags


def expected_spanning(stratum: str) -> dict:
    span, cospan, _, _ = PROPERTY_TABLE.get(STRATUM_FACE[stratum], _N)
    return {"spanning": span, "co_spanning": cospan, "bi_spanning": span and cospan}


def expected_probe(stratum: str) -> str:
    """Verdict of ``optimality_probe`` on a point of a proper face."""
    return "optimal" if PROPERTY_TABLE[STRATUM_FACE[stratum]][2] else "not_optimal"


def _close(x: float, y: float, rel: float = 1e-9) -> bool:
    return abs(x - y) <= rel * max(1.0, abs(y))


def _parse(stdout: str) -> dict | None:
    try:
        doc = json.loads(stdout)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) and isinstance(doc.get("flags"), dict) else None


def check_classify(stdout: str, stratum: str, a: float, b: float, c: float, theta: float) -> list[str] | None:
    doc = _parse(stdout)
    if doc is None:
        return None
    flags = doc["flags"]
    bad = [
        f"{k}={flags.get(k)!r} expected {v!r}"
        for k, v in expected_classify(stratum, a, b, c, theta).items()
        if flags.get(k) != v
    ]
    t = expected_face_t(stratum, a, b, c)
    got_t = flags.get("face_t")
    if (t is None) != (got_t is None) or (t is not None and not _close(got_t, t)):
        bad.append(f"face_t={got_t!r} expected {t!r}")
    return bad


def check_spanning(stdout: str, stratum: str) -> list[str] | None:
    doc = _parse(stdout)
    if doc is None:
        return None
    flags = doc["flags"]
    return [
        f"{k}={flags.get(k)!r} expected {v!r}"
        for k, v in expected_spanning(stratum).items()
        if flags.get(k) != v
    ]


def detection_closed_form(theta: float, b: float, alpha_tilde: float, b_slot: float, c_slot: float) -> float:
    return 3.0 * (
        cp_threshold(theta) * alpha_tilde + b * b_slot + c_slot / b - 4.0 * math.cos(theta / 2.0) ** 2
    )


def check_witness(stdout: str, theta: float, b: float) -> list[str] | None:
    doc = _parse(stdout)
    if doc is None:
        return None
    flags, ev = doc["flags"], doc.get("evidence", {})
    value = flags.get("detection_value")
    if not isinstance(value, (int, float)):
        return None
    bad = []
    if not value < 0.0 or flags.get("detects") is not True:
        bad.append(f"detection_value={value!r} detects={flags.get('detects')!r}, expected detection")
    try:
        closed = detection_closed_form(theta, b, ev["alpha_tilde"], ev["b_slot"], ev["c_slot"])
    except (KeyError, TypeError):
        return None
    if not _close(value, closed):
        bad.append(f"detection_value={value!r} closed form {closed!r}")
    return bad


SWEEP_HEADER = "a,b,c,theta,face,cp,ccp,positive"


def sweep_row_count(grid_n: int, plane: str) -> int:
    """Rows of ``sweep``: every (a, b) grid pair on the simplex has
    c = p_theta - a - b >= 0 exactly when i + j <= n - 1."""
    return grid_n * (grid_n + 1) // 2 if plane == "abc_simplex" else grid_n * grid_n


def check_sweep(text: str, theta: float, grid_n: int, plane: str) -> tuple[int, list[str] | None]:
    """(rows, mismatches); mismatches is None without the CSV header.

    Recomputes cp, ccp and positive from (p1)/(p2) for every row; a point
    within BAND of a boundary passes either way.  The face must be
    'exterior' exactly when the point is not positive."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != SWEEP_HEADER:
        return 0, None
    rows = lines[1:]
    bad = []
    want = sweep_row_count(grid_n, plane)
    if len(rows) != want:
        bad.append(f"rows={len(rows)} expected {want}")
    for line in rows:
        f = line.split(",")
        if len(f) != 8:
            bad.append(f"malformed row {line!r}")
            continue
        a, b, c, th = float(f[0]), float(f[1]), float(f[2]), float(f[3])
        face, cp, ccp, pos = f[4], f[5] == "1", f[6] == "1", f[7] == "1"
        m = closed_form_margins(a, b, c, theta)
        wrong = (
            face not in FACES
            or abs(th - theta) > 1e-12
            or _banded(m["cp"]) not in (None, cp)
            or _banded(m["ccp"]) not in (None, ccp)
            or _banded(m["positive"]) not in (None, pos)
            or (face == "exterior") == pos
        )
        if wrong:
            bad.append(f"row {line!r}")
        if len(bad) >= 5:
            break
    return len(rows), bad
