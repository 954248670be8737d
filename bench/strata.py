"""Seeded sampling of parameter points, one sampler per stratum.

A stratum is a piece of the positivity body of Phi[a,b,c;theta] (a face,
an edge, a vertex, the interior or the exterior) or a range of witness
inputs.  Everything here is written from the paper's formulas and never
calls into ``choimaps``: the program under test receives only the points.

Angles are drawn where the CP threshold p_theta lies strictly inside (1, 2),
at least ``THETA_GAP`` radians away from 0, +-pi/3, +-2pi/3 and pi.
"""

from __future__ import annotations

import math
import random

from known_answers import closed_form_margins, cp_threshold

THIRD = math.pi / 3.0
THETA_GAP = 0.05
# Distance kept from every face predicate other than the stratum's own, so a
# point never lands inside a 1e-9 tolerance band of a neighbouring face.
MARGIN = 0.02


def _branch_ranges(branch: str) -> list[tuple[float, float]]:
    g = THETA_GAP
    middle = [(g, THIRD - g)]
    outer = [(THIRD + g, 2.0 * THIRD - g), (2.0 * THIRD + g, math.pi - g)]
    return {"middle": middle, "outer": outer, "any": middle + outer}[branch]


def draw_theta(rng: random.Random, branch: str = "any") -> float:
    """Uniform |theta| over the allowed ranges of ``branch`` ('middle' is
    0 < |theta| < pi/3, 'outer' is pi/3 < |theta| < pi), random sign."""
    ranges = _branch_ranges(branch)
    x = rng.uniform(0.0, sum(hi - lo for lo, hi in ranges))
    for lo, hi in ranges:
        if x <= hi - lo:
            break
        x -= hi - lo
    mag = lo + min(x, hi - lo)
    return mag if rng.random() < 0.5 else -mag


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


# Each sampler takes (rng, theta) and returns (a, b, c).


def _interior(rng, th):
    while True:
        a, b, c = (rng.uniform(0.05, 2.2) for _ in range(3))
        if closed_form_margins(a, b, c, th)["positive"] > MARGIN and abs(a - 1.0) > MARGIN:
            return a, b, c


def _exterior(rng, th):
    while True:
        a = rng.uniform(0.0, 0.9)
        b, c = rng.uniform(0.02, 1.0), rng.uniform(0.02, 1.0)
        if closed_form_margins(a, b, c, th)["positive"] < -MARGIN:
            return a, b, c


def _f_abc(rng, th):
    """a + b + c = p_theta with a in (2 - p_theta, p_theta), away from a = 1;
    for a < 1, b is drawn between the roots of b(r - b) = (1 - a)^2 so that
    (p2) holds strictly."""
    pth = cp_threshold(th)
    w = pth - 1.0
    a = 1.0
    while abs(a - 1.0) < 0.05 * w:
        a = 2.0 - pth + 2.0 * w * rng.uniform(0.05, 0.95)
    r = pth - a
    if a > 1.0:
        b = r * rng.uniform(0.05, 0.95)
    else:
        half = math.sqrt(r * r / 4.0 - (1.0 - a) ** 2)
        b = r / 2.0 - half + 2.0 * half * rng.uniform(0.1, 0.9)
    return a, b, r - b


def _f_abc_a1(rng, th):
    r = cp_threshold(th) - 1.0
    b = r * rng.uniform(0.05, 0.95)
    return 1.0, b, r - b


def _f_ab(rng, th):
    pth = cp_threshold(th)
    a = rng.uniform(1.0 + MARGIN, 2.4)
    b = rng.uniform(max(MARGIN, pth - a + MARGIN), 2.4)
    return a, b, 0.0


def _f_bc(rng, th):
    b = _log_uniform(rng, 0.2, 5.0)
    return 0.0, b, (1.0 + MARGIN + rng.uniform(0.0, 1.5)) / b


def _e_a(rng, th):
    pth = cp_threshold(th)
    return rng.uniform(pth + MARGIN, 2.5), 0.0, 0.0


def _e_b(rng, th):
    pth = cp_threshold(th)
    return 1.0, rng.uniform(pth - 1.0 + MARGIN, 2.5), 0.0


def _e_ab(rng, th):
    pth = cp_threshold(th)
    a = 1.0 + (pth - 1.0) * rng.uniform(0.1, 0.9)
    return a, pth - a, 0.0


def _e_t(rng, th):
    pth = cp_threshold(th)
    while True:
        a = rng.uniform(0.05, 0.95)
        t = _log_uniform(rng, 0.2, 5.0)
        b, c = (1.0 - a) * t, (1.0 - a) / t
        if a + b + c > pth + MARGIN:
            return a, b, c


def _v_p00(rng, th):
    return cp_threshold(th), 0.0, 0.0


def _v_10c(rng, th):
    return 1.0, 0.0, cp_threshold(th) - 1.0


def _v_1b0(rng, th):
    return 1.0, cp_threshold(th) - 1.0, 0.0


def boundary_point(theta: float, t: float) -> tuple[float, float, float]:
    """The curve a + b + c = p_theta, b*c = (1 - a)^2, 0 <= a <= 1, with
    sqrt(b/c) = t."""
    pth = cp_threshold(theta)
    q = 1.0 - t + t * t
    return 1.0 - (pth - 1.0) * t / q, (pth - 1.0) * t * t / q, (pth - 1.0) / q


def _v_param_t(rng, th):
    return boundary_point(th, _log_uniform(rng, 0.2, 5.0))


def _v_0t(rng, th):
    t = _log_uniform(rng, 0.2, 5.0)
    return 0.0, t, 1.0 / t


def _surface_a_gt_1(rng, th):
    """b*c = (a - 1)^2 with 1 < a < p_theta and a + b + c > p_theta: the
    mirror of the E_T surface, which lies in the interior of the body."""
    pth = cp_threshold(th)
    while True:
        a = 1.0 + (pth - 1.0) * rng.uniform(0.1, 0.9)
        t = _log_uniform(rng, 0.2, 5.0)
        b, c = (a - 1.0) * t, (a - 1.0) / t
        if a + b + c > pth + MARGIN * (pth - 1.0):
            return a, b, c


#: stratum -> (theta branch, sampler)
SAMPLERS = {
    "interior": ("any", _interior),
    "exterior": ("any", _exterior),
    "f_abc": ("any", _f_abc),
    "f_abc_a1": ("middle", _f_abc_a1),
    "f_ab": ("any", _f_ab),
    "f_bc": ("any", _f_bc),
    "e_a": ("any", _e_a),
    "e_b": ("any", _e_b),
    "e_ab": ("any", _e_ab),
    "e_t": ("any", _e_t),
    "v_p00": ("any", _v_p00),
    "v_10c": ("middle", _v_10c),
    "v_1b0": ("middle", _v_1b0),
    "v_param_t": ("any", _v_param_t),
    "v_0t": ("any", _v_0t),
    "surface_a_gt_1": ("any", _surface_a_gt_1),
    # the same vertices off the analytic branch, reached by the numeric probe
    "v_10c_outer": ("outer", _v_10c),
    "v_1b0_outer": ("outer", _v_1b0),
}


def draw_point(rng: random.Random, stratum: str) -> tuple[float, float, float, float]:
    """(a, b, c, theta) inside ``stratum``."""
    branch, sampler = SAMPLERS[stratum]
    theta = draw_theta(rng, branch)
    return (*sampler(rng, theta), theta)


def draw_witness(rng: random.Random, stratum: str) -> tuple[float, float]:
    """(theta, b) for the edge-state witness: theta in (0, pi/3) or
    (-pi/3, 0) by the stratum's sign, log b uniform over the stratum's half
    of [log 0.05, log 20]."""
    sign, half = stratum.split("_")  # e.g. 'pos_small'
    theta = draw_theta(rng, "middle")
    theta = abs(theta) if sign == "pos" else -abs(theta)
    lo, hi = (0.05, 1.0) if half == "small" else (1.0, 20.0)
    return theta, _log_uniform(rng, lo, hi)
