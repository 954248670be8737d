"""Facial structure of the convex body of positive parameter triples.

For a fixed angle with cp_threshold strictly between 1 and 2, the body
cut out by conditions (p1)/(p2) has four 2-dimensional faces, six kinds of
1-dimensional faces and four kinds of vertices.  One ordered face table of
(kind, membership, interior-of-face, t) rules, built from the predicate
bodies of ``positivity`` that work on floats and arrays alike, decides the
finest face containing a point: the first rule that holds wins, from the
exterior through the vertices, the 1- and 2-dimensional faces to the
interior, so lower-dimensional faces win within ``FACE_TOL``; the
spanning surface pieces E_T and V_PARAM_T need b, c > 0, not b, c >
``FACE_TOL``.  ``classify_face`` runs the table at one point,
``classify_faces`` over a grid.  The property table records which faces
carry the spanning / co-spanning / optimality properties; ``row_of``, a
point's row, is the only decider of spanning and co-spanning.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRangeError, UnsupportedThetaError
from .linalg import FACE_TOL, INCLUSION_SLACK, Array
from .maps import MapParams, cp_threshold, normalize_angle
from .positivity import on_sum_at, on_surface_at, positive_at, surface_sides


class FaceKind(enum.Enum):
    F_AB = "f_ab"
    F_AC = "f_ac"
    F_BC = "f_bc"
    F_ABC = "f_abc"
    E_A = "e_a"
    E_B = "e_b"
    E_C = "e_c"
    E_AB = "e_ab"
    E_AC = "e_ac"
    E_T = "e_t"
    V_P00 = "v_p00"
    V_10C = "v_10c"
    V_1B0 = "v_1b0"
    V_PARAM_T = "v_param_t"
    V_0T = "v_0t"
    INTERIOR = "interior"
    EXTERIOR = "exterior"


#: Kinds whose label carries a parameter value.
_PARAMETRIZED = {FaceKind.E_T, FaceKind.V_PARAM_T, FaceKind.V_0T}


@dataclass(frozen=True)
class FaceLabel:
    kind: FaceKind
    t_value: float | None = None
    interior_of_face: bool = True

    def __post_init__(self) -> None:
        if (self.t_value is not None) != (self.kind in _PARAMETRIZED):
            raise ValueError(f"t_value presence inconsistent with kind {self.kind}")


@dataclass(frozen=True)
class PropertyRow:
    """One row of the face property table."""

    spanning: bool
    co_spanning: bool
    optimal: bool
    co_optimal: bool

    @property
    def bi_spanning(self) -> bool:
        return self.spanning and self.co_spanning

    @property
    def bi_optimal(self) -> bool:
        return self.optimal and self.co_optimal


_ALL_N = PropertyRow(spanning=False, co_spanning=False, optimal=False, co_optimal=False)

#: Property table: constant on each face.
PROPERTY_TABLE: dict[FaceKind, PropertyRow] = {
    FaceKind.F_ABC: _ALL_N,
    FaceKind.F_AB: _ALL_N,
    FaceKind.F_AC: _ALL_N,
    FaceKind.F_BC: _ALL_N,
    FaceKind.E_A: _ALL_N,
    FaceKind.E_B: _ALL_N,
    FaceKind.E_C: _ALL_N,
    FaceKind.E_AB: PropertyRow(spanning=False, co_spanning=True, optimal=False, co_optimal=True),
    FaceKind.E_AC: PropertyRow(spanning=False, co_spanning=True, optimal=False, co_optimal=True),
    FaceKind.V_P00: PropertyRow(spanning=False, co_spanning=True, optimal=False, co_optimal=True),
    FaceKind.E_T: PropertyRow(spanning=True, co_spanning=False, optimal=True, co_optimal=False),
    FaceKind.V_0T: PropertyRow(spanning=True, co_spanning=False, optimal=True, co_optimal=False),
    FaceKind.V_10C: PropertyRow(spanning=False, co_spanning=True, optimal=True, co_optimal=True),
    FaceKind.V_1B0: PropertyRow(spanning=False, co_spanning=True, optimal=True, co_optimal=True),
    FaceKind.V_PARAM_T: PropertyRow(spanning=True, co_spanning=True, optimal=True, co_optimal=True),
}


def require_generic_theta(theta: float) -> float:
    """Return cp_threshold(theta), requiring it strictly inside (1, 2)."""
    pth = cp_threshold(theta)
    if not 1.0 + INCLUSION_SLACK < pth < 2.0 - INCLUSION_SLACK:
        raise UnsupportedThetaError(
            f"facial analysis requires cp_threshold in (1, 2); theta={theta} gives {pth}"
        )
    return pth


def boundary_parametrization(theta: float, t: float) -> tuple[float, float, float]:
    """The curve of parameter triples separating the sum-threshold face from
    the product-surface edges.

    For t > 0 with t^2 a finite double returns (a(t), b(t), c(t)) with
    a + b + c = cp_threshold(theta), 0 <= a <= 1 and b*c = (1 - a)^2.
    """
    pth = require_generic_theta(theta)
    if not (t > 0 and t * t < np.inf):  # t^2 = inf would give b = inf / inf
        raise OutOfRangeError(f"parametrization requires t > 0 with t^2 finite, got {t}")
    q = 1.0 - t + t * t
    a = 1.0 - (pth - 1.0) * t / q
    b = (pth - 1.0) * t * t / q
    c = (pth - 1.0) / q
    return (a, b, c)


def _face_table(a, b, c, pth):
    """The ordered face table at nonnegative (a, b, c), floats or arrays:
    (kind, membership, interior of the face, t) per kind, where the interior
    flag and t (None, or the label's parameter) are callables, computed only
    where their rule wins, so a grid, which reads kinds alone, computes
    none."""
    K, tol, q = FaceKind, FACE_TOL, pth - 1.0
    a0, b0, c0, a1 = a <= tol, b <= tol, c <= tol, abs(a - 1.0) <= tol  # bands of 0 and 1
    a_from_1 = a >= 1.0 - tol
    bc, square = surface_sides(a, b, c)
    on_sum, on_surface = on_sum_at(a, b, c, pth), on_surface_at(a, b, c)
    spanning_surface = (b > 0.0) & (c > 0.0) & on_surface  # no band: the curve reaches b, c < tol
    return (
        (K.EXTERIOR, np.logical_not(positive_at(a, b, c, pth)), lambda: False, None),
        (K.V_P00, (abs(a - pth) <= tol) & b0 & c0, lambda: True, None),
        (K.V_10C, a1 & b0 & (abs(c - q) <= tol), lambda: True, None),
        (K.V_1B0, a1 & (abs(b - q) <= tol) & c0, lambda: True, None),
        (K.V_0T, a0 & (b > tol) & (abs(bc - 1.0) <= tol), lambda: True, lambda: b),
        (K.V_PARAM_T, spanning_surface & on_sum, lambda: True, lambda: np.sqrt(b / c)),
        (K.E_A, b0 & c0 & (a >= pth - tol), lambda: a > pth + tol, None),
        (K.E_B, a1 & c0 & (b >= q - tol), lambda: b > q + tol, None),
        (K.E_C, a1 & b0 & (c >= q - tol), lambda: c > q + tol, None),
        (K.E_AB, c0 & (abs(a + b - pth) <= tol) & a_from_1 & (a <= pth + tol),
         lambda: (a > 1.0 + tol) & (a < pth - tol), None),
        (K.E_AC, b0 & (abs(a + c - pth) <= tol) & a_from_1 & (a <= pth + tol),
         lambda: (a > 1.0 + tol) & (a < pth - tol), None),
        # the spanning piece of the surface (0 <= a < 1), off the sum face
        (K.E_T, (a < 1.0 - tol) & spanning_surface & (a + b + c > pth + tol), lambda: True,
         lambda: b / (1.0 - a)),
        (K.F_AB, c0 & a_from_1 & (a + b >= pth - tol), lambda: (a > 1.0 + tol) & (a + b > pth + tol), None),
        (K.F_AC, b0 & a_from_1 & (a + c >= pth - tol), lambda: (a > 1.0 + tol) & (a + c > pth + tol), None),
        (K.F_BC, a0 & (bc >= 1.0 - tol), lambda: bc > 1.0 + tol, None),
        (K.F_ABC, on_sum, lambda: (b > tol) & (c > tol) & ((a > 1.0 + tol) | (bc > square + tol)), None),
        (K.INTERIOR, True, lambda: True, None),
    )


def classify_face(p: MapParams) -> FaceLabel:
    """Finest face of the positivity body containing ``p``: the first rule
    of the face table that holds at ``p``."""
    pth = require_generic_theta(p.theta)
    for kind, member, interior, t in _face_table(p.a, p.b, p.c, pth):
        if member:
            return FaceLabel(kind, None if t is None else float(t()), bool(interior()))


#: Kind of each code that ``classify_faces`` returns.
FACE_KINDS = tuple(FaceKind)


def classify_faces(a, b, c, theta: float) -> Array:
    """The face table over coordinate arrays (broadcast together) at one
    angle: the kind codes (indices into ``FACE_KINDS``), equal point by
    point to the kind of ``classify_face``.  Raises OutOfRangeError unless
    every coordinate is finite and nonnegative, and UnsupportedThetaError."""
    pth = require_generic_theta(normalize_angle(theta))
    a, b, c = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (a, b, c)))
    if not all(np.all(np.isfinite(x) & (x >= 0.0)) for x in (a, b, c)):
        raise OutOfRangeError("a, b and c must be finite and nonnegative")
    codes = np.empty(a.shape, np.int8)
    with np.errstate(all="ignore"):  # products near overflow
        # last rule first, so the first rule that holds writes last; the
        # interior's rule holds everywhere and fills every code
        for kind, member, _, _ in reversed(_face_table(a, b, c, pth)):
            codes[member] = FACE_KINDS.index(kind)
    return codes


def row_of(label: FaceLabel | FaceKind) -> PropertyRow:
    """Property-table row of a positive point's face, all false at INTERIOR."""
    kind = label.kind if isinstance(label, FaceLabel) else label
    return PROPERTY_TABLE.get(kind, _ALL_N)
