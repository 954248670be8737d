"""Facial structure of the convex body of positive parameter triples.

For a fixed angle with cp_threshold strictly between 1 and 2, the body
cut out by conditions (p1)/(p2) has four 2-dimensional faces, six kinds of
1-dimensional faces and four kinds of vertices.  ``classify_face`` returns
the finest face containing a point from the shared predicates ``on_sum`` and
``on_surface`` and ``FACE_TOL`` (see ``positivity``); the property table
records which faces carry the spanning / co-spanning / optimality properties.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import NotAFaceError, UnsupportedThetaError
from .maps import MapParams, cp_threshold
from .positivity import FACE_TOL, is_positive, on_sum, on_surface


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
    if not 1.0 + 1e-12 < pth < 2.0 - 1e-12:
        raise UnsupportedThetaError(
            f"facial analysis requires cp_threshold in (1, 2); theta={theta} gives {pth}"
        )
    return pth


def boundary_parametrization(theta: float, t: float) -> tuple[float, float, float]:
    """The curve of parameter triples separating the sum-threshold face from
    the product-surface edges.

    For t > 0 returns (a(t), b(t), c(t)) with a + b + c = cp_threshold(theta),
    0 <= a <= 1 and b*c = (1 - a)^2.
    """
    pth = require_generic_theta(theta)
    if not t > 0:
        raise ValueError(f"parametrization requires t > 0, got {t}")
    q = 1.0 - t + t * t
    a = 1.0 - (pth - 1.0) * t / q
    b = (pth - 1.0) * t * t / q
    c = (pth - 1.0) / q
    return (a, b, c)


def _near(x: float, y: float) -> bool:
    return abs(x - y) <= FACE_TOL


def classify_face(p: MapParams) -> FaceLabel:
    """Finest face of the positivity body containing ``p``.

    Lower-dimensional faces win when several membership predicates hold
    within ``FACE_TOL``; non-positive points classify as ``exterior``.
    """
    pth = require_generic_theta(p.theta)
    if not is_positive(p):
        return FaceLabel(FaceKind.EXTERIOR, interior_of_face=False)

    a, b, c = p.abc
    s = a + b + c
    tol = FACE_TOL

    # vertices
    if _near(a, pth) and _near(b, 0.0) and _near(c, 0.0):
        return FaceLabel(FaceKind.V_P00)
    if _near(a, 1.0) and _near(b, 0.0) and _near(c, pth - 1.0):
        return FaceLabel(FaceKind.V_10C)
    if _near(a, 1.0) and _near(b, pth - 1.0) and _near(c, 0.0):
        return FaceLabel(FaceKind.V_1B0)
    if _near(a, 0.0) and b > tol and _near(b * c, 1.0):
        return FaceLabel(FaceKind.V_0T, t_value=b)
    if b > tol and c > tol and on_surface(p) and on_sum(p):
        return FaceLabel(FaceKind.V_PARAM_T, t_value=math.sqrt(b / c))

    # 1-dimensional faces
    if _near(b, 0.0) and _near(c, 0.0) and a >= pth - tol:
        return FaceLabel(FaceKind.E_A, interior_of_face=a > pth + tol)
    if _near(a, 1.0) and _near(c, 0.0) and b >= pth - 1.0 - tol:
        return FaceLabel(FaceKind.E_B, interior_of_face=b > pth - 1.0 + tol)
    if _near(a, 1.0) and _near(b, 0.0) and c >= pth - 1.0 - tol:
        return FaceLabel(FaceKind.E_C, interior_of_face=c > pth - 1.0 + tol)
    if _near(c, 0.0) and _near(a + b, pth) and 1.0 - tol <= a <= pth + tol:
        return FaceLabel(FaceKind.E_AB, interior_of_face=1.0 + tol < a < pth - tol)
    if _near(b, 0.0) and _near(a + c, pth) and 1.0 - tol <= a <= pth + tol:
        return FaceLabel(FaceKind.E_AC, interior_of_face=1.0 + tol < a < pth - tol)
    # the spanning piece of the surface (0 <= a < 1), off the sum face
    if a < 1.0 - tol and b > tol and c > tol and s > pth + tol and on_surface(p):
        return FaceLabel(FaceKind.E_T, t_value=b / (1.0 - a))

    # 2-dimensional faces
    if _near(c, 0.0) and a >= 1.0 - tol and a + b >= pth - tol:
        return FaceLabel(FaceKind.F_AB, interior_of_face=a > 1.0 + tol and a + b > pth + tol)
    if _near(b, 0.0) and a >= 1.0 - tol and a + c >= pth - tol:
        return FaceLabel(FaceKind.F_AC, interior_of_face=a > 1.0 + tol and a + c > pth + tol)
    if _near(a, 0.0) and b * c >= 1.0 - tol:
        return FaceLabel(FaceKind.F_BC, interior_of_face=b * c > 1.0 + tol)
    if on_sum(p):
        strict = b > tol and c > tol and (a > 1.0 + tol or b * c > (1.0 - a) ** 2 + tol)
        return FaceLabel(FaceKind.F_ABC, interior_of_face=strict)

    return FaceLabel(FaceKind.INTERIOR)


def face_properties(label: FaceLabel | FaceKind) -> PropertyRow:
    """Property-table row for a proper face."""
    kind = label.kind if isinstance(label, FaceLabel) else label
    row = PROPERTY_TABLE.get(kind)
    if row is None:
        raise NotAFaceError(f"{kind} is not a proper face")
    return row
