"""The four-parameter family of linear maps on 3x3 matrices.

A parameter tuple ``(a, b, c, theta)`` names one map of the family.  The map
acts on the diagonal of its argument through the cyclic coefficient pattern
(a, b, c) / (c, a, b) / (b, c, a) and multiplies the off-diagonal entries by
the phases -e^{i theta} (cyclic slots (0,1), (1,2), (2,0)) and -e^{-i theta}
(the transposed slots).  Its Choi matrix is the 9x9 block matrix with blocks
Phi(e_ij).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRangeError, ThetaOutOfRangeError
from .linalg import RESIDUE_ABS, Array, as_complex

_TWO_THIRDS_PI = 2.0 * math.pi / 3.0


def normalize_angle(theta: float) -> float:
    """Reduce an angle to the interval (-pi, pi]."""
    t = math.remainder(theta, 2.0 * math.pi)
    if t <= -math.pi:
        t += 2.0 * math.pi
    return t


@dataclass(frozen=True)
class MapParams:
    """The tuple (a, b, c, theta) naming one map of the family.

    a, b, c are finite nonnegative reals; theta is stored normalized to
    (-pi, pi].  Raises OutOfRangeError otherwise.
    """

    a: float
    b: float
    c: float
    theta: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise OutOfRangeError(f"{name} must be finite and nonnegative, got {v}")
        if not math.isfinite(self.theta):
            raise OutOfRangeError(f"theta must be finite, got {self.theta}")
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "theta", normalize_angle(float(self.theta)))

    @property
    def abc(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)


def cp_threshold(theta: float) -> float:
    """Largest root of x^3 - 3x - 2cos(3 theta): the diagonal weight at which
    the map becomes completely positive.

    Computed as the explicit three-way maximum of 2cos(theta + k*2pi/3); the
    value lies in [1, 2], is even in theta and has period 2pi/3.
    """
    return max(
        2.0 * math.cos(theta - _TWO_THIRDS_PI),
        2.0 * math.cos(theta),
        2.0 * math.cos(theta + _TWO_THIRDS_PI),
    )


def _family_matrix(a, b, c, corner: complex) -> Array:
    """The 9x9 shape of the family: diagonal pattern (a, c, b, b, a, c, c,
    b, a), ``corner`` at (0,4), (4,8), (8,0) and its conjugate at the
    transposed slots."""
    w = np.diag(np.array((a, c, b, b, a, c, c, b, a), dtype=complex))
    w[(0, 4, 8), (4, 8, 0)] = corner
    w[(4, 8, 0), (0, 4, 8)] = corner.conjugate()
    return w


def choi_matrix(p: MapParams) -> Array:
    """The 9x9 Choi matrix of the map named by ``p``: the family's shape
    with corner -e^{i theta}."""
    return _family_matrix(p.a, p.b, p.c, -complex(math.cos(p.theta), math.sin(p.theta)))


def pairing_value(a, c) -> float:
    """Bilinear pairing Tr(A C^t) of two Hermitian 9x9 matrices.

    Equals the entrywise (unconjugated) sum of products.  The imaginary
    residue must not exceed RESIDUE_ABS.  Raises OutOfRangeError when the sum
    overflows."""
    a = as_complex(a)
    c = as_complex(c)
    with np.errstate(over="ignore", invalid="ignore"):
        v = complex(np.sum(a * c))
    if not cmath.isfinite(v):
        raise OutOfRangeError(f"the pairing cannot be formed in finite doubles: it sums to {v}")
    if abs(v.imag) > RESIDUE_ABS:
        raise ValueError(f"pairing has imaginary residue {v.imag:.3e}")
    return v.real


def _edge_angle(theta: float) -> bool:
    """True iff 0 < |theta| < pi/3: the angles of the edge states, their
    witnesses and the copositive subtraction."""
    return 0.0 < abs(theta) < math.pi / 3.0


def edge_state(b: float, theta: float) -> Array:
    """The PPT entangled edge state with parameters (2cos theta, b, 1/b; theta),
    as its unnormalized Choi matrix.

    Defined for 0 < |theta| < pi/3 and b > 0; the matrix is PSD with PSD
    partial transpose and rank pair {8, 6}.
    """
    if not _edge_angle(theta):
        raise ThetaOutOfRangeError(f"edge state requires 0 < |theta| < pi/3, got {theta}")
    if not b > 0:
        raise OutOfRangeError(f"edge state requires b > 0, got {b}")
    return choi_matrix(MapParams(2.0 * math.cos(theta), b, 1.0 / b, theta))

