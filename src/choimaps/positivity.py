"""Closed-form positivity / complete (co)positivity classification and the
independent numerical oracles that audit it.

The closed forms: complete positivity holds iff a >= cp_threshold(theta),
complete copositivity iff b*c >= 1, and positivity iff both

    (p1)  a + b + c >= cp_threshold(theta)
    (p2)  a <= 1  implies  b*c >= (1 - a)^2.

The boundary pieces of the body are the equality cases: ``on_sum`` and
``on_surface``, within the one face-band tolerance ``FACE_TOL``.

The block-positivity oracle minimizes the smallest eigenvalue of the map
applied to rank-1 projectors over a deterministic grid on the unit sphere of
C^3 followed by Nelder-Mead refinement, and never trusts a closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import NegativeInputError, NotApplicableError
from .linalg import Array, hermitian_eigenvalues, partial_transpose, require_hermitian
from .maps import (
    MapParams,
    choi_matrix,
    cp_threshold,
    map_from_choi,
    pairing,
)

INCLUSION_SLACK = 1e-12  # closed sets: boundary points classify as members
FACE_TOL = 1e-9  # half-width of the band around each boundary piece


def is_completely_positive(p: MapParams) -> bool:
    """True iff a >= cp_threshold(theta) (so the Choi matrix is PSD)."""
    return p.a >= cp_threshold(p.theta) - INCLUSION_SLACK


def is_completely_copositive(p: MapParams) -> bool:
    """True iff b*c >= 1 (so the partially transposed Choi matrix is PSD)."""
    return p.b * p.c >= 1.0 - INCLUSION_SLACK


def is_positive(p: MapParams) -> bool:
    """True iff the map is positive: condition (p1) and, when a <= 1, (p2)."""
    if p.a + p.b + p.c < cp_threshold(p.theta) - INCLUSION_SLACK:
        return False
    if p.a > 1.0 + INCLUSION_SLACK:
        return True
    return p.b * p.c >= (1.0 - p.a) ** 2 - INCLUSION_SLACK


def on_sum(p: MapParams) -> bool:
    """Equality case of (p1): |a + b + c - cp_threshold(theta)| <= FACE_TOL."""
    return abs(p.a + p.b + p.c - cp_threshold(p.theta)) <= FACE_TOL


def on_surface(p: MapParams) -> bool:
    """Equality case of (p2): |b*c - (1 - a)^2| <= FACE_TOL with a <= 1 + FACE_TOL
    (the mirror branch b*c = (a - 1)^2, a > 1 is not on the boundary)."""
    return p.a <= 1.0 + FACE_TOL and abs(p.b * p.c - (1.0 - p.a) ** 2) <= FACE_TOL


# ---------------------------------------------------------------------------
# The degree-3 form controlling positivity, and its gradient bookkeeping.
# ---------------------------------------------------------------------------


def cubic_form(p: MapParams, x: float, y: float, z: float) -> float:
    """The homogeneous degree-3 form whose nonnegativity on the closed
    octant is equivalent to positivity of the map.

    Equals the determinant of ``apply_map`` evaluated on the rank-1 projector
    of (x', y', z') with |x'|^2 = x etc. (phases cancel in the determinant).
    """
    if x < 0 or y < 0 or z < 0:
        raise NegativeInputError(f"cubic form requires nonnegative inputs, got {(x, y, z)}")
    a, b, c = p.abc
    l1 = a * x + b * y + c * z
    l2 = c * x + a * y + b * z
    l3 = b * x + c * y + a * z
    return (
        l1 * l2 * l3
        - 2.0 * math.cos(3.0 * p.theta) * x * y * z
        - l1 * y * z
        - l2 * z * x
        - l3 * x * y
    )


@dataclass(frozen=True)
class FormCoefficients:
    """Coefficients of the three quadratic forms giving the gradient of
    ``cubic_form``; p = 3abc exactly and
    2s = a^3 + b^3 + c^3 + 3abc - 3a - 2cos(3 theta)."""

    p: float
    q: float
    r: float
    s: float


def form_coefficients(p: MapParams) -> FormCoefficients:
    """Compute the gradient quadratic-form coefficients for ``p``."""
    a, b, c = p.abc
    return FormCoefficients(
        p=3.0 * a * b * c,
        q=a * a * c + b * b * a + c * c * b - c,
        r=a * a * b + b * b * c + c * c * a - b,
        s=(a**3 + b**3 + c**3 + 3.0 * a * b * c - 3.0 * a - 2.0 * math.cos(3.0 * p.theta)) / 2.0,
    )


def _gradient_matrices(fc: FormCoefficients) -> tuple[Array, Array, Array]:
    p, q, r, s = fc.p, fc.q, fc.r, fc.s
    gx = np.array([[p, r, q], [r, q, s], [q, s, r]])
    gy = np.array([[r, q, s], [q, p, r], [s, r, q]])
    gz = np.array([[q, s, r], [s, r, q], [r, q, p]])
    return gx, gy, gz


def cubic_form_gradient(p: MapParams, x: float, y: float, z: float) -> tuple[float, float, float]:
    """Gradient of ``cubic_form`` as the three quadratic forms in (x, y, z)."""
    v = np.array([x, y, z], dtype=float)
    gx, gy, gz = _gradient_matrices(form_coefficients(p))
    return (float(v @ gx @ v), float(v @ gy @ v), float(v @ gz @ v))


def stationary_form_determinant(p: MapParams) -> float:
    """Determinant of the circulant matrix combining the three gradient
    forms at a stationary point.

    Returns the factored value (p - s)^2 * (t^3 - 3t - 2cos(3 theta)) with
    t = a + b + c, after asserting it agrees with the direct 3x3 determinant
    to 1e-9 relative.
    """
    fc = form_coefficients(p)
    d = fc.p + fc.q + fc.r
    e = fc.q + fc.r + fc.s
    m = np.array([[d, e, e], [e, d, e], [e, e, d]])
    direct = float(np.linalg.det(m))
    t = p.a + p.b + p.c
    closed = (fc.p - fc.s) ** 2 * (t**3 - 3.0 * t - 2.0 * math.cos(3.0 * p.theta))
    if abs(direct - closed) > 1e-9 * max(1.0, abs(closed)):
        raise AssertionError(
            f"stationary determinant mismatch: direct {direct!r} vs factored {closed!r}"
        )
    return closed


# ---------------------------------------------------------------------------
# Block-positivity oracle.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockPositivityReport:
    """Outcome of the grid + refinement minimization of the smallest
    eigenvalue of the map applied to rank-1 projectors.

    ``min_value`` is the refined minimum, ``argmin_xi``/``argmin_eta`` the
    unit product-vector factors witnessing it, ``grid_points`` the size of
    the coarse scan and ``refined`` whether Nelder-Mead improved on it.
    """

    min_value: float
    argmin_xi: Array
    argmin_eta: Array
    grid_points: int
    refined: bool

    CERTIFIED_NEGATIVE = -1e-6
    CERTIFIED_NONNEGATIVE = -1e-9

    @property
    def status(self) -> str:
        """Tri-state verdict: 'negative', 'nonnegative' or 'inconclusive'."""
        if self.min_value < self.CERTIFIED_NEGATIVE:
            return "negative"
        if self.min_value >= self.CERTIFIED_NONNEGATIVE:
            return "nonnegative"
        return "inconclusive"


def _xi_from_angles(params) -> Array:
    f1, f2, s1, s2 = params
    return np.array(
        [
            math.cos(f1),
            math.sin(f1) * math.cos(f2) * complex(math.cos(s1), math.sin(s1)),
            math.sin(f1) * math.sin(f2) * complex(math.cos(s2), math.sin(s2)),
        ]
    )


@functools.lru_cache(maxsize=4)
def _sphere_grid(grid_n: int) -> tuple[Array, Array, Array]:
    """Deterministic grid on unit vectors of C^3 (first coordinate real).

    Returns (angle tuples, unit vectors, rank-1 projectors); the polar
    angles run over [0, pi/2] inclusive and the two phases over [0, 2pi).
    """
    phi = np.linspace(0.0, math.pi / 2.0, grid_n)
    psi = np.linspace(0.0, 2.0 * math.pi, grid_n, endpoint=False)
    f1, f2, s1, s2 = np.meshgrid(phi, phi, psi, psi, indexing="ij")
    angles = np.stack([f1.ravel(), f2.ravel(), s1.ravel(), s2.ravel()], axis=1)
    xi = np.stack(
        [
            np.cos(angles[:, 0]) + 0j,
            np.sin(angles[:, 0]) * np.cos(angles[:, 1]) * np.exp(1j * angles[:, 2]),
            np.sin(angles[:, 0]) * np.sin(angles[:, 1]) * np.exp(1j * angles[:, 3]),
        ],
        axis=1,
    )
    projectors = np.einsum("ni,nj->nij", xi, xi.conj())
    return angles, xi, projectors


def _map_on_projectors(w_blocks: Array, projectors: Array) -> Array:
    """Batched application of the map with block tensor ``w_blocks`` to a
    stack of rank-1 projectors."""
    return np.einsum("nik,ijkl->njl", projectors, w_blocks)


def block_positivity_oracle(
    w, grid_n: int = 16, refine_steps: int = 200
) -> BlockPositivityReport:
    """Minimize the smallest eigenvalue of the map with Choi matrix ``w``
    applied to rank-1 projectors, over the unit sphere of C^3.

    A grid of ``grid_n`` points per angle axis (grid_n^4 cells) is scanned,
    then Nelder-Mead runs from the 10 best cells for at most ``refine_steps``
    iterations each.  The reported minimum is re-evaluated with the exact
    eigensolver at the winning point, and is independent of evaluation order
    (ties resolve to the lexicographically first cell).
    """
    w = require_hermitian(w)
    w_blocks = map_from_choi(w)
    angles, _, projectors = _sphere_grid(grid_n)
    values = np.linalg.eigvalsh(_map_on_projectors(w_blocks, projectors))[:, 0]

    def objective(params) -> float:
        xi = _xi_from_angles(params)
        n2 = float(np.vdot(xi, xi).real)
        if n2 < 1e-30:
            return float("inf")
        rho = np.outer(xi, xi.conj()) / n2
        return float(np.linalg.eigvalsh(np.einsum("ik,ijkl->jl", rho, w_blocks))[0])

    order = np.argsort(values, kind="stable")
    best_params = angles[order[0]]
    best_value = float(values[order[0]])
    refined = False
    for idx in order[:10]:
        res = minimize(
            objective,
            angles[idx],
            method="Nelder-Mead",
            options={"maxiter": refine_steps, "xatol": 1e-12, "fatol": 1e-14},
        )
        if res.fun < best_value:
            best_value = float(res.fun)
            best_params = np.asarray(res.x)
            refined = True

    xi = _xi_from_angles(best_params)
    xi = xi / np.linalg.norm(xi)
    evals, evecs = np.linalg.eigh(
        np.einsum("ik,ijkl->jl", np.outer(xi, xi.conj()), w_blocks)
    )
    # pairing(z z*, map) = <map(xi xi*) eta_bar, eta_bar>, so eta is the
    # conjugate of the minimizing eigenvector.
    eta = evecs[:, 0].conj()
    return BlockPositivityReport(
        min_value=float(evals[0]),
        argmin_xi=xi,
        argmin_eta=eta,
        grid_points=int(angles.shape[0]),
        refined=refined,
    )


# ---------------------------------------------------------------------------
# Indecomposability certificate.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndecomposabilityCertificate:
    """A PPT state with a strictly negative pairing against the map.

    ``state_params`` names the certificate state and ``value`` the pairing
    3a(cp_threshold(pi - theta) - 2) < 0.
    """

    state_params: MapParams
    value: float


def indecomposability_certificate(p: MapParams) -> IndecomposabilityCertificate | None:
    """Certify indecomposability of a map on the surface b*c = (1 - a)^2.

    Requires 0 < a <= 1, b, c > 0, ``on_surface``, and theta
    away from 0 (where the construction is not used).  Returns None when the
    pairing value is not negative (theta = +-pi/3 or +-pi, where the
    threshold equals 2); otherwise returns the PPT certificate state with
    parameters (cp_threshold(pi - theta), sqrt(c/b), sqrt(b/c); pi - theta)
    and the pairing value, verified PPT by eigensolve and cross-checked
    against the direct trace.
    """
    a, b, c = p.abc
    if abs(p.theta) <= 1e-12:
        raise NotApplicableError("certificate construction not applicable at theta = 0")
    if not (b > 0 and c > 0):
        raise NotApplicableError("certificate requires b, c > 0")
    if not 0 <= a <= 1 + 1e-12:
        raise NotApplicableError(f"certificate requires 0 <= a <= 1, got a={a}")
    if not on_surface(p):
        raise NotApplicableError("certificate requires b*c = (1-a)^2")

    theta_c = math.pi - p.theta
    pc = cp_threshold(theta_c)
    t = math.sqrt(c / b)
    state = MapParams(pc, t, 1.0 / t, theta_c)
    w = choi_matrix(state)
    if hermitian_eigenvalues(w)[0] < -1e-9:
        raise AssertionError("certificate state failed the PSD eigensolve check")
    if hermitian_eigenvalues(partial_transpose(w))[0] < -1e-9:
        raise AssertionError("certificate state failed the PPT eigensolve check")

    value = pairing(w, p)
    closed = 3.0 * a * (pc - 2.0)
    if abs(value - closed) > 1e-9 * max(1.0, abs(closed)):
        raise AssertionError(f"certificate pairing mismatch: {value} vs {closed}")
    if value >= -1e-12:
        return None
    return IndecomposabilityCertificate(state_params=state, value=value)
