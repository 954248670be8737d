"""Product vectors annihilated by the pairing, and the rank evidence behind
the spanning and co-spanning verdicts.

A product vector xi (x) eta is in the kernel of a positive map when the map
applied to the projector of xi kills the conjugate of eta.  On the boundary
pieces of the positivity body the kernel is known in closed form and is
sampled at fixed phase choices.

Each point gets one record, ``_KernelPoint`` (its docstring lists what it
holds), built once and cached by its parameters.  The row alone decides
spanning and co-spanning; the sample's rank, and the gap around the rank
cut, are evidence beside it.  The record is the one per-point cache: every
function here, and the optimality code, reads it.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, NotPositiveMapError, UnsupportedCaseError
from .faces import FaceKind, FaceLabel, PropertyRow, classify_face, require_generic_theta, row_of
from .linalg import INCLUSION_SLACK, RANK_REL, RESIDUE_REL, Array
from .maps import MapParams, choi_matrix
from .positivity import _apply_kernel, _kernel_matrix, is_positive

#: Unimodular phase samples of the kernel families: pairs feed the
#: three-vector boundary families, triples the equal-modulus family.
DEFAULT_PAIRS = ((1.0, 1.0), (1.0, -1.0), (1.0, 1j))
DEFAULT_TRIPLES = ((1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1j, -1j))

#: Richer deterministic samples for span computations: the equal-modulus
#: family spans a 7-dimensional subspace, so at least 7 generic triples are
#: needed to saturate it.
GENERIC_PAIRS = DEFAULT_PAIRS + tuple(
    (1.0, cmath.exp(1j * t)) for t in (0.8, 2.1, -0.9)
)
GENERIC_TRIPLES = DEFAULT_TRIPLES + tuple(
    (1.0, cmath.exp(1j * u), cmath.exp(1j * v))
    for u, v in ((0.7, -1.3), (-2.0, 0.4), (1.9, 2.6), (0.3, -2.8), (-1.1, 1.5))
)


def _in_kernel(w: Array, xi: Array, eta: Array) -> Array:
    """Whether Phi(xi xi*) annihilates conj(eta), to the residue
    RESIDUE_REL |xi|^2 |eta|, at the map with Choi matrix ``w``, for each
    row pair of the (n, 3) nonzero factors ``xi`` and ``eta``, with one
    kernel matrix and one batched residue.  The residue has degree 1 in W,
    2 in xi and 1 in eta, so it is taken on factors scaled to unit largest
    entry and on W over its largest entry, against the bound scaled alike:
    no coordinate up to the largest double overflows it."""
    top = np.abs(w).max()
    xi = xi / np.abs(xi).max(axis=1, keepdims=True)
    eta = eta / np.abs(eta).max(axis=1, keepdims=True)
    images = _apply_kernel(_kernel_matrix(w / top), xi[:, :, None] * xi.conj()[:, None, :])
    residue = np.linalg.norm(images @ eta.conj()[:, :, None], axis=(1, 2))
    scale = np.sum(np.abs(xi) ** 2, axis=1) * np.linalg.norm(eta, axis=1)
    return residue <= RESIDUE_REL * scale / top


# ---------------------------------------------------------------------------
# Closed-form kernel families on the boundary cases.  Each returns its
# vectors as (xi, eta) rows of three complex scalars each.
# ---------------------------------------------------------------------------


def _cyclic(x0: complex, x1: complex, y0: complex, y1: complex) -> list[tuple]:
    """The three cyclic shifts of (x0, x1, 0) (x) (y0, y1, 0)."""
    return [((x0, x1, 0.0), (y0, y1, 0.0)), ((x1, 0.0, x0), (y1, 0.0, y0)), ((0.0, x0, x1), (0.0, y0, y1))]


def _surface_family(p: MapParams, alpha: complex, beta: complex) -> list[tuple]:
    """Kernel vectors on the surface b*c = (1 - a)^2 with 0 < a <= 1 (a
    factor vanishes where b or c does)."""
    a, b, c = p.abc
    e = cmath.exp(-1j * p.theta)
    root = math.sqrt(max(1.0 - a, 0.0))
    al, be = complex(alpha), complex(beta)
    return _cyclic(b**0.25 * al, c**0.25 * be, al.conjugate() * e * root, be.conjugate() * math.sqrt(b))


def _copositive_family(p: MapParams, alpha: complex, beta: complex) -> list[tuple]:
    """Kernel vectors at a = 0, b*c = 1."""
    al, be = complex(alpha), complex(beta)
    return _cyclic(al, be, al.conjugate(), cmath.exp(1j * p.theta) * be.conjugate() * p.b)


_OMEGA = cmath.exp(2j * math.pi / 3)


def _phase_twist(theta: float) -> tuple[complex, complex]:
    """Second-factor phase twist of the equal-modulus kernel family, chosen
    by the branch of theta.  Undefined at |theta| = pi/3 (threshold 1)."""
    third = math.pi / 3.0
    if -math.pi < theta < -third:
        return _OMEGA.conjugate(), _OMEGA
    if -third < theta < third:
        return 1.0 + 0j, 1.0 + 0j
    if third < theta <= math.pi:
        return _OMEGA, _OMEGA.conjugate()
    raise UnsupportedCaseError(f"no phase branch at theta={theta}")


def _equal_modulus_vector(theta: float, alpha: complex, beta: complex, gamma: complex) -> tuple:
    """Kernel vector (alpha, beta, gamma) (x) twisted conjugate, valid on the
    sum-threshold face."""
    u, v = _phase_twist(theta)
    return (alpha, beta, gamma), (np.conj(alpha), np.conj(beta) * u, np.conj(gamma) * v)


def _axis_vectors(choi: Array) -> list[tuple]:
    """Coordinate kernel vectors e_i (x) e_j, one for each entry 3i + j of
    the Choi diagonal (the diagonal of the map on e_i e_i*) at most
    INCLUSION_SLACK."""
    basis = np.eye(3, dtype=complex)
    return [(basis[k // 3], basis[k % 3]) for k in np.flatnonzero(choi.diagonal().real <= INCLUSION_SLACK)]


#: Closed-form kernel case of each face: (i) the surface off the sum face,
#: (ii) the surface on the sum face, (iii) a = 0 with b*c = 1, (iv) the rest
#: of the sum face.
_KERNEL_CASE = {
    **dict.fromkeys((FaceKind.E_T, FaceKind.E_B, FaceKind.E_C), "i"),
    **dict.fromkeys((FaceKind.V_PARAM_T, FaceKind.V_1B0, FaceKind.V_10C), "ii"),
    FaceKind.V_0T: "iii",
    **dict.fromkeys((FaceKind.F_ABC, FaceKind.E_AB, FaceKind.E_AC, FaceKind.V_P00), "iv"),
}


#: The face's own coordinates of a point labelled with each kind, from its
#: (a, b, c) and cp_threshold: a vertex takes all three, E_AB and E_AC put b
#: (or c) on the sum face, and every other face sets what its rule pins to
#: 0 or 1 to exactly that value (kinds not listed pin nothing).  The face
#: table puts a point within FACE_TOL of a face on that face, so its kernel
#: is sampled there.
_ON_FACE = {
    FaceKind.V_P00: lambda a, b, c, pth: (pth, 0.0, 0.0),
    FaceKind.V_10C: lambda a, b, c, pth: (1.0, 0.0, pth - 1.0),
    FaceKind.V_1B0: lambda a, b, c, pth: (1.0, pth - 1.0, 0.0),
    FaceKind.V_0T: lambda a, b, c, pth: (0.0, b, c),
    FaceKind.E_A: lambda a, b, c, pth: (a, 0.0, 0.0),
    FaceKind.E_B: lambda a, b, c, pth: (1.0, b, 0.0),
    FaceKind.E_C: lambda a, b, c, pth: (1.0, 0.0, c),
    FaceKind.E_AB: lambda a, b, c, pth: (a, pth - a, 0.0),
    FaceKind.E_AC: lambda a, b, c, pth: (a, 0.0, pth - a),
    FaceKind.F_AB: lambda a, b, c, pth: (a, b, 0.0),
    FaceKind.F_AC: lambda a, b, c, pth: (a, 0.0, c),
    FaceKind.F_BC: lambda a, b, c, pth: (0.0, b, c),
}


def _case_vectors(p: MapParams, case: str | None, choi: Array) -> tuple[Array, Array]:
    """The (n, 3) factors xi and eta of the case's kernel vectors at the
    generic phases ``GENERIC_PAIRS`` and ``GENERIC_TRIPLES``, plus the
    coordinate vectors of the Choi matrix ``choi`` of ``p`` (only those off
    the cases), stacked in that order,
    without the rows whose xi or eta vanishes.  Rich enough for span
    computations; for strictly interior maps possibly empty."""
    rows: list[tuple] = []
    if case in ("i", "ii"):
        for al, be in GENERIC_PAIRS:
            rows.extend(_surface_family(p, al, be))
    if case == "iii":
        for al, be in GENERIC_PAIRS:
            rows.extend(_copositive_family(p, al, be))
    if case in ("ii", "iv"):
        rows.extend(_equal_modulus_vector(p.theta, *phases) for phases in GENERIC_TRIPLES)
    rows.extend(_axis_vectors(choi))
    pairs = np.array(rows, dtype=complex).reshape(-1, 2, 3)
    pairs = pairs[np.any(pairs != 0, axis=2).all(axis=1)]
    return pairs[:, 0], pairs[:, 1]


# ---------------------------------------------------------------------------
# Spanning / co-spanning verdicts with evidence.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpanningReport:
    """The face row's verdict plus the rank evidence of the point's kernel
    sample (partially conjugated for co-spanning): its ``rank`` and the gap
    around the rank cut, the singular values on either side of RANK_REL
    relative to the largest, padded with zeros to nine.  ``largest_dropped``
    is None at rank 9; all three are None when the sample is empty."""

    has_property: bool
    case: str | None
    rank: int | None
    smallest_kept: float | None
    largest_dropped: float | None

    def __bool__(self) -> bool:
        return self.has_property


def _report(verdict: bool, case: str | None, tensors: Array) -> SpanningReport:
    """The report, from one SVD of the (n, 9) ``tensors`` of the sample
    (partially conjugated for co-spanning)."""
    if not len(tensors):
        return SpanningReport(verdict, case, None, None, None)
    s = np.linalg.svd(tensors, compute_uv=False)
    s = np.concatenate([s / s[0], np.zeros(9 - len(s))])
    rank = int(np.count_nonzero(s > RANK_REL))
    dropped = float(s[rank]) if rank < 9 else None
    return SpanningReport(verdict, case, rank, float(s[rank - 1]), dropped)


@dataclass(frozen=True)
class _KernelPoint:
    """What the kernel code knows about one positive map, the one cache per
    point: its face, the face's property-table row (all false at INTERIOR),
    the point at the face's own coordinates (``_ON_FACE``), its kernel case,
    and there its read-only Choi matrix ``choi``, its generic kernel sample
    as the read-only (n, 3) factors ``xi`` and ``eta`` (``_case_vectors``,
    checked against ``choi`` in one batch), the sample's read-only (n, 9)
    tensors xi (x) eta, and its spanning and co-spanning reports, the
    latter from the partial conjugates xi (x) conj(eta)."""

    face: FaceLabel
    row: PropertyRow
    params: MapParams
    case: str | None
    choi: Array
    xi: Array
    eta: Array
    tensors: Array
    spanning: SpanningReport
    co_spanning: SpanningReport


@functools.lru_cache(maxsize=32)
def _kernel_point(p: MapParams) -> _KernelPoint:
    """The record of ``p``, built once per point.  Raises
    UnsupportedThetaError at an endpoint angle and NotPositiveMapError when
    the map is not positive."""
    pth = require_generic_theta(p.theta)
    if not is_positive(p):
        raise NotPositiveMapError(f"map {p} is not positive")
    face = classify_face(p)
    row = row_of(face)
    on_face = _ON_FACE.get(face.kind)
    params = p if on_face is None else MapParams(*on_face(*p.abc, pth), p.theta)
    case = _KERNEL_CASE.get(face.kind)
    choi = choi_matrix(params)
    xi, eta = _case_vectors(params, case, choi)
    member = _in_kernel(choi, xi, eta)
    if not member.all():
        source = "axis" if case is None else f"case {case} family"
        i = int(np.argmin(member))  # the first vector that failed
        raise InternalConsistencyError(
            f"{source} vector xi={xi[i]}, eta={eta[i]} failed kernel membership for {params}"
        )
    tensors = (xi[:, :, None] * eta[:, None, :]).reshape(-1, 9)
    conjugates = (xi[:, :, None] * eta.conj()[:, None, :]).reshape(-1, 9)
    for x in (choi, xi, eta, tensors):
        x.flags.writeable = False  # shared by every caller of the cache
    return _KernelPoint(
        face, row, params, case, choi, xi, eta, tensors,
        _report(row.spanning, case, tensors), _report(row.co_spanning, case, conjugates),
    )


def has_spanning_property(p: MapParams) -> SpanningReport:
    """Spanning verdict (kernel spans the 9-dimensional tensor space).

    The verdict is the face row's spanning flag: true on E_T, V_0T and
    V_PARAM_T (the surface b*c = (1 - a)^2, 0 <= a < 1), false elsewhere.
    Evidence: the rank of the sampled kernel and the gap around the rank
    cut.  The report is the point's record's.  Raises NotPositiveMapError
    when the map is not positive: spanning is defined only for positive
    maps.
    """
    return _kernel_point(p).spanning


def has_cospanning_property(p: MapParams) -> SpanningReport:
    """Co-spanning verdict (partial conjugates of the kernel span).

    The verdict is the face row's co-spanning flag: true on the
    sum-threshold pieces V_PARAM_T, V_1B0, V_10C, E_AB, E_AC and V_P00,
    false elsewhere.  Evidence: the rank of the partially conjugated sample
    and the gap around the rank cut.  The report is the point's record's.
    Raises NotPositiveMapError when the map is not positive: co-spanning is
    defined only for positive maps.
    """
    return _kernel_point(p).co_spanning
