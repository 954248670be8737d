"""Optimality analysis: which completely positive directions can be
subtracted from a map while it stays block-positive.

Candidate directions live in the orthocomplement of the sampled kernel
product vectors.  Per direction the largest subtractable weight equals the
infimum over product vectors of the ratio (pairing with the map) /
(pairing with the direction), which stays meaningful even where boundary
violations are cubically suppressed and the plain bisection-on-the-oracle
test loses resolution.  The probe first takes each direction's exact kernel
limit, the infimum along curves into the sampled kernel vectors, so a valid
upper bound.  Only a direction whose limit is above a tenth of
CERTIFIED_ZERO then gets ratios on the grid, and Dinkelbach rounds, each one
iteration of the oracle's descent (at most _ROUNDS per direction), from the
smaller of its best grid ratio and its limit; the first round tests whether
any product vector beats the limit.  On the outer optimal vertices every
limit is zero, and no grid is scanned.

A family Choi matrix is covariant (``positivity._COVARIANT``):
Phi(D X D*) = D Phi(X) D* for diagonal unitaries D (Cho, Kye and Lee, Linear
Algebra Appl. 171, 1992).  With D = diag(xi / |xi|), Phi(xi xi*) is then
D Phi(|xi| |xi|^T) D*, so the ratios solve one Hermitian eigenproblem per
moduli pattern |xi| (64 on the grid of 4096 cells) and rotate the direction
by D.  The two named vertices also get a closed-form optimality certificate
extracted from the probe families the proof uses.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InternalConsistencyError,
    OutOfRangeError,
    UnsupportedCaseError,
    UnsupportedThetaError,
)
from .faces import (
    FaceKind,
    FaceLabel,
    PropertyRow,
    face_properties,
    require_generic_theta,
)
from .linalg import CERTIFIED_SIGN, CERTIFIED_ZERO, EIG_FLOOR, FACE_TOL, HESSIAN_FLOOR, INCLUSION_SLACK
from .linalg import RANK_REL, RESIDUE_ABS, RESIDUE_REL, STATIONARY_REL, Array
from .maps import MapParams, choi_matrix, cp_threshold, pairing_value
from .positivity import (
    _COVARIANT,
    _apply_kernel,
    _descend,
    _distinct_starts,
    _kernel_matrix,
    _pairing_model,
    _sphere_grid,
    block_positivity_oracle,
    is_positive,
)
from .spanning import ProductVector, _kernel_point, has_cospanning_property, has_spanning_property
from .spanning import sampled_kernel_vectors

_MIN_DRAW_NORM = 1e-6  # ``_directions`` drops draws this close to zero
_DINKELBACH_STOP = 1e-9  # relative fall of the ratio below which the rounds stop
_TINY = 1e-300  # a top eigenvalue at or below it leaves the kernel limit infinite
_P_MAX = 10.0  # cap on each direction's subtractable weight in ``optimality_probe``
_GRID_N = 8  # the probe's sphere grid, and its oracle checks
_ROUNDS = 250  # cap on each direction's Dinkelbach rounds


def subtraction_budget(theta: float) -> float:
    """Largest copositive-subtraction weight keeping the rotated angle inside
    (-pi/3, pi/3): the positive solution of arg(e^{i theta} - t) = +-pi/3."""
    if not 0.0 < abs(theta) < math.pi / 3.0:
        raise UnsupportedThetaError(f"budget defined for 0 < |theta| < pi/3, got {theta}")
    return math.cos(theta) - abs(math.sin(theta)) / math.sqrt(3.0)


def orthocomplement_basis(p: MapParams) -> list[Array]:
    """Orthonormal basis of the orthogonal complement of the span of the
    sampled kernel product vectors.

    Empty for maps with the spanning property.  For the two vertices with
    first coordinate 1 and a single nonzero partner coordinate (in the
    middle theta branch) the basis is validated to be 2-dimensional,
    supported on the diagonal tensor slots with coordinates summing to zero.
    """
    vectors = sampled_kernel_vectors(p)
    if not vectors:
        raise UnsupportedCaseError(
            f"no known kernel structure for {p.abc} at theta={p.theta}"
        )
    # The subtraction penalty at a product vector z is |v^T z|^2, so the
    # orthogonality that keeps kernel pairings at zero is the unconjugated
    # bilinear one: v must annihilate every kernel tensor under v^T z.
    rows = np.array([pv.tensor() for pv in vectors])
    _, s, vh = np.linalg.svd(rows)
    rank = int(np.count_nonzero(s > RANK_REL * s[0]))
    basis = [vh[k].conj() for k in range(rank, 9)]

    if abs(p.theta) < math.pi / 3.0 and _kernel_point(p).face.kind in _VERTEX_SIDE:
        if len(basis) != 2:
            raise InternalConsistencyError(
                f"vertex orthocomplement at {p} has dimension {len(basis)}, not 2"
            )
        off = [k for k in range(9) if k not in (0, 4, 8)]
        for v in basis:
            off_max, total = float(np.abs(v[off]).max()), abs(v[0] + v[4] + v[8])
            if off_max > RESIDUE_REL or total > RESIDUE_REL:  # unit vectors: absolute is relative
                raise InternalConsistencyError(
                    f"vertex orthocomplement at {p} is not diagonal-slot with zero sum: "
                    f"off-diagonal {off_max!r}, slot sum {total!r}"
                )
    return basis


#: The two named vertices with first coordinate 1, by their nonzero partner.
_VERTEX_SIDE = {FaceKind.V_1B0: "b_side", FaceKind.V_10C: "c_side"}


# ---------------------------------------------------------------------------
# Analytic vertex optimality.
# ---------------------------------------------------------------------------


def _probe_families(theta: float, vertex: str):
    """Two one-parameter product-vector families whose pairings against the
    vertex map vanish to third order while pairing quadratically against
    diagonal-slot subtraction directions."""
    e_m = cmath.exp(-1j * theta)
    e_p = cmath.exp(1j * theta)
    if vertex == "b_side":
        fam1 = lambda t: (np.array([math.sqrt(t) * e_m, t, 0.0]), np.array([math.sqrt(t), 1.0, 0.0]))
        fam2 = lambda t: (np.array([0.0, math.sqrt(t) * e_m, t]), np.array([0.0, math.sqrt(t), 1.0]))
    elif vertex == "c_side":
        fam1 = lambda t: (np.array([0.0, t, math.sqrt(t) * e_p]), np.array([0.0, 1.0, math.sqrt(t)]))
        fam2 = lambda t: (np.array([t, math.sqrt(t) * e_p, 0.0]), np.array([1.0, math.sqrt(t), 0.0]))
    else:
        raise ValueError(f"vertex must be 'b_side' or 'c_side', got {vertex!r}")
    return fam1, fam2


def _diag_pairing_form(family) -> Array:
    """Hermitian 3x3 matrix of the quadratic form v -> pairing(z z*, V[v]) / t^2
    for diagonal-slot directions v, extracted by reading off the linear
    coefficient of the diagonal tensor slots of the family."""
    xi, eta = family(1.0)
    z = np.kron(xi, eta)
    ell = z[[0, 4, 8]]
    for t in (0.25, 2.0):
        xi, eta = family(t)
        zt = np.kron(xi, eta)[[0, 4, 8]]
        drift = float(np.abs(zt - t * ell).max())
        if drift > INCLUSION_SLACK * max(1.0, t):
            raise InternalConsistencyError(
                f"probe family diagonal slots are not linear in t: deviation {drift!r} at t={t}"
            )
    return np.outer(ell.conj(), ell)


def vertex_optimality_analytic(theta: float, vertex: str = "b_side") -> bool:
    """Closed-form optimality certificate for the vertex maps with first
    coordinate 1 (middle theta branch).

    Checks that the pairing of the probe families against the vertex map is
    a pure cubic with coefficient cp_threshold - 1, then that the two
    quadratic constraint forms combined with the zero-sum condition force
    every diagonal-slot subtraction direction to vanish.
    """
    if not abs(theta) < math.pi / 3.0:
        raise UnsupportedThetaError(
            f"analytic vertex certificate covers |theta| < pi/3, got {theta}"
        )
    pth = require_generic_theta(theta)
    families = _probe_families(theta, vertex)  # raises ValueError on any other vertex
    bc = (pth - 1.0, 0.0) if vertex == "b_side" else (0.0, pth - 1.0)
    w = choi_matrix(MapParams(1.0, *bc, theta))

    forms = []
    for family in families:
        # pairing against the vertex map: fit to a polynomial and require a
        # pure cubic with the expected leading coefficient
        ts = np.array([0.2, 0.5, 1.0, 1.7, 2.4])
        vals = []
        for t in ts:
            xi, eta = family(t)
            z = np.kron(xi, eta)
            vals.append(pairing_value(np.outer(z, z.conj()), w))
        coeffs = np.polynomial.polynomial.polyfit(ts, np.array(vals), 3)
        if np.abs(coeffs[:3]).max() > RESIDUE_ABS or abs(coeffs[3] - (pth - 1.0)) > RESIDUE_ABS:
            raise InternalConsistencyError(
                f"probe family pairing is not the expected cubic with leading {pth - 1.0!r}: {coeffs}"
            )
        forms.append(_diag_pairing_form(family))

    stack = np.vstack(forms + [np.ones((1, 3), dtype=complex)])
    smin = np.linalg.svd(stack, compute_uv=False)[-1]
    return bool(smin > CERTIFIED_ZERO)


# ---------------------------------------------------------------------------
# Numeric subtraction probe.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimalityProbeReport:
    """Largest subtractable weight found over the probed directions.

    ``max_subtractable`` is the minimum of finitely many evaluated ratios
    and exact kernel limits, so it is an upper bound on the weight that can
    be subtracted along its best direction, reproducible only to about
    _DINKELBACH_STOP relative.

    By the certified sign: 'optimal' needs every direction at or below
    CERTIFIED_ZERO; 'not_optimal' needs one above CERTIFIED_SIGN whose half
    subtraction the oracle certified nonnegative; else 'inconclusive'.
    """

    direction_count: int
    max_subtractable: float
    verdict: str
    witness_direction: Array | None = None
    verification: dict = field(default_factory=dict)


def _directions(dim: int, n: int) -> Array:
    """Deterministic low-discrepancy unit vectors in C^dim: the Kronecker
    sequence R_2dim (frac(1/2 + k g^-j), g^(2dim+1) = g + 1), paired by
    Box-Muller into complex Gaussians sqrt(-ln(1 - u1)) e^(2 pi i u2) and
    normalized.  Zero-norm draws are dropped, so exactly ``n`` return."""
    g = 2.0
    for _ in range(60):  # contracts to the root of g^(2dim+1) = g + 1
        g = (1.0 + g) ** (1.0 / (2 * dim + 1))
    u = (0.5 + np.arange(1, 2 * n + 5)[:, None] * g ** -np.arange(1.0, 2 * dim + 1)) % 1.0
    v = np.sqrt(-np.log1p(-u[:, 0::2])) * np.exp(2j * math.pi * u[:, 1::2])
    v = v[np.linalg.norm(v, axis=1) > _MIN_DRAW_NORM][:n]
    return v / np.linalg.norm(v, axis=1)[:, None]


def _ratio_on_grid(w: Array, matrices: Array, xi: Array, run: int) -> Array:
    """(ndir, n) largest subtractable weights 1/(b* A^+ b), A = Phi(xi xi*),
    b = m^T xi, for the (ndir, 3, 3) direction ``matrices`` at the (n, 3)
    unit vectors ``xi``: the largest p with A - p b b* PSD.  Eigenvalues of A
    below the eigenvalue floor EIG_FLOOR max(1, lambda_max) are raised to it,
    which only raises ratios: near a kernel vector the ratio of two vanishing
    terms is rounding noise, and the exact kernel limits cover those points.

    The Choi matrix ``w`` must vanish off ``_COVARIANT`` (every family Choi
    matrix does; InternalConsistencyError otherwise), so the map commutes
    with diagonal unitaries: with D = diag(xi / |xi|) (1 where xi_k = 0),
    A = D Phi(|xi| |xi|^T) D*, and b* A^+ b = (D* b)* Phi(|xi| |xi|^T)^+ (D* b).
    Each run of ``run`` consecutive vectors shares one |xi| (the phase copies
    of a ``_sphere_grid`` cell, or run 1 for any vectors), so ``eigh`` runs
    once per run, on the real moduli, and the phases rotate b instead.
    """
    if np.any(w[~_COVARIANT]):
        raise InternalConsistencyError("grid ratios need a Choi matrix that vanishes off the covariant slots")
    modulus = np.abs(xi)
    lead = modulus[::run]
    lam, u = np.linalg.eigh(_apply_kernel(_kernel_matrix(w), lead[:, :, None] * lead[:, None, :]))
    lam_floor = np.maximum(lam, EIG_FLOOR * np.maximum(lam[:, -1:], 1.0))
    phase = np.divide(xi, modulus, out=np.ones_like(xi), where=modulus > 0.0)
    rotated = (phase.conj() * (xi @ matrices)).reshape(len(matrices), len(lead), run, 3)
    beta2 = np.abs(rotated @ u.conj()) ** 2
    denom = np.sum(beta2 / lam_floor[:, None, :], axis=3).reshape(len(matrices), -1)
    with np.errstate(divide="ignore"):
        return np.where(denom > 0, 1.0 / denom, np.inf)


def _dinkelbach(w: Array, v: Array, xi: Array, ratios: Array, run: int, bound: float) -> float:
    """Smallest ratio of the direction ``v`` reached by Dinkelbach rounds (W.
    Dinkelbach, Management Science 13:492, 1967) from the ``_sphere_grid``
    vectors ``xi`` of phase-run length ``run`` with their ``ratios``: one
    ``_descend`` iteration on W - r v v*, r the smallest ratio so far, then
    the exact ratios at the new xi; no round raises r.  Stops after _ROUNDS
    rounds, when r falls by less than _DINKELBACH_STOP r, or at a tenth of
    the zero weight CERTIFIED_ZERO.
    r starts at min(best grid ratio, ``bound``), the direction's exact kernel
    limit (an infimum along curves into kernel vectors, so never below the
    true infimum): the first round asks whether any product vector beats it,
    and where the descended starts do not, the rounds stop at ``bound``.
    The starts are the best cells of the 20 best moduli patterns
    (``_distinct_starts``), so a descent drawn to a kernel vector (where the
    ratio only tends to its kernel limit) does not decide alone.
    """
    starts = _distinct_starts(ratios, xi, run, 20)
    xi, r = xi[starts], min(float(ratios[starts[0]]), bound)
    vv = np.outer(v, v.conj())
    for _ in range(_ROUNDS):
        if not CERTIFIED_ZERO / 10 < r < math.inf:
            break
        xi = _descend(w - r * vv, xi, 1)[0]
        r, previous = min(r, float(_ratio_on_grid(w, v.reshape(1, 3, 3), xi, 1).min())), r
        if r > previous - _DINKELBACH_STOP * previous:
            break
    return r


# -- exact ratio limits at the sampled kernel vectors -----------------------
#
# Near a kernel product vector z0, both the map pairing and the subtraction
# penalty vanish quadratically along curves z(s) = (xi0 + s dxi)(x)(eta0 +
# s deta), so the attainable ratios converge to Q2(d) / |L d|^2 where Q2 is
# the second-order term of the map pairing and L the first derivative of the
# penalty amplitude; Q2 is the descent's ``_pairing_model`` at y = conj(z0).
# Measuring this limit exactly avoids the eigenvalue noise floor that caps a
# direct grid descent around 1e-9.


#: One factor's real tangents x = (Re d, Im d) as a complex basis of the
#: conjugated factor: conj(d) = [I, -iI] x.
_CONJUGATE_BASIS = np.hstack([np.eye(3), -1j * np.eye(3)])[None]


def _kernel_models(w: Array, vectors: list[ProductVector], directions: Array) -> tuple[Array, Array, Array]:
    """The exact limits' ingredients at the (nonempty) sampled kernel
    ``vectors``, from one ``_pairing_model`` call over all of them: the
    eigendecompositions (mu, e) of the 12x12 real Hessians Q2 of the map
    pairing along the product manifold, in the coordinates
    x = (Re dxi, Im dxi, Re deta, Im deta), and the (nvec, ndir, 2, 12) real
    penalty rows of the linearized amplitudes v^T J x, one per direction v,
    with J the Jacobian of xi0 (x) eta0.  Raises InternalConsistencyError
    unless every vector is stationary: the gradient may not exceed
    STATIONARY_REL times the scale |W conj(z0)| |z0| (at least 1)."""
    a = np.array([pv.xi for pv in vectors]).conj()
    b = np.array([pv.eta for pv in vectors]).conj()
    jac, grad, q = _pairing_model(w, a, b, _CONJUGATE_BASIS, _CONJUGATE_BASIS)
    y = (a[:, :, None] * b[:, None, :]).reshape(len(vectors), 9)
    scale = np.maximum(1.0, np.linalg.norm(y @ w.T, axis=1) * np.linalg.norm(y, axis=1))
    slope = np.linalg.norm(grad, axis=1)
    for norm, bound in zip(slope, STATIONARY_REL * scale):
        if norm > bound:
            raise InternalConsistencyError(
                f"kernel point is not stationary on the product manifold: gradient norm {norm!r} "
                f"exceeds {bound!r}"
            )
    mu, e = np.linalg.eigh(q)
    amp = directions @ jac.conj()
    return mu, e, np.stack([amp.real, amp.imag], axis=2)


def _kernel_limit_ratio(mu: Array, e: Array, rows: Array) -> float:
    """Infimum of Q2 / |L d|^2 from the eigendecomposition of Q2 and the
    penalty rows L: zero when the penalty sees the Hessian kernel, otherwise
    the reciprocal largest eigenvalue of L Q2^+ L^T."""
    b = rows @ e
    mu_max = max(float(mu[-1]), 0.0)
    cut = max(HESSIAN_FLOOR * mu_max, INCLUSION_SLACK)
    null = mu <= cut
    row_scale = float(np.linalg.norm(rows))
    if row_scale < INCLUSION_SLACK:
        return math.inf
    if null.any() and float(np.linalg.norm(b[:, null])) > RANK_REL * row_scale:
        return 0.0
    pos = ~null
    if not pos.any():
        return math.inf
    m2 = (b[:, pos] / mu[pos]) @ b[:, pos].T
    top = float(np.linalg.eigvalsh(m2)[-1])
    return 1.0 / top if top > _TINY else math.inf


def optimality_probe(p: MapParams, n_directions: int = 64) -> OptimalityProbeReport:
    """Probe whether a completely positive direction can be subtracted from
    the map while keeping it block-positive.

    Directions sweep the unit sphere of the kernel orthocomplement (the full
    space when no kernel vector is known).  Per direction the measured
    quantity is the infimum over product vectors of the pairing ratio.  The
    exact limits at all kernel vectors come first, from one batched
    ``_kernel_models``; each is the infimum along curves into a kernel
    vector, so a valid upper bound.  A direction whose smallest limit is at
    most a tenth of CERTIFIED_ZERO keeps it, and needs no grid.  The others
    get their ratios on the grid of _GRID_N, in one ``_ratio_on_grid`` call
    (one eigensolve per moduli pattern, by covariance), and ``_dinkelbach``
    rounds from the smaller of the best grid ratio and the limit; the first
    round tests whether any product vector beats the limit.  No direction
    counts above ``_P_MAX``.  A candidate above the not-optimal threshold is
    re-verified against the block-positivity oracle.  Raises OutOfRangeError
    unless n_directions >= 1.
    """
    if n_directions < 1:
        raise OutOfRangeError(f"n_directions must be >= 1, got {n_directions}")
    w = choi_matrix(p)

    try:
        basis = orthocomplement_basis(p)
    except UnsupportedCaseError:
        basis = [np.eye(9, dtype=complex)[k] for k in range(9)]
    if not basis:
        return OptimalityProbeReport(
            direction_count=0,
            max_subtractable=0.0,
            verdict="optimal",
            verification={"reason": "empty orthocomplement (spanning property)"},
        )

    basis_mat = np.array(basis)  # (dim, 9)
    directions = _directions(len(basis), n_directions) @ basis_mat  # (ndir, 9)
    per_direction = np.full(len(directions), math.inf)
    vectors = sampled_kernel_vectors(p)
    if vectors:
        mu, e, rows = _kernel_models(w, vectors, directions)
        for d in range(len(directions)):
            for k in range(len(vectors)):
                per_direction[d] = min(per_direction[d], _kernel_limit_ratio(mu[k], e[k], rows[k, d]))
                if per_direction[d] <= 0.0:
                    break

    rounds = np.flatnonzero(per_direction > CERTIFIED_ZERO / 10)
    if len(rounds):
        xi_grid, _ = _sphere_grid(_GRID_N, _GRID_N)
        run = _GRID_N * _GRID_N
        grid_ratios = _ratio_on_grid(w, directions[rounds].reshape(-1, 3, 3), xi_grid, run)
        for d, ratios in zip(rounds, grid_ratios):
            per_direction[d] = _dinkelbach(w, directions[d], xi_grid, ratios, run, per_direction[d])
    per_direction = np.minimum(per_direction, _P_MAX)
    top = int(np.argmax(per_direction))
    best = float(per_direction[top])
    best_dir = directions[top] if best > 0.0 else None

    verification: dict = {}
    verdict = "inconclusive"
    if best <= CERTIFIED_ZERO:
        verdict = "optimal"
    elif best > CERTIFIED_SIGN:
        vv = np.outer(best_dir, best_dir.conj())
        keep = block_positivity_oracle(w - 0.5 * best * vv, grid_n=_GRID_N)
        brk = block_positivity_oracle(w - min(2.0 * best, _P_MAX) * vv, grid_n=_GRID_N).min_value
        verification = {"oracle_at_half": keep.min_value, "oracle_at_double": brk}
        if keep.status == "nonnegative":
            verdict = "not_optimal"
    return OptimalityProbeReport(
        direction_count=len(directions),
        max_subtractable=float(best),
        verdict=verdict,
        witness_direction=best_dir,
        verification=verification,
    )


# ---------------------------------------------------------------------------
# Co-optimality disproof on the sum-threshold face.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CooptimalitySubtraction:
    """Witnessed subtraction of a completely copositive map from a
    sum-threshold interior point: the subtracted matrix is again a positive
    family member at a rotated angle, so the point is not co-optimal."""

    p_value: float
    new_params: MapParams
    theta_prime: float


def cooptimality_subtraction(p: MapParams) -> CooptimalitySubtraction:
    """Subtract the completely copositive member (0, 1, 1; 0) from an
    interior point (1, b, c; theta) of the sum-threshold face.

    The weight is half the budget at which the rotated angle reaches pi/3 in
    magnitude, additionally capped by the smaller diagonal coefficient (the
    rescaled parameters must stay nonnegative).  Verifies the matrix identity
    entrywise to the residue RESIDUE_ABS, that the rescaled parameters are
    positive (so the map is not co-optimal), and the threshold sum identity.
    """
    pth = require_generic_theta(p.theta)
    a, b, c = p.abc
    if not (
        abs(a - 1.0) <= FACE_TOL
        and b > INCLUSION_SLACK
        and c > INCLUSION_SLACK
        and abs(b + c - (pth - 1.0)) <= FACE_TOL
        and 0.0 < abs(p.theta) < math.pi / 3.0
    ):
        raise UnsupportedCaseError(
            "subtraction requires an interior sum-threshold point (1, b, c; theta) "
            f"with 0 < |theta| < pi/3; got {p}"
        )
    weight = min(subtraction_budget(p.theta), b, c) / 2.0
    z = cmath.exp(1j * p.theta) - weight
    scale = abs(z)
    theta_prime = cmath.phase(z)
    new_params = MapParams(1.0 / scale, (b - weight) / scale, (c - weight) / scale, theta_prime)

    lhs = choi_matrix(p) - weight * choi_matrix(MapParams(0.0, 1.0, 1.0, 0.0))
    rhs = scale * choi_matrix(new_params)
    residue = float(np.abs(lhs - rhs).max())
    if residue > RESIDUE_ABS:
        raise InternalConsistencyError(
            f"subtraction matrix identity failed at {p}: entrywise residue {residue!r}"
        )
    sums = new_params.a + new_params.b + new_params.c
    if abs(sums - cp_threshold(theta_prime)) > RESIDUE_ABS:
        raise InternalConsistencyError(
            f"subtraction threshold sum identity failed at {p}: "
            f"{sums!r} vs cp_threshold {cp_threshold(theta_prime)!r}"
        )
    if not is_positive(new_params):
        raise InternalConsistencyError(f"rescaled parameters {new_params} are not positive")
    return CooptimalitySubtraction(weight, new_params, theta_prime)


# ---------------------------------------------------------------------------
# Full classification against the property table.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimalityClassification:
    face: FaceLabel
    row: PropertyRow
    evidence: dict


def classify_optimality(p: MapParams) -> OptimalityClassification:
    """Property-table row for a positive map, with the evidence source of
    each flag recorded.

    Spanning flags come from the closed forms with rank/determinant
    evidence; the optimal flag at the two non-spanning optimal vertices is
    certified analytically in the middle theta branch and numerically
    elsewhere; the co-optimality disproof on the sum-threshold face runs the
    explicit subtraction when the point is on its unit-first-coordinate
    slice.
    """
    face = _kernel_point(p).face
    evidence: dict = {"face": face.kind.value}
    if face.kind is FaceKind.INTERIOR:
        evidence["optimal"] = "interior point: smallest face is the whole body"
        return OptimalityClassification(face, PropertyRow(False, False, False, False), evidence)

    row = face_properties(face)
    span = has_spanning_property(p)
    cospan = has_cospanning_property(p)
    if span.has_property != row.spanning or cospan.has_property != row.co_spanning:
        raise InternalConsistencyError(
            f"closed-form spanning flags ({span.has_property}, {cospan.has_property}) disagree "
            f"with the table row ({row.spanning}, {row.co_spanning}) at {p}"
        )
    for key, r in (("spanning", span), ("co_spanning", cospan)):
        closed = {"rank": r.rank, "det_abs": r.det_abs, "det_closed_form": r.det_closed_form}
        evidence[key] = {"source": "closed form", **closed}

    if row.spanning:
        evidence["optimal"] = "spanning property implies optimality"
    elif row.optimal:
        side = _VERTEX_SIDE.get(face.kind)
        if side is not None and abs(p.theta) < math.pi / 3.0:
            if not vertex_optimality_analytic(p.theta, side):
                raise InternalConsistencyError(f"analytic vertex certificate failed at {p}")
            evidence["optimal"] = f"analytic vertex certificate ({side})"
        else:
            report = optimality_probe(p)
            if report.verdict != "optimal":
                raise InternalConsistencyError(
                    f"numeric probe verdict {report.verdict} at the optimal face point {p}: "
                    f"max subtractable {report.max_subtractable!r}"
                )
            evidence["optimal"] = "numeric subtraction probe"
    else:
        evidence["optimal"] = "facial structure (smallest face contains CP maps)"

    unit_slice = abs(p.a - 1.0) <= FACE_TOL and 0.0 < abs(p.theta) < math.pi / 3.0
    if row.co_spanning:
        evidence["co_optimal"] = "co-spanning property implies co-optimality"
    elif face.kind is FaceKind.F_ABC and unit_slice:
        sub = cooptimality_subtraction(p)
        evidence["co_optimal"] = {
            "source": "explicit copositive subtraction",
            "weight": sub.p_value,
            "theta_prime": sub.theta_prime,
        }
    else:
        evidence["co_optimal"] = "facial structure (smallest face contains CCP maps)"
    return OptimalityClassification(face, row, evidence)
