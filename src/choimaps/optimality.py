"""Optimality analysis: which completely positive directions can be
subtracted from a map while it stays block-positive.

Candidate directions live in the second-order orthocomplement of the
sampled kernel product vectors (``orthocomplement_basis``): orthogonal to
every kernel vector, and to the image of every null direction of the
pairing's Hessian there.  Where that space is empty, no direction can be
subtracted and the map is optimal without the spanning property; this
decides both non-spanning optimal vertices in every theta branch, except
within _THRESHOLD_GAP of cp_threshold = 1, where the space is refused.

Elsewhere, per direction the largest subtractable weight equals the
infimum over product vectors of the ratio (pairing with the map) /
(pairing with the direction), which stays meaningful even where boundary
violations are cubically suppressed and the plain bisection-on-the-oracle
test loses resolution.  ``optimality_probe`` searches for it (its
docstring states the bounds and the pruning rule, and
``OptimalityProbeReport`` the verification keys).
"""

from __future__ import annotations

import cmath
import math
import numbers
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
    require_generic_theta,
)
from .linalg import CERTIFIED_SIGN, CERTIFIED_ZERO, EIG_FLOOR, FACE_TOL, HESSIAN_FLOOR, INCLUSION_SLACK
from .linalg import _TINY, RANK_REL, RESIDUE_ABS, STATIONARY_REL, Array
from .maps import MapParams, _edge_angle, choi_matrix, cp_threshold
from .positivity import (
    _COVARIANT,
    _apply_kernel,
    _descend,
    _distinct_starts,
    _grid,
    _kernel_matrix,
    _pairing_model,
    block_positivity_oracle,
    is_positive,
)
from .spanning import _kernel_point

_MIN_DRAW_NORM = 1e-6  # ``_directions`` drops draws this close to zero
_DINKELBACH_STOP = 1e-9  # relative fall of the ratio below which the rounds stop
_P_MAX = 10.0  # cap on each direction's subtractable weight in ``optimality_probe``
_ROUNDS = 250  # cap on each direction's Dinkelbach rounds
_BLOCK = 64  # directions per block of the probe: its temporaries do not grow past one block
_MAX_DIRECTIONS = 64 * _BLOCK  # cap on the probe's directions, all drawn at once before the blocks
# cp_threshold - 1 below which ``orthocomplement_basis`` is not resolved: at
# the vertices the rows that empty it are about 0.26 (cp_threshold - 1) of
# the largest, and on other faces rounding leaves rows of about
# 4e-16 / (cp_threshold - 1); at the bound each is 25 times from RANK_REL
_THRESHOLD_GAP = 1e-6
_EMPTY_SPACE = "empty second-order orthocomplement"  # the evidence of an optimal, non-spanning map


def subtraction_budget(theta: float) -> float:
    """Largest copositive-subtraction weight keeping the rotated angle inside
    (-pi/3, pi/3): the positive solution of arg(e^{i theta} - t) = +-pi/3."""
    if not _edge_angle(theta):
        raise UnsupportedThetaError(f"budget defined for 0 < |theta| < pi/3, got {theta}")
    return math.cos(theta) - abs(math.sin(theta)) / math.sqrt(3.0)


def orthocomplement_basis(p: MapParams) -> list[Array]:
    """Orthonormal basis of the second-order orthocomplement of the sampled
    kernel product vectors z0: the directions v with v^T z0 = 0 and
    v^T J x = 0 for every x in the null space (``_hessian_null``) of the
    Hessian Q2 of the map pairing at every z0, J the Jacobian of z0 on the
    product manifold (``_kernel_models``).  Along a curve into z0 with
    tangent x the pairing is then O(s^3), while subtracting r v v* costs
    r s^2 |v^T J x|^2, so every direction that can be subtracted with a
    positive weight lies in this space: an empty space certifies optimality,
    and a too small kernel sample can only enlarge it.

    The first-order space B (v^T z0 = 0) comes from the sample's tensors.
    The rows J x are restricted to B, and where they vanish there (to
    RANK_REL of their largest norm) B itself is returned, so the directions
    drawn from it do not depend on them.  Empty for maps with the spanning
    property.  The map is the kernel record's Choi matrix, at the face's
    own coordinates where the sample is built.  Raises
    UnsupportedCaseError when no kernel vector is known, and
    UnsupportedThetaError when B is not empty and cp_threshold - 1 is
    below _THRESHOLD_GAP: the rows that reduce B then shrink with
    cp_threshold - 1 while their rounding noise grows, and no cut tells
    them apart.
    """
    return list(_second_order(p)[0])


def _second_order(p: MapParams) -> tuple[Array, tuple[Array, Array, Array] | None]:
    """The (k, 9) basis rows of ``orthocomplement_basis`` at ``p``, and the
    kernel vectors' model (mu, e, J) of ``_kernel_models`` at the record's
    Choi matrix (None when the first-order space is empty)."""
    k = _kernel_point(p)
    if not len(k.xi):
        raise UnsupportedCaseError(
            f"no known kernel structure for {p.abc} at theta={p.theta}"
        )
    # The subtraction penalty at a product vector z is |v^T z|^2, so the
    # orthogonality that keeps kernel pairings at zero is the unconjugated
    # bilinear one: v must annihilate every kernel tensor under v^T z.
    _, s, vh = np.linalg.svd(k.tensors)
    basis = vh[np.count_nonzero(s > RANK_REL * s[0]):].conj()
    if not len(basis):
        return basis, None
    gap = cp_threshold(p.theta) - 1.0
    if gap < _THRESHOLD_GAP:
        raise UnsupportedThetaError(
            f"the second-order orthocomplement is not resolved at theta={p.theta}: "
            f"cp_threshold - 1 = {gap!r} is below {_THRESHOLD_GAP!r}"
        )
    model = _kernel_models(k.choi, k.xi, k.eta)
    mu, e, jac = model
    # one row J x per Hessian null vector x, zero rows elsewhere
    rows = (jac @ (e * _hessian_null(mu)[:, None, :])).transpose(0, 2, 1).reshape(-1, 9)
    _, s, vh = np.linalg.svd(rows @ basis.T, full_matrices=False)  # nvec * 12 >= 9 rows
    rank = int(np.count_nonzero(s > RANK_REL * np.linalg.norm(rows, axis=1).max()))
    if rank:
        basis = vh[rank:].conj() @ basis
    return basis, model


# ---------------------------------------------------------------------------
# Numeric subtraction probe.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimalityProbeReport:
    """Largest subtractable weight found over the probed directions.

    ``max_subtractable`` is the largest weight over the directions, each the
    minimum of finitely many evaluated ratios and exact kernel limits, so it
    is an upper bound on the weight that can be subtracted along its best
    direction, reproducible only to about _DINKELBACH_STOP relative.  The
    reported maximum is always the value of a direction refined by the
    Dinkelbach rounds (``optimality_probe`` states which are).

    By the certified sign: 'optimal' needs every direction at or below
    CERTIFIED_ZERO; 'not_optimal' needs one above CERTIFIED_SIGN whose half
    subtraction the oracle certified nonnegative; else 'inconclusive'.

    ``verification`` holds the evidence: {"reason": _EMPTY_SPACE} where the
    empty second-order orthocomplement certified 'optimal', and for a weight r
    above CERTIFIED_SIGN along ``witness_direction`` v:
    ``oracle_at_half``, the oracle's minimum of W - (r/2) v v* over product
    vectors (its nonnegativity shows r/2 subtractable, and decides the
    verdict); ``xi_at_double``, the unit xi of the smallest ratio of v the
    probe evaluated; and ``pairing_at_double``, the smallest eigenvalue of
    the map of W - min(2r, _P_MAX) v v* at xi xi*, which is its pairing
    with xi (x) eta, eta the conjugate of that eigenvector: a negative value
    shows explicitly that twice the weight cannot be subtracted.  Empty
    otherwise.
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


def _ratio_on_grid(w: Array, matrices: Array, xi: Array | None = None) -> Array:
    """(ndir, n) largest subtractable weights 1/(b* A^+ b), A = Phi(xi xi*),
    b = m^T xi, for the (ndir, 3, 3) direction ``matrices``: at the n cells
    of ``_grid`` that every direction shares (``xi`` None), or at (ndir, n,
    3) ``xi``, each direction at its own n vectors; the largest p with
    A - p b b* PSD.  Eigenvalues of A below the eigenvalue floor
    EIG_FLOOR max(1, lambda_max) are raised to it, which only raises ratios:
    near a kernel vector the ratio of two vanishing terms is rounding noise,
    and the exact kernel limits cover those points.

    The Choi matrix ``w`` must vanish off ``_COVARIANT`` (every family Choi
    matrix does; InternalConsistencyError otherwise): by covariance
    (``positivity`` module docstring) ``eigh`` runs on real moduli only, once
    per moduli row of the grid, whose ratios are one GEMM, or once per
    vector, with D = diag(xi / |xi|) (1 where xi_k = 0) rotating b; both
    take the squared norm of the whitened D* b.
    """
    if np.any(w[~_COVARIANT]):
        raise InternalConsistencyError("grid ratios need a Choi matrix that vanishes off the covariant slots")
    if xi is None:
        moduli, phases = _grid()[3:]
    else:
        modulus = np.abs(xi)
        moduli = modulus.reshape(-1, 3)
    lam, u = np.linalg.eigh(_apply_kernel(_kernel_matrix(w), moduli[:, :, None] * moduli[:, None, :]))
    lam_floor = np.maximum(lam, EIG_FLOOR * np.maximum(lam[:, -1:], 1.0))
    whiten = u.conj() / np.sqrt(lam_floor)[:, None, :]
    if xi is None:
        rows = matrices[:, None] * (phases[:, :, None] * phases.conj()[:, None, :])
        cols = (moduli[:, :, None, None] * whiten[:, None]).transpose(1, 2, 0, 3)
        beta = rows.reshape(-1, 9) @ cols.reshape(9, -1)  # rows (direction, pattern), columns (moduli row, l)
        shape = (len(matrices), len(phases), len(moduli))
    else:
        phase = np.divide(xi, modulus, out=np.ones_like(xi), where=modulus > 0.0).conj()
        beta = ((xi @ matrices) * phase).reshape(-1, 1, 3) @ whiten
        shape = xi.shape[:2]
    parts = beta.view(np.float64).reshape(*shape, -1)  # the real and imaginary parts of each beta
    denom = np.einsum("...i,...i->...", parts, parts)
    with np.errstate(divide="ignore"):
        ratios = np.where(denom > 0, 1.0 / denom, np.inf)
    return ratios if xi is not None else ratios.transpose(0, 2, 1).reshape(len(matrices), -1)


def _dinkelbach(w: Array, directions: Array, ratios: Array, bounds: Array) -> tuple[Array, Array]:
    """Smallest ratio of each of the (ndir, 9) ``directions`` reached by
    Dinkelbach rounds (W. Dinkelbach, Management Science 13:492, 1967) from
    the cells of ``_grid``, with their (ndir, n) ``ratios``.  Each
    direction v keeps its own r, the smallest ratio so far, and its own
    starts; a round is one ``_descend`` iteration of every live direction's
    starts at once, each start on W - r v v* as the descent's per-start
    rank-one term on the shared kernel of W, then the exact ratios of each
    direction at its own new vectors, from one paired ``_ratio_on_grid``
    call; no round raises r.  A direction leaves the batch after _ROUNDS
    rounds, when its r falls by less than _DINKELBACH_STOP r, or at a tenth
    of the zero weight CERTIFIED_ZERO.
    r starts at min(best grid ratio, bound), the direction's exact kernel
    limit in ``bounds`` (an infimum along curves into kernel vectors, so
    never below the true infimum): the first round asks whether any product
    vector beats it, and where the descended starts do not, the rounds stop
    at the bound.  The starts are the best cells of the 20 best moduli
    patterns (``_distinct_starts``), so a descent drawn to a kernel vector
    (where the ratio only tends to its kernel limit) does not decide alone.
    Returns the (ndir,) r and the (ndir, 3) unit xi of each direction's
    smallest ratio evaluated, over its starts and every round's descended
    vectors: W - p v v* pairs negatively with a product vector xi (x) eta
    for every p above that ratio.
    """
    xi = _grid()[0]
    starts = np.array([_distinct_starts(row, 20) for row in ratios])
    best_ratio = ratios[np.arange(len(ratios)), starts[:, 0]]
    r, best_xi = np.minimum(best_ratio, bounds), xi[starts[:, 0]]
    xi, k = xi[starts], starts.shape[1]
    done = np.zeros(len(directions), dtype=bool)
    for _ in range(_ROUNDS):
        live = np.flatnonzero(~done & (CERTIFIED_ZERO / 10 < r) & (r < math.inf))
        if not len(live):
            break
        rank_one = (np.repeat(directions[live], k, axis=0), np.repeat(r[live], k))
        moved = _descend(w, xi[live].reshape(-1, 3), 1, rank_one)[0].reshape(-1, k, 3)
        xi[live] = moved
        reached = _ratio_on_grid(w, directions[live].reshape(-1, 3, 3), moved)
        low = np.argmin(reached, axis=1)
        ratio = reached[np.arange(len(live)), low]
        better = ratio < best_ratio[live]
        best_ratio[live[better]], best_xi[live[better]] = ratio[better], moved[better, low[better]]
        previous = r[live]
        r[live] = np.minimum(previous, best_ratio[live])
        done[live] = r[live] > previous - _DINKELBACH_STOP * previous
    return r, best_xi


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


def _kernel_models(w: Array, xi: Array, eta: Array) -> tuple[Array, Array, Array]:
    """The second-order model at the (nonempty) sampled kernel vectors with
    (n, 3) factors ``xi`` and ``eta``, from one ``_pairing_model`` call over
    all of them: the eigendecompositions (mu, e) of the 12x12 real Hessians
    Q2 of the map pairing along the product manifold, in the coordinates
    x = (Re dxi, Im dxi, Re deta, Im deta), and the (nvec, 9, 12) Jacobians J
    of z0 = xi0 (x) eta0 in those coordinates.  Raises
    InternalConsistencyError unless every vector is stationary: the gradient
    may not exceed STATIONARY_REL times the scale |W conj(z0)| |z0| (at
    least 1)."""
    a, b = xi.conj(), eta.conj()
    jac, grad, q = _pairing_model(w, a, b, _CONJUGATE_BASIS, _CONJUGATE_BASIS)
    y = (a[:, :, None] * b[:, None, :]).reshape(len(a), 9)
    scale = np.maximum(1.0, np.linalg.norm(y @ w.T, axis=1) * np.linalg.norm(y, axis=1))
    slope = np.linalg.norm(grad, axis=1)
    for norm, bound in zip(slope, STATIONARY_REL * scale):
        if norm > bound:
            raise InternalConsistencyError(
                f"kernel point is not stationary on the product manifold: gradient norm {norm!r} "
                f"exceeds {bound!r}"
            )
    mu, e = np.linalg.eigh(q)
    return mu, e, jac.conj()  # y = conj(z0) and x is real, so conj(dy/dx) = dz0/dx


def _hessian_null(mu: Array) -> Array:
    """Which of the ascending Hessian eigenvalues ``mu`` (last axis) are null:
    those at most max(HESSIAN_FLOOR mu_max, INCLUSION_SLACK)."""
    return mu <= np.maximum(HESSIAN_FLOOR * np.maximum(mu[..., -1:], 0.0), INCLUSION_SLACK)


def _penalty_rows(jac: Array, directions: Array) -> Array:
    """The (nvec, ndir, 2, 12) real rows of the linearized penalty amplitudes
    v^T J x, one per direction v, at each kernel vector's Jacobian J."""
    amp = directions @ jac
    return np.stack([amp.real, amp.imag], axis=2)


def _kernel_limit_ratio(mu: Array, e: Array, rows: Array) -> Array:
    """Each direction's smallest kernel limit: the infimum of Q2 / |L d|^2
    at each kernel vector, from the eigendecompositions (mu, e) of its Q2
    (``_kernel_models``) and the (nvec, ndir, 2, 12) penalty rows L
    (``_penalty_rows``), is the reciprocal largest eigenvalue of
    L Q2^+ L^T, and the (ndir,) result is its minimum over the vectors, from
    one ``eigvalsh`` over the (nvec, ndir) stack of 2x2 matrices.  The
    directions come from the second-order orthocomplement, so L vanishes on
    the null space of Q2 to the RANK_REL cut (which _THRESHOLD_GAP keeps
    resolved) and only its positive part counts: the null entries of Q2^+
    are masked to zero.  Rows below INCLUSION_SLACK, and top eigenvalues at
    or below _TINY, leave the limit infinite."""
    b = rows @ e[:, None]
    scaled = np.divide(b, mu[:, None, None], out=np.zeros_like(b), where=~_hessian_null(mu)[:, None, None])
    top = np.linalg.eigvalsh(scaled @ b.transpose(0, 1, 3, 2))[..., -1]
    live = (top > _TINY) & (np.linalg.norm(rows, axis=(2, 3)) >= INCLUSION_SLACK)
    return np.divide(1.0, top, out=np.full_like(top, math.inf), where=live).min(axis=0)


def optimality_probe(p: MapParams, n_directions: int = 64) -> OptimalityProbeReport:
    """Probe whether a completely positive direction can be subtracted from
    the map while keeping it block-positive.

    An empty ``orthocomplement_basis`` is the certificate: the verdict is
    'optimal' with no direction drawn (the spanning property included).
    Otherwise directions sweep the unit sphere of that space (the full space
    when no kernel vector is known).  Like that space, the map is the kernel
    record's Choi matrix, at its face's own coordinates.  Per direction the
    measured quantity is the infimum over product vectors of the pairing
    ratio.  The exact limits at all kernel vectors come first, from the
    ``_kernel_models`` that built the space; each is the infimum along
    curves into a kernel vector, so a valid upper bound.  Then the
    directions get their ratios on the cells of ``_grid`` in one
    ``_ratio_on_grid`` call (the covariance paragraph of the ``positivity``
    module docstring), and r0, the smaller of the best grid ratio and the
    limit, capped at ``_P_MAX``.  ``_dinkelbach`` rounds start at r0 and
    never raise it, so a direction whose r0 is below a refined direction's
    weight cannot be the largest: the leader (largest r0, the first on a
    tie) is refined alone, then every other direction whose r0 exceeds the
    largest refined weight so far (carried across blocks), or ties it
    before the first direction holding it, in one batch;
    every other direction keeps its r0 and the grid xi of its best ratio.
    The maximum, its first direction and its xi are those of every
    direction refined.  The first round tests whether any product vector
    beats the limit.  Limits, grid ratios and rounds take the directions in
    blocks of _BLOCK, so a probe of many directions holds the temporaries of
    one block.  No direction counts above ``_P_MAX``.  A best weight r above
    CERTIFIED_SIGN is 'not_optimal' when the
    block-positivity oracle certifies W - (r/2) v v* nonnegative; the
    tightness of r is shown without a second search, by one eigensolve of
    the map of W - min(2r, _P_MAX) v v* at the rounds' best xi (the keys of
    ``OptimalityProbeReport.verification``).  Raises OutOfRangeError unless
    n_directions is an integer in [1, _MAX_DIRECTIONS], and
    UnsupportedThetaError where ``orthocomplement_basis`` does.
    """
    integral = isinstance(n_directions, numbers.Integral) and not isinstance(n_directions, bool)
    if not (integral and 1 <= n_directions <= _MAX_DIRECTIONS):
        raise OutOfRangeError(f"n_directions must be an integer in [1, {_MAX_DIRECTIONS}], got {n_directions!r}")
    w = _kernel_point(p).choi

    try:
        basis, model = _second_order(p)
    except UnsupportedCaseError:
        basis, model = np.eye(9, dtype=complex), None
    if not len(basis):
        return OptimalityProbeReport(
            direction_count=0,
            max_subtractable=0.0,
            verdict="optimal",
            verification={"reason": _EMPTY_SPACE},
        )

    directions = _directions(len(basis), n_directions) @ basis  # (ndir, 9)
    xi_grid = _grid()[0]
    per_direction = np.empty(len(directions))
    argmin_xi = np.empty((len(directions), 3), dtype=complex)
    largest, holder = -math.inf, 0  # the largest refined value so far, over every block, and its first direction
    for lo in range(0, len(directions), _BLOCK):
        part = directions[lo : lo + _BLOCK]
        if model is None:
            limits = np.full(len(part), math.inf)
        else:
            mu, e, jac = model
            limits = _kernel_limit_ratio(mu, e, _penalty_rows(jac, part))
        ratios = _ratio_on_grid(w, part.reshape(-1, 3, 3))
        # r0, where each direction's rounds would start: they never raise it
        r0 = np.minimum(np.minimum(ratios.min(axis=1), limits), _P_MAX)
        value, at = per_direction[lo : lo + _BLOCK], argmin_xi[lo : lo + _BLOCK]
        value[:], at[:] = r0, xi_grid[np.argmin(ratios, axis=1)]
        index = lo + np.arange(len(part))
        others = index != lo + np.argmax(r0)
        for pick in (~others, others):  # the leader alone, then every other direction still in reach
            # a direction after the holder can at best tie it, and ties go to the first
            chosen = np.flatnonzero(pick & ((r0 > largest) | ((r0 == largest) & (index < holder))))
            if len(chosen):
                value[chosen], at[chosen] = _dinkelbach(w, part[chosen], ratios[chosen], limits[chosen])
                capped = np.minimum(value[chosen], _P_MAX)
                first = int(np.argmax(capped))
                if capped[first] > largest or (capped[first] == largest and index[chosen[first]] < holder):
                    largest, holder = float(capped[first]), int(index[chosen[first]])
    per_direction = np.minimum(per_direction, _P_MAX)
    top = int(np.argmax(per_direction))
    best = float(per_direction[top])
    best_dir = directions[top]

    verification: dict = {}
    verdict = "inconclusive"
    if best <= CERTIFIED_ZERO:
        verdict = "optimal"
    elif best > CERTIFIED_SIGN:
        vv = np.outer(best_dir, best_dir.conj())
        keep = block_positivity_oracle(w - 0.5 * best * vv)
        xi = argmin_xi[top]
        image = _apply_kernel(_kernel_matrix(w - min(2.0 * best, _P_MAX) * vv), np.outer(xi, xi.conj()))
        verification = {
            "oracle_at_half": keep.min_value,
            "pairing_at_double": float(np.linalg.eigvalsh(image)[0, 0]),
            "xi_at_double": xi,
        }
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
        and _edge_angle(p.theta)
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

    The row is the face's, as the point's kernel record carries it (all
    false at INTERIOR): it decides the spanning flags, as it does for
    ``has_spanning_property`` and ``has_cospanning_property``.  The optimal
    flag of every optimal, non-spanning row (the two vertices with first
    coordinate 1, in every theta branch) is certified by the empty
    second-order orthocomplement of the same record (``_second_order``), at
    its face coordinates, with no search (InternalConsistencyError where it
    is not empty; UnsupportedThetaError while cp_threshold - 1 <
    _THRESHOLD_GAP, where that space is not resolved); the co-optimality
    disproof on the sum-threshold face runs the explicit subtraction when
    the point is on its unit-first-coordinate slice, at the slice's own
    coordinates.
    """
    k = _kernel_point(p)
    face, row = k.face, k.row
    evidence: dict = {"face": face.kind.value}
    if face.kind is FaceKind.INTERIOR:
        evidence["optimal"] = "interior point: smallest face is the whole body"
        return OptimalityClassification(face, row, evidence)

    if row.spanning:
        evidence["optimal"] = "spanning property implies optimality"
    elif row.optimal:
        dimension = len(_second_order(p)[0])
        if dimension:
            raise InternalConsistencyError(
                f"nonempty second-order orthocomplement (dimension {dimension}) at the optimal face point {p}"
            )
        evidence["optimal"] = _EMPTY_SPACE
    else:
        evidence["optimal"] = "facial structure (smallest face contains CP maps)"

    unit_slice = abs(p.a - 1.0) <= FACE_TOL and _edge_angle(p.theta)
    if row.co_spanning:
        evidence["co_optimal"] = "co-spanning property implies co-optimality"
    elif face.kind is FaceKind.F_ABC and unit_slice:
        # at the slice's own coordinates: a = 1, and the residual of the sum
        # face moved onto the larger of b and c, so both stay positive
        b, c = p.b, p.c
        rest = cp_threshold(p.theta) - 1.0 - b - c
        b, c = (b + rest, c) if b >= c else (b, c + rest)
        sub = cooptimality_subtraction(MapParams(1.0, b, c, p.theta))
        evidence["co_optimal"] = {
            "source": "explicit copositive subtraction",
            "weight": sub.p_value,
            "theta_prime": sub.theta_prime,
        }
    else:
        evidence["co_optimal"] = "facial structure (smallest face contains CCP maps)"
    return OptimalityClassification(face, row, evidence)
