"""Construction of optimal PPTES witnesses detecting the edge states.

For an edge state with angle theta and parameter b, the witness ansatz is a
9x9 matrix with diagonal pattern built from three positive numbers
(alpha~, beta~, gamma~) and off-diagonal entries 1 + e^{+-i theta}; it is a
positive multiple of a family member at the rotated angle pi - theta/2 whose
normalized parameters sit on the bi-spanning part of the boundary curve.
The quadratic system fixing (beta~, gamma~) from alpha~ keeps them there.
Detection is decided by the direct trace pairing against the unnormalized
edge state; the family pairing identity (``detection_closed_form``) checks
it on every witness.

The best detector of the ansatz is closed-form.  With t = cos(theta/2),
p = cp_threshold(theta), [lo, hi) = ``alpha_range``, s = beta~ + gamma~ and
the better root assignment, the pairing is 3(p alpha~ + (b + 1/b) s/2
- |b - 1/b| sqrt(D)/2 - 4t^2) with D = (beta~ - gamma~)^2 =
(alpha~ - lo)(4hi - lo - 3 alpha~) concave, so sqrt(D) is concave and the
pairing convex in alpha~.  Squaring its stationarity condition and keeping
the root with the right sign gives
    alpha~* = lo + (2/3)(hi - lo)(1 - c / sqrt(c^2 + 3d^2)),
c = 2p - b - 1/b, d = b - 1/b: inside [lo, hi) for every b > 0 as p > 1,
tending to hi as b or 1/b grows; even under b <-> 1/b; lo at b = 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalConsistencyError,
    NoDetectingChoiceError,
    OutOfRangeError,
    ThetaOutOfRangeError,
    UndecidedError,
)
from .linalg import CERTIFIED_SIGN, CERTIFIED_ZERO, FACE_TOL, INCLUSION_SLACK, RESIDUE_REL, Array
from .linalg import hermitian_eigenvalues, partial_transpose
from .maps import MapParams, _edge_angle, _family_matrix, cp_threshold, edge_state, pairing_value
from .positivity import certify_block_positivity
from .spanning import has_cospanning_property, has_spanning_property


def _check_theta(theta: float) -> float:
    if not _edge_angle(theta):
        raise ThetaOutOfRangeError(f"witness construction requires 0 < |theta| < pi/3, got {theta}")
    return math.cos(theta / 2.0)


def alpha_range(theta: float) -> tuple[float, float]:
    """Admissible alpha~ values [lo, hi) = [2t(2 - t - sqrt(3(1-t^2))), 2t)
    with t = cos(theta/2); nonempty on the admissible angles in exact
    arithmetic, but [2, 2) in doubles once t rounds to 1 (|theta| below
    about 2.1e-8).  At lo the roots of ``solve_beta_gamma`` are a double
    root."""
    t = _check_theta(theta)
    root = math.sqrt(3.0 * (1.0 - t * t))
    return (2.0 * t * (2.0 - t - root), 2.0 * t)


def solve_beta_gamma(theta: float, alpha_tilde: float) -> tuple[float, float]:
    """The two positive roots (descending) of
    x^2 - [2t(t + sqrt(3(1-t^2))) - alpha~] x + (2t - alpha~)^2 = 0.

    Requires alpha~ in [lo, hi (1 - FACE_TOL)), the admissible interval less
    the face band at hi, where the normalized a = alpha~ / hi is within
    FACE_TOL of the vertex a = 1; OutOfRangeError otherwise.  The
    discriminant vanishes at lo: within INCLUSION_SLACK of zero the root is
    double.  The small root is the product over the large one, which does
    not cancel near hi.
    """
    t = _check_theta(theta)
    lo, hi = alpha_range(theta)
    if not lo - INCLUSION_SLACK <= alpha_tilde < hi * (1.0 - FACE_TOL):
        raise OutOfRangeError(
            f"alpha~ must lie in [{lo!r}, {hi * (1.0 - FACE_TOL)!r}) for theta={theta} "
            f"(nearer {hi!r} the normalized a is within the face band of 1), got {alpha_tilde}"
        )
    s = 2.0 * t * (t + math.sqrt(3.0 * (1.0 - t * t))) - alpha_tilde
    prod = (2.0 * t - alpha_tilde) ** 2
    disc = s * s - 4.0 * prod
    if disc <= INCLUSION_SLACK:
        return s / 2.0, s / 2.0
    beta = s / 2.0 + math.sqrt(disc) / 2.0
    gamma = prod / beta
    if not gamma > 0:
        raise InternalConsistencyError(
            f"roots not positive: {(beta, gamma)} at theta={theta!r}, alpha~={alpha_tilde!r}"
        )
    return beta, gamma


def witness_matrix(theta: float, alpha_tilde: float, b_slot: float, c_slot: float) -> Array:
    """The unnormalized witness ansatz: the family's shape at (a, b, c) =
    (alpha~, b_slot, c_slot) with corner 1 + e^{-i theta}.

    Equals 2cos(theta/2) times the family Choi matrix at parameters
    (alpha~, b_slot, c_slot) / (2cos(theta/2)) and angle pi - theta/2.
    """
    return _family_matrix(alpha_tilde, b_slot, c_slot, 1.0 + cmath.exp(1j * theta).conjugate())


@dataclass(frozen=True)
class WitnessSpec:
    """A constructed witness and its validation data.

    ``matrix`` is the unnormalized ansatz; ``scale`` is the trace-style
    normalization factor 2t / (3(alpha~ + beta~ + gamma~)) of the normalized
    witness; ``detection_value`` is the direct trace pairing of the
    unnormalized ansatz against the unnormalized edge state (negative means
    the witness detects it); ``normalized_params`` are the family parameters
    of ``matrix`` / (2t) at angle pi - theta/2.
    """

    theta: float
    b: float
    t: float
    alpha_tilde: float
    beta_tilde: float
    gamma_tilde: float
    normalized_params: MapParams
    scale: float
    detection_value: float
    matrix: Array
    b_slot: float
    c_slot: float

    @property
    def detects(self) -> bool:
        return self.detection_value < 0.0


def detection_closed_form(theta: float, b: float, alpha_tilde: float,
                          b_slot: float, c_slot: float) -> float:
    """Detection pairing of the unnormalized ansatz against the edge state
    via the family pairing identity; independent of the 9x9 trace route."""
    t = math.cos(theta / 2.0)
    pth = cp_threshold(theta)
    return 3.0 * (pth * alpha_tilde + b * b_slot + c_slot / b - 4.0 * t * t)


def _validate(spec: WitnessSpec) -> None:
    """Check the trace pairing against ``detection_closed_form``, that the
    constructed witness is neither PSD nor co-PSD, that it is block-positive,
    and that its normalized parameters lie on the bi-spanning boundary piece.

    Block-positivity is proved, not searched for: the witness is covariant,
    so ``certify_block_positivity`` decides it (its docstring states the
    rule).  A negative verdict or an undecided search raises
    InternalConsistencyError."""
    where = f"theta={spec.theta!r}, b={spec.b!r}, alpha~={spec.alpha_tilde!r}"
    closed = detection_closed_form(spec.theta, spec.b, spec.alpha_tilde, spec.b_slot, spec.c_slot)
    # the terms cancel, so the residue is relative to the sum of their sizes,
    # 3(p_theta alpha~ + b b_slot + c_slot / b + 4t^2)
    scale = closed + 24.0 * spec.t * spec.t
    if abs(spec.detection_value - closed) > RESIDUE_REL * scale:
        raise InternalConsistencyError(
            f"witness at {where}: trace pairing {spec.detection_value!r} "
            f"differs from the family pairing identity {closed!r}"
        )
    # W and its partial transpose: one validated, batched eigensolve
    lows = hermitian_eigenvalues(np.stack([spec.matrix, partial_transpose(spec.matrix)]))[:, 0]
    for name, low in zip(("PSD", "co-PSD"), lows.tolist()):
        if low >= -CERTIFIED_SIGN:
            raise InternalConsistencyError(
                f"witness at {where} is {name} within tolerance (smallest eigenvalue {low!r})"
            )
    try:
        certificate = certify_block_positivity(spec.matrix)
    except UndecidedError as exc:
        raise InternalConsistencyError(f"witness at {where}: {exc}") from None
    if certificate.status == "negative":
        raise InternalConsistencyError(
            f"witness at {where} failed the block-positivity certificate: minimum {certificate.value!r} "
            f"at |xi|^2 = {certificate.u.tolist()!r}"
        )
    if not has_spanning_property(spec.normalized_params).has_property:
        raise InternalConsistencyError(
            f"normalized parameters {spec.normalized_params} lost the spanning property"
        )
    if not has_cospanning_property(spec.normalized_params).has_property:
        raise InternalConsistencyError(
            f"normalized parameters {spec.normalized_params} lost the co-spanning property"
        )


def build_witness(theta: float, b: float, alpha_tilde: float | None = None) -> WitnessSpec:
    """Construct a witness for the edge state with parameters (b, theta).

    Without ``alpha_tilde`` the ansatz's minimizer alpha~* of the module
    docstring is taken, and NoDetectingChoiceError is raised unless it pairs
    below the certified sign -CERTIFIED_ZERO; a given ``alpha_tilde`` is
    kept as it is (a nonnegative pairing is allowed but flagged through
    ``detects``).  Swapping the roots changes the pairing by
    (b - 1/b)(b_slot - c_slot), so the b slot takes the smaller root when
    b > 1 and the larger one otherwise.  Raises OutOfRangeError when b is so
    large or small that the edge state's trace overflows, when theta is so
    near 0 (|theta| below about 2e-8) that cos(theta/2) rounds to 1 and the
    whole alpha~ range lies in the face band, when b is so
    extreme that the optimal alpha~* lies in the face band of
    ``solve_beta_gamma``, or when a given alpha~ lies outside its range, and
    InternalConsistencyError when the witness fails ``_validate``.
    """
    t = _check_theta(theta)
    if not b > 0:
        raise OutOfRangeError(f"witness construction requires b > 0, got {b}")
    trace = 3.0 * (2.0 * math.cos(theta) + b + 1.0 / b)
    if not math.isfinite(trace):
        raise OutOfRangeError(
            f"the pairing cannot be formed in finite doubles: the edge state's trace is {trace}"
        )

    lo, hi = alpha_range(theta)
    if not lo < hi * (1.0 - FACE_TOL):
        # cos(theta/2) is so near 1 that lo reaches the face band at hi
        raise OutOfRangeError(
            f"theta={theta!r} is too near 0 for the witness ansatz: its alpha~ range "
            f"[{lo!r}, {hi!r}) holds no value outside the face band below 2cos(theta/2) = {hi!r}"
        )
    auto = alpha_tilde is None
    if auto:
        c, d = 2.0 * cp_threshold(theta) - b - 1.0 / b, b - 1.0 / b
        # c / sqrt(c^2 + 3d^2), without overflow; 1 at b = 1
        alpha_tilde = lo + 2.0 / 3.0 * (hi - lo) * (1.0 - c / math.hypot(c, d, d, d))
    try:
        beta, gamma = solve_beta_gamma(theta, alpha_tilde)
    except OutOfRangeError:
        if not auto:
            raise
        # alpha~* lies in [lo, hi), so only the face band can reject it
        raise OutOfRangeError(
            f"b={b!r} is too extreme for the witness ansatz at theta={theta!r}: its optimal "
            f"alpha~ {alpha_tilde!r} lies in the face band below 2cos(theta/2) = {hi!r}"
        ) from None
    b_slot, c_slot = (gamma, beta) if b > 1.0 else (beta, gamma)
    w = witness_matrix(theta, alpha_tilde, b_slot, c_slot)
    spec = WitnessSpec(
        theta=theta,
        b=b,
        t=t,
        alpha_tilde=alpha_tilde,
        beta_tilde=beta,
        gamma_tilde=gamma,
        normalized_params=MapParams(
            alpha_tilde / (2.0 * t), b_slot / (2.0 * t), c_slot / (2.0 * t), math.pi - theta / 2.0
        ),
        scale=2.0 * t / (3.0 * (alpha_tilde + beta + gamma)),
        detection_value=pairing_value(edge_state(b, theta), w),
        matrix=w,
        b_slot=b_slot,
        c_slot=c_slot,
    )
    if auto and spec.detection_value >= -CERTIFIED_ZERO:
        raise NoDetectingChoiceError(
            f"alpha~* = {alpha_tilde!r} does not detect the edge state at theta={theta}, b={b}"
        )
    _validate(spec)
    return spec
