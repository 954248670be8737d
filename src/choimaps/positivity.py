"""Closed-form positivity / complete (co)positivity classification and the
independent numerical oracles that audit it.

The closed forms: complete positivity holds iff a >= cp_threshold(theta),
complete copositivity iff b*c >= 1, and positivity iff both

    (p1)  a + b + c >= cp_threshold(theta)
    (p2)  a <= 1  implies  b*c >= (1 - a)^2.

The boundary pieces of the body are the equality cases: ``on_sum_at`` and
``on_surface_at``, within the one face-band tolerance ``FACE_TOL``.

The block-positivity oracle minimizes the smallest eigenvalue of the map
applied to rank-1 projectors, and never trusts a closed form of the map.  It
ranks the one deterministic grid ``_grid`` on the unit sphere of C^3 by the
closed-form smallest eigenvalue of a 3x3 Hermitian matrix, then runs a
batched descent from the best cells that alternates exact minimizations over
the two factors of the product vector and adds second-order (Newton) steps
on the first, the second eliminated through its exact eigenvalues.  The map
acts on a stack of projectors as one matmul with a 9x9 kernel matrix; it is
the package's only way to apply a map.  The optimality probe shares the
grid, the descent, ``_descend``, and its second-order model of the pairing
on the product manifold, ``_pairing_model``: the Newton step takes it at
every start, the probe at every kernel vector.  The probe's rounds descend
W - r v v* with a different (v, r) per start, as a rank-one term on the
shared kernel of W.

Covariance.  A Choi matrix that vanishes off the covariant slots
``_COVARIANT`` (every family Choi matrix, edge state and witness) gives a
map with Phi(DXD*) = D Phi(X) D* for diagonal unitaries D (Cho, Kye and Lee,
Linear Algebra Appl. 171, 1992).  Writing xi = D|xi|, Phi(xi xi*) is then
D Phi(|xi| |xi|^T) D*, so its spectrum depends on the moduli |xi| only: the
grid's phase copies of one |xi| share their values, the start rule keeps one
start per moduli pattern, and the probe's grid ratios solve once per
pattern.  A cell of ``_grid`` is xi = m o P, a moduli row m times a phase
pattern P, so with Phi(m m^T) = U Lambda U* the ratio's b* Phi(xi xi*)^+ b,
b = M^T xi for a direction matrix M, is the squared norm of
sum_jk P_j M_jk conj(P_k) m_j (conj(U) Lambda^(-1/2))_k,: : a 9-entry row
per (direction, phase pattern) times a 9x3 block per moduli row, one GEMM
over the grid.

For a covariant W block-positivity is also decided exactly, without a
search, by ``certify_block_positivity`` (its docstring states the minors,
the rounding bound and the cap).  Witness validation uses it; the
optimality probe's W - (r/2) v v* is in general not covariant, and its
check keeps the oracle.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRangeError, UndecidedError
from .linalg import CERTIFIED_SIGN, CERTIFIED_ZERO, EIG_FLOOR, FACE_TOL, INCLUSION_SLACK, SUBDIVISION_ROUNDING
from .linalg import _TINY, Array, require_hermitian
from .maps import MapParams, cp_threshold

_DESCENT_STOP = 1e-15  # relative decrease below which ``_descend`` stops
_REFINE_STEPS = 200  # cap on the oracle's descent iterations
_GRID_N = 8  # polar angles and phases of ``_grid``, the oracle's and the probe's


# One body per predicate, on the coordinates and pth = cp_threshold(theta)
# as plain floats or as numpy arrays alike; the MapParams predicates below
# are one-point calls of them.


def completely_positive_at(a, pth):
    return a >= pth - INCLUSION_SLACK


def completely_copositive_at(b, c):
    return b * c >= 1.0 - INCLUSION_SLACK


def surface_sides(a, b, c):
    """The two sides of (p2), b*c and (1 - a)^2."""
    return b * c, (1.0 - a) * (1.0 - a)


def positive_at(a, b, c, pth):
    bc, square = surface_sides(a, b, c)
    p2 = (a > 1.0 + INCLUSION_SLACK) | (bc >= square - INCLUSION_SLACK)
    return (a + b + c >= pth - INCLUSION_SLACK) & p2


def on_sum_at(a, b, c, pth):
    """Equality case of (p1): |a + b + c - pth| <= FACE_TOL."""
    return abs(a + b + c - pth) <= FACE_TOL


def on_surface_at(a, b, c):
    """Equality case of (p2) with a <= 1 + FACE_TOL (the mirror branch
    b*c = (a - 1)^2, a > 1 is not on the boundary), within FACE_TOL in the
    roots its kernel vectors use: (b*c)^(1/4) = (1 - a)^(1/2).  Both roots
    are taken by ``np.sqrt``, which is correctly rounded on floats and
    arrays alike (``**`` is not), so a point and a grid agree bit for bit."""
    return (a <= 1.0 + FACE_TOL) & (abs(np.sqrt(np.sqrt(b * c)) - np.sqrt(abs(1.0 - a))) <= FACE_TOL)


def is_completely_positive(p: MapParams) -> bool:
    """True iff a >= cp_threshold(theta) (so the Choi matrix is PSD)."""
    return completely_positive_at(p.a, cp_threshold(p.theta))


def is_completely_copositive(p: MapParams) -> bool:
    """True iff b*c >= 1 (so the partially transposed Choi matrix is PSD)."""
    return completely_copositive_at(p.b, p.c)


def is_positive(p: MapParams) -> bool:
    """True iff the map is positive: condition (p1) and, when a <= 1, (p2)."""
    return positive_at(p.a, p.b, p.c, cp_threshold(p.theta))


# ---------------------------------------------------------------------------
# Block-positivity oracle.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockPositivityReport:
    """Outcome of the grid + descent minimization of the smallest
    eigenvalue of the map applied to rank-1 projectors.

    ``min_value`` is the descended minimum and ``argmin_xi``/``argmin_eta``
    the unit product-vector factors witnessing it.
    """

    min_value: float
    argmin_xi: Array
    argmin_eta: Array

    @property
    def status(self) -> str:
        """'negative', 'nonnegative' or 'inconclusive' (NaN too) by the certified sign."""
        if self.min_value < -CERTIFIED_SIGN:
            return "negative"
        if self.min_value >= -CERTIFIED_ZERO:
            return "nonnegative"
        return "inconclusive"


#: The slots (i, j, k, l) of W[i, j, k, l] with {i, l} = {j, k}, as a 9x9
#: mask: Phi(DXD*) = D Phi(X) D* for every diagonal unitary D iff W vanishes
#: off them, since the slot scales by d_i conj(d_k) conj(d_j) d_l.
_COVARIANT = np.array(
    [{i, l} == {j, k} for i, j, k, l in itertools.product(range(3), repeat=4)]
).reshape(9, 9)


def _sphere_grid(polar_n: int, phase_n: int) -> tuple[Array, Array, Array, Array, Array]:
    """Deterministic grid on unit vectors of C^3 (first coordinate real).

    Returns (unit vectors, rank-1 projectors, pattern ids, moduli rows,
    phase patterns) of shapes (n, 3), (n, 3, 3), (n,), (polar_n^2, 3) and
    (phase_n^2, 3), n = polar_n^2 phase_n^2; the two polar angles take
    polar_n values in [0, pi/2] inclusive and the two phases phase_n values
    in [0, 2pi).  Cells are ij-ordered over (phi_1, phi_2, psi_1, psi_2):
    cell i phase_n^2 + j is the moduli row i times the phase pattern j, so
    each run of phase_n^2 consecutive cells holds the phase copies of one
    |xi|.  With phase_n = 1 the vectors are real: the grid of moduli.  Two
    cells share a pattern id iff their moduli rounded to 9 digits agree.
    """
    phi = np.linspace(0.0, math.pi / 2.0, polar_n)
    psi = np.linspace(0.0, 2.0 * math.pi, phase_n, endpoint=False)
    f1, f2 = (g.ravel() for g in np.meshgrid(phi, phi, indexing="ij"))
    s1, s2 = (g.ravel() for g in np.meshgrid(psi, psi, indexing="ij"))
    moduli = np.stack([np.cos(f1), np.sin(f1) * np.cos(f2), np.sin(f1) * np.sin(f2)], axis=1)
    phases = np.stack([np.ones_like(s1), np.exp(1j * s1), np.exp(1j * s2)], axis=1)
    xi = (moduli[:, None, :] * phases).reshape(-1, 3)
    projectors = np.einsum("ni,nj->nij", xi, xi.conj())
    patterns = np.unique(np.round(np.abs(xi), 9), axis=0, return_inverse=True)[1]
    return xi, projectors, patterns, moduli, phases


@functools.lru_cache(maxsize=1)
def _grid() -> tuple[Array, Array, Array, Array, Array]:
    """The one sphere grid of the oracle and the probe, ``_sphere_grid`` at
    _GRID_N with its moduli rows and phase patterns, which the probe's grid
    ratios factor through (covariance paragraph of the module docstring):
    built on first use, once, and read-only, since every caller shares it."""
    shared = _sphere_grid(_GRID_N, _GRID_N)
    for part in shared:
        part.flags.writeable = False
    return shared


def _distinct_starts(values: Array, k: int) -> Array:
    """Indices of the best cell of each of the ``k`` best moduli patterns
    of ``_grid``, best first, given its (n,) cell ``values``: for a covariant
    map the best cells are phase copies of one cell whose descents end at
    one point.  Each run of _GRID_N^2 phase copies gives its first smallest
    cell, ranked stably, and each pattern id its first ranked cell, so ties
    go to the first cell; the runs at phi_1 = 0 share one id.
    """
    run = _GRID_N * _GRID_N
    rows = values.reshape(-1, run)
    best = np.argmin(rows, axis=1) + run * np.arange(len(rows))
    best = best[np.argsort(values[best], kind="stable")]
    _, first = np.unique(_grid()[2][best], return_index=True)
    return best[np.sort(first)[:k]]


def _kernel_matrix(w: Array) -> Array:
    """9x9 matrix K of the map with Choi matrix ``w`` on flattened 3x3
    arguments: K[(i,k),(j,l)] = W[i,j,k,l], so Phi(X) = vec(X) K.

    K.T acts on the second tensor factor instead: vec(Y) K.T is the matrix
    M with M_{ik} = sum_{jl} Y_{jl} W[i,j,k,l].
    """
    return w.reshape(3, 3, 3, 3).transpose(0, 2, 1, 3).reshape(9, 9)


def _apply_kernel(kernel: Array, x: Array) -> Array:
    """The map with kernel matrix ``kernel`` applied to each 3x3 matrix of
    the stack ``x``, as one matmul; returns an (n, 3, 3) stack."""
    return (x.reshape(-1, 9) @ kernel).reshape(-1, 3, 3)


def _smallest_eigenvalues(a: Array) -> Array:
    """Smallest eigenvalue of each Hermitian 3x3 matrix of the stack ``a``,
    in closed trigonometric form (O. K. Smith, CACM 4:168, 1961; J. Kopp,
    arXiv:physics/0610206).

    With q = tr/3, p = |A - qI|_F / sqrt(6) and r = det(A - qI) / (2p^3),
    the eigenvalues are q + 2p cos(acos(r)/3 + 2k pi/3).  Near r = 1 (a
    double smallest eigenvalue) that form loses half the digits, so for
    r > 0 the two lower eigenvalues come from the accurate largest one, h,
    instead: they are m -+ g/2 with m = (3q - h)/2, and
    |(A - mI)(A - hI)|_F^2 = (g^2/4)(2(h - m)^2 + g^2/2) fixes g^2.
    Agrees with LAPACK to a few ulps of |A|.
    """
    d = np.stack([a[:, 0, 0].real, a[:, 1, 1].real, a[:, 2, 2].real])
    u, v, w = a[:, 0, 1], a[:, 1, 2], a[:, 0, 2]
    uu, vv, ww = np.abs(u) ** 2, np.abs(v) ** 2, np.abs(w) ** 2
    q = d.sum(axis=0) / 3.0
    e0, e1, e2 = d - q
    p = np.sqrt((e0 * e0 + e1 * e1 + e2 * e2 + 2.0 * (uu + vv + ww)) / 6.0)
    det = e0 * e1 * e2 + 2.0 * (u * v * w.conj()).real - e0 * vv - e1 * ww - e2 * uu
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(p > 0.0, np.clip(det / (2.0 * p**3), -1.0, 1.0), 1.0)
    angle = np.arccos(r) / 3.0
    low = q + 2.0 * p * np.cos(angle + 2.0 * math.pi / 3.0)
    high = q + 2.0 * p * np.cos(angle)
    m = (3.0 * q - high) / 2.0
    # (A - mI)(A - hI) is Hermitian: both factors are polynomials in A.
    x, y, s = d - m, d - high, d - (m + high) / 2.0
    f = (
        (x[0] * y[0] + uu + ww) ** 2
        + (x[1] * y[1] + uu + vv) ** 2
        + (x[2] * y[2] + vv + ww) ** 2
        + 2.0 * np.abs(u * (s[0] + s[1]) + w * v.conj()) ** 2
        + 2.0 * np.abs(w * (s[0] + s[2]) + u * v) ** 2
        + 2.0 * np.abs(v * (s[1] + s[2]) + u.conj() * w) ** 2
    )
    h2 = (high - m) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        gap2 = np.where(h2 > 0.0, 4.0 * f / (np.sqrt(h2 * h2 + 2.0 * f) + h2), 0.0)
    return np.where(r > 0.0, m - np.sqrt(gap2) / 2.0, low)


def _product_jacobian(a: Array, b: Array, da: Array, db: Array) -> Array:
    """(n, 9, 2k) complex Jacobian J of y(x) = (a + da x_a) (x) (b + db x_b)
    at x = 0, for the (n, 3) factors ``a``, ``b`` and the (n, 3, k) tangent
    bases ``da``, ``db``: J x = (da x_a) (x) b + a (x) (db x_b)."""
    n = len(a)
    first = (da[:, :, None, :] * b[:, None, :, None]).reshape(n, 9, -1)
    second = (a[:, :, None, None] * db[:, None, :, :]).reshape(n, 9, -1)
    return np.concatenate([first, second], axis=2)


def _pairing_model(
    w: Array, a: Array, b: Array, da: Array, db: Array, rank_one: tuple[Array, Array] | None = None
) -> tuple[Array, Array, Array]:
    """The second-order model of the pairing y* W y on the product manifold,
    at the n points y = a (x) b along y(x) = (a + da x_a) (x) (b + db x_b),
    batched over the (n, 3) factors and the (n, 3, k) complex tangent bases.

    Returns (J, g, Q): the Jacobian J of ``_product_jacobian``, the gradient
    g = 2 Re(J* W y) and the symmetric Q = Re(J* W J) plus the da (x) db
    cross block, so that y(x)* W y(x) = y* W y + g.x + x^T Q x + O(|x|^3)
    in the 2k real coordinates x = (x_a, x_b).

    With ``rank_one`` = (v, r), the (n, 9) vectors and (n,) weights of a
    rank-one term per point, point s models W - r_s v_s v_s* on the shared
    W: r (v* y) v leaves W y and r Re((J* v)(v* J)) leaves Q.
    """
    n, k = len(a), da.shape[2]
    jac = _product_jacobian(a, b, da, db)
    y = (a[:, :, None] * b[:, None, :]).reshape(n, 9)
    wy = y @ w.T
    jac_h = jac.conj().transpose(0, 2, 1)
    if rank_one is not None:
        v, r = rank_one
        wy -= (r * np.sum(v.conj() * y, axis=1))[:, None] * v
    grad = 2.0 * (jac_h @ wy[:, :, None])[:, :, 0].real
    q = (jac_h @ (w @ jac)).real
    if rank_one is not None:
        jv = (jac_h @ v[:, :, None])[:, :, 0]
        q -= r[:, None, None] * (jv[:, :, None] * jv.conj()[:, None, :]).real
    cross = (da.transpose(0, 2, 1) @ wy.conj().reshape(n, 3, 3) @ db).real
    q[:, :k, k:] += cross
    q[:, k:, :k] += cross.transpose(0, 2, 1)
    return jac, grad, q


def _complement_basis(a: Array) -> Array:
    """(n, 3, 2) orthonormal bases of the complements of the (n, 3) unit
    vectors ``a``, in closed form: the last two columns of the Householder
    reflection H = I - u u* / (1 + |a_1|), u = a + e^{i arg a_1} e_1, which
    is Hermitian and unitary and maps a to -e^{i arg a_1} e_1 (e^{i arg 0}
    is 1)."""
    u = a.copy()
    u[:, 0] += np.exp(1j * np.angle(a[:, 0]))
    scale = 1.0 / (1.0 + np.abs(a[:, 0]))
    return np.eye(3)[:, 1:] - u[:, :, None] * (scale[:, None] * a[:, 1:].conj())[:, None, :]


def _newton_candidates(
    w: Array, xi: Array, evals: Array, evecs: Array, rank_one: tuple[Array, Array] | None = None
) -> list[Array]:
    """Second-order candidates for the next first factor of each start.

    With a = conj(xi) and b = conj(eta), the smallest eigenvector of
    Phi(xi xi*) in ``evecs``, whose other two columns span b's complement,
    the pairing is y* W y at y = a (x) b, with value h, the smallest of the
    ``evals``.  Along da = A(t_1 + i t_2) and db = B(t_3 + i t_4), A the
    closed-form basis of a's complement (``_complement_basis``) and B those
    two columns, the ``_pairing_model`` g and Q give the pairing on the unit
    sphere as h + g.x + x^T (Q - h I) x in x = (x_a, x_b).  Only x_a moves
    the candidate, and the eta block is known: b is an eigenvector of the
    image, so g_b = 0 and (Q - h I)_bb = D = diag(l_2 - h, l_3 - h, l_2 - h,
    l_3 - h) from the other two ``evals``, with or without the rank-one
    term.  So x_b is eliminated by the Schur complement
    S = (Q - h I)_aa - Q_ab D^-1 Q_ba, its gaps floored at EIG_FLOOR times
    the model's largest entry plus _TINY (l_2 = h stays finite), and one
    4x4 eigensolve of S gives the Newton step with |eigenvalues| of S (so a
    saddle repels it), and, where S has negative curvature, steps of 0.5 and
    0.05 along it.  Where Q - h I is positive definite the step's x_a is
    that of the joint 8x8 model, by block elimination.  The per-start
    ``rank_one`` term of ``_descend`` passes to the model.
    """
    a, b = xi.conj(), evecs[:, :, 0]
    a_perp = _complement_basis(a)
    da = np.concatenate([a_perp, 1j * a_perp], axis=2)
    db = np.concatenate([evecs[:, :, 1:], 1j * evecs[:, :, 1:]], axis=2)
    _, grad, q = _pairing_model(w, a, b, da, db, rank_one)
    h = evals[:, :1]
    gaps = np.maximum(evals[:, 1:] - h, EIG_FLOOR * np.abs(q).max(axis=(1, 2))[:, None] + _TINY)
    q_ab, d = q[:, :4, 4:], np.tile(gaps, 2)
    schur = q[:, :4, :4] - h[:, :, None] * np.eye(4) - (q_ab / d[:, None, :]) @ q_ab.transpose(0, 2, 1)

    mu, e = np.linalg.eigh(schur)
    slope = np.einsum("nkl,nk->nl", e, grad[:, :4])
    floor = EIG_FLOOR * np.abs(mu).max(axis=1, keepdims=True) + _TINY
    steps = [-np.einsum("nkl,nl->nk", e, slope / (2.0 * np.maximum(np.abs(mu), floor)))]
    downhill = np.where(slope[:, :1] > 0.0, -e[:, :, 0], e[:, :, 0])
    steps += [np.where(mu[:, :1] < 0.0, size * downhill, 0.0) for size in (0.5, 0.05)]
    out = []
    for x in steps:
        moved = a + np.einsum("nik,nk->ni", a_perp, x[:, 0:2] + 1j * x[:, 2:4])
        out.append((moved / np.linalg.norm(moved, axis=1)[:, None]).conj())
    return out


def _drop_rank_one(images: Array, c: Array, r: Array) -> None:
    """Subtract r_s c_s c_s* from each 3x3 matrix of the stack ``images``,
    in place, for the (n, 3) vectors ``c`` and (n,) weights ``r``."""
    images -= r[:, None, None] * (c[:, :, None] * c.conj()[:, None, :])


def _descend(
    w: Array, xi: Array, steps: int, rank_one: tuple[Array, Array] | None = None
) -> tuple[Array, Array, Array]:
    """Batched descent on the pairing of ``w`` with the product projector
    of xi (x) eta, from the unit vectors ``xi``; returns the final xi, the
    smallest eigenvalue of Phi(xi xi*) (LAPACK) and its eigenvectors.  Each
    iteration offers every start the alternating step (eta at the smallest
    eigenvector of Phi(xi xi*), then xi at that of the second-factor map
    M(eta)) and the Newton steps of ``_newton_candidates``, and keeps the
    lowest exact value, so no value increases; the Newton steps leave the
    saddles where the alternating step alone stalls.  Every eigensolve of
    Phi(xi xi*) keeps its full eigenvalue triple, from which the Newton step
    takes eta's block of the model, so it solves a 4x4 Schur complement in
    xi alone (its gaps floored at EIG_FLOOR relative).  Stops when no start
    decreases by more than _DESCENT_STOP * max(1, |value|) or after ``steps``.

    With ``rank_one`` = (v, r), the (n, 9) vectors and (n,) weights of one
    rank-one term per start, start s descends the pairing of
    W - r_s v_s v_s* on the one shared kernel of W: with V_s = v_s as a 3x3
    matrix, the first-factor map loses r_s c c*, c = V_s^T xi, and the
    second-factor map loses r_s c c*, c = V_s eta.  Without it every step is
    the plain descent on W.
    """
    kernel = _kernel_matrix(w)
    images = _apply_kernel(kernel, xi[:, :, None] * xi.conj()[:, None, :])
    if rank_one is not None:
        v, r = rank_one
        mats = v.reshape(-1, 3, 3)
        _drop_rank_one(images, (xi[:, None, :] @ mats)[:, 0], r)
    evals, evecs = np.linalg.eigh(images)
    rows = np.arange(len(xi))
    for _ in range(steps):
        # With vec = conj(eta) the pairing is vec* Phi(xi xi*) vec, and also
        # u* M u with u = conj(xi), M = M(conj(vec) vec^T): each is minimized
        # by a smallest eigenvector.
        vec = evecs[:, :, 0]
        second = _apply_kernel(kernel.T, vec.conj()[:, :, None] * vec[:, None, :])
        if rank_one is not None:
            _drop_rank_one(second, (mats @ vec.conj()[:, :, None])[:, :, 0], r)
        alternating = np.linalg.eigh(second)[1][:, :, 0].conj()
        candidates = np.stack([alternating, *_newton_candidates(w, xi, evals, evecs, rank_one)], axis=1)
        flat = candidates.reshape(-1, 3)
        images = _apply_kernel(kernel, flat[:, :, None] * flat.conj()[:, None, :])
        if rank_one is not None:
            _drop_rank_one(images, (candidates @ mats).reshape(-1, 3), np.repeat(r, candidates.shape[1]))
        cand_evals, cand_evecs = np.linalg.eigh(images)
        pick = np.argmin(cand_evals[:, 0].reshape(len(xi), -1), axis=1) + rows * candidates.shape[1]
        previous = evals[:, 0]
        xi, evals, evecs = flat[pick], cand_evals[pick], cand_evecs[pick]
        if not np.any(previous - evals[:, 0] > _DESCENT_STOP * np.maximum(1.0, np.abs(evals[:, 0]))):
            break
    return xi, evals[:, 0], evecs


def block_positivity_oracle(w) -> BlockPositivityReport:
    """Minimize the smallest eigenvalue of the map with the 9x9 Choi matrix
    ``w`` applied to rank-1 projectors, over the unit sphere of C^3: of the
    _GRID_N^4 cells of moduli and phases of ``_grid``, ranked by the
    closed-form smallest eigenvalue, the best cell of each of the 10 best
    moduli patterns (``_distinct_starts``) starts ``_descend`` for at most
    _REFINE_STEPS iterations, and the best descended start is reported.
    Its value comes from LAPACK at the reported point, and ties resolve to
    the first start.  Raises NonHermitianError unless ``w`` is a finite
    Hermitian matrix and ValueError unless it is 9x9.
    """
    w = require_hermitian(w)
    if w.shape != (9, 9):
        raise ValueError(f"expected a 9x9 Choi matrix, got {w.shape}")
    xi_grid, projectors = _grid()[:2]
    values = _smallest_eigenvalues(_apply_kernel(_kernel_matrix(w), projectors))
    xi, value, evecs = _descend(w, xi_grid[_distinct_starts(values, 10)], _REFINE_STEPS)
    best = int(np.argmin(value))
    # pairing(z z*, map) = <map(xi xi*) eta_bar, eta_bar>, so eta is the
    # conjugate of the minimizing eigenvector.
    return BlockPositivityReport(float(value[best]), xi[best], evecs[best, :, 0].conj())


# ---------------------------------------------------------------------------
# Subdivision certificate for a covariant W.
# ---------------------------------------------------------------------------


_CELL_CAP = 16384  # cells the certificate examines at most before it gives up


@dataclass(frozen=True)
class BlockPositivityCertificate:
    """Outcome of ``certify_block_positivity``.

    ``status`` is 'certified' (lambda_min Phi(xi xi*) >= -CERTIFIED_ZERO
    |xi|^2 for every xi, proved) or 'negative'; a negative one carries the
    moduli ``u`` = |xi|^2 of a simplex point where a shifted minor is
    negative and ``value``, the smallest eigenvalue of Phi(xi xi*) at
    xi = sqrt(u) by LAPACK.  ``cells`` counts the triangles examined and
    ``depth`` the subdivision levels below the simplex; both depend on W
    only, not on the machine.
    """

    status: str
    cells: int
    depth: int
    u: Array | None = None
    value: float | None = None


@functools.lru_cache(maxsize=1)
def _subdivision() -> tuple[Array, Array, Array, tuple]:
    """The fixed tables of the certificate, built on first use.

    A triangle's state is a row of 28: its Bernstein coefficients of
    degrees 1, 2 and 3 (3 + 6 + 10 columns, multi-indices in
    ``combinations_with_replacement`` order), then its three vertices in u
    (9 columns).  Returns the (28, 112) block-diagonal matrix taking a state
    to its four children's, child by child; the columns and vertices of the
    nine corner coefficients; and each coefficient column's (degree,
    multi-index, multinomial n!/alpha!).

    Midpoint subdivision gives the three corner triangles, then the middle
    one; ``children`` holds each child's vertices in the parent's
    barycentric coordinates.  A child coefficient is the polar form at child
    vertices, each a dyadic convex combination of the parent's, so by
    multilinearity each row is a convex combination of the parent's
    coefficients with dyadic weights, exact in floats; the child vertices
    are exact dyadic midpoints too.
    """
    children = np.array(
        [
            [[1, 0, 0], [0.5, 0.5, 0], [0.5, 0, 0.5]],
            [[0.5, 0.5, 0], [0, 1, 0], [0, 0.5, 0.5]],
            [[0.5, 0, 0.5], [0, 0.5, 0.5], [0, 0, 1]],
            [[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]],
        ]
    )
    matrix = np.zeros((28, 4, 28))
    corners, vertices, columns, at = [], [], [], 0
    for n in (1, 2, 3):
        index = list(itertools.combinations_with_replacement(range(3), n))
        column = {alpha: at + k for k, alpha in enumerate(index)}
        for c, child in enumerate(children):
            for beta in index:
                for js in itertools.product(range(3), repeat=n):
                    weight = math.prod(child[i, j] for i, j in zip(beta, js))
                    matrix[column[tuple(sorted(js))], c, column[beta]] += weight
        for alpha in index:
            columns.append((n, alpha, math.factorial(n) // math.prod(math.factorial(alpha.count(i)) for i in range(3))))
        corners += [column[(k,) * n] for k in range(3)]
        vertices += range(3)
        at += len(index)
    for c, child in enumerate(children):
        matrix[19:, c, 19:] = np.kron(child.T, np.eye(3))
    tables = (matrix.reshape(28, 112), np.array(corners), np.array(vertices))
    for table in tables:
        table.flags.writeable = False
    return (*tables, tuple(columns))


def _times(*forms: dict) -> dict:
    """Product of forms in u, each {sorted multi-index: integer coefficient}."""
    out = {(): 1}
    for form in forms:
        product: dict = {}
        for a, x in out.items():
            for b, y in form.items():
                key = tuple(sorted(a + b))
                product[key] = product.get(key, 0) + x * y
        out = product
    return out


def _root_coefficients(w: Array, columns: tuple) -> Array:
    """The 19 Bernstein coefficients on the simplex of the leading minors
    d_0, m_2 = d_0 d_1 - |W_01|^2 u_0 u_1 and
    d_2 m_2 + 2 Re(W_01 W_12 W_20) u_0 u_1 u_2 - |W_12|^2 u_1 u_2 d_0
    - |W_02|^2 u_0 u_2 d_1 of M(u) + eps (sum u) I, d_j = L_j(u) + eps sum u,
    in ``_subdivision``'s columns, each the exact value rounded once.  Every
    entry is a double, so an integer times 2^-k for one k: the monomial
    coefficients c_alpha are exact integers at scale 2^(nk), and b_alpha =
    c_alpha alpha!/n! is one correctly rounded integer division."""
    w01, w12, w20 = w[0, 4], w[4, 8], w[8, 0]
    reals = [*w.diagonal().real.tolist(), CERTIFIED_ZERO, w01.real, w01.imag, w12.real, w12.imag, w20.real, w20.imag]
    ratios = [float(x).as_integer_ratio() for x in reals]
    k = max(den.bit_length() for _, den in ratios) - 1
    ints = [num << (k + 1 - den.bit_length()) for num, den in ratios]
    eps, (r01, i01, r12, i12, r20, i20) = ints[9], ints[10:]
    d = [{(i,): ints[3 * i + j] + eps for i in range(3)} for j in range(3)]
    q01, q12, q02 = r01 * r01 + i01 * i01, r12 * r12 + i12 * i12, r20 * r20 + i20 * i20
    m2 = _times(d[0], d[1])
    m2[(0, 1)] -= q01
    m3 = _times(m2, d[2])
    m3[(0, 1, 2)] += 2 * (r01 * r12 * r20 - r01 * i12 * i20 - i01 * r12 * i20 - i01 * i12 * r20)
    for key, x in (*_times(d[0], {(1, 2): -q12}).items(), *_times(d[1], {(0, 2): -q02}).items()):
        m3[key] += x
    forms = {1: d[0], 2: m2, 3: m3}
    return np.array([forms[n][alpha] / (multinomial << n * k) for n, alpha, multinomial in columns])


def certify_block_positivity(w) -> BlockPositivityCertificate:
    """Decide lambda_min Phi(xi xi*) >= -CERTIFIED_ZERO |xi|^2 for the map
    with the covariant 9x9 Choi matrix ``w`` by Bernstein subdivision on
    the simplex (J. Garloff, 1986), with a stated rounding bound.

    Covariance makes Phi(xi xi*) unitarily similar to M(u) at u = |xi|^2:
    diagonal L_j(u) = sum_i u_i W[i,j,i,j], off-diagonal
    sqrt(u_j u_l) W[j,j,l,l].  With eps = CERTIFIED_ZERO the leading minors
    of M(u) + eps (sum u) I are forms of degree 1, 2 and 3 in u
    (``_root_coefficients``); the cubic carries 2 Re(W_01 W_12 W_20)
    u_0 u_1 u_2.  By Sylvester's criterion the claim holds iff all three are
    positive on the simplex, and a negative leading minor anywhere makes
    lambda_min < -eps there (interlacing).  Their Bernstein coefficients on
    a triangle are their polar forms at its vertices, and the corner ones
    are the minors' values.  Each level splits every undecided triangle into
    four by the fixed dyadic tables of ``_subdivision``, one matmul for all
    triangles.  A triangle is decided when every coefficient exceeds the
    rounding bound: at depth k, (k + 1) SUBDIVISION_ROUNDING times the
    minor's scale, its largest root coefficient in magnitude, floored at
    the smallest normal double so that underflow is covered too.  The root
    coefficients are exact values rounded once, and each level adds less
    than one more step, since a subdivision row is a convex combination
    (a dot product of at most 10 terms).  The search ends 'certified' when
    no triangle is left, and 'negative' at the first level where a corner
    minor lies below minus the bound; the result then carries that
    corner's u (the lowest by LAPACK, if several) and the LAPACK smallest
    eigenvalue of Phi(xi xi*) at xi = sqrt(u), through ``_apply_kernel``.
    Where M(u) + eps I has two eigenvalues near eps at one u, the cubic
    minor is of order eps^2 there and can stay under the bound: the family
    members with b = c = 0 are not decided.

    Raises UndecidedError when the next level would take the triangles
    examined past _CELL_CAP, so time and memory stay bounded (W = -eps I,
    whose shifted minors vanish identically, ends there); OutOfRangeError
    when a minor's coefficient overflows a double; NonHermitianError unless
    ``w`` is a finite Hermitian matrix; and ValueError unless it is 9x9 and
    exactly zero off ``_COVARIANT``.
    """
    w = require_hermitian(w)
    if w.shape != (9, 9):
        raise ValueError(f"expected a 9x9 Choi matrix, got {w.shape}")
    if np.any(w[~_COVARIANT]):
        raise ValueError("the certificate needs a covariant Choi matrix, exactly zero off positivity._COVARIANT")
    matrix, corners, vertices, columns = _subdivision()
    try:
        coefficients = _root_coefficients(w, columns)
    except OverflowError:
        raise OutOfRangeError("a minor's Bernstein coefficient overflows a double") from None
    magnitude = np.abs(coefficients)
    scale = np.array([magnitude[:3].max(), magnitude[3:9].max(), magnitude[9:].max()]).repeat([3, 6, 10])
    scale = SUBDIVISION_ROUNDING * np.maximum(scale, np.finfo(float).tiny)
    states = np.concatenate([coefficients, np.eye(3).ravel()])[None]
    count, depth = 1, 0
    while True:
        bound = (depth + 1) * scale
        low = states[:, corners] < -bound[corners]
        if low.any():
            cell, corner = np.nonzero(low)
            u = states[:, 19:].reshape(-1, 3, 3)[cell, vertices[corner]]
            xi = np.sqrt(u)
            values = np.linalg.eigvalsh(_apply_kernel(_kernel_matrix(w), xi[:, :, None] * xi[:, None, :]))[:, 0]
            k = int(np.argmin(values))
            return BlockPositivityCertificate("negative", count, depth, u[k], float(values[k]))
        undecided = ~np.all(states[:, :19] > bound, axis=1)
        live = int(undecided.sum())
        if not live:
            return BlockPositivityCertificate("certified", count, depth)
        if count + 4 * live > _CELL_CAP:
            raise UndecidedError(
                f"block-positivity certificate undecided after {count} cells at depth {depth}: "
                f"{4 * live} more would pass the cap of {_CELL_CAP}"
            )
        states = (states[undecided] @ matrix).reshape(4 * live, 28)
        count, depth = count + 4 * live, depth + 1
