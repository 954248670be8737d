"""Paper lemmas that the tests check the package against.

No verdict of the package reaches them, so they live beside the tests as
independent references: the map itself entry by entry, the pairing with a
family member, the phase circulant that decides complete positivity, the
probe's subtractable weights by one eigensolve per vector, its kernel
limits by one eigensolve per kernel vector and direction, its Dinkelbach
rounds one direction at a time on the explicit W - r v v*, the probe with
every direction refined (the package refines only the directions that can
still be the largest), the descent's
Newton step from the joint model in both factors, the closed-form
spanning and co-spanning conditions (the package reads both flags off the
face's property-table row), the paper's closed-form |det| of the nine
canonical kernel columns and of their partial conjugates (the package's
evidence is the sample's rank and the gap around its cut), the tensors
of a kernel sample by one kron per vector (the package broadcasts), the
one-vector kernel check and the numeric rank (the package checks each
sample in one batch and cuts its own SVDs at the same RANK_REL), the
closed-form optimality certificate of the two vertices with first
coordinate 1 from the probe families of the paper's proof, and the kernel
vectors and the equal-subtraction restriction of the {6,8} edge states,
the Bernstein coefficients of the certificate's shifted minors as exact
polar forms, and the block-positivity oracle on the finer moduli grid of a
covariant Choi matrix (the package scans one grid of moduli and phases for
every matrix), the report serializer that the one-walk writer
replaced (a canonicalized copy of the document through ``json.dumps``),
and, entry by entry, the witness ansatz, the two kernel families with
their three cyclic shifts and the coordinate kernel vectors (the package
builds the family's shape once, writes the shifts once and reads the
coordinate vectors off the Choi diagonal), and the simplex sweep's points
from square blocks of whole rows filtered by their c (the package builds
only the columns that the filter keeps).
"""

import cmath
import functools
import itertools
import json
import math
from fractions import Fraction

import numpy as np

from choimaps import InternalConsistencyError, MapParams, OutOfRangeError, UnsupportedCaseError, UnsupportedThetaError
from choimaps import choi_matrix, cp_threshold, edge_state, pairing_value, partial_transpose
from choimaps.faces import require_generic_theta
from choimaps.linalg import CERTIFIED_SIGN, CERTIFIED_ZERO, EIG_FLOOR, FACE_TOL, INCLUSION_SLACK, RANK_REL
from choimaps.linalg import RESIDUE_ABS, RESIDUE_REL
from choimaps.linalg import _TINY, require_hermitian
from choimaps import optimality
from choimaps.optimality import _DINKELBACH_STOP, _P_MAX, _ROUNDS, _hessian_null, _ratio_on_grid
from choimaps import positivity
from choimaps.positivity import _COVARIANT, BlockPositivityReport, _apply_kernel, _descend, _distinct_starts
from choimaps.positivity import _kernel_matrix, _pairing_model, _smallest_eigenvalues, _sphere_grid
from choimaps.positivity import on_sum_at, on_surface_at
from choimaps.reporting import SCHEMA_VERSION, ReportDocument, round_real
from choimaps.spanning import DEFAULT_PAIRS, DEFAULT_TRIPLES, GENERIC_PAIRS, _equal_modulus_vector, _kernel_point


def apply_map(p: MapParams, x) -> np.ndarray:
    """Apply the map named by ``p`` to a 3x3 matrix, entry by entry: the
    package applies it only through the matmul kernel of its Choi matrix."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (3, 3):
        raise ValueError(f"apply_map requires a 3x3 argument, got {x.shape}")
    e = complex(math.cos(p.theta), math.sin(p.theta))
    a, b, c = p.a, p.b, p.c
    out = np.empty((3, 3), dtype=complex)
    out[0, 0] = a * x[0, 0] + b * x[1, 1] + c * x[2, 2]
    out[1, 1] = c * x[0, 0] + a * x[1, 1] + b * x[2, 2]
    out[2, 2] = b * x[0, 0] + c * x[1, 1] + a * x[2, 2]
    out[0, 1] = -e * x[0, 1]
    out[1, 2] = -e * x[1, 2]
    out[2, 0] = -e * x[2, 0]
    out[0, 2] = -e.conjugate() * x[0, 2]
    out[1, 0] = -e.conjugate() * x[1, 0]
    out[2, 1] = -e.conjugate() * x[2, 1]
    return out


def pairing(a, p: MapParams) -> float:
    """Pairing Tr(A C^t) of a Hermitian matrix A with the map named by ``p``."""
    return pairing_value(require_hermitian(a), choi_matrix(p))


def full_grid_ratios(w, matrices, xi) -> np.ndarray:
    """The probe's (ndir, n) subtractable weights 1/(b* A^+ b), A = Phi(xi xi*),
    b = m^T xi, with the eigenvalue floor EIG_FLOOR max(1, lambda_max), by one
    ``eigh`` of A at every vector: the package solves once per moduli row
    |xi| and takes the grid's phases into one GEMM instead."""
    lam, u = np.linalg.eigh(_apply_kernel(_kernel_matrix(w), xi[:, :, None] * xi.conj()[:, None, :]))
    lam_floor = np.maximum(lam, EIG_FLOOR * np.maximum(lam[:, -1:], 1.0))
    directions_b = np.einsum("dji,nj->dni", matrices, xi)
    beta2 = np.abs(np.einsum("nij,dni->dnj", u.conj(), directions_b)) ** 2
    denom = np.sum(beta2 / lam_floor[None, :, :], axis=2)
    with np.errstate(divide="ignore"):
        return np.where(denom > 0, 1.0 / denom, np.inf)


def kernel_limit_ratio(mu, e, rows) -> float:
    """One kernel vector's limit for one direction: the reciprocal largest
    eigenvalue of L Q2^+ L^T, from the eigendecomposition (mu, e) of its
    Hessian Q2 and the (2, 12) penalty rows L, over the Hessian's non-null
    eigenvalues only (infinite where L or that part vanishes).  The package
    stacks every (vector, direction) pair into one eigensolve instead."""
    if float(np.linalg.norm(rows)) < INCLUSION_SLACK:
        return math.inf
    b = rows @ e
    pos = ~_hessian_null(mu)
    if not pos.any():
        return math.inf
    m2 = (b[:, pos] / mu[pos]) @ b[:, pos].T
    top = float(np.linalg.eigvalsh(m2)[-1])
    return 1.0 / top if top > _TINY else math.inf


def phase_circulant(a: float, theta: float) -> np.ndarray:
    """Hermitian 3x3 matrix with constant diagonal ``a`` and cyclic phase
    off-diagonals; its positivity decides complete positivity of the map.

    det = a^3 - 3a - 2cos(3 theta).
    """
    e = complex(math.cos(theta), math.sin(theta))
    m = np.full((3, 3), 0.0, dtype=complex)
    np.fill_diagonal(m, a)
    for u, v in ((0, 1), (1, 2), (2, 0)):
        m[u, v] = -e
        m[v, u] = -e.conjugate()
    return m


def spans_closed_form(p: MapParams) -> bool:
    """The paper's spanning condition: 0 <= a < 1 and b*c = (1 - a)^2, within
    ``FACE_TOL``."""
    return bool(p.a < 1.0 - FACE_TOL and on_surface_at(*p.abc))


def cospans_closed_form(p: MapParams) -> bool:
    """The paper's co-spanning condition, within ``FACE_TOL``: a + b + c = pth
    and either the surface piece 2 - pth <= a <= 1, b*c = (1 - a)^2, or the
    coordinate piece 1 <= a <= pth, b*c = 0."""
    pth = require_generic_theta(p.theta)
    surface_piece = p.a >= 2.0 - pth - FACE_TOL and on_surface_at(*p.abc)
    coordinate_piece = 1.0 - FACE_TOL <= p.a <= pth + FACE_TOL and min(p.b, p.c) <= FACE_TOL
    return bool(on_sum_at(*p.abc, pth) and (surface_piece or coordinate_piece))


def product_tensors(xi, eta, conjugate: bool = False) -> np.ndarray:
    """The (n, 9) tensors xi (x) eta of the row pairs of the (n, 3) factors
    ``xi`` and ``eta`` (xi (x) conj(eta) when ``conjugate``), one
    ``np.kron`` per row: the package builds them by broadcasting."""
    pairs = zip(np.asarray(xi, dtype=complex), np.asarray(eta, dtype=complex))
    return np.array([np.kron(x, e.conj() if conjugate else e) for x, e in pairs]).reshape(-1, 9)


def kernel_vectors(p: MapParams) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (xi, eta) row pairs of the point's kernel record."""
    k = _kernel_point(p)
    return list(zip(k.xi, k.eta))


def in_kernel(p: MapParams, xi, eta) -> bool:
    """Whether Phi(xi xi*) annihilates conj(eta), to the residue
    RESIDUE_REL |xi|^2 |eta|, with Phi read off ``choi_matrix(p)`` for the
    one vector: the package checks a record's whole sample in one batch,
    through its kernel matrix, on factors scaled against overflow."""
    xi, eta = np.asarray(xi, dtype=complex), np.asarray(eta, dtype=complex)
    image = np.einsum("ik,ijkl->jl", np.outer(xi, xi.conj()), choi_matrix(p).reshape(3, 3, 3, 3))
    residue = np.linalg.norm(image @ eta.conj())
    return bool(residue <= RESIDUE_REL * np.vdot(xi, xi).real * np.linalg.norm(eta))


def numeric_rank(m) -> int:
    """Number of singular values above RANK_REL relative to the largest (0
    for the zero matrix): the package cuts its own SVDs at the same
    RANK_REL, since its reports also give the gap around the cut."""
    s = np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)
    return int(np.count_nonzero(s > RANK_REL * s[0])) if len(s) and s[0] > 0.0 else 0


def witness_matrix(theta: float, alpha_tilde: float, b_slot: float, c_slot: float) -> np.ndarray:
    """The unnormalized witness ansatz entry by entry: the package builds it
    with the family's shape."""
    w = np.zeros((9, 9), dtype=complex)
    diag = (alpha_tilde, c_slot, b_slot, b_slot, alpha_tilde, c_slot, c_slot, b_slot, alpha_tilde)
    for k, v in enumerate(diag):
        w[k, k] = v
    e = cmath.exp(1j * theta)
    for u, v in ((0, 4), (4, 8), (8, 0)):
        w[u, v] = 1.0 + e.conjugate()
        w[v, u] = 1.0 + e
    return w


def surface_family(p: MapParams, alpha: complex, beta: complex) -> list[tuple]:
    """Kernel vectors on the surface b*c = (1 - a)^2 with 0 < a <= 1, their
    three cyclic shifts written out: the package writes the shifts once."""
    a, b, c = p.abc
    e = cmath.exp(-1j * p.theta)
    root = math.sqrt(max(1.0 - a, 0.0))
    b4, c4, sb = b**0.25, c**0.25, math.sqrt(b)
    al, be = complex(alpha), complex(beta)
    return [
        ((b4 * al, c4 * be, 0.0), (al.conjugate() * e * root, be.conjugate() * sb, 0.0)),
        ((c4 * be, 0.0, b4 * al), (be.conjugate() * sb, 0.0, al.conjugate() * e * root)),
        ((0.0, b4 * al, c4 * be), (0.0, al.conjugate() * e * root, be.conjugate() * sb)),
    ]


def copositive_family(p: MapParams, alpha: complex, beta: complex) -> list[tuple]:
    """Kernel vectors at a = 0, b*c = 1, their three cyclic shifts written
    out."""
    b = p.b
    e = cmath.exp(1j * p.theta)
    al, be = complex(alpha), complex(beta)
    return [
        ((al, be, 0.0), (al.conjugate(), e * be.conjugate() * b, 0.0)),
        ((be, 0.0, al), (e * be.conjugate() * b, 0.0, al.conjugate())),
        ((0.0, al, be), (0.0, al.conjugate(), e * be.conjugate() * b)),
    ]


def axis_vectors(p: MapParams) -> list[tuple]:
    """Coordinate kernel vectors e_i (x) e_j wherever the diagonal of the map
    on e_i e_i*, written out from (a, b, c), has a zero entry: the package
    reads it off the Choi diagonal."""
    a, b, c = p.abc
    diag_rows = ((a, c, b), (b, a, c), (c, b, a))
    basis = np.eye(3, dtype=complex)
    return [
        (basis[i], basis[j])
        for i, row in enumerate(diag_rows)
        for j, val in enumerate(row)
        if val <= INCLUSION_SLACK
    ]


def case_factors(p: MapParams) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 3) kernel factors xi and eta of the record of ``p`` in case i,
    case iii or off the cases, from the written-out families at
    ``GENERIC_PAIRS`` and the written-out coordinate vectors, stacked in that
    order without the rows whose xi or eta vanishes.  ValueError in cases ii
    and iv."""
    k = _kernel_point(p)
    if k.case not in (None, "i", "iii"):
        raise ValueError(f"case {k.case} has no written-out family here")
    family = {"i": surface_family, "iii": copositive_family}.get(k.case)
    rows = [row for al, be in GENERIC_PAIRS for row in family(k.params, al, be)] if family else []
    pairs = np.array(rows + axis_vectors(k.params), dtype=complex).reshape(-1, 2, 3)
    pairs = pairs[np.any(pairs != 0, axis=2).all(axis=1)]
    return pairs[:, 0], pairs[:, 1]


def _nine_columns(rows, conjugate: bool = False) -> np.ndarray | None:
    """The 9x9 matrix whose columns are the tensors of nine kernel-family
    (xi, eta) rows (or their partial conjugates); None unless exactly nine
    rows have no vanishing factor."""
    pairs = np.array(rows, dtype=complex).reshape(-1, 2, 3)
    pairs = pairs[np.all(np.linalg.norm(pairs, axis=2) > 0, axis=1)]
    return product_tensors(pairs[:, 0], pairs[:, 1], conjugate).T if len(pairs) == 9 else None


def spanning_columns(p: MapParams) -> np.ndarray | None:
    """The nine canonical kernel columns in the determinant cases: the
    surface family (cases i and ii) or the copositive family (case iii) at
    ``DEFAULT_PAIRS``; None in the other cases, or where the surface family
    loses a member."""
    case = _kernel_point(p).case
    if case not in ("i", "ii", "iii"):
        return None
    family = copositive_family if case == "iii" else surface_family
    return _nine_columns([row for al, be in DEFAULT_PAIRS for row in family(p, al, be)])


def spanning_det_closed_form(p: MapParams) -> float | None:
    """Closed-form |det| of ``spanning_columns``, when defined; inf when it
    overflows a double.  Raises NotPositiveMapError on a map that is not
    positive."""
    case = _kernel_point(p).case
    b, c = p.b, p.c
    try:
        if case in ("i", "ii"):
            return 64.0 * b**4.5 * c**2.25 * abs(1.0 + cmath.exp(-3j * p.theta))
        if case == "iii":
            return 64.0 * b**3 * abs(1.0 + b**3 * cmath.exp(3j * p.theta))
    except OverflowError:
        return math.inf
    return None


def cospanning_columns(p: MapParams) -> np.ndarray | None:
    """The nine partially conjugated canonical kernel columns on the
    sum-threshold surface case: six surface vectors at phase pairs
    (1, +-1) plus the three default equal-modulus triples.  Raises
    NotPositiveMapError on a map that is not positive."""
    if _kernel_point(p).case != "ii":
        return None
    rows = []
    for al, be in ((1.0, 1.0), (1.0, -1.0)):
        rows.extend(surface_family(p, al, be))
    for al, be, ga in DEFAULT_TRIPLES:
        rows.append(_equal_modulus_vector(p.theta, al, be, ga))
    return _nine_columns(rows, conjugate=True)


def cospanning_det_closed_form(p: MapParams) -> float | None:
    """Closed-form |det| of ``cospanning_columns`` on the sum-threshold
    surface case, branchwise in theta.  Raises NotPositiveMapError on a map
    that is not positive."""
    if _kernel_point(p).case != "ii":
        return None
    third = math.pi / 3.0
    if -math.pi < p.theta < -third:
        shift = p.theta + 2.0 * third
    elif -third < p.theta < third:
        shift = p.theta
    else:
        shift = p.theta - 2.0 * third
    b, c = p.b, p.c
    return (
        16.0
        * math.sqrt(2.0)
        * b**2.25
        * c**0.75
        * abs((math.sqrt(b) - math.sqrt(c) * cmath.exp(1j * shift)) ** 3 * (1.0 + cmath.exp(3j * p.theta)))
    )


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


def _diag_pairing_form(family) -> np.ndarray:
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


def edge_kernel_vectors(b: float, theta: float):
    """The kernel 9-vector of the edge state and the three kernel 9-vectors
    of its partial transpose.

    Validated: the pairing of the first against the edge state and of the
    others against its partial transpose vanish to the residue RESIDUE_ABS.
    """
    rho = edge_state(b, theta)  # validates b and theta
    e = cmath.exp(1j * theta)
    sb = math.sqrt(b)
    z, w1, w2, w3 = np.zeros((4, 9), dtype=complex)
    z[[0, 4, 8]] = 1.0
    w1[1], w1[3] = sb, e / sb
    w2[5], w2[7] = sb, e / sb
    w3[2], w3[6] = e / sb, sb

    rho_pt = partial_transpose(rho)
    value = pairing_value(np.outer(z, z.conj()), rho)
    if abs(value) > RESIDUE_ABS:
        raise InternalConsistencyError(f"state kernel vector pairing is nonzero: {value!r}")
    for k, w in enumerate((w1, w2, w3), start=1):
        value = pairing_value(np.outer(w, w.conj()), rho_pt)
        if abs(value) > RESIDUE_ABS:
            raise InternalConsistencyError(
                f"partial-transpose kernel vector w{k} pairing is nonzero: {value!r}"
            )
    return z, w1, w2, w3


def equal_subtraction_restriction(b: float, theta: float) -> bool:
    """Whether the equal-parameter witness shortcut can be optimal at
    (b, theta): requires b + 1/b <= 2 - sqrt(3) + sqrt(6 sqrt(3) - 6) and
    cos(theta/2) <= (3 + sqrt(21)) / 8."""
    if not b > 0:
        raise OutOfRangeError(f"b must be positive, got {b}")
    bound_b = 2.0 - math.sqrt(3.0) + math.sqrt(6.0 * math.sqrt(3.0) - 6.0)
    bound_t = (3.0 + math.sqrt(21.0)) / 8.0
    return b + 1.0 / b <= bound_b and math.cos(theta / 2.0) <= bound_t


def dinkelbach_reference(w, v, ratios, bound: float):
    """One direction's Dinkelbach rounds, one direction at a time: from the
    best cells of the 20 best moduli patterns of the oracle's grid by their
    ``ratios``, r = min(best grid ratio, ``bound``), each round one
    ``_descend`` iteration on the explicit matrix W - r v v* and the exact
    ratios at the new vectors; stops after _ROUNDS rounds, when r falls by
    less than _DINKELBACH_STOP r, or at a tenth of CERTIFIED_ZERO.  Returns
    r and the unit xi of the smallest ratio evaluated.  The package runs
    every direction's rounds in one batch, with W - r v v* as a rank-one
    term on the shared kernel of W."""
    starts = _distinct_starts(ratios, 20)
    xi, r = positivity._grid()[0][starts], min(float(ratios[starts[0]]), bound)
    best_xi, best_ratio = xi[0], float(ratios[starts[0]])
    vv = np.outer(v, v.conj())
    for _ in range(_ROUNDS):
        if not CERTIFIED_ZERO / 10 < r < math.inf:
            break
        xi = _descend(w - r * vv, xi, 1)[0]
        reached = _ratio_on_grid(w, v.reshape(1, 3, 3), xi[None])[0]
        k = int(np.argmin(reached))
        if reached[k] < best_ratio:
            best_xi, best_ratio = xi[k], float(reached[k])
        r, previous = min(r, best_ratio), r
        if r > previous - _DINKELBACH_STOP * previous:
            break
    return r, best_xi


def refine_every_direction(p: MapParams, n_directions: int):
    """The probe's directions refined one and all: its ``n_directions``
    directions, kernel limits and grid ratios, and ``_dinkelbach`` over
    every direction, in blocks of _BLOCK, each weight capped at _P_MAX.
    Returns the Choi matrix at the face's coordinates, the (ndir, 9)
    directions, the (ndir,) capped weights and the (ndir, 3) unit xi of
    each direction's smallest ratio."""
    w = choi_matrix(_kernel_point(p).params)
    try:
        basis, model = optimality._second_order(p)
    except UnsupportedCaseError:
        basis, model = np.eye(9, dtype=complex), None
    directions = optimality._directions(len(basis), n_directions) @ basis
    weights, reached = [], []
    for lo in range(0, len(directions), optimality._BLOCK):
        part = directions[lo : lo + optimality._BLOCK]
        if model is None:
            limits = np.full(len(part), math.inf)
        else:
            limits = optimality._kernel_limit_ratio(model[0], model[1], optimality._penalty_rows(model[2], part))
        ratios = _ratio_on_grid(w, part.reshape(-1, 3, 3))
        r, at = optimality._dinkelbach(w, part, ratios, limits)
        weights.append(np.minimum(r, _P_MAX))
        reached.append(at)
    return w, directions, np.concatenate(weights), np.concatenate(reached)


def probe_reference(w, directions, weights, xi):
    """The probe's verdict from every direction's refined ``weights``
    (``refine_every_direction``): the first direction of the largest weight
    r, 'optimal' at or below CERTIFIED_ZERO, and above CERTIFIED_SIGN the
    oracle on W - (r/2) v v* and the smallest eigenvalue of the map of
    W - min(2r, _P_MAX) v v* at that direction's xi.  Returns (verdict, r,
    index of the direction, verification)."""
    top = int(np.argmax(weights))
    r, v = float(weights[top]), directions[top]
    if r <= CERTIFIED_ZERO:
        return "optimal", r, top, {}
    if r <= CERTIFIED_SIGN:
        return "inconclusive", r, top, {}
    vv = np.outer(v, v.conj())
    keep = positivity.block_positivity_oracle(w - 0.5 * r * vv)
    image = _apply_kernel(_kernel_matrix(w - min(2.0 * r, _P_MAX) * vv), np.outer(xi[top], xi[top].conj()))
    verification = {
        "oracle_at_half": keep.min_value,
        "pairing_at_double": float(np.linalg.eigvalsh(image)[0, 0]),
        "xi_at_double": xi[top],
    }
    return ("not_optimal" if keep.status == "nonnegative" else "inconclusive"), r, top, verification


def newton_candidates_joint(w, xi, value, evecs, rank_one=None):
    """The descent's Newton candidates from the joint 8x8 model in
    x = (x_a, x_b): a = conj(xi) with its complement from the eigenvectors
    of the projector conj(xi) xi^T, the saddle-free Newton step with the
    |eigenvalues| of Q - h I floored at EIG_FLOOR of the largest, and steps
    of 0.5 and 0.05 along its most negative curvature; only x_a moves the
    candidate.  Returns the three candidates and the (n, 8) eigenvalues of
    Q - h I.  The package eliminates x_b instead (a 4x4 Schur complement),
    which gives the same x_a wherever Q - h I is positive definite."""
    a, b = xi.conj(), evecs[:, :, 0]
    a_perp = np.linalg.eigh(a[:, :, None] * xi[:, None, :])[1][:, :, :2]
    da = np.concatenate([a_perp, 1j * a_perp], axis=2)
    db = np.concatenate([evecs[:, :, 1:], 1j * evecs[:, :, 1:]], axis=2)
    _, grad, q = _pairing_model(w, a, b, da, db, rank_one)
    q -= value[:, None, None] * np.eye(8)
    mu, e = np.linalg.eigh(q)
    slope = np.einsum("nkl,nk->nl", e, grad)
    floor = EIG_FLOOR * np.abs(mu).max(axis=1, keepdims=True) + _TINY
    steps = [-np.einsum("nkl,nl->nk", e, slope / (2.0 * np.maximum(np.abs(mu), floor)))]
    downhill = np.where(slope[:, :1] > 0.0, -e[:, :, 0], e[:, :, 0])
    steps += [np.where(mu[:, :1] < 0.0, size * downhill, 0.0) for size in (0.5, 0.05)]
    out = []
    for x in steps:
        moved = a + np.einsum("nik,nk->ni", a_perp, x[:, 0:2] + 1j * x[:, 2:4])
        out.append((moved / np.linalg.norm(moved, axis=1)[:, None]).conj())
    return out, mu


def bernstein_polar_forms(w) -> list[list[Fraction]]:
    """Exact Bernstein coefficients on the simplex of the leading minors of
    M(u) + eps (sum u) I (eps = CERTIFIED_ZERO) of a covariant Choi matrix,
    degree by degree, in ``combinations_with_replacement`` order: each is
    the minor's symmetric polar form at the vertices e_alpha, in Fractions.
    Every term of a minor is a product of linear forms l_1 ... l_n in u,
    whose polar form is the mean over orderings of l_1(x_s1) ... l_n(x_sn);
    the package takes monomial coefficients over multinomials instead."""
    w = np.asarray(w)
    eps = Fraction(CERTIFIED_ZERO)
    d = [[Fraction(float(w[3 * i + j, 3 * i + j].real)) + eps for i in range(3)] for j in range(3)]
    z = [complex(w[0, 4]), complex(w[4, 8]), complex(w[8, 0])]
    re, im = [Fraction(x.real) for x in z], [Fraction(x.imag) for x in z]
    q01, q12, q02 = (re[k] ** 2 + im[k] ** 2 for k in range(3))
    t = 2 * (re[0] * re[1] * re[2] - re[0] * im[1] * im[2] - im[0] * re[1] * im[2] - im[0] * im[1] * re[2])
    e = [[Fraction(int(i == k)) for i in range(3)] for k in range(3)]
    minors = [
        [(1, [d[0]])],
        [(1, [d[0], d[1]]), (-q01, [e[0], e[1]])],
        [
            (1, [d[0], d[1], d[2]]),
            (t, [e[0], e[1], e[2]]),
            (-q12, [d[0], e[1], e[2]]),
            (-q02, [e[0], d[1], e[2]]),
            (-q01, [e[0], e[1], d[2]]),
        ],
    ]
    out = []
    for n, terms in zip((1, 2, 3), minors):
        row = []
        for alpha in itertools.combinations_with_replacement(range(3), n):
            total = Fraction(0)
            for order in itertools.permutations(alpha):
                for c, forms in terms:
                    total += c * math.prod((form[i] for form, i in zip(forms, order)), start=Fraction(1))
            row.append(total / math.factorial(n))
        out.append(row)
    return out


def reference_starts(values, keys, k: int):
    """The oracle's start rule over all cells: rank every cell stably by its
    ``values`` and keep the first cell of each key (a pattern id, or a row
    of rounded moduli), best first, at most ``k``."""
    order = np.argsort(values, kind="stable")
    _, first = np.unique(np.asarray(keys)[order], axis=0, return_index=True)
    return order[np.sort(first)[:k]]


@functools.lru_cache(maxsize=4)
def shared_sphere_grid(polar_n: int, phase_n: int):
    """``_sphere_grid`` at (polar_n, phase_n), built once per size and
    read-only, since every reference that scans it shares it."""
    parts = _sphere_grid(polar_n, phase_n)
    for part in parts:
        part.flags.writeable = False
    return parts


def full_grid_minimum(w, grid_n: int = 16) -> float:
    """The oracle's minimum of any Choi matrix ``w`` on the full grid_n^4
    grid of moduli and phases: the best of its cells and of 200 descent
    iterations from the best cell of each of its 10 best moduli patterns.
    An audit at a finer grid than the package's, and the reference for the
    moduli grid."""
    xi, projectors, patterns = shared_sphere_grid(grid_n, grid_n)[:3]
    images = _apply_kernel(_kernel_matrix(w), projectors)
    starts = reference_starts(_smallest_eigenvalues(images), patterns, 10)
    grid = np.linalg.eigvalsh(images[starts[0]])[0]
    return float(min(grid, _descend(w, xi[starts], 200)[1].min()))


def moduli_oracle(w, grid_n: int = 16) -> BlockPositivityReport:
    """The block-positivity oracle on the moduli grid of a covariant Choi
    matrix ``w`` (exactly zero off ``_COVARIANT``; ValueError otherwise).
    By covariance the spectrum of Phi(xi xi*) depends on |xi| only, so the
    real grid of 4(grid_n - 1) + 1 polar angles, which holds every |xi| of
    the grid_n^4 grid of moduli and phases, replaces the phase copies (Cho,
    Kye and Lee, Linear Algebra Appl. 171, 1992).  Its cells are ranked by
    the closed-form smallest eigenvalue, the best cell of each of the 10
    best moduli patterns starts 200 descent iterations, and the report is
    the best descended start, or the best cell where no start went below its
    LAPACK value."""
    w = require_hermitian(w)
    if np.any(w[~_COVARIANT]):
        raise ValueError("the moduli grid needs a covariant Choi matrix")
    xi_grid, projectors, patterns = shared_sphere_grid(4 * (grid_n - 1) + 1, 1)[:3]
    images = _apply_kernel(_kernel_matrix(w), projectors)
    starts = reference_starts(_smallest_eigenvalues(images), patterns, 10)
    evals, evecs = np.linalg.eigh(images[starts[0]])
    xi, value, vecs = _descend(w, xi_grid[starts], 200)
    best = int(np.argmin(value))
    if value[best] < evals[0]:
        return BlockPositivityReport(float(value[best]), xi[best], vecs[best, :, 0].conj())
    return BlockPositivityReport(float(evals[0]), xi_grid[starts[0]], evecs[:, 0].conj())


def _canonical(value):
    """Recursively round all reals of a document of plain values."""
    if isinstance(value, dict):
        return {key: _canonical(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_canonical(v) for v in value]
    return round_real(value) if isinstance(value, float) else value


def report_json(doc: ReportDocument) -> str:
    """The JSON text of ``doc`` from a canonicalized copy through
    ``json.dumps(indent=2)``: the package writes it in one walk."""
    sections = {"params": doc.params, "flags": doc.flags, "evidence": doc.evidence}
    return json.dumps({"schema_version": SCHEMA_VERSION, **_canonical(sections)}, indent=2)


def square_simplex_blocks(theta: float, grid_n: int, block: int):
    """The (i, j) grid indices of a simplex sweep, block by block: whole
    rows of the square grid_n^2 grid, block // grid_n rows at a time (one at
    least), keeping the points with c = pth - a - b >= -INCLUSION_SLACK."""
    pth = cp_threshold(theta)
    axis = np.linspace(0.0, pth, grid_n)
    step = max(1, block // grid_n)
    for start in range(0, grid_n, step):
        i, j = np.divmod(np.arange(start * grid_n, min(start + step, grid_n) * grid_n), grid_n)
        keep = pth - axis[i] - axis[j] >= -INCLUSION_SLACK
        yield i[keep], j[keep]
