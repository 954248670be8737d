import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from choimaps import (
    BlockPositivityReport,
    InternalConsistencyError,
    MapParams,
    block_positivity_oracle,
    build_witness,
    choi_matrix,
    cp_threshold,
    edge_state,
    hermitian_eigenvalues,
    is_completely_copositive,
    is_completely_positive,
    is_positive,
    pairing_value,
    partial_transpose,
)
from choimaps.linalg import CERTIFIED_ZERO, INCLUSION_SLACK, RESIDUE_REL
from choimaps.optimality import _directions, _ratio_on_grid, _second_order
from choimaps.positivity import (
    _COVARIANT,
    _apply_kernel,
    _complement_basis,
    _descend,
    _distinct_starts,
    _drop_rank_one,
    _kernel_matrix,
    _newton_candidates,
    _grid,
    _pairing_model,
    _smallest_eigenvalues,
    _sphere_grid,
    on_surface_at,
)
from lemmas import apply_map, full_grid_minimum, moduli_oracle, newton_candidates_joint, pairing, reference_starts, shared_sphere_grid


def random_params(rng, amax=2.5):
    return MapParams(*rng.uniform(0.0, amax, 3), rng.uniform(-np.pi, np.pi))


# ---------------------------------------------------------------------------
# The degree-3 form controlling positivity and its gradient bookkeeping (Cho,
# Kye and Lee, Linear Algebra Appl. 171, 1992), and the indecomposability
# certificate on the surface face: references the package is checked against.
# ---------------------------------------------------------------------------


def cubic_form(p: MapParams, x: float, y: float, z: float) -> float:
    """The homogeneous degree-3 form whose nonnegativity on the closed
    octant is equivalent to positivity of the map.

    Equals the determinant of ``apply_map`` evaluated on the rank-1 projector
    of (x', y', z') with |x'|^2 = x etc. (phases cancel in the determinant).
    """
    if x < 0 or y < 0 or z < 0:
        raise ValueError(f"cubic form requires nonnegative inputs, got {(x, y, z)}")
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


def _gradient_matrices(fc: FormCoefficients):
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
    t = a + b + c, after checking it agrees with the direct 3x3 determinant
    to the residue RESIDUE_REL.
    """
    fc = form_coefficients(p)
    d = fc.p + fc.q + fc.r
    e = fc.q + fc.r + fc.s
    m = np.array([[d, e, e], [e, d, e], [e, e, d]])
    direct = float(np.linalg.det(m))
    t = p.a + p.b + p.c
    closed = (fc.p - fc.s) ** 2 * (t**3 - 3.0 * t - 2.0 * math.cos(3.0 * p.theta))
    if abs(direct - closed) > RESIDUE_REL * max(1.0, abs(closed)):
        raise InternalConsistencyError(
            f"stationary determinant mismatch: direct {direct!r} vs factored {closed!r}"
        )
    return closed


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

    Requires 0 < a <= 1, b, c > 0, ``on_surface_at``, and theta
    away from 0 (where the construction is not used); raises ValueError
    otherwise.  Returns None when the pairing value is not negative
    (theta = +-pi/3 or +-pi, where the threshold equals 2); otherwise returns
    the PPT certificate state with parameters
    (cp_threshold(pi - theta), sqrt(c/b), sqrt(b/c); pi - theta) and the
    pairing value, verified PPT by eigensolve and cross-checked against the
    direct trace.
    """
    a, b, c = p.abc
    if abs(p.theta) <= INCLUSION_SLACK:
        raise ValueError("certificate construction not applicable at theta = 0")
    if not (b > 0 and c > 0):
        raise ValueError("certificate requires b, c > 0")
    if not 0 <= a <= 1 + INCLUSION_SLACK:
        raise ValueError(f"certificate requires 0 <= a <= 1, got a={a}")
    if not on_surface_at(a, b, c):
        raise ValueError("certificate requires b*c = (1-a)^2")

    theta_c = math.pi - p.theta
    pc = cp_threshold(theta_c)
    t = math.sqrt(c / b)
    state = MapParams(pc, t, 1.0 / t, theta_c)
    w = choi_matrix(state)
    for name, m in (("PSD", w), ("PPT", partial_transpose(w))):
        low = hermitian_eigenvalues(m)[0]
        if low < -CERTIFIED_ZERO:
            raise InternalConsistencyError(
                f"certificate state {state} failed the {name} eigensolve check: smallest eigenvalue {low!r}"
            )

    value = pairing(w, p)
    closed = 3.0 * a * (pc - 2.0)
    if abs(value - closed) > RESIDUE_REL * max(1.0, abs(closed)):
        raise InternalConsistencyError(f"certificate pairing mismatch: {value} vs {closed}")
    if value >= -INCLUSION_SLACK:
        return None
    return IndecomposabilityCertificate(state_params=state, value=value)


class TestClosedForms:
    def test_completely_positive_examples(self):
        assert is_completely_positive(MapParams(2, 0, 0, 0))
        assert not is_completely_positive(MapParams(1.7, 5, 5, np.pi / 6))
        assert is_completely_positive(MapParams(1, 0, 0, np.pi / 3))

    def test_completely_copositive_examples(self):
        assert is_completely_copositive(MapParams(0, 2, 0.5, np.pi / 6))
        assert not is_completely_copositive(MapParams(5, 0.5, 0.5, 1.2))
        for t in (0.3, 1.0, 4.2):
            assert is_completely_copositive(MapParams(0, t, 1 / t, 0.7))

    def test_positive_examples(self):
        th = np.pi / 6
        assert is_positive(MapParams(1, cp_threshold(th) - 1, 0, th))
        assert not is_positive(MapParams(0.5, 0.1, 0.1, th))
        assert is_positive(MapParams(0.5, 1, 0.25, th))

    def test_cp_ccp_agree_with_spectra(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            p = random_params(rng)
            w = choi_matrix(p)
            cp_spec = hermitian_eigenvalues(w)[0] >= -1e-9
            ccp_spec = hermitian_eigenvalues(partial_transpose(w))[0] >= -1e-9
            if abs(p.a - cp_threshold(p.theta)) > 1e-8:
                assert is_completely_positive(p) == cp_spec
            if abs(p.b * p.c - 1.0) > 1e-8:
                assert is_completely_copositive(p) == ccp_spec


class TestCubicForm:
    def test_diagonal_identity(self):
        p = MapParams(1, 1, 0, 0)
        s = p.a + p.b + p.c
        assert cubic_form(p, 1, 1, 1) == pytest.approx(s**3 - 3 * s - 2, abs=1e-12)
        rng = np.random.default_rng(1)
        for _ in range(50):
            q = random_params(rng)
            x = rng.uniform(0.1, 2.0)
            s = q.a + q.b + q.c
            expected = (s**3 - 3 * s - 2 * np.cos(3 * q.theta)) * x**3
            assert cubic_form(q, x, x, x) == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_face_restriction_instance(self):
        assert cubic_form(MapParams(1, 1, 0, 0), 0, 1, 1) == pytest.approx(1.0)

    def test_single_variable(self):
        rng = np.random.default_rng(2)
        p = random_params(rng)
        assert cubic_form(p, 1, 0, 0) == pytest.approx(p.a * p.b * p.c, abs=1e-12)

    def test_homogeneous(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = random_params(rng)
            x, y, z = rng.uniform(0, 2, 3)
            lam = rng.uniform(0.1, 3.0)
            f1 = cubic_form(p, lam * x, lam * y, lam * z)
            f2 = lam**3 * cubic_form(p, x, y, z)
            assert abs(f1 - f2) <= 1e-10 * max(1.0, abs(f2))

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            cubic_form(MapParams(1, 1, 1, 0), -0.1, 1, 1)

    def test_matches_map_determinant_on_projectors(self):
        # det of the map applied to a rank-1 projector equals the form at
        # the squared moduli (phases cancel)
        rng = np.random.default_rng(4)
        for _ in range(100):
            p = random_params(rng)
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            det = np.linalg.det(apply_map(p, np.outer(v, v.conj()))).real
            form = cubic_form(p, *(np.abs(v) ** 2))
            assert abs(det - form) <= 1e-9 * max(1.0, abs(form))

    def test_minor_bound(self):
        # second-diagonal 2x2 minor of the map on a projector dominates the
        # x=0 restriction of the form divided by its linear factor
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = random_params(rng)
            if not is_positive(p):
                continue
            a, b, c = p.abc
            x, y, z = rng.uniform(0.0, 2.0, 3)
            if b * y + c * z <= 1e-9:
                continue
            minor = (c * x + a * y + b * z) * (b * x + c * y + a * z) - y * z
            bound = cubic_form(p, 0.0, y, z) / (b * y + c * z)
            assert minor >= bound - 1e-9


class TestGradient:
    def test_coefficient_instance(self):
        fc = form_coefficients(MapParams(1, 1, 0, 0))
        assert fc.p == 0.0
        assert fc.q == pytest.approx(1.0)
        assert fc.r == pytest.approx(0.0)
        assert fc.s == pytest.approx(-1.5)

    def test_coefficient_invariants(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            p = random_params(rng)
            fc = form_coefficients(p)
            assert fc.p == 3.0 * p.a * p.b * p.c
            two_s = p.a**3 + p.b**3 + p.c**3 + 3 * p.a * p.b * p.c - 3 * p.a - 2 * np.cos(3 * p.theta)
            assert abs(2 * fc.s - two_s) <= 1e-12 * max(1.0, abs(two_s))

    def test_symmetric_point(self):
        p = MapParams(0.8, 1.3, 0.4, 0.9)
        gx, gy, gz = cubic_form_gradient(p, 1, 1, 1)
        assert gx == pytest.approx(gy)
        assert gy == pytest.approx(gz)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-5
        for _ in range(100):
            p = random_params(rng)
            x, y, z = rng.uniform(0.1, 3.0, 3)
            g = cubic_form_gradient(p, x, y, z)
            fd = (
                (cubic_form(p, x + h, y, z) - cubic_form(p, x - h, y, z)) / (2 * h),
                (cubic_form(p, x, y + h, z) - cubic_form(p, x, y - h, z)) / (2 * h),
                (cubic_form(p, x, y, z + h) - cubic_form(p, x, y, z - h)) / (2 * h),
            )
            for u, v in zip(g, fd):
                assert abs(u - v) <= 1e-6 * max(1.0, abs(v))

    def test_stationary_combination_expansion(self):
        # the circulant combination of the gradient forms expands into
        # sum-of-squares and sum-of-products parts
        rng = np.random.default_rng(8)
        p = random_params(rng)
        fc = form_coefficients(p)
        d = fc.p + fc.q + fc.r
        e = fc.q + fc.r + fc.s
        m = np.array([[d, e, e], [e, d, e], [e, e, d]])
        for _ in range(20):
            v = rng.normal(size=3)
            lhs = v @ m @ v
            rhs = d * (v @ v) + 2 * e * (v[0] * v[1] + v[1] * v[2] + v[2] * v[0])
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_stationary_determinant(self):
        assert stationary_form_determinant(MapParams(1, 1, 0, 0)) == pytest.approx(0.0, abs=1e-12)
        rng = np.random.default_rng(9)
        for _ in range(100):
            p = random_params(rng)
            stationary_form_determinant(p)  # internal direct-vs-factored assert

    def test_second_factor_sign_on_threshold_plane(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            th = rng.uniform(-np.pi, np.pi)
            pth = cp_threshold(th)
            a = rng.uniform(0, min(1.0, pth))
            b = rng.uniform(0, pth - a)
            p = MapParams(a, b, pth - a - b, th)
            s = a + b + (pth - a - b)
            assert s**3 - 3 * s - 2 * np.cos(3 * th) >= -1e-9


class TestBlockPositivityOracle:
    def test_vertex_map_is_block_positive(self):
        th = np.pi / 6
        w = choi_matrix(MapParams(1, cp_threshold(th) - 1, 0, th))
        for report in (moduli_oracle(w, 10), block_positivity_oracle(w)):
            assert report.min_value >= -1e-6

    def test_violating_map_yields_witness(self):
        p = MapParams(0.5, 0.1, 0.1, np.pi / 6)
        assert moduli_oracle(choi_matrix(p), 10).status == "negative"
        report = block_positivity_oracle(choi_matrix(p))
        assert report.min_value < -1e-4
        assert report.status == "negative"
        # the reported product vector reproduces the reported minimum
        z = np.kron(report.argmin_xi, report.argmin_eta)
        value = pairing(np.outer(z, z.conj()), p)
        assert abs(value - report.min_value) <= 1e-9
        assert np.linalg.norm(report.argmin_xi) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(report.argmin_eta) == pytest.approx(1.0, abs=1e-12)

    def test_psd_matrix_is_block_positive(self):
        # the edge state is covariant; a local unitary U (x) V turns it into
        # a PSD matrix that is not
        w = edge_state(1.0, np.pi / 6)
        u = np.kron(*_random_unitaries(np.random.default_rng(0), 2))
        for m in (w, u @ w @ u.conj().T):
            report = block_positivity_oracle(m)
            assert report.min_value >= -1e-9
            assert report.status == "nonnegative"

    @pytest.mark.parametrize(
        "value, status",
        [
            (-1e-9, "nonnegative"),
            (np.nextafter(-1e-9, -np.inf), "inconclusive"),
            (-1e-6, "inconclusive"),
            (np.nextafter(-1e-6, -np.inf), "negative"),
            (np.nan, "inconclusive"),
        ],
    )
    def test_status_at_the_certified_sign_edges(self, value, status):
        report = BlockPositivityReport(float(value), np.ones(3), np.ones(3))
        assert report.status == status


def _random_unitaries(rng, n):
    return np.linalg.qr(rng.normal(size=(n, 3, 3)) + 1j * rng.normal(size=(n, 3, 3))).Q


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3))
def test_closed_form_smallest_eigenvalue_matches_lapack(seed, scale):
    rng = np.random.default_rng(seed)
    n = 40
    lo, hi = np.sort(rng.normal(size=(2, n)), axis=0)
    spectra = np.concatenate(
        [
            rng.normal(size=(n, 3)),  # generic
            np.repeat(lo[:, None], 3, axis=1),  # scalar
            np.stack([0 * lo, 0 * lo, hi - lo], axis=1),  # rank 1 (PSD)
            np.stack([lo, lo, hi], axis=1),  # double smallest
            np.stack([lo, hi, hi], axis=1),  # double largest
        ]
    )
    u = _random_unitaries(rng, len(spectra))
    a = scale * (u * spectra[:, None, :]) @ u.conj().transpose(0, 2, 1)
    a = (a + a.conj().transpose(0, 2, 1)) / 2
    # exact scalar and zero matrices: p = 0
    a = np.concatenate([a, scale * lo[:, None, None] * np.eye(3), np.zeros((1, 3, 3))])
    reference = np.linalg.eigvalsh(a)[:, 0]
    bound = 1e-10 * np.maximum(1.0, np.linalg.norm(a, axis=(1, 2)))
    assert np.all(np.abs(_smallest_eigenvalues(a) - reference) <= bound)


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1))
def test_kernel_matmul_is_the_map(seed):
    rng = np.random.default_rng(seed)
    p = MapParams(*rng.uniform(0.0, 2.5, 3), rng.uniform(-np.pi, np.pi))
    xi, eta = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    kernel = _kernel_matrix(choi_matrix(p))
    image = _apply_kernel(kernel, np.outer(xi, xi.conj()))[0]
    assert np.abs(image - apply_map(p, np.outer(xi, xi.conj()))).max() <= 1e-12 * np.vdot(xi, xi).real
    # the transposed kernel is the map on the second factor: both give the pairing
    z = np.kron(xi, eta)
    value = pairing(np.outer(z, z.conj()), p)
    vec, u = eta.conj(), xi.conj()
    second = _apply_kernel(kernel.T, np.outer(vec.conj(), vec))[0]
    assert abs(np.vdot(vec, image @ vec) - value) <= 1e-10 * max(1.0, abs(value))
    assert abs(np.vdot(u, second @ u) - value) <= 1e-10 * max(1.0, abs(value))


def test_pairing_model_is_second_order():
    # y(x)* W y(x) - (y* W y + g.x + x^T Q x) is O(|x|^3): halving x from
    # |x| = 1e-2 divides it by about 8, at least by 6
    rng = np.random.default_rng(21)
    n, k = 16, 2
    g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    w = (g + g.conj().T) / 2
    bases = []
    for _ in range(2):  # unit factor and orthonormal basis of its complement
        q = np.linalg.qr(rng.normal(size=(n, 3, 3)) + 1j * rng.normal(size=(n, 3, 3))).Q
        bases.append((q[:, :, 0], np.concatenate([q[:, :, 1:], 1j * q[:, :, 1:]], axis=2)))
    (a, da), (b, db) = bases
    _, grad, q = _pairing_model(w, a, b, da, db)
    y0 = np.einsum("ni,nj->nij", a, b).reshape(n, 9)
    value = np.einsum("ni,ij,nj->n", y0.conj(), w, y0).real
    x = rng.normal(size=(n, 4 * k))
    x *= 1e-2 / np.linalg.norm(x, axis=1)[:, None]

    def remainder(x):
        ya = a + np.einsum("nik,nk->ni", da, x[:, : 2 * k])
        yb = b + np.einsum("nik,nk->ni", db, x[:, 2 * k :])
        y = np.einsum("ni,nj->nij", ya, yb).reshape(n, 9)
        exact = np.einsum("ni,ij,nj->n", y.conj(), w, y).real
        model = value + np.einsum("nk,nk->n", grad, x) + np.einsum("nk,nkl,nl->n", x, q, x)
        return np.abs(exact - model)

    assert np.all(remainder(x) >= 6.0 * remainder(x / 2))


def test_pairing_model_matches_the_einsum_reference():
    # Q = Re(J* W J) and the cross block da^T conj(W y) db, by matmuls, against
    # the three-operand einsums over the Jacobian
    rng = np.random.default_rng(22)
    n, k = 12, 4
    g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    w = (g + g.conj().T) / 2
    a, b = (rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3)) for _ in range(2))
    da, db = (rng.normal(size=(n, 3, k)) + 1j * rng.normal(size=(n, 3, k)) for _ in range(2))
    jac, grad, q = _pairing_model(w, a, b, da, db)
    wy = np.einsum("ni,nj->nij", a, b).reshape(n, 9) @ w.T
    want = np.einsum("nik,ij,njl->nkl", jac.conj(), w, jac).real
    cross = np.einsum("nij,nik,njl->nkl", wy.conj().reshape(n, 3, 3), da, db).real
    want[:, :k, k:] += cross
    want[:, k:, :k] += cross.transpose(0, 2, 1)
    scale = np.abs(want).max()
    assert np.abs(q - want).max() <= 1e-12 * scale
    assert np.abs(grad - 2.0 * np.einsum("nik,ni->nk", jac.conj(), wy).real).max() <= 1e-12 * scale


def _rank_one_terms(rng, n):
    """Seeded unit vectors v and weights r of one rank-one term per point."""
    v = rng.normal(size=(n, 9)) + 1j * rng.normal(size=(n, 9))
    return v / np.linalg.norm(v, axis=1)[:, None], rng.uniform(0.1, 0.6, n)


def test_pairing_model_rank_one_term_matches_the_explicit_matrix():
    # point s modelled with (v_s, r_s) against the model of W - r_s v_s v_s*
    rng = np.random.default_rng(23)
    n, k = 10, 4
    w = choi_matrix(MapParams(1.5, 0.5, 0.0, np.pi / 6))
    a, b = (rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3)) for _ in range(2))
    da, db = (rng.normal(size=(n, 3, k)) + 1j * rng.normal(size=(n, 3, k)) for _ in range(2))
    v, r = _rank_one_terms(rng, n)
    jac, grad, q = _pairing_model(w, a, b, da, db, (v, r))
    for s in range(n):
        one = slice(s, s + 1)
        want = _pairing_model(w - r[s] * np.outer(v[s], v[s].conj()), a[one], b[one], da[one], db[one])
        for got_part, want_part in zip((jac[s], grad[s], q[s]), want):
            assert np.abs(got_part - want_part[0]).max() <= 1e-12 * max(1.0, np.abs(want_part).max())


@pytest.mark.parametrize("steps", [1, 200])
@pytest.mark.parametrize("abc", [(1.5, 0.5, 0.0), (1.2, 0.3, 0.23), (2.0, 0.0, 0.0)])
def test_descent_rank_one_term_matches_the_explicit_matrix(abc, steps):
    # start s descends W - r_s v_s v_s* on the shared kernel of W.  At one step
    # every start's vector and value match the descent of the explicit matrix;
    # at 200 the values do, while the vectors stop anywhere in a flat
    # minimum, to about sqrt(eps), and the batch stops when no start moves
    rng = np.random.default_rng(24)
    n = 12
    w = choi_matrix(MapParams(*abc, np.pi / 6))
    xi = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    xi /= np.linalg.norm(xi, axis=1)[:, None]
    v, r = _rank_one_terms(rng, n)
    got_xi, got_value, _ = _descend(w, xi, steps, (v, r))
    for s in range(n):
        want_xi, want_value, _ = _descend(w - r[s] * np.outer(v[s], v[s].conj()), xi[s : s + 1], steps)
        assert abs(got_value[s] - want_value[0]) <= 1e-12 * max(1.0, abs(want_value[0]))
        if steps == 1:
            assert np.abs(got_xi[s] - want_xi[0]).max() <= 1e-12


def _descent_points(w, n, seed, rank_one, steps):
    """(xi, rank_one, evals, evecs) after ``steps`` descent steps from ``n``
    seeded unit vectors, on W or with one seeded rank-one term per start;
    the eigenpairs are those of the images the descent sees."""
    rng = np.random.default_rng(seed)
    xi = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    xi /= np.linalg.norm(xi, axis=1)[:, None]
    terms = _rank_one_terms(rng, n) if rank_one else None
    xi = _descend(w, xi, steps, terms)[0]
    images = _apply_kernel(_kernel_matrix(w), xi[:, :, None] * xi.conj()[:, None, :])
    if terms is not None:
        v, r = terms
        _drop_rank_one(images, (xi[:, None, :] @ v.reshape(-1, 3, 3))[:, 0], r)
    evals, evecs = np.linalg.eigh(images)
    return xi, terms, evals, evecs


def _random_hermitian(seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    return (g + g.conj().T) / 2


@pytest.mark.parametrize("rank_one", [False, True])
@pytest.mark.parametrize("w", [choi_matrix(MapParams(1.2, 0.3, 0.23, np.pi / 6)), _random_hermitian(25)],
                         ids=["family", "random"])
def test_pairing_model_eta_block_is_the_image_spectrum(w, rank_one):
    # eta is the smallest eigenvector of the image and db spans the other two,
    # so the model's eta block is diag(l_2, l_3, l_2, l_3) and g_b = 0
    xi, terms, evals, evecs = _descent_points(w, 40, 26, rank_one, 3)
    a_perp = _complement_basis(xi.conj())
    da = np.concatenate([a_perp, 1j * a_perp], axis=2)
    db = np.concatenate([evecs[:, :, 1:], 1j * evecs[:, :, 1:]], axis=2)
    _, grad, q = _pairing_model(w, xi.conj(), evecs[:, :, 0], da, db, terms)
    scale = np.abs(q).max()
    want = np.stack([np.diag(np.tile(lam[1:], 2)) for lam in evals])
    assert np.abs(q[:, 4:, 4:] - want).max() <= 1e-12 * scale
    assert np.abs(grad[:, 4:]).max() <= 1e-12 * scale


@pytest.mark.parametrize("rank_one", [False, True])
@pytest.mark.parametrize("seed", [27, 28])
def test_newton_step_matches_the_joint_model_where_it_is_convex(seed, rank_one):
    # eliminating x_b by the Schur complement is block elimination: wherever
    # Q - h I is positive definite, well above the floor, the candidates of
    # the 4x4 step are those of the joint 8x8 step
    w = _random_hermitian(seed)
    xi, terms, evals, evecs = _descent_points(w, 200, seed, rank_one, 0)
    got = _newton_candidates(w, xi, evals, evecs, terms)
    want, mu = newton_candidates_joint(w, xi, evals[:, 0], evecs, terms)
    convex = mu[:, 0] > 1e-6 * np.abs(mu).max(axis=1)
    assert convex.sum() >= 10
    for got_x, want_x in zip(got, want):
        assert np.abs(got_x[convex] - want_x[convex]).max() <= 1e-10


@pytest.mark.parametrize("phase", [0.0, 0.7, np.pi, -2.0])
def test_complement_basis_is_orthonormal_and_orthogonal(phase):
    rng = np.random.default_rng(29)
    a = rng.normal(size=(30, 3)) + 1j * rng.normal(size=(30, 3))
    a[0] = [0.0, 1.0, 0.0]
    a[1] = [np.exp(1j * phase), 0.0, 0.0]
    a[2] = [0.0, 0.0, np.exp(1j * phase)]
    a[3] = [1e-300, np.exp(1j * phase) / np.sqrt(2), 1 / np.sqrt(2)]
    a /= np.linalg.norm(a, axis=1)[:, None]
    basis = _complement_basis(a)
    assert basis.shape == (30, 3, 2)
    assert np.abs(basis.conj().transpose(0, 2, 1) @ basis - np.eye(2)).max() <= 2e-15
    assert np.abs(np.einsum("nik,ni->nk", basis.conj(), a)).max() <= 2e-15


def test_one_descent_iteration_solves_one_4x4_stack(monkeypatch):
    # one iteration at n starts: the images, the second-factor maps, the
    # Newton step's Schur complements and the 4n candidate images; no joint
    # 8x8 model and no eigensolve of a projector for a's complement
    shapes, eigh = [], np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    n = 20
    xi = np.random.default_rng(30).normal(size=(n, 3)) + 0j
    xi /= np.linalg.norm(xi, axis=1)[:, None]
    for rank_one in (None, _rank_one_terms(np.random.default_rng(31), n)):
        shapes.clear()
        _descend(choi_matrix(MapParams(1.2, 0.3, 0.23, np.pi / 6)), xi, 1, rank_one)
        assert shapes == [(n, 3, 3), (n, 3, 3), (n, 4, 4), (4 * n, 3, 3)]


def _checked_oracle(w):
    """The oracle's report, after checking that the closed-form ranking puts
    a cell at the exact (LAPACK) grid minimum first, and that the descent
    ends at or below that cell's exact value, to rounding: no descent step
    raises its start's value.  Cells tied up to rounding are ordered by
    rounding, so the check is against the first-ranked cell, not the
    smallest rounded value."""
    report = block_positivity_oracle(w)
    images = _apply_kernel(_kernel_matrix(w), _grid()[1])
    exact = np.linalg.eigh(images)[0][:, 0]
    best = exact[np.argmin(_smallest_eigenvalues(images))]
    scale = 1e-12 * max(1.0, np.abs(w).max())
    assert best <= exact.min() + scale
    assert report.min_value <= best + scale
    return report


@settings(max_examples=20)
@given(seed=st.integers(0, 2**32 - 1), family=st.booleans())
def test_oracle_minimum_is_sandwiched(seed, family):
    # lambda_min(W) <= oracle minimum <= every sampled product-vector pairing
    rng = np.random.default_rng(seed)
    if family:
        w = choi_matrix(MapParams(*rng.uniform(0.0, 2.5, 3), rng.uniform(-np.pi, np.pi)))
    else:
        g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        w = (g + g.conj().T) / 2
    report = _checked_oracle(w)
    xi, eta = rng.normal(size=(2, 200, 3)) + 1j * rng.normal(size=(2, 200, 3))
    xi /= np.linalg.norm(xi, axis=1)[:, None]
    eta /= np.linalg.norm(eta, axis=1)[:, None]
    z = np.einsum("ni,nj->nij", xi, eta).reshape(-1, 9)
    sampled = np.einsum("na,ab,nb->n", z.conj(), w, z).real
    assert hermitian_eigenvalues(w)[0] - 1e-12 <= report.min_value <= sampled.min() + 1e-12
    zbest = np.kron(report.argmin_xi, report.argmin_eta)
    value = pairing_value(np.outer(zbest, zbest.conj()), w)
    assert abs(value - report.min_value) <= 1e-10 * max(1.0, np.abs(w).max())


def test_oracle_ranks_and_descends_on_boundary_maps():
    th = np.pi / 6
    for p in (MapParams(1, cp_threshold(th) - 1, 0, th), MapParams(0.5, 1, 0.25, th),
              MapParams(0.5, 0.1, 0.1, th), MapParams(2, 0, 0, th)):
        _checked_oracle(choi_matrix(p))
    _checked_oracle(edge_state(1.0, th))


def test_descent_leaves_a_coordinate_saddle():
    # W on the diagonal tensor slots only.  The best cell of the full grid 8
    # has xi_3 = 0, a subspace the alternating step never leaves.  Its best
    # point there (-0.32171) is a saddle; the minimum needs xi_3 != 0.  The
    # oracle and the moduli grid of this covariant W reach it too.
    g = np.array(
        [
            [0.53, -0.81 + 0.05j, -0.18 - 1.14j],
            [-0.81 - 0.05j, -0.04, -0.47 + 0.65j],
            [-0.18 + 1.14j, -0.47 - 0.65j, 1.22],
        ]
    )
    w = np.zeros((9, 9), dtype=complex)
    w[np.ix_([0, 4, 8], [0, 4, 8])] = g
    xi, projectors, patterns = _sphere_grid(8, 8)[:3]
    values = _smallest_eigenvalues(_apply_kernel(_kernel_matrix(w), projectors))
    start = xi[_distinct_starts(values, 1)]
    assert start[0, 2] == 0.0
    final, value, _ = _descend(w, start, 200)
    assert -0.32218 < value[0] < -0.32216
    assert abs(final[0, 2]) > 0.1
    for report in (_checked_oracle(w), moduli_oracle(w, 8)):
        assert -0.32218 < report.min_value < -0.32216
        assert abs(report.argmin_xi[2]) > 0.1


_F_ABC = (0.37412049805440506, 0.895179117126941, 0.4935846058809257, -0.49188934318176736)
_F_AB = (1.3137, 2.0038, 0.0, -2.7823)


def _fix_first_matrix(point, dim, row, weight):
    """W - weight v v* at a family point, v a probe direction in the
    orthocomplement of dimension ``dim``."""
    p = MapParams(*point)
    basis = _second_order(p)[0]
    assert len(basis) == dim
    v = (_directions(dim, 16) @ basis)[row]
    return choi_matrix(p) - weight * np.outer(v, v.conj())


@pytest.mark.parametrize(
    "point, dim, row, weight",
    [
        # f_abc: the best grid cells are phase copies that all descend to a
        # kernel vector, while a cell with |xi| ~ (0, 0.77, 0.63) reaches -1.03e-3
        (_F_ABC, 2, 8, 1.05 * 0.249513),
        # f_ab: a general (not phase-covariant) W, -1.45e-4
        (_F_AB, 6, 5, 1.02 * 0.55946),
    ],
    ids=["f_abc", "f_ab"],
)
def test_oracle_finds_the_negative_beside_a_kernel_vector(point, dim, row, weight):
    w = _fix_first_matrix(point, dim, row, weight)
    # off the covariant slots by rounding (f_abc) or by construction (f_ab)
    assert np.any(w[~_COVARIANT])
    report = block_positivity_oracle(w)
    assert report.status == "negative"
    z = np.kron(report.argmin_xi, report.argmin_eta)
    assert pairing_value(np.outer(z, z.conj()), w) == pytest.approx(report.min_value, abs=1e-12)


def _status(value):
    return BlockPositivityReport(float(value), np.ones(3), np.ones(3)).status


def _assert_grids_agree(w):
    report = moduli_oracle(w)
    full = full_grid_minimum(w)
    assert report.status == _status(full)
    assert report.min_value <= full + 1e-12 * max(1.0, np.abs(w).max())
    return report, full


def test_covariant_slots_are_where_the_map_commutes_with_diagonal_phases():
    # phases whose pairwise sums differ mod 2pi: no slot commutes by accident
    d = np.diag(np.exp(1j * np.array([0.3, 1.1, 2.9])))
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))

    def image(w, m):  # Phi(X)_{jl} = sum_{ik} X_{ik} W[i, j, k, l]
        return np.einsum("ik,ijkl->jl", m, w.reshape(3, 3, 3, 3))

    commutes = np.zeros((9, 9), dtype=bool)
    for r, s in np.ndindex(9, 9):
        unit = np.zeros((9, 9))
        unit[r, s] = 1.0
        gap = image(unit, d @ x @ d.conj().T) - d @ image(unit, x) @ d.conj().T
        commutes[r, s] = np.abs(gap).max() <= 1e-12
    np.testing.assert_array_equal(commutes, _COVARIANT)
    assert commutes.sum() == 15


@pytest.mark.parametrize("theta", [np.pi / 6, -np.pi / 6, 0.9, -0.9])
def test_moduli_grid_agrees_with_the_full_grid_on_witnesses(theta):
    for b in (0.5, 2.0):
        _assert_grids_agree(build_witness(theta, b).matrix)


@settings(max_examples=15)
@given(abc=st.tuples(*[st.floats(0.0, 2.0)] * 3), theta=st.floats(-np.pi, np.pi))
def test_moduli_grid_agrees_with_the_full_grid_on_the_family(abc, theta):
    _assert_grids_agree(choi_matrix(MapParams(*abc, theta)))


def test_projected_f_abc_matrix_reads_negative_on_the_moduli_grid():
    w = _fix_first_matrix(_F_ABC, 2, 8, 1.05 * 0.249513)
    assert 0.0 < np.abs(w[~_COVARIANT]).max() <= 1e-15
    w[~_COVARIANT] = 0.0
    report, full = _assert_grids_agree(w)
    assert report.status == "negative"
    assert report.min_value == pytest.approx(full, abs=1e-12)


@pytest.mark.parametrize("n", [8, 16])
def test_sphere_grid_moduli_are_constant_on_each_run_of_phase_cells(n):
    xi = _sphere_grid(n, n)[0]
    moduli = np.abs(xi).reshape(n * n, n * n, 3)
    assert np.abs(moduli - moduli[:, :1]).max() <= 1e-15
    # the moduli grid of a covariant W holds every |xi| of the full grid
    real = _sphere_grid(4 * (n - 1) + 1, 1)[0]
    assert not np.any(real.imag)
    full = {tuple(m) for m in np.round(moduli[:, 0], 12)}
    assert full <= {tuple(m) for m in np.round(real.real, 12)}


@pytest.mark.parametrize("k", [20, 100], ids=["8-20", "8-past-the-patterns"])
def test_distinct_starts_match_the_rule_over_all_cells(k):
    # the 8^4 grid has 57 patterns, so k = 100 keeps every pattern
    xi = _grid()[0]
    rng = np.random.default_rng(8)
    noise = rng.normal(size=len(xi))
    samples = [noise, np.round(noise, 1), np.zeros(len(xi))]  # many ties, then every cell tied
    for point in (_F_ABC, _F_AB, (1.5, 0.5, 0.0, np.pi / 6)):
        p = MapParams(*point)
        basis = _second_order(p)[0]
        directions = _directions(len(basis), 2) @ basis
        samples += list(_ratio_on_grid(choi_matrix(p), directions.reshape(-1, 3, 3)))
    for values in samples:
        starts = _distinct_starts(values, k)
        np.testing.assert_array_equal(starts, reference_starts(values, np.round(np.abs(xi), 9), k))
        assert len(starts) == min(k, 57)


@pytest.mark.parametrize("polar_n, phase_n", [(8, 8), (16, 16), (29, 1), (61, 1)])
def test_cells_share_a_pattern_id_iff_their_rounded_moduli_agree(polar_n, phase_n):
    xi, _, patterns = _sphere_grid(polar_n, phase_n)[:3]
    rows = [tuple(row) for row in np.round(np.abs(xi), 9)]
    pairs = set(zip(rows, patterns.tolist()))
    # one id per row and one row per id
    assert len(pairs) == len(set(rows)) == len(set(patterns.tolist()))


@pytest.mark.parametrize("polar_n, phase_n", [(8, 8), (61, 1)])
def test_cached_grids_are_read_only(polar_n, phase_n):
    # (8, 8): the package's one grid, the oracle's and the probe's, with the
    # moduli rows and phase patterns of the probe's grid ratios; (61, 1): the
    # moduli grid of the test reference
    cached = _grid() if (polar_n, phase_n) == (8, 8) else shared_sphere_grid(polar_n, phase_n)
    xi, _, _, moduli, phases = cached
    assert np.array_equal(moduli, np.abs(xi[:: phase_n * phase_n]).real)
    assert np.allclose(np.abs(phases), 1.0, rtol=0, atol=1e-15)
    for part, built in zip(cached, _sphere_grid(polar_n, phase_n)):
        assert np.array_equal(part, built)
    for shared in cached:
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0


def test_a_second_oracle_call_builds_no_grid():
    w = edge_state(1.0, np.pi / 6)
    block_positivity_oracle(w)
    misses = _grid.cache_info().misses
    block_positivity_oracle(w)
    assert _grid.cache_info().misses == misses


@settings(max_examples=40)
@given(abc=st.tuples(*[st.floats(0.0, 1.5)] * 3), theta=st.floats(-np.pi, np.pi))
def test_oracle_status_agrees_with_the_closed_form(abc, theta):
    # a margin of 0.02 from both sides of (p1) and (p2)
    a, b, c = abc
    assume(abs(a + b + c - cp_threshold(theta)) >= 0.02)
    assume(a > 1.0 or abs(b * c - (1.0 - a) ** 2) >= 0.02)
    p = MapParams(a, b, c, theta)
    for report in (moduli_oracle(choi_matrix(p)), block_positivity_oracle(choi_matrix(p))):
        assert (report.status == "nonnegative") == is_positive(p)


class TestIndecomposability:
    def test_certificate_instance(self):
        cert = indecomposability_certificate(MapParams(0.5, 1, 0.25, np.pi / 6))
        assert cert is not None
        assert abs(cert.value - 1.5 * (np.sqrt(3.0) - 2.0)) <= 1e-6
        assert cert.state_params.a == pytest.approx(np.sqrt(3.0))
        assert cert.state_params.b == pytest.approx(0.5)

    def test_no_certificate_at_collapsed_angles(self):
        # rotated threshold is exactly 2 at theta = pi/3: value 0, no certificate
        th = np.pi / 3
        p = MapParams(0.5, 1, 0.25, th)
        assert indecomposability_certificate(p) is None

    def test_not_applicable_cases(self):
        with pytest.raises(ValueError):
            indecomposability_certificate(MapParams(0.5, 1, 0.25, 0.0))
        with pytest.raises(ValueError):
            indecomposability_certificate(MapParams(1, np.sqrt(3.0) - 1, 0, np.pi / 6))
        with pytest.raises(ValueError):
            indecomposability_certificate(MapParams(0.5, 1, 1, np.pi / 6))

    def test_zero_value_at_copositive_vertex(self):
        # a = 0, b*c = 1 gives value 0: no certificate
        assert indecomposability_certificate(MapParams(0, 2, 0.5, np.pi / 6)) is None
