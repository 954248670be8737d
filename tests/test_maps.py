import numpy as np
import pytest

from choimaps import (
    MapParams,
    NonHermitianError,
    OutOfRangeError,
    ThetaOutOfRangeError,
    boundary_parametrization,
    choi_matrix,
    cp_threshold,
    edge_state,
    hermitian_eigenvalues,
    optimality_probe,
    pairing_value,
    partial_transpose,
)
from choimaps.linalg import INCLUSION_SLACK
from lemmas import apply_map, edge_kernel_vectors, equal_subtraction_restriction, numeric_rank, pairing, phase_circulant


def random_params(rng, amax=2.5):
    return MapParams(*rng.uniform(0.0, amax, 3), rng.uniform(-np.pi, np.pi))


def basis_matrix(i: int, j: int) -> np.ndarray:
    """Matrix unit e_ij (0-based indices)."""
    return np.outer(np.eye(3)[i], np.eye(3)[j]).astype(complex)


def choi_from_blocks(p: MapParams) -> np.ndarray:
    """Choi matrix assembled as sum_ij e_ij (x) apply_map(e_ij): an
    independent route to the direct construction."""
    w = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        for j in range(3):
            w += np.kron(basis_matrix(i, j), apply_map(p, basis_matrix(i, j)))
    return w


def subtraction_generator(xi: complex, eta: complex, zeta: complex) -> np.ndarray:
    """Rank-1 PSD matrix v v* with v supported on the diagonal tensor slots
    (0,0), (1,1), (2,2) and coordinates (xi, eta, zeta) summing to zero."""
    if abs(xi + eta + zeta) > INCLUSION_SLACK:
        raise ValueError(f"coordinates must sum to zero, got {xi + eta + zeta}")
    v = np.zeros(9, dtype=complex)
    v[0], v[4], v[8] = xi, eta, zeta
    return np.outer(v, v.conj())


class TestMapParams:
    def test_theta_normalized(self):
        assert MapParams(1, 1, 1, 3 * np.pi).theta == pytest.approx(np.pi)
        assert MapParams(1, 1, 1, -np.pi).theta == pytest.approx(np.pi)
        assert MapParams(1, 1, 1, np.pi / 6 + 2 * np.pi).theta == pytest.approx(np.pi / 6)

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            MapParams(-0.1, 1, 1, 0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            MapParams(np.nan, 1, 1, 0)


class TestCpThreshold:
    def test_special_angles(self):
        assert cp_threshold(0.0) == pytest.approx(2.0)
        assert cp_threshold(np.pi / 3) == pytest.approx(1.0)
        assert cp_threshold(np.pi / 6) == pytest.approx(np.sqrt(3.0))

    def test_symmetry_and_period(self):
        rng = np.random.default_rng(0)
        for th in rng.uniform(-np.pi, np.pi, 200):
            v = cp_threshold(th)
            assert abs(v - cp_threshold(-th)) <= 1e-12
            assert abs(v - cp_threshold(th + 2 * np.pi / 3)) <= 1e-12
            assert 1.0 - 1e-12 <= v <= 2.0 + 1e-12


class TestApplyMap:
    def test_identity_goes_to_sum(self):
        p = MapParams(0.3, 1.1, 0.7, 0.4)
        np.testing.assert_allclose(apply_map(p, np.eye(3)), 2.1 * np.eye(3), atol=1e-12)

    def test_off_diagonal_phase(self):
        out = apply_map(MapParams(1, 1, 0, 0), basis_matrix(0, 1))
        np.testing.assert_allclose(out, -basis_matrix(0, 1), atol=1e-12)

    def test_first_diagonal_column(self):
        out = apply_map(MapParams(1, 0, 1, np.pi / 6), basis_matrix(0, 0))
        np.testing.assert_allclose(out, np.diag([1.0, 1.0, 0.0]), atol=1e-12)

    def test_linear_and_hermiticity_preserving(self):
        rng = np.random.default_rng(1)
        p = random_params(rng)
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        np.testing.assert_allclose(
            apply_map(p, 2.0 * x + 1j * y),
            2.0 * apply_map(p, x) + 1j * apply_map(p, y),
            atol=1e-12,
        )
        h = x + x.conj().T
        out = apply_map(p, h)
        assert np.abs(out - out.conj().T).max() <= 1e-12


class TestChoiMatrix:
    def test_display_at_theta_zero(self):
        w = choi_matrix(MapParams(1, 1, 0, 0))
        np.testing.assert_allclose(np.diag(w).real, [1, 0, 1, 1, 1, 0, 0, 1, 1], atol=1e-15)
        for u, v in ((0, 4), (4, 8), (8, 0)):
            assert w[u, v] == pytest.approx(-1.0)
            assert w[v, u] == pytest.approx(-1.0)
        assert np.count_nonzero(w) == 6 + 6

    def test_zero_coefficients_traceless(self):
        w = choi_matrix(MapParams(0, 0, 0, 0.9))
        assert np.trace(w) == 0
        assert np.count_nonzero(np.diag(w)) == 0

    def test_boundary_state_trace(self):
        w = choi_matrix(MapParams(np.sqrt(3.0), 1, 1, np.pi / 6))
        assert np.trace(w).real == pytest.approx(3 * (np.sqrt(3.0) + 2.0))

    def test_matches_blockwise_construction(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = random_params(rng)
            np.testing.assert_allclose(choi_matrix(p), choi_from_blocks(p), atol=1e-12)


class TestPhaseCirculant:
    def test_determinant_values(self):
        assert np.linalg.det(phase_circulant(2.0, 0.0)).real == pytest.approx(0.0, abs=1e-10)
        th = 0.77
        assert np.linalg.det(phase_circulant(0.0, th)).real == pytest.approx(-2 * np.cos(3 * th))
        assert np.linalg.det(phase_circulant(np.sqrt(3.0), np.pi / 6)).real == pytest.approx(0.0, abs=1e-10)

    def test_determinant_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.uniform(0, 3)
            th = rng.uniform(-np.pi, np.pi)
            d = np.linalg.det(phase_circulant(a, th)).real
            assert d == pytest.approx(a**3 - 3 * a - 2 * np.cos(3 * th), abs=1e-10)


class TestPairing:
    def test_identity_gives_three_times_sum(self):
        p = MapParams(0.2, 0.9, 1.4, -1.1)
        assert pairing(np.eye(9), p) == pytest.approx(3 * 2.5)

    def test_closed_form_on_random_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            p1 = random_params(rng)
            p2 = random_params(rng)
            direct = pairing(choi_matrix(p1), p2)
            closed = 3 * (p1.a * p2.a + p1.b * p2.b + p1.c * p2.c) + 6 * np.cos(p1.theta + p2.theta)
            assert abs(direct - closed) <= 1e-10

    def test_rotated_family_instance(self):
        # pairing of the rotated-angle family member against (a, b, c; theta)
        # equals 3(a*thr + b*t + c/t - 2); at theta=0, (1,1,0), t=1 it is 0
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = random_params(rng)
            t = rng.uniform(0.2, 4.0)
            thr = cp_threshold(np.pi - p.theta)
            state = choi_matrix(MapParams(thr, t, 1.0 / t, np.pi - p.theta))
            expected = 3 * (p.a * thr + p.b * t + p.c / t - 2.0)
            assert pairing(state, p) == pytest.approx(expected, abs=1e-9)
        p0 = MapParams(1, 1, 0, 0.0)
        state = choi_matrix(MapParams(cp_threshold(np.pi), 1.0, 1.0, np.pi))
        assert pairing(state, p0) == pytest.approx(0.0, abs=1e-12)

    def test_projector_pairing_is_map_quadratic_form(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            p = random_params(rng)
            xi = rng.normal(size=3) + 1j * rng.normal(size=3)
            eta = rng.normal(size=3) + 1j * rng.normal(size=3)
            z = np.kron(xi, eta)
            direct = pairing(np.outer(z, z.conj()), p)
            form = np.vdot(eta.conj(), apply_map(p, np.outer(xi, xi.conj())) @ eta.conj()).real
            assert abs(direct - form) <= 1e-10 * max(1.0, abs(form))

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitianError):
            pairing(np.triu(np.ones((9, 9)), 1), MapParams(1, 1, 1, 0))


class TestEdgeState:
    def test_psd_with_rank_pair(self):
        w = edge_state(1.0, np.pi / 6)
        assert hermitian_eigenvalues(w)[0] >= -1e-9
        assert hermitian_eigenvalues(partial_transpose(w))[0] >= -1e-9
        assert {numeric_rank(w), numeric_rank(partial_transpose(w))} == {8, 6}

    def test_diagonal_pattern(self):
        w = edge_state(2.0, np.pi / 6)
        s3 = np.sqrt(3.0)
        np.testing.assert_allclose(
            np.diag(w).real, [s3, 0.5, 2, 2, s3, 0.5, 0.5, 2, s3], atol=1e-12
        )

    def test_theta_zero_rejected(self):
        with pytest.raises(ThetaOutOfRangeError):
            edge_state(1.0, 0.0)
        with pytest.raises(ThetaOutOfRangeError):
            edge_state(1.0, np.pi / 3)


class TestSubtractionGenerator:
    def test_zero_triple(self):
        np.testing.assert_allclose(subtraction_generator(0, 0, 0), np.zeros((9, 9)))

    def test_entry_layout(self):
        v = subtraction_generator(1, -1, 0)
        assert v[0, 0] == pytest.approx(1.0)
        assert v[4, 4] == pytest.approx(1.0)
        assert v[0, 4] == pytest.approx(-1.0)
        assert np.count_nonzero(v) == 4

    def test_constraint_enforced(self):
        with pytest.raises(ValueError):
            subtraction_generator(1, 1, 1)

    def test_rank_one_psd(self):
        v = subtraction_generator(1 + 1j, -2, 1 - 1j)
        assert numeric_rank(v) == 1
        assert hermitian_eigenvalues(v)[0] >= -1e-12


def test_pairing_value_imaginary_residue_guard():
    with pytest.raises(ValueError):
        pairing_value(1j * np.eye(9), np.eye(9))


_VERTEX = MapParams(2.0, 0.0, 0.0, np.pi / 6)


@pytest.mark.parametrize(
    "call",
    [
        lambda: edge_state(0.0, np.pi / 6),
        lambda: edge_kernel_vectors(-1.0, np.pi / 6),
        lambda: equal_subtraction_restriction(0.0, np.pi / 6),
        lambda: boundary_parametrization(np.pi / 6, 0.0),
        lambda: boundary_parametrization(np.pi / 6, np.inf),
        lambda: boundary_parametrization(np.pi / 6, 1e200),
        lambda: optimality_probe(_VERTEX, n_directions=0),
    ],
    ids=["edge_state", "edge_kernel_vectors", "equal_subtraction_restriction",
         "boundary_parametrization", "boundary_parametrization_inf", "boundary_parametrization_huge",
         "probe_directions"],
)
def test_bad_scalar_argument_is_out_of_range(call):
    with pytest.raises(OutOfRangeError):
        call()
