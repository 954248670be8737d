import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import choimaps.witness
from choimaps import (
    InternalConsistencyError,
    OutOfRangeError,
    ThetaOutOfRangeError,
    alpha_range,
    build_witness,
    cp_threshold,
    edge_state,
    has_cospanning_property,
    has_spanning_property,
    hermitian_eigenvalues,
    pairing_value,
    partial_transpose,
    solve_beta_gamma,
)
from choimaps.cli import main
from choimaps.linalg import FACE_TOL
from choimaps.witness import detection_closed_form, witness_matrix
import lemmas
from lemmas import edge_kernel_vectors, equal_subtraction_restriction


class TestAlphaRange:
    def test_reference_angle(self):
        lo, hi = alpha_range(np.pi / 6)
        # lo = 2 cos(pi/12) (2 - sqrt(2)) = sqrt(6) - sqrt(3) + sqrt(2) - 1
        assert lo == pytest.approx(np.sqrt(6) - np.sqrt(3) + np.sqrt(2) - 1, abs=1e-12)
        assert hi == pytest.approx(2 * np.cos(np.pi / 12), abs=1e-12)

    def test_even_in_angle(self):
        assert alpha_range(-np.pi / 6) == alpha_range(np.pi / 6)

    def test_interval_collapses_towards_zero_angle(self):
        lo, hi = alpha_range(1e-3)
        assert 0 < hi - lo < 0.01
        for th in np.linspace(0.01, np.pi / 3 - 0.01, 25):
            lo, hi = alpha_range(th)
            assert lo < hi

    def test_rejected_angles(self):
        for th in (0.0, np.pi / 3, -np.pi / 3, 1.5):
            with pytest.raises(ThetaOutOfRangeError):
                alpha_range(th)


class TestSolveBetaGamma:
    def test_reference_values(self):
        beta, gamma = solve_beta_gamma(np.pi / 6, 1.14)
        assert beta == pytest.approx(0.87742, abs=1e-4)
        assert gamma == pytest.approx(0.71463, abs=1e-4)
        t = np.cos(np.pi / 12)
        assert beta + gamma == pytest.approx(2 * t * (t + np.sqrt(3 * (1 - t * t))) - 1.14, abs=1e-10)
        assert beta * gamma == pytest.approx((2 * t - 1.14) ** 2, abs=1e-10)

    def test_second_reference(self):
        beta, gamma = solve_beta_gamma(np.pi / 6, 1.5)
        assert beta == pytest.approx(1.05535, abs=1e-4)
        assert gamma == pytest.approx(0.17671, abs=1e-4)

    def test_double_root_at_lower_endpoint(self):
        # at 0.239 and 0.676 the discriminant rounds to about +1e-15 at lo
        for theta in (np.pi / 6, 0.3, -0.9, 0.239, 0.676):
            lo, _ = alpha_range(theta)
            beta, gamma = solve_beta_gamma(theta, lo)
            assert beta == gamma

    @pytest.mark.parametrize("theta", [np.pi / 6, 0.1, -1.0])
    def test_small_root_does_not_cancel_near_upper_end(self, theta):
        lo, hi = alpha_range(theta)
        at = hi - 1e-6 * (hi - lo)
        beta, gamma = solve_beta_gamma(theta, at)
        prod = (hi - at) ** 2  # hi = 2t
        assert abs(beta * gamma - prod) <= 1e-12 * prod

    def test_out_of_range(self):
        lo, hi = alpha_range(np.pi / 6)
        with pytest.raises(OutOfRangeError):
            solve_beta_gamma(np.pi / 6, lo - 0.01)
        with pytest.raises(OutOfRangeError):
            solve_beta_gamma(np.pi / 6, hi)

    def test_face_band_at_upper_end_is_out_of_range(self):
        # there the normalized a = alpha~ / hi is within FACE_TOL of the vertex a = 1
        _, hi = alpha_range(np.pi / 6)
        solve_beta_gamma(np.pi / 6, hi * (1 - 2 * FACE_TOL))
        for at in (hi * (1 - FACE_TOL), 1.9318516515781365):
            with pytest.raises(OutOfRangeError, match="face band"):
                solve_beta_gamma(np.pi / 6, at)

    def test_roots_positive_through_interval(self):
        for th in (np.pi / 12, np.pi / 6, np.pi / 4):
            lo, hi = alpha_range(th)
            for at in np.linspace(lo, hi - 1e-9, 50, endpoint=False):
                beta, gamma = solve_beta_gamma(th, at)
                assert beta >= gamma > 0


class TestBuildWitness:
    def test_reference_detection_value(self):
        spec = build_witness(np.pi / 6, 1.0, 1.14)
        assert spec.detection_value / 3 == pytest.approx(-0.16554, abs=1e-4)
        assert spec.detection_value / 3 == pytest.approx(-0.1654620793714802, abs=1e-10)
        assert spec.detects

    def test_non_detecting_alpha_is_flagged(self):
        spec = build_witness(np.pi / 6, 1.0, 1.5)
        assert spec.detection_value / 3 == pytest.approx(0.09808, abs=1e-4)
        assert not spec.detects

    def test_unit_b_takes_lower_end(self):
        # at b = 1 the pairing is linear in alpha~ with slope 3(p_theta - 1) > 0;
        # at pi/6 its minimum is 6 sqrt 2 - 9 = -0.514718625761...
        spec = build_witness(np.pi / 6, 1.0)
        lo, _ = alpha_range(np.pi / 6)
        assert spec.alpha_tilde == lo
        assert spec.beta_tilde == spec.gamma_tilde
        assert spec.detection_value == pytest.approx(6 * math.sqrt(2) - 9, abs=1e-12)

    def test_one_pairing_per_witness(self, monkeypatch):
        calls = []

        def counted(a, c):
            calls.append(1)
            return pairing_value(a, c)

        monkeypatch.setattr(choimaps.witness, "pairing_value", counted)
        build_witness(np.pi / 6, 2.0)
        assert len(calls) == 1
        build_witness(np.pi / 6, 2.0, 1.2)
        assert len(calls) == 2

    def test_detection_matches_closed_form(self):
        for th in (np.pi / 12, -np.pi / 6, np.pi / 4):
            for b in (0.5, 1.0, 2.0):
                spec = build_witness(th, b)
                closed = detection_closed_form(th, b, spec.alpha_tilde, spec.b_slot, spec.c_slot)
                assert spec.detection_value == pytest.approx(closed, abs=1e-9)

    def test_trace_pairing_off_the_identity_fails_the_self_check(self, capsys, monkeypatch):
        # the family pairing identity checks the trace pairing of every witness:
        # an error of 1e-6 is far above RESIDUE_REL times the size of its terms
        def off(a, c):
            return pairing_value(a, c) + 1e-6

        monkeypatch.setattr(choimaps.witness, "pairing_value", off)
        with pytest.raises(InternalConsistencyError, match="family pairing identity"):
            build_witness(np.pi / 6, 1.0)
        assert main(["witness", "pi/6", "1.0", "--json"]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("witness: internal consistency check failed: ")

    def test_validations(self):
        spec = build_witness(np.pi / 6, 1.0, 1.14)
        assert hermitian_eigenvalues(spec.matrix)[0] < -1e-6
        assert hermitian_eigenvalues(partial_transpose(spec.matrix))[0] < -1e-6
        assert has_spanning_property(spec.normalized_params)
        assert has_cospanning_property(spec.normalized_params)
        # normalized parameters sit on the boundary curve with a < 1
        q = spec.normalized_params
        assert q.a < 1
        assert abs(q.b * q.c - (1 - q.a) ** 2) <= 1e-10
        assert abs(q.a + q.b + q.c - cp_threshold(q.theta)) <= 1e-10

    def test_both_matrices_solved_as_one_stack(self, monkeypatch):
        shapes = []
        solve = choimaps.witness.hermitian_eigenvalues
        monkeypatch.setattr(choimaps.witness, "hermitian_eigenvalues", lambda m: shapes.append(m.shape) or solve(m))
        build_witness(np.pi / 6, 2.0)
        assert shapes == [(2, 9, 9)]

    @pytest.mark.parametrize("name, lows", [("PSD", [0.0, -1.0]), ("co-PSD", [-1.0, 0.0])])
    def test_psd_witness_is_an_internal_error(self, name, lows, monkeypatch):
        # the first matrix of the stack is W, the second its partial transpose
        spectra = np.repeat(np.array(lows)[:, None], 9, axis=1)
        monkeypatch.setattr(choimaps.witness, "hermitian_eigenvalues", lambda m: spectra)
        with pytest.raises(InternalConsistencyError) as excinfo:
            build_witness(np.pi / 6, 2.0)
        assert str(excinfo.value).endswith(f" is {name} within tolerance (smallest eigenvalue 0.0)")

    def test_scale_invariance_of_detection_sign(self):
        spec = build_witness(np.pi / 6, 1.0, 1.14)
        rho = edge_state(1.0, np.pi / 6)
        for scale in (1e-3, 1.0, 7.5):
            assert pairing_value(rho, scale * spec.matrix) < 0

    def test_witness_matrix_is_scaled_family_member(self):
        from choimaps import choi_matrix

        spec = build_witness(np.pi / 6, 1.0, 1.2)
        direct = 2 * spec.t * choi_matrix(spec.normalized_params)
        assert np.abs(spec.matrix - direct).max() <= 1e-12

    def test_bad_inputs(self):
        with pytest.raises(ThetaOutOfRangeError):
            build_witness(0.0, 1.0)
        with pytest.raises(ValueError):
            build_witness(np.pi / 6, -1.0)


class TestEdgeKernelVectors:
    def test_orthogonality_at_unit_b(self):
        z, w1, w2, w3 = edge_kernel_vectors(1.0, np.pi / 6)
        rho = edge_state(1.0, np.pi / 6)
        rho_pt = partial_transpose(rho)
        assert abs(pairing_value(np.outer(z, z.conj()), rho)) <= 1e-12
        for w in (w1, w2, w3):
            assert abs(pairing_value(np.outer(w, w.conj()), rho_pt)) <= 1e-12

    def test_entries_at_b_four(self):
        _, w1, _, _ = edge_kernel_vectors(4.0, np.pi / 6)
        assert w1[1] == pytest.approx(2.0)
        assert w1[3] == pytest.approx(0.5 * np.exp(1j * np.pi / 6))
        assert np.count_nonzero(w1) == 2

    def test_state_kernel_vector_is_maximally_entangled(self):
        z, _, _, _ = edge_kernel_vectors(2.0, 0.4)
        proj = np.outer(z, z.conj())
        assert np.linalg.matrix_rank(proj) == 1
        assert np.trace(proj).real == pytest.approx(3.0)


class TestEqualSubtractionRestriction:
    def test_reference_cases(self):
        # b = 1 satisfies the b-inequality but pi/6 fails the angle one
        assert not equal_subtraction_restriction(1.0, np.pi / 6)
        assert not equal_subtraction_restriction(10.0, 0.9)
        assert equal_subtraction_restriction(1.0, 0.7)

    def test_b_bound_value(self):
        bound = 2 - np.sqrt(3.0) + np.sqrt(6 * np.sqrt(3.0) - 6)
        assert bound == pytest.approx(2.36373, abs=1e-5)
        assert 1.0 + 1.0 <= bound  # b = 1 side holds

    def test_angle_bound_value(self):
        assert (3 + np.sqrt(21.0)) / 8 == pytest.approx(0.94782, abs=1e-5)


def test_witness_matrix_layout():
    w = witness_matrix(np.pi / 6, 1.1, 0.9, 0.7)
    np.testing.assert_allclose(
        np.diag(w).real, [1.1, 0.7, 0.9, 0.9, 1.1, 0.7, 0.7, 0.9, 1.1], atol=1e-15
    )
    assert w[0, 4] == pytest.approx(1 + np.exp(-1j * np.pi / 6))
    assert w[4, 0] == pytest.approx(1 + np.exp(1j * np.pi / 6))


@given(
    theta=st.floats(0.01, math.pi / 3 - 0.01),
    sign=st.sampled_from((1.0, -1.0)),
    u=st.floats(0.0, 0.99),
    swap=st.booleans(),
)
def test_witness_matrix_is_the_written_out_ansatz_bit_for_bit(theta, sign, u, swap):
    theta *= sign
    lo, hi = alpha_range(theta)
    alpha = lo + (hi * (1.0 - FACE_TOL) - lo) * u
    slots = solve_beta_gamma(theta, alpha)
    b_slot, c_slot = slots[::-1] if swap else slots
    w = witness_matrix(theta, alpha, b_slot, c_slot)
    assert w.tobytes() == lemmas.witness_matrix(theta, alpha, b_slot, c_slot).tobytes()


def test_auto_scan_detects_at_extreme_parameters():
    # the optimum detects even at extreme state parameters, where it lies
    # near the upper end and the root assignment shrinks the weighted slot
    for b in (0.01, 100.0, 5e5, 1e6, 1e-6):
        spec = build_witness(np.pi / 6, b)
        assert spec.detects
        assert (spec.b_slot if b > 1 else spec.c_slot) == spec.gamma_tilde


def _ansatz_scan_minimum(theta, b, alphas):
    """Smallest family-identity pairing over ``alphas`` and both root
    assignments, with the roots of the quadratic computed here."""
    t, p = math.cos(theta / 2), cp_threshold(theta)
    s = 2 * t * (t + math.sqrt(3 * (1 - t * t))) - alphas
    prod = (2 * t - alphas) ** 2
    big = (s + np.sqrt(np.maximum(s * s - 4 * prod, 0.0))) / 2
    small = prod / big
    both = np.minimum(b * big + small / b, b * small + big / b)
    return float(np.min(3 * (p * alphas + both - 4 * t * t)))


def test_closed_form_alpha_is_the_ansatz_optimum():
    # no scan of the interval, fine or coarse (the 64 points that once chose
    # alpha~, 1e-3 of the width in from each end), pairs below the optimum
    rng = np.random.default_rng(20121205)
    points = [(rng.choice([-1, 1]) * rng.uniform(0.05, 1.04), math.exp(rng.uniform(-6, 6)))
              for _ in range(36)]
    points += [(np.pi / 6, 1.0), (-0.9, 1.0), (0.3, 1.0), (1.0, 0.2)]
    for theta, b in points:
        spec = build_witness(theta, b)
        lo, hi = alpha_range(theta)
        margin = 1e-3 * (hi - lo)
        alphas = np.concatenate([
            np.linspace(lo, hi, 20001)[:-1],
            np.linspace(lo + margin, hi - margin, 64),
        ])
        scale = 3 * (cp_threshold(theta) * spec.alpha_tilde + b * spec.b_slot
                     + spec.c_slot / b + 4 * spec.t ** 2)
        assert spec.detection_value <= _ansatz_scan_minimum(theta, b, alphas) + 1e-12 * scale


_ANGLES = [sign * float(x) for x in np.linspace(0.06, 1.04, 9) for sign in (1, -1)]


@pytest.mark.parametrize("b", ["1e8", "1e-8", "1e9", "1e-9", "1e12", "1e-12"])
def test_extreme_b_detects_or_is_a_usage_error(b, capsys):
    # far out the optimum enters the face band at hi: a usage error, never exit 5
    for theta in _ANGLES:
        code = main(["witness", repr(theta), b, "--json"])
        captured = capsys.readouterr()
        assert code in (0, 1), (theta, captured.err)
        assert "Traceback" not in captured.err
        if code == 1:
            assert "face band" in captured.err
