import cmath
import math

import numpy as np
import pytest

from choimaps import (
    FaceKind,
    MapParams,
    NotPositiveMapError,
    UnsupportedCaseError,
    UnsupportedThetaError,
    block_positivity_oracle,
    boundary_parametrization,
    choi_matrix,
    classify_face,
    classify_optimality,
    cooptimality_subtraction,
    cp_threshold,
    face_properties,
    is_positive,
    numeric_rank,
    optimality_probe,
    orthocomplement_basis,
    subtraction_budget,
    vertex_optimality_analytic,
)
from choimaps import optimality, positivity
from choimaps.errors import InternalConsistencyError
from choimaps.optimality import (
    _dinkelbach,
    _directions,
    _kernel_limit_ratio,
    _kernel_models,
    _ratio_on_grid,
)
from choimaps.positivity import _sphere_grid
from choimaps.spanning import ProductVector, sampled_kernel_vectors
from lemmas import apply_map, full_grid_ratios


PTH = cp_threshold(np.pi / 6)


class TestOrthocomplement:
    def test_vertex_basis_is_diagonal_with_zero_sum(self):
        th = np.pi / 6
        p = MapParams(1, cp_threshold(th) - 1, 0, th)
        basis = orthocomplement_basis(p)
        assert len(basis) == 2
        off = [k for k in range(9) if k not in (0, 4, 8)]
        for v in basis:
            assert np.abs(np.asarray(v)[off]).max() <= 1e-9
            assert abs(v[0] + v[4] + v[8]) <= 1e-9

    def test_spanning_point_has_empty_basis(self):
        a, b, c = boundary_parametrization(np.pi / 6, 2.0)
        assert orthocomplement_basis(MapParams(a, b, c, np.pi / 6)) == []

    def test_sum_face_interior_dimension(self):
        th = np.pi / 6
        pth = cp_threshold(th)
        basis = orthocomplement_basis(MapParams(1.2, (pth - 1.2) / 2, (pth - 1.2) / 2, th))
        assert len(basis) == 2

    @pytest.mark.parametrize(
        "abc",
        [
            (0.5, 1.0, 0.25),  # case (i), e_t
            (1.0, PTH - 1.0, 0.0),  # case (ii), v_1b0
            (0.0, 2.0, 0.5),  # case (iii), v_0t
            (1.2, (PTH - 1.2) / 2, (PTH - 1.2) / 2),  # case (iv), f_abc
            (1.5, 1.0, 0.0),  # inside f_ab: the axis vectors only
        ],
    )
    def test_kernel_sample_rank_is_far_from_any_cut(self, abc):
        # no singular value lies near the rank cut, so any cut in the gap gives
        # the same rank and the same orthocomplement
        p = MapParams(*abc, np.pi / 6)
        rows = np.array([pv.tensor() for pv in sampled_kernel_vectors(p)])
        s = np.linalg.svd(rows, compute_uv=False)
        assert not np.any((s > 1e-12 * s[0]) & (s < 1e-4 * s[0])), s / s[0]
        assert len(orthocomplement_basis(p)) == 9 - numeric_rank(rows)

    def test_strict_interior_unsupported(self):
        with pytest.raises(UnsupportedCaseError):
            orthocomplement_basis(MapParams(2, 2, 2, np.pi / 6))


class TestVertexAnalytic:
    def test_both_sides(self):
        assert vertex_optimality_analytic(np.pi / 6, "b_side")
        assert vertex_optimality_analytic(np.pi / 4, "c_side")

    def test_small_angle(self):
        assert vertex_optimality_analytic(0.05, "b_side")

    def test_negative_angles(self):
        assert vertex_optimality_analytic(-np.pi / 6, "b_side")
        assert vertex_optimality_analytic(-np.pi / 4, "c_side")

    def test_out_of_branch_rejected(self):
        with pytest.raises(UnsupportedThetaError):
            vertex_optimality_analytic(np.pi / 2, "b_side")
        with pytest.raises(UnsupportedThetaError):
            vertex_optimality_analytic(0.0, "b_side")

    def test_bad_vertex_name(self):
        with pytest.raises(ValueError):
            vertex_optimality_analytic(np.pi / 6, "diagonal")


class TestProbe:
    def test_vertex_is_optimal(self):
        th = np.pi / 6
        report = optimality_probe(MapParams(1, cp_threshold(th) - 1, 0, th))
        assert report.verdict == "optimal"
        assert report.max_subtractable <= 1e-9
        assert report.direction_count == 64

    def test_coordinate_face_interior_not_optimal(self):
        report = optimality_probe(MapParams(1.5, 0.5, 0, np.pi / 6))
        assert report.verdict == "not_optimal"
        assert report.max_subtractable > 1e-6
        assert report.witness_direction is not None
        assert report.verification["oracle_at_half"] >= -1e-9
        # tightness: doubling the subtraction breaks block-positivity
        assert report.verification["oracle_at_double"] < -1e-9

    def test_completely_positive_map_not_optimal(self):
        report = optimality_probe(MapParams(2.0, 0, 0, np.pi / 6))
        assert report.verdict == "not_optimal"
        assert report.max_subtractable > 1e-6

    def test_spanning_point_trivially_optimal(self):
        a, b, c = boundary_parametrization(np.pi / 6, 2.0)
        report = optimality_probe(MapParams(a, b, c, np.pi / 6))
        assert report.verdict == "optimal"
        assert report.direction_count == 0

    def test_agrees_with_analytic_certificate(self):
        for th in (np.pi / 12, -np.pi / 12, np.pi / 6, -np.pi / 6, np.pi / 4, -np.pi / 4):
            pth = cp_threshold(th)
            assert vertex_optimality_analytic(th, "b_side")
            report = optimality_probe(MapParams(1, pth - 1, 0, th))
            assert report.verdict == "optimal", (th, report.max_subtractable)

    def test_other_branch_vertex_via_probe(self):
        # outside the analytic branch the numeric probe still certifies
        th = 2.0
        pth = cp_threshold(th)
        assert 1 < pth < 2
        report = optimality_probe(MapParams(1, pth - 1, 0, th))
        assert report.verdict == "optimal"


class TestCooptimalitySubtraction:
    def test_instance(self):
        th = np.pi / 6
        pth = cp_threshold(th)
        sub = cooptimality_subtraction(MapParams(1, (pth - 1) / 2, (pth - 1) / 2, th))
        assert sub.p_value > 0
        assert abs(sub.theta_prime) < np.pi / 3
        assert sub.p_value == pytest.approx(min(subtraction_budget(th), (pth - 1) / 2) / 2)

    def test_identities_on_random_interior_points(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            th = rng.uniform(0.05, np.pi / 3 - 0.05) * rng.choice([-1.0, 1.0])
            pth = cp_threshold(th)
            lam = rng.uniform(0.1, 0.9)
            p = MapParams(1, lam * (pth - 1), (1 - lam) * (pth - 1), th)
            sub = cooptimality_subtraction(p)  # internal identity asserts
            assert abs(sub.theta_prime) < np.pi / 3
            s = sub.new_params.a + sub.new_params.b + sub.new_params.c
            assert abs(s - cp_threshold(sub.theta_prime)) <= 1e-10

    def test_small_weight_continuity(self):
        # the subtraction identity degenerates continuously at tiny weight
        th, b = np.pi / 6, 0.3
        pth = cp_threshold(th)
        c = pth - 1 - b
        weight = 1e-9
        z = cmath.exp(1j * th) - weight
        lhs = choi_matrix(MapParams(1, b, c, th)) - weight * choi_matrix(MapParams(0, 1, 1, 0))
        rhs = abs(z) * choi_matrix(
            MapParams(1 / abs(z), (b - weight) / abs(z), (c - weight) / abs(z), cmath.phase(z))
        )
        assert np.abs(lhs - rhs).max() <= 1e-10
        assert np.abs(rhs - choi_matrix(MapParams(1, b, c, th))).max() <= 1e-8

    def test_unsupported_points(self):
        th = np.pi / 6
        pth = cp_threshold(th)
        with pytest.raises(UnsupportedCaseError):
            cooptimality_subtraction(MapParams(1, pth - 1, 0, th))  # b*c = 0
        with pytest.raises(UnsupportedCaseError):
            cooptimality_subtraction(MapParams(1.2, 0.2, pth - 1.4, th))  # a != 1


class TestClassifyOptimality:
    def test_named_vertex(self):
        th = np.pi / 6
        cls = classify_optimality(MapParams(1, 0, cp_threshold(th) - 1, th))
        assert cls.row.optimal and not cls.row.spanning
        assert "analytic vertex certificate" in cls.evidence["optimal"]

    def test_product_surface_edge(self):
        cls = classify_optimality(MapParams(0.5, 1, 0.25, np.pi / 6))
        assert cls.row.spanning and cls.row.optimal and not cls.row.co_optimal

    def test_copositive_face_interior(self):
        cls = classify_optimality(MapParams(0, 2, 1, np.pi / 6))
        assert not any(
            [cls.row.spanning, cls.row.co_spanning, cls.row.optimal, cls.row.co_optimal]
        )

    def test_sum_face_interior_records_subtraction(self):
        th = np.pi / 6
        pth = cp_threshold(th)
        cls = classify_optimality(MapParams(1, (pth - 1) / 2, (pth - 1) / 2, th))
        assert not cls.row.co_optimal
        assert cls.evidence["co_optimal"]["source"] == "explicit copositive subtraction"

    def test_interior_point_all_negative(self):
        cls = classify_optimality(MapParams(2, 2, 2, np.pi / 6))
        assert cls.face.kind is FaceKind.INTERIOR
        assert not cls.row.optimal

    def test_exterior_rejected(self):
        with pytest.raises(NotPositiveMapError):
            classify_optimality(MapParams(0.1, 0.1, 0.1, np.pi / 6))

    def test_rows_match_table_for_every_face(self):
        th = np.pi / 6
        pth = cp_threshold(th)
        mid = (1 + pth) / 2
        reps = {
            FaceKind.F_ABC: (1, (pth - 1) / 2, (pth - 1) / 2),
            FaceKind.F_AB: (1.5, 0.5, 0),
            FaceKind.F_AC: (1.5, 0, 0.5),
            FaceKind.F_BC: (0, 2, 1),
            FaceKind.E_A: (2.2, 0, 0),
            FaceKind.E_B: (1, pth - 1 + 0.3, 0),
            FaceKind.E_C: (1, 0, pth - 1 + 0.3),
            FaceKind.E_AB: (mid, pth - mid, 0),
            FaceKind.E_AC: (mid, 0, pth - mid),
            FaceKind.E_T: (0.5, 1, 0.25),
            FaceKind.V_P00: (pth, 0, 0),
            FaceKind.V_10C: (1, 0, pth - 1),
            FaceKind.V_1B0: (1, pth - 1, 0),
            FaceKind.V_PARAM_T: boundary_parametrization(th, 2.0),
            FaceKind.V_0T: (0, 2, 0.5),
        }
        for kind, abc in reps.items():
            p = MapParams(*abc, th)
            assert classify_face(p).kind is kind
            cls = classify_optimality(p)
            assert cls.row == face_properties(kind), kind


def test_subtraction_budget_positive_in_branch():
    for th in (0.05, np.pi / 6, np.pi / 3 - 0.01, -0.4):
        assert subtraction_budget(th) > 0
    with pytest.raises(UnsupportedThetaError):
        subtraction_budget(0.0)


def _loop_hessian(w, xi0, eta0):
    """Reference: the Hessian by polarization and the tangent map w1, one
    tangent direction at a time."""

    def w1(x):
        return np.kron(x[0:3] + 1j * x[3:6], eta0) + np.kron(xi0, x[6:9] + 1j * x[9:12])

    def q2(x):
        z0 = np.kron(xi0, eta0)
        w2 = np.kron(x[0:3] + 1j * x[3:6], x[6:9] + 1j * x[9:12])
        return (w1(x) @ (w @ w1(x).conj())).real + 2.0 * (z0 @ (w @ w2.conj())).real

    basis = np.eye(12)
    diag = [q2(basis[i]) for i in range(12)]
    h = np.diag(diag)
    for i in range(12):
        for j in range(i + 1, 12):
            h[i, j] = h[j, i] = (q2(basis[i] + basis[j]) - diag[i] - diag[j]) / 2.0
    return h, np.array([w1(basis[k]) for k in range(12)])


def test_batched_kernel_hessian_matches_loop():
    th = np.pi / 6
    pth = cp_threshold(th)
    rng = np.random.default_rng(3)
    directions = rng.normal(size=(3, 9)) + 1j * rng.normal(size=(3, 9))
    for abc in ((1, pth - 1, 0), (1.2, (pth - 1.2) / 2, (pth - 1.2) / 2), (1.5, 0.5, 0)):
        p = MapParams(*abc, th)
        w = choi_matrix(p)
        vectors = sampled_kernel_vectors(p)[::4]
        mu, e, rows = _kernel_models(w, vectors, directions)
        for k, pv in enumerate(vectors):
            h, tangents = _loop_hessian(w, pv.xi, pv.eta)
            assert np.abs((e[k] * mu[k]) @ e[k].T - h).max() <= 1e-12 * max(1.0, np.abs(h).max())
            amp = directions @ tangents.T
            assert np.abs(rows[k] - np.stack([amp.real, amp.imag], axis=1)).max() <= 1e-12


def test_non_stationary_point_is_an_internal_error():
    p = MapParams(1.5, 0.5, 0, np.pi / 6)
    w = choi_matrix(p)
    xi = eta = np.array([1.0, 0.5, 0.25], dtype=complex)
    # every vector is checked, not only the first
    vectors = [sampled_kernel_vectors(p)[0], ProductVector(xi, eta)]
    with pytest.raises(InternalConsistencyError, match="not stationary"):
        _kernel_models(w, vectors, np.eye(9, dtype=complex)[:1])


_F_AB = MapParams(1.5, 0.5, 0, np.pi / 6)


@pytest.mark.parametrize(
    "call, kwargs",
    [
        ("probe", {"n_directions": 0}),
        ("probe", {"n_directions": -3}),
        ("oracle", {"grid_n": 0}),
    ],
)
def test_bad_budgets_are_value_errors(call, kwargs):
    # n_directions=0 used to report 'optimal' for this not-optimal map
    with pytest.raises(ValueError, match="must be"):
        if call == "probe":
            optimality_probe(_F_AB, **kwargs)
        else:
            block_positivity_oracle(choi_matrix(_F_AB), **kwargs)


@pytest.mark.parametrize("dim", [2, 9])
@pytest.mark.parametrize("n", [1, 64])
def test_directions_are_distinct_deterministic_unit_vectors(dim, n):
    v = _directions(dim, n)
    assert v.shape == (n, dim)
    assert np.all(np.isfinite(v))
    assert np.abs(np.linalg.norm(v, axis=1) - 1.0).max() <= 1e-12
    assert np.array_equal(v, _directions(dim, n))
    gaps = np.abs(v[:, None, :] - v[None, :, :]).max(axis=2) + 2.0 * np.eye(n)
    assert gaps.min() > 1e-6


def _sampled_ratio_minimum(p: MapParams, v, n: int = 2000) -> float:
    """Smallest largest-subtractable weight of the direction ``v`` over n
    seeded random unit xi: the largest r with Phi(xi xi*) - r b b* PSD is
    1/(b* A^-1 b), where b = m^T xi is the direction's map on xi xi*."""
    rng = np.random.default_rng(11)
    xi = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    xi /= np.linalg.norm(xi, axis=1)[:, None]
    lam, u = np.linalg.eigh(np.array([apply_map(p, np.outer(x, x.conj())) for x in xi]))
    b = xi @ np.asarray(v).reshape(3, 3)
    beta2 = np.abs(np.einsum("nji,nj->ni", u.conj(), b)) ** 2
    return float((1.0 / np.sum(beta2 / lam, axis=1)).min())


_PTH = cp_threshold(np.pi / 6)
_E_AB = MapParams((1 + _PTH) / 2, (_PTH - 1) / 2, 0, np.pi / 6)


@pytest.mark.parametrize("p", [_F_AB, _E_AB], ids=["f_ab", "e_ab"])
def test_refined_weight_is_tight(p):
    report = optimality_probe(p, n_directions=1)
    r, v = report.max_subtractable, report.witness_direction
    assert r > 1e-6
    # no sampled product vector beats the refined weight ...
    assert r <= _sampled_ratio_minimum(p, v) + 1e-12 * r
    # ... half of it can be subtracted, and twice it cannot
    vv = np.outer(v, v.conj())
    w = choi_matrix(p)
    assert block_positivity_oracle(w - 0.5 * r * vv).min_value >= -1e-9
    assert block_positivity_oracle(w - 2.0 * r * vv).min_value < -1e-9


_F_ABC = MapParams(1, (_PTH - 1) / 3, 2 * (_PTH - 1) / 3, np.pi / 6)


def test_e_ab_rounds_start_at_the_kernel_limit(monkeypatch):
    # Started from the grid ratio instead, the rounds crawl towards the
    # kernel limit for 28-34 descent iterations per direction.
    rounds, inside = [], []  # descent iterations of each _dinkelbach call
    newton = positivity._newton_candidates

    def counting_newton(*args):
        if inside:
            rounds[-1] += 1
        return newton(*args)

    def counting_dinkelbach(*args):
        rounds.append(0)
        inside.append(True)
        try:
            return _dinkelbach(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(positivity, "_newton_candidates", counting_newton)
    monkeypatch.setattr(optimality, "_dinkelbach", counting_dinkelbach)
    assert optimality_probe(_E_AB, n_directions=4).verdict == "not_optimal"
    assert len(rounds) == 4
    assert max(rounds) <= 2


# At this f_ab point (a bench/strata draw) the unseeded rounds of directions
# 2 and 3 pass below the kernel limit towards an interior minimum, 0.35878
# and 0.34239, while the seeded rounds find no product vector below the
# limits 0.36632 and 0.34496 in their first round and stop.  The largest
# direction, and so max_subtractable, is the same either way.
_F_AB_BELOW_LIMIT = MapParams(1.125292359574031, 2.082723915475503, 0.0, -1.393597384786379)


@pytest.mark.parametrize(
    "p",
    [
        _F_AB,
        _F_ABC,
        _E_AB,
        pytest.param(
            _F_AB_BELOW_LIMIT,
            marks=pytest.mark.xfail(strict=True, reason="seeded rounds stop at the kernel limit"),
        ),
    ],
    ids=["f_ab", "f_abc", "e_ab", "f_ab_below_limit"],
)
def test_seeded_rounds_never_lose(p):
    # The probe's own directions, grid and kernel limits (n_directions=4).
    w = choi_matrix(p)
    basis = np.array(orthocomplement_basis(p))
    directions = _directions(len(basis), 4) @ basis
    xi, _ = _sphere_grid(8, 8)
    ratios = _ratio_on_grid(w, directions.reshape(-1, 3, 3), xi, 64)
    vectors = sampled_kernel_vectors(p)
    mu, e, rows = _kernel_models(w, vectors, directions)
    for d, v in enumerate(directions):
        limit = min(_kernel_limit_ratio(mu[k], e[k], rows[k, d]) for k in range(len(vectors)))
        seeded = _dinkelbach(w, v, xi, ratios[d], 64, limit)
        unseeded = _dinkelbach(w, v, xi, ratios[d], 64, math.inf)
        assert seeded <= min(limit, unseeded) * (1 + 1e-12)


def _random_unit(rng, n):
    xi = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    return xi / np.linalg.norm(xi, axis=1)[:, None]


@pytest.mark.parametrize("cells", ["grid", "random"])
def test_ratio_on_grid_matches_the_full_eigensolve(cells):
    # one eigh per moduli pattern and phase-rotated b against one eigh per vector
    rng = np.random.default_rng(41)
    xi = _sphere_grid(8, 8)[0] if cells == "grid" else _random_unit(rng, 500)
    run = 64 if cells == "grid" else 1
    if cells == "random":  # zero coordinates take the phase 1
        xi[:50, 0] = 0.0
        xi[50:100, 1:] = 0.0
        xi /= np.linalg.norm(xi, axis=1)[:, None]
    points = [MapParams(*rng.uniform(0.0, 2.5, 3), rng.uniform(-np.pi, np.pi)) for _ in range(40)]
    positive = [p for p in points if is_positive(p)][:6]  # the probe's maps are positive
    assert len(positive) == 6
    for p in positive:
        w = choi_matrix(p)
        matrices = (rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))) / 3.0
        got, want = _ratio_on_grid(w, matrices, xi, run), full_grid_ratios(w, matrices, xi)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        assert np.all(np.abs(got[finite] - want[finite]) <= 1e-12 * want[finite])


def test_ratio_on_grid_needs_a_covariant_choi_matrix():
    w = choi_matrix(_F_AB)
    w[0, 1] = w[1, 0] = 1e-3  # slot (0, 0, 0, 1): {0, 1} != {0, 0}
    xi, _ = _sphere_grid(8, 8)
    with pytest.raises(InternalConsistencyError, match="covariant"):
        _ratio_on_grid(w, np.eye(3)[None], xi, 64)


_V_1B0_OUTER = MapParams(1, cp_threshold(2.0) - 1, 0, 2.0)


@pytest.mark.parametrize("p, grid_eighs", [(_V_1B0_OUTER, []), (_F_AB, [64])], ids=["v_1b0_outer", "f_ab"])
def test_grid_ratios_solve_once_per_moduli_pattern(monkeypatch, p, grid_eighs):
    # Every kernel limit of an outer optimal vertex is zero, so its probe scans
    # no grid; a not-optimal probe solves the 64 moduli patterns of the 8^4
    # grid, once for all its directions.
    counts, inside = [], []
    ratio_on_grid, eigh = optimality._ratio_on_grid, np.linalg.eigh

    def counting_ratio_on_grid(w, matrices, xi, run):
        inside.append(len(xi) == 8**4)
        try:
            return ratio_on_grid(w, matrices, xi, run)
        finally:
            inside.pop()

    def counting_eigh(a, *args, **kwargs):
        if inside and inside[-1]:
            counts.append(int(np.prod(np.shape(a)[:-2])))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(optimality, "_ratio_on_grid", counting_ratio_on_grid)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    report = optimality_probe(p, n_directions=4)
    assert report.verdict == ("optimal" if p is _V_1B0_OUTER else "not_optimal")
    assert counts == grid_eighs
