import cmath
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from choimaps import (
    FaceKind,
    MapParams,
    NotPositiveMapError,
    OutOfRangeError,
    UnsupportedCaseError,
    UnsupportedThetaError,
    block_positivity_oracle,
    boundary_parametrization,
    choi_matrix,
    classify_face,
    classify_optimality,
    cooptimality_subtraction,
    cp_threshold,
    is_positive,
    optimality_probe,
    subtraction_budget,
)
from choimaps import optimality
from choimaps.errors import InternalConsistencyError
from choimaps.faces import PROPERTY_TABLE
from choimaps.linalg import CERTIFIED_SIGN
from choimaps.optimality import (
    _dinkelbach,
    _directions,
    _kernel_limit_ratio,
    _kernel_models,
    _penalty_rows,
    _ratio_on_grid,
    _second_order,
)
from choimaps.positivity import _COVARIANT, BlockPositivityReport, _grid
from choimaps.spanning import _kernel_point
import lemmas
from lemmas import apply_map, dinkelbach_reference, full_grid_minimum, full_grid_ratios, kernel_limit_ratio
from lemmas import moduli_oracle, numeric_rank, product_tensors, vertex_optimality_analytic


PTH = cp_threshold(np.pi / 6)


class TestOrthocomplement:
    def test_vertex_basis_is_diagonal_with_zero_sum(self):
        # In the middle theta branch the kernel sample of each vertex with
        # first coordinate 1 has rank 7, and its first-order orthocomplement
        # is the diagonal slots with zero sum; the second-order rows then
        # remove that plane too.
        off = [k for k in range(9) if k not in (0, 4, 8)]
        for th in (np.pi / 6, -np.pi / 4, 0.05):
            for bc in ((cp_threshold(th) - 1, 0), (0, cp_threshold(th) - 1)):
                p = MapParams(1, *bc, th)
                rows = _kernel_point(p).tensors
                s, vh = np.linalg.svd(rows)[1:]
                assert numeric_rank(rows) == 7 and s[6] > 1e-4 * s[0]
                first_order = vh[7:].conj()
                assert np.abs(first_order[:, off]).max() <= 1e-9
                assert np.abs(first_order[:, [0, 4, 8]].sum(axis=1)).max() <= 1e-9
                assert len(_second_order(p)[0]) == 0

    def test_spanning_point_has_empty_basis(self):
        a, b, c = boundary_parametrization(np.pi / 6, 2.0)
        assert len(_second_order(MapParams(a, b, c, np.pi / 6))[0]) == 0

    def test_sum_face_interior_dimension(self):
        th = np.pi / 6
        pth = cp_threshold(th)
        basis = _second_order(MapParams(1.2, (pth - 1.2) / 2, (pth - 1.2) / 2, th))[0]
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
        # the same rank and the same first-order orthocomplement; only the
        # vertex's second-order rows reduce it further
        p = MapParams(*abc, np.pi / 6)
        k = _kernel_point(p)
        rows = product_tensors(k.xi, k.eta)
        s = np.linalg.svd(rows, compute_uv=False)
        assert not np.any((s > 1e-12 * s[0]) & (s < 1e-4 * s[0])), s / s[0]
        # the point's record holds the same tensors, read-only, with its
        # factors, because every caller of the cache shares them
        assert np.array_equal(rows, k.tensors)
        assert not any(x.flags.writeable for x in (k.xi, k.eta, k.tensors))
        vertex = abc[0] == 1.0
        assert len(_second_order(p)[0]) == (0 if vertex else 9 - numeric_rank(rows))

    def test_strict_interior_unsupported(self):
        with pytest.raises(UnsupportedCaseError):
            _second_order(MapParams(2, 2, 2, np.pi / 6))


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
        # certified by the empty second-order orthocomplement: no direction drawn
        th = np.pi / 6
        report = optimality_probe(MapParams(1, cp_threshold(th) - 1, 0, th))
        assert report.verdict == "optimal"
        assert report.max_subtractable <= 1e-9
        assert report.direction_count == 0
        assert report.verification == {"reason": "empty second-order orthocomplement"}

    def test_coordinate_face_interior_not_optimal(self):
        report = optimality_probe(MapParams(1.5, 0.5, 0, np.pi / 6))
        assert report.verdict == "not_optimal"
        assert report.max_subtractable > 1e-6
        assert report.witness_direction is not None
        assert report.verification["oracle_at_half"] >= -1e-9
        # tightness: doubling the subtraction breaks block-positivity at an
        # explicit product vector, found by the rounds, not by a second search
        assert report.verification["pairing_at_double"] < -1e-9
        assert report.verification["xi_at_double"].shape == (3,)
        assert "oracle_at_double" not in report.verification

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

    def test_band_point_is_probed_at_its_face_coordinates(self):
        # a = 1 + 5e-10 puts the point in V_10C's band; the map and its kernel
        # sample are both taken at (1, 0, p_theta - 1), where the space is
        # empty.  The map at the raw coordinates left 4.0e-9 subtractable.
        p = MapParams(1.0000000005, 0, 0.7497633207351782, -2.6)
        assert _kernel_point(p).params == MapParams(1.0, 0.0, cp_threshold(-2.6) - 1.0, -2.6)
        report = optimality_probe(p)
        assert report.verdict == "optimal"
        assert report.direction_count == 0
        assert len(_second_order(p)[0]) == 0


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
        assert cls.evidence["optimal"] == "empty second-order orthocomplement"

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
            assert cls.row == PROPERTY_TABLE[kind], kind


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
        record = _kernel_point(p)
        xi, eta = record.xi[::4], record.eta[::4]
        mu, e, jac = _kernel_models(w, xi, eta)
        rows = _penalty_rows(jac, directions)
        for k in range(len(xi)):
            h, tangents = _loop_hessian(w, xi[k], eta[k])
            assert np.abs((e[k] * mu[k]) @ e[k].T - h).max() <= 1e-12 * max(1.0, np.abs(h).max())
            assert np.abs(jac[k] - tangents.T).max() <= 1e-12
            amp = directions @ tangents.T
            assert np.abs(rows[k] - np.stack([amp.real, amp.imag], axis=1)).max() <= 1e-12


def test_non_stationary_point_is_an_internal_error():
    p = MapParams(1.5, 0.5, 0, np.pi / 6)
    w = choi_matrix(p)
    k = _kernel_point(p)
    other = np.array([1.0, 0.5, 0.25], dtype=complex)
    # every vector is checked, not only the first
    xi, eta = np.array([k.xi[0], other]), np.array([k.eta[0], other])
    with pytest.raises(InternalConsistencyError, match="not stationary"):
        _kernel_models(w, xi, eta)


_F_AB = MapParams(1.5, 0.5, 0, np.pi / 6)


@pytest.mark.parametrize(
    "call, kwargs",
    [
        ("probe", {"n_directions": 0}),
        ("probe", {"n_directions": -3}),
    ],
)
def test_bad_budgets_are_value_errors(call, kwargs):
    # n_directions=0 used to report 'optimal' for this not-optimal map
    with pytest.raises(ValueError, match="must be"):
        optimality_probe(_F_AB, **kwargs)


@pytest.mark.parametrize(
    "n", [2.5, "4", True, optimality._MAX_DIRECTIONS + 1, 10**12], ids=["float", "str", "bool", "cap", "huge"]
)
def test_probe_refuses_a_count_it_cannot_draw(monkeypatch, n):
    # every direction is drawn at once before the blocks, so a count above the
    # cap is refused before anything is drawn or allocated
    monkeypatch.setattr(optimality, "_directions", lambda *args: pytest.fail("directions drawn"))
    tracemalloc.start()
    try:
        with pytest.raises(OutOfRangeError, match="n_directions must be an integer"):
            optimality_probe(_F_AB, n_directions=n)
        assert tracemalloc.get_traced_memory()[1] < 100_000
    finally:
        tracemalloc.stop()


def test_probe_cap_keeps_every_count_in_use():
    # 512 directions is the largest count the tests probe; numpy integers count
    assert 512 <= optimality._MAX_DIRECTIONS == 64 * optimality._BLOCK
    assert optimality_probe(_F_AB, n_directions=np.int64(4)).verdict == "not_optimal"


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
    # ... half of it can be subtracted, and twice it cannot: by the oracle,
    # and by the finer 16^4 grid (W - r vv* is not covariant here)
    vv = np.outer(v, v.conj())
    w = choi_matrix(p)
    half, double = w - 0.5 * r * vv, w - 2.0 * r * vv
    assert np.any(half[~_COVARIANT])
    assert block_positivity_oracle(half).min_value >= -1e-9
    assert full_grid_minimum(half) >= -1e-9
    assert block_positivity_oracle(double).min_value < -1e-9
    assert full_grid_minimum(double) < -1e-9


_F_ABC = MapParams(1, (_PTH - 1) / 3, 2 * (_PTH - 1) / 3, np.pi / 6)


def _count_descents(monkeypatch, module):
    """The number of starts of each ``_descend`` call made through ``module``."""
    starts, descend = [], module._descend

    def counting(w, xi, *args):
        starts.append(len(xi))
        return descend(w, xi, *args)

    monkeypatch.setattr(module, "_descend", counting)
    return starts


def test_e_ab_rounds_start_at_the_kernel_limit(monkeypatch):
    # Started from the grid ratio instead, the rounds crawl towards the
    # kernel limit for 28-34 descent iterations per direction.
    rounds = _count_descents(monkeypatch, optimality)  # one per round
    assert optimality_probe(_E_AB, n_directions=4).verdict == "not_optimal"
    assert 1 <= len(rounds) <= 2
    assert rounds == [20] * len(rounds)  # the leader's 20 starts: no other direction can reach it


# At this f_ab point (a bench/strata draw) the unseeded rounds of directions
# 2 and 3 pass below the kernel limit towards an interior minimum, 0.35878
# and 0.34239, while the seeded rounds find no product vector below the
# limits 0.36632 and 0.34496 in their first round and stop.  The largest
# direction, and so max_subtractable, is the same either way.
_F_AB_BELOW_LIMIT = MapParams(1.125292359574031, 2.082723915475503, 0.0, -1.393597384786379)


def _probe_parts(p, ndir):
    """The probe's own directions, grid ratios and kernel limits."""
    w = choi_matrix(p)
    basis = _second_order(p)[0]
    directions = _directions(len(basis), ndir) @ basis
    ratios = _ratio_on_grid(w, directions.reshape(-1, 3, 3))
    record = _kernel_point(p)
    mu, e, jac = _kernel_models(w, record.xi, record.eta)
    limits = _kernel_limit_ratio(mu, e, _penalty_rows(jac, directions))
    return w, directions, ratios, limits


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
    w, directions, ratios, limits = _probe_parts(p, 4)
    seeded = _dinkelbach(w, directions, ratios, limits)[0]
    unseeded, reached = _dinkelbach(w, directions, ratios, np.full(4, math.inf))
    assert np.all(seeded <= np.minimum(limits, unseeded) * (1 + 1e-12))
    # unseeded, each smallest ratio is attained at the vector returned for it
    at = _ratio_on_grid(w, directions.reshape(-1, 3, 3), reached[:, None])[:, 0]
    assert np.all(np.abs(at - unseeded) <= 1e-12 * unseeded)


_V_P00 = MapParams(_PTH, 0, 0, np.pi / 6)
_E_B = MapParams(1, _PTH - 1 + 0.3, 0, np.pi / 6)


@pytest.mark.parametrize("ndir", [1, 4, 64])
@pytest.mark.parametrize("p", [_F_AB, _E_AB, _V_P00, _E_B], ids=["f_ab", "e_ab", "v_p00", "e_b"])
def test_stacked_kernel_limits_match_the_loop(p, ndir):
    # one eigvalsh over every (kernel vector, direction) against one per pair
    w = choi_matrix(p)
    basis = _second_order(p)[0]
    directions = _directions(len(basis), ndir) @ basis
    record = _kernel_point(p)
    mu, e, jac = _kernel_models(w, record.xi, record.eta)
    rows = _penalty_rows(jac, directions)
    loop = np.array([[kernel_limit_ratio(m, v, r) for r in rows_k] for m, v, rows_k in zip(mu, e, rows)])

    def assert_close(got, want):
        assert got.shape == want.shape and np.array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        assert np.all(np.abs(got[finite] - want[finite]) <= 1e-12 * want[finite])

    assert np.isfinite(loop.min(axis=0)).any()
    assert_close(_kernel_limit_ratio(mu, e, rows), loop.min(axis=0))
    for k in range(len(mu)):  # a single kernel vector
        assert_close(_kernel_limit_ratio(mu[k : k + 1], e[k : k + 1], rows[k : k + 1]), loop[k])


_REFERENCE_POINTS = {"f_ab": _F_AB, "f_abc": _F_ABC, "e_ab": _E_AB, "v_p00": _V_P00, "e_b": _E_B}


@functools.lru_cache(maxsize=None)
def _reference_rounds(name, seeded):
    """The per-direction reference r at the probe's 64 directions of a point;
    ``_directions`` is a prefix-stable sequence, so fewer directions are its
    first rows."""
    w, directions, ratios, limits = _probe_parts(_REFERENCE_POINTS[name], 64)
    bounds = limits if seeded else np.full(len(limits), math.inf)
    return np.array(
        [dinkelbach_reference(w, v, ratios[d], bounds[d])[0] for d, v in enumerate(directions)]
    )


@pytest.mark.parametrize("seeded", [True, False], ids=["seeded", "unseeded"])
@pytest.mark.parametrize("ndir", [1, 4, 64])
@pytest.mark.parametrize("name", sorted(_REFERENCE_POINTS))
def test_batched_rounds_match_the_per_direction_reference(name, ndir, seeded):
    # one batch of rounds, W - r vv* a rank-one term per start, against one
    # direction at a time on the explicit W - r vv*
    w, directions, ratios, limits = _probe_parts(_REFERENCE_POINTS[name], ndir)
    bounds = limits if seeded else np.full(ndir, math.inf)
    got, reached = _dinkelbach(w, directions, ratios, bounds)
    want = _reference_rounds(name, seeded)[:ndir]
    assert got.shape == want.shape and reached.shape == (ndir, 3)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(want)
    assert np.all(np.abs(got[finite] - want[finite]) <= 1e-12 * want[finite])


def _reference_schedule(monkeypatch, p):
    """Each direction's rounds and refined weight at the probe's 4
    directions, by the reference, and the r0 its rounds start from, each
    weight capped at _P_MAX."""
    w, directions, ratios, limits = _probe_parts(p, 4)
    rounds, refined = [], []
    for d, v in enumerate(directions):
        descents = _count_descents(monkeypatch, lemmas)
        refined.append(dinkelbach_reference(w, v, ratios[d], limits[d])[0])
        rounds.append(len(descents))
        monkeypatch.undo()
    r0 = np.minimum(np.minimum(ratios.min(axis=1), limits), optimality._P_MAX)
    return rounds, r0, np.minimum(refined, optimality._P_MAX)


@pytest.mark.parametrize("p", [_F_AB, _F_ABC, _E_AB, _V_P00, _E_B], ids=["f_ab", "f_abc", "e_ab", "v_p00", "e_b"])
def test_not_optimal_probe_descends_once_per_round_of_the_batch(monkeypatch, p):
    # The leader, the direction of the largest r0, is refined alone; then
    # every other direction whose r0 reaches the leader's refined weight, in
    # one batch: one _descend call per round of each, max(rounds) for the
    # batch, not their sum.  The rest cannot be the largest: no round
    # raises r0.
    rounds, r0, refined = _reference_schedule(monkeypatch, p)
    leader = int(np.argmax(r0))
    batch = [rounds[d] for d in range(4) if d != leader and r0[d] >= refined[leader]]
    descents = _count_descents(monkeypatch, optimality)
    assert optimality_probe(p, n_directions=4).verdict == "not_optimal"
    assert len(descents) == rounds[leader] + max(batch, default=0)
    assert descents[: rounds[leader]] == [20] * rounds[leader]
    tail = descents[rounds[leader] :]
    assert sorted(tail, reverse=True) == tail  # directions only leave the batch
    assert [n // 20 for n in tail] == [sum(r > k for r in batch) for k in range(max(batch, default=0))]
    if p is _E_AB:
        assert rounds == [1, 1, 1, 1] and descents == [20]
    if p is _E_B:  # a direction besides the leader can still reach it
        assert len(batch) == 1 and len(tail) == batch[0]
    if p is _F_AB:
        assert sum(descents) < 20 * sum(rounds)


#: (refined directions, descended starts) per probe at the reference points,
#: at 4 and at 64 directions.  With every direction refined the counts were
#: 4 and 64 directions, and 80-320 and 1,280-5,320 starts.
_PROBE_COUNTS = {
    "f_ab": {4: (1, 80), 64: (1, 80)},
    "f_abc": {4: (1, 60), 64: (1, 40)},
    "e_ab": {4: (1, 20), 64: (1, 20)},
    "v_p00": {4: (1, 20), 64: (1, 20)},
    "e_b": {4: (2, 160), 64: (1, 100)},
}


@pytest.mark.parametrize("ndir", [4, 64])
@pytest.mark.parametrize("name", sorted(_REFERENCE_POINTS))
def test_probe_refines_only_the_directions_that_can_be_the_largest(monkeypatch, name, ndir):
    # counts, not times: a pruning regression shows here whatever the host
    refined, dinkelbach = [], optimality._dinkelbach

    def counting(w, directions, *args):
        refined.append(len(directions))
        return dinkelbach(w, directions, *args)

    monkeypatch.setattr(optimality, "_dinkelbach", counting)
    starts = _count_descents(monkeypatch, optimality)
    assert optimality_probe(_REFERENCE_POINTS[name], n_directions=ndir).verdict == "not_optimal"
    assert (sum(refined), sum(starts)) == _PROBE_COUNTS[name][ndir]


@functools.lru_cache(maxsize=None)
def _every_direction_refined(p, total):
    """``lemmas.refine_every_direction`` at ``total`` directions; fewer are
    its first rows, since ``_directions`` is prefix-stable."""
    return lemmas.refine_every_direction(p, total)


def _assert_probe_matches_every_direction_refined(p, ndir, total=512):
    w, directions, weights, xi = _every_direction_refined(p, total)
    verdict, r, top, verification = lemmas.probe_reference(w, directions[:ndir], weights[:ndir], xi[:ndir])
    report = optimality_probe(p, n_directions=ndir)
    assert report.verdict == verdict
    assert np.flatnonzero((directions[:ndir] == report.witness_direction).all(axis=1)).tolist() == [top]
    assert abs(report.max_subtractable - r) <= 1e-12 * r
    assert report.verification.keys() == verification.keys()
    if verification:
        got, want = report.verification["pairing_at_double"], verification["pairing_at_double"]
        assert abs(got - want) <= 1e-12 * abs(want)
        assert np.abs(report.verification["xi_at_double"] - verification["xi_at_double"]).max() <= 1e-12
    return verdict, top


@pytest.mark.parametrize("ndir", [4, 64, 512])
@pytest.mark.parametrize("name", sorted(_REFERENCE_POINTS))
def test_probe_matches_every_direction_refined(name, ndir):
    # a direction left at its r0 can never have been the largest
    assert _assert_probe_matches_every_direction_refined(_REFERENCE_POINTS[name], ndir)[0] == "not_optimal"


@pytest.mark.parametrize(
    "p, top",
    [(MapParams(20, 20, 20, 0.5), 0), (MapParams(10, 8, 8, 0.5), 2)],
    ids=["every_r0_capped", "leader_not_the_largest"],
)
def test_probe_keeps_the_first_largest_direction_where_weights_tie(p, top):
    # Interior points: no kernel vector, so every kernel limit is infinite,
    # and the weights tie at _P_MAX.  At (10, 8, 8) the leader, the first
    # direction of r0 = _P_MAX, is refined below it, and the first of the
    # batch that stays at _P_MAX is reported, as with every direction refined.
    assert classify_face(p).kind is FaceKind.INTERIOR
    assert _assert_probe_matches_every_direction_refined(p, 8, total=8) == ("not_optimal", top)
    assert optimality_probe(p, n_directions=8).max_subtractable == optimality._P_MAX


@pytest.mark.parametrize(
    "p, batches",
    [(MapParams(20, 20, 20, 0.5), [1]), (MapParams(10, 8, 8, 0.5), [1, 5])],
    ids=["every_r0_capped", "leader_not_the_largest"],
)
def test_probe_refines_no_direction_that_can_only_tie(monkeypatch, p, batches):
    # At (20, 20, 20) the leader keeps _P_MAX, and every later direction's
    # r0 = _P_MAX can at best tie it (8 were refined when ties were).  At
    # (10, 8, 8) the leader falls below _P_MAX, so the five directions of
    # r0 = _P_MAX still exceed it.
    refined, dinkelbach = [], optimality._dinkelbach

    def counting(w, directions, *args):
        refined.append(len(directions))
        return dinkelbach(w, directions, *args)

    monkeypatch.setattr(optimality, "_dinkelbach", counting)
    assert optimality_probe(p, n_directions=8).max_subtractable == optimality._P_MAX
    assert refined == batches


def test_probe_memory_is_bounded_by_its_blocks():
    # directions go through the kernel limits, the grid ratios and the rounds
    # in blocks of 64, so 512 directions keep the temporaries of one block
    p = MapParams(1.2, 1.5, 0, -1.0)
    assert classify_face(p).kind is FaceKind.F_AB
    optimality_probe(p, n_directions=1)  # the cached grids are built outside the measurement
    peaks = []
    for ndir in (64, 512):
        tracemalloc.start()
        try:
            assert optimality_probe(p, n_directions=ndir).verdict == "not_optimal"
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_probe_grid_is_built_once_and_read_only():
    # the probe, its rounds and its oracle check share the oracle's one grid
    optimality_probe(_F_AB, n_directions=4)
    misses, shared = _grid.cache_info().misses, _grid()
    assert optimality_probe(_F_AB, n_directions=4).verdict == "not_optimal"
    assert _grid.cache_info().misses == misses and all(a is b for a, b in zip(_grid(), shared))
    assert not any(part.flags.writeable for part in shared)
    # the grid ratios' factors: cell 64 i + j is the moduli row i times the phase pattern j
    xi, _, _, moduli, phases = shared
    assert moduli.shape == phases.shape == (64, 3) and not np.any(moduli < 0.0)
    assert np.array_equal((moduli[:, None, :] * phases).reshape(-1, 3), xi)


def _random_unit(rng, n):
    xi = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    return xi / np.linalg.norm(xi, axis=1)[:, None]


@pytest.mark.parametrize("cells", ["grid", "random"])
def test_ratio_on_grid_matches_the_full_eigensolve(cells):
    # one eigh per moduli row and one GEMM over the grid's phase patterns, or
    # one eigh per vector and phase-rotated b, against one eigh per vector;
    # 65 directions are more than one block of the probe
    rng = np.random.default_rng(41)
    xi = _grid()[0] if cells == "grid" else _random_unit(rng, 500)
    if cells == "random":  # zero coordinates take the phase 1
        xi[:50, 0] = 0.0
        xi[50:100, 1:] = 0.0
        xi /= np.linalg.norm(xi, axis=1)[:, None]
    points = [MapParams(*rng.uniform(0.0, 2.5, 3), rng.uniform(-np.pi, np.pi)) for _ in range(40)]
    positive = [p for p in points if is_positive(p)][:6]  # the probe's maps are positive
    assert len(positive) == 6

    def ratios_of(w, matrices):  # the grid route, or the paired route with the vectors repeated per direction
        if cells == "grid":
            return _ratio_on_grid(w, matrices)
        return _ratio_on_grid(w, matrices, np.repeat(xi[None], len(matrices), axis=0))

    for p, ndir in itertools.product(positive, (1, 4, 64, 65)):
        w = choi_matrix(p)
        matrices = (rng.normal(size=(ndir, 3, 3)) + 1j * rng.normal(size=(ndir, 3, 3))) / 3.0
        got, want = ratios_of(w, matrices), full_grid_ratios(w, matrices, xi)
        # one direction at a time too: the (ndir, ...) stacks must not
        # broadcast silently at ndir = 1
        alone = np.vstack([ratios_of(w, m[None]) for m in matrices[:5]])
        for ratios, reference in ((got, want), (alone, want[:5])):
            assert ratios.shape == reference.shape
            assert np.array_equal(np.isinf(ratios), np.isinf(reference))
            finite = np.isfinite(reference)
            assert np.all(np.abs(ratios[finite] - reference[finite]) <= 1e-12 * reference[finite])


def test_paired_ratios_match_the_shared_call_per_direction():
    # (ndir, n, 3) vectors: each direction at its own vectors, as the rounds
    # call it, against one call per direction
    rng = np.random.default_rng(42)
    xi = _random_unit(rng, 5 * 20)
    xi[:10, 1:] = 0.0  # zero coordinates take the phase 1
    xi /= np.linalg.norm(xi, axis=1)[:, None]
    xi = xi.reshape(5, 20, 3)
    for p in (_F_AB, _E_AB, _V_P00):
        w = choi_matrix(p)
        matrices = (rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))) / 3.0
        paired = _ratio_on_grid(w, matrices, xi)
        assert paired.shape == (5, 20)
        for d in range(5):
            shared = _ratio_on_grid(w, matrices[d : d + 1], xi[d : d + 1])[0]
            assert np.array_equal(np.isinf(paired[d]), np.isinf(shared))
            finite = np.isfinite(shared)
            assert np.all(np.abs(paired[d][finite] - shared[finite]) <= 1e-12 * shared[finite])


def test_ratio_on_grid_needs_a_covariant_choi_matrix():
    w = choi_matrix(_F_AB)
    w[0, 1] = w[1, 0] = 1e-3  # slot (0, 0, 0, 1): {0, 1} != {0, 0}
    for xi in (None, _grid()[0][None]):  # the grid, and vectors per direction
        with pytest.raises(InternalConsistencyError, match="covariant"):
            _ratio_on_grid(w, np.eye(3)[None], xi)


_V_1B0_OUTER = MapParams(1, cp_threshold(2.0) - 1, 0, 2.0)


@pytest.mark.parametrize("p, grid_eighs", [(_V_1B0_OUTER, []), (_F_AB, [64])], ids=["v_1b0_outer", "f_ab"])
def test_grid_ratios_solve_once_per_moduli_pattern(monkeypatch, p, grid_eighs):
    # The second-order orthocomplement of an outer optimal vertex is empty, so
    # its probe scans no grid; a not-optimal probe solves the 64 moduli
    # patterns of the 8^4 grid, once for all its directions (one block); the
    # rounds' paired calls at each direction's own vectors are not counted.
    counts, inside = [], []
    ratio_on_grid, eigh = optimality._ratio_on_grid, np.linalg.eigh

    def counting_ratio_on_grid(w, matrices, xi=None):
        inside.append(xi is None)
        try:
            return ratio_on_grid(w, matrices, xi)
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


@pytest.mark.parametrize("p", [_V_1B0_OUTER, _F_AB, _E_AB], ids=["v_1b0_outer", "f_ab", "e_ab"])
def test_probe_searches_once_and_solves_its_kernel_limits_once(monkeypatch, p):
    # A not-optimal probe runs one oracle search (W - r/2 vv*) and two
    # eigvalsh calls: one over the stack of every kernel limit of its one
    # block of directions, one at the product vector its batched rounds
    # return for W - 2r vv*.  An empty-space vertex runs none.
    oracles, limit_eigs, eigs, inside = [], [], [], []
    oracle, limits = optimality.block_positivity_oracle, optimality._kernel_limit_ratio
    eigvalsh = np.linalg.eigvalsh

    def counting_oracle(*args, **kwargs):
        oracles.append(1)
        return oracle(*args, **kwargs)

    def counting_limits(*args):
        inside.append(True)
        try:
            return limits(*args)
        finally:
            inside.pop()

    def counting_eigvalsh(a, *args, **kwargs):
        (limit_eigs if inside else eigs).append(1)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(optimality, "block_positivity_oracle", counting_oracle)
    monkeypatch.setattr(optimality, "_kernel_limit_ratio", counting_limits)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    report = optimality_probe(p, n_directions=4)
    vertex = p is _V_1B0_OUTER
    assert report.verdict == ("optimal" if vertex else "not_optimal")
    assert (len(oracles), len(limit_eigs), len(eigs)) == ((0, 0, 0) if vertex else (1, 1, 1))


def _face_point(kind: str, theta: float, u: float, v: float) -> MapParams:
    """A point of the proper face ``kind`` at ``theta``, placed by u and v in
    [0.1, 0.9] and at least 0.02 away from every other face (E_T may miss
    that margin; callers drop such draws)."""
    pth = cp_threshold(theta)
    r = pth - 1.0
    t = 0.2 * 25.0**v  # in [0.2, 5], log-uniform in v
    if kind == "f_abc":  # a in (2 - pth, pth), (p2) strict where a < 1
        a = 2.0 - pth + 2.0 * r * u
        rest = pth - a
        half = math.sqrt(max(rest * rest / 4.0 - (1.0 - a) ** 2, 0.0)) if a < 1.0 else rest / 2.0
        b = rest / 2.0 - half + 2.0 * half * v
        abc = (a, b, rest - b)
    elif kind in ("f_ab", "f_ac"):
        a = 1.02 + 1.38 * u
        lo = max(0.02, pth - a + 0.02)
        b = lo + (2.4 - lo) * v
        abc = (a, b, 0.0)
    elif kind == "f_bc":
        abc = (0.0, t, (1.02 + 1.5 * u) / t)
    elif kind == "e_a":
        abc = (pth + 0.02 + (2.48 - pth) * u, 0.0, 0.0)
    elif kind in ("e_b", "e_c"):
        abc = (1.0, r + 0.02 + (2.48 - r) * u, 0.0)
    elif kind in ("e_ab", "e_ac"):
        abc = (1.0 + r * u, pth - 1.0 - r * u, 0.0)
    elif kind == "e_t":
        a = 0.05 + 0.9 * u
        abc = (a, (1.0 - a) * t, (1.0 - a) / t)
    elif kind == "v_0t":
        abc = (0.0, t, 1.0 / t)
    elif kind == "v_param_t":
        abc = boundary_parametrization(theta, t)
    else:
        abc = {"v_p00": (pth, 0.0, 0.0), "v_1b0": (1.0, r, 0.0), "v_10c": (1.0, 0.0, r)}[kind]
    a, b, c = abc
    return MapParams(a, c, b, theta) if kind in ("f_ac", "e_c", "e_ac") else MapParams(a, b, c, theta)


def _pairing_at_double(p: MapParams, report) -> float:
    """The pairing of W - min(2r, _P_MAX) vv* with z = xi (x) eta, xi the
    report's ``xi_at_double`` and eta its best partner, as the plain 9x9 form
    z^T W conj(z): for fixed xi it is eta* N eta with the 3x3 block sum
    N = sum_ij conj(xi_i) xi_j W[(j, .), (i, .)], whose smallest eigenvector
    is eta."""
    r, v, xi = report.max_subtractable, report.witness_direction, report.verification["xi_at_double"]
    w = choi_matrix(p) - min(2.0 * r, optimality._P_MAX) * np.outer(v, v.conj())
    n = np.einsum("i,j,jlik->kl", xi.conj(), xi, w.reshape(3, 3, 3, 3))
    eta = np.linalg.eigh(n)[1][:, 0]
    z = np.kron(xi, eta)
    return float((z @ w @ z.conj()).real)


#: The proper faces without the spanning property.
_NON_SPANNING = (
    "f_abc", "f_ab", "f_ac", "f_bc", "e_a", "e_b", "e_c", "e_ab", "e_ac", "v_p00", "v_1b0", "v_10c",
)
_BRANCH_ANGLES = {"middle": (0.4, -0.9), "outer": (1.7, -2.6)}


@pytest.mark.parametrize("branch", sorted(_BRANCH_ANGLES))
@pytest.mark.parametrize("kind", _NON_SPANNING)
def test_probe_matches_the_property_table(kind, branch):
    # E_B and E_C are a vertex plus a CP map on the b (or c) slots; a direction
    # with any weight on the diagonal slots has kernel limit 0, so the
    # first-order space hid their subtractable directions from the probe.
    for theta, (u, v) in zip(_BRANCH_ANGLES[branch], ((0.3, 0.6), (0.7, 0.25))):
        p = _face_point(kind, theta, u, v)
        face = classify_face(p)
        assert face.kind.value == kind
        row = PROPERTY_TABLE[face.kind]
        assert not row.spanning
        report = optimality_probe(p, n_directions=4)
        assert report.verdict == ("optimal" if row.optimal else "not_optimal"), (p, report.max_subtractable)
        assert (report.direction_count == 0) == row.optimal
        if not row.optimal:
            pairing = _pairing_at_double(p, report)
            assert pairing < -CERTIFIED_SIGN, (p, pairing)
            assert abs(pairing - report.verification["pairing_at_double"]) <= 1e-12 * max(1.0, abs(pairing))


def test_optimal_vertex_with_a_nonempty_space_is_an_internal_error(monkeypatch):
    # only the empty second-order orthocomplement certifies the optimal
    # vertices: a space of dimension 2 is refused, whatever the probe finds in it
    p = MapParams(1, PTH - 1, 0, np.pi / 6)
    assert classify_optimality(p).evidence["optimal"] == "empty second-order orthocomplement"
    monkeypatch.setattr(optimality, "_second_order", lambda p: (np.eye(9, dtype=complex)[:2], None))
    with pytest.raises(InternalConsistencyError, match=r"nonempty second-order orthocomplement \(dimension 2\)"):
        classify_optimality(p)


@pytest.mark.parametrize("ndir", [4, 64])
def test_e_a_half_check_agrees_with_the_moduli_grid(ndir):
    # An E_A probe's W - (r/2) vv* is covariant, the one covariant matrix the
    # program gives the oracle: its status on the one grid of moduli and
    # phases is the status on the moduli grid of the same resolution.
    rng = np.random.default_rng(26)
    for _ in range(6):
        theta = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, np.pi - 0.05)
        p = _face_point("e_a", theta, rng.uniform(0.05, 0.95), 0.5)
        assert classify_face(p).kind is FaceKind.E_A
        report = optimality_probe(p, n_directions=ndir)
        r, v = report.max_subtractable, report.witness_direction
        half = choi_matrix(_kernel_point(p).params) - 0.5 * r * np.outer(v, v.conj())
        assert not np.any(half[~_COVARIANT])
        at_half = BlockPositivityReport(report.verification["oracle_at_half"], v, v).status
        assert at_half == moduli_oracle(half, 8).status, (p, report.verification)


_PROPER = _NON_SPANNING + ("e_t", "v_0t", "v_param_t")
_ANGLE = st.one_of(
    st.floats(0.05, np.pi / 3 - 0.05),
    st.floats(np.pi / 3 + 0.05, 2 * np.pi / 3 - 0.05),
    st.floats(2 * np.pi / 3 + 0.05, np.pi - 0.05),
)


@settings(max_examples=80)
@given(
    kind=st.sampled_from(_PROPER),
    theta=_ANGLE,
    sign=st.sampled_from((1.0, -1.0)),
    u=st.floats(0.1, 0.9),
    v=st.floats(0.1, 0.9),
)
def test_second_order_space_is_empty_exactly_on_optimal_faces(kind, theta, sign, u, v):
    p = _face_point(kind, sign * theta, u, v)
    if kind == "e_t":
        assume(p.a + p.b + p.c > cp_threshold(p.theta) + 0.02)
    face = classify_face(p)
    assert face.kind.value == kind
    assert (len(_second_order(p)[0]) == 0) == PROPERTY_TABLE[face.kind].optimal


@settings(max_examples=80)
@given(
    kind=st.sampled_from(("e_t", "e_b", "e_c", "v_0t", "f_ab", "e_a", "f_bc")),
    theta=_ANGLE,
    sign=st.sampled_from((1.0, -1.0)),
    u=st.floats(0.1, 0.9),
    v=st.floats(0.1, 0.9),
)
def test_kernel_factors_are_the_written_out_families_bit_for_bit(kind, theta, sign, u, v):
    # cases i and iii, and faces whose sample is coordinate vectors only
    p = _face_point(kind, sign * theta, u, v)
    if kind == "e_t":
        assume(p.a + p.b + p.c > cp_threshold(p.theta) + 0.02)
    k = _kernel_point(p)
    assert k.face.kind.value == kind
    xi, eta = lemmas.case_factors(p)
    assert xi.shape == k.xi.shape and xi.tobytes() == k.xi.tobytes() and eta.tobytes() == k.eta.tobytes()


@pytest.mark.parametrize("theta0, side", ((math.pi / 3, -1.0), (math.pi / 3, 1.0), (-math.pi / 3, 1.0), (math.pi, -1.0)))
@pytest.mark.parametrize("u", (0.1, 0.3))
def test_sum_face_near_the_unit_threshold_keeps_its_face(theta0, side, u):
    # cp_threshold - 1 is small here, so b*c and (1 - a)^2 are both below
    # FACE_TOL on the sum face; in the roots of the surface band the point is
    # off the surface, so it reads f_abc and its case iv sample is in the kernel
    for eps in (1e-8, 1e-6, 3e-5):
        p = _face_point("f_abc", theta0 + side * eps, u, 0.6)
        cls = classify_optimality(p)
        assert cls.face.kind is FaceKind.F_ABC and cls.row == PROPERTY_TABLE[FaceKind.F_ABC], eps


@pytest.mark.parametrize(
    "theta0, sides", ((math.pi / 3, (-1.0, 1.0)), (-math.pi / 3, (-1.0, 1.0)), (math.pi, (-1.0,)))
)
def test_second_order_space_is_refused_below_the_threshold_gap(theta0, sides):
    # Near +-pi/3 and pi, cp_threshold - 1 is about 1.7 eps: the rows that
    # empty the vertices' space shrink with it and the rounding of the other
    # faces' rows grows, so below _THRESHOLD_GAP the space is refused (exit
    # 2), and above it every face keeps the dimension it has far from the gap.
    for side in sides:
        for eps in (1e-9, 1e-8, 3e-8, 5e-7):
            theta = theta0 + side * eps
            assert cp_threshold(theta) - 1.0 < optimality._THRESHOLD_GAP
            for kind in _NON_SPANNING:
                with pytest.raises(UnsupportedThetaError, match="not resolved"):
                    _second_order(_face_point(kind, theta, 0.3, 0.6))
            for kind in ("v_1b0", "v_10c"):
                p = _face_point(kind, theta, 0.3, 0.6)
                assert classify_face(p).kind.value == kind
                with pytest.raises(UnsupportedThetaError):
                    classify_optimality(p)
        for eps in (7e-7, 3e-6):
            theta = theta0 + side * eps
            assert cp_threshold(theta) - 1.0 > optimality._THRESHOLD_GAP
            for kind in _NON_SPANNING:
                far = len(_second_order(_face_point(kind, theta0 + side * 1e-3, 0.3, 0.6))[0])
                assert len(_second_order(_face_point(kind, theta, 0.3, 0.6))[0]) == far, (kind, eps)
            for kind in ("v_1b0", "v_10c"):
                p = _face_point(kind, theta, 0.3, 0.6)
                assert classify_optimality(p).evidence["optimal"] == "empty second-order orthocomplement"
