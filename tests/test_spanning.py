import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from choimaps import (
    FaceKind,
    MapParams,
    NotPositiveMapError,
    boundary_parametrization,
    classify_face,
    cp_threshold,
    has_cospanning_property,
    has_spanning_property,
)
from choimaps.faces import FACE_KINDS, classify_faces, row_of
from choimaps.spanning import (
    DEFAULT_TRIPLES,
    GENERIC_PAIRS,
    GENERIC_TRIPLES,
    _equal_modulus_vector,
    _kernel_point,
)
from lemmas import cospanning_columns, cospanning_det_closed_form, cospans_closed_form, in_kernel, kernel_vectors
from lemmas import pairing, product_tensors
from lemmas import spanning_columns, spanning_det_closed_form, spans_closed_form


def surface_point(rng, theta):
    """Random parameters on b*c = (1-a)^2 with sum above the threshold."""
    pth = cp_threshold(theta)
    while True:
        a = rng.uniform(0.05, 0.95)
        b = rng.uniform(0.1, 2.5)
        c = (1 - a) ** 2 / b
        if a + b + c > pth + 1e-3:
            return MapParams(a, b, c, theta)


def generic_theta(rng):
    while True:
        th = rng.uniform(-np.pi, np.pi)
        if 1 + 1e-3 < cp_threshold(th) < 2 - 1e-3:
            return th


class TestKernelMembership:
    def test_surface_family_member(self):
        p = MapParams(0.5, 1, 0.25, np.pi / 6)
        assert in_kernel(p, *kernel_vectors(p)[0])

    def test_basis_tensor_not_in_kernel(self):
        e1 = np.array([1.0, 0, 0], dtype=complex)
        assert not in_kernel(MapParams(1, 1, 0, 0), e1, e1)

    def test_equal_modulus_member_on_sum_face(self):
        th = np.pi / 6
        pth = cp_threshold(th)
        p = MapParams(1, (pth - 1) / 2, (pth - 1) / 2, th)
        assert in_kernel(p, np.ones(3, complex), np.ones(3, complex))

    def test_requires_positive_map(self):
        # kernel vectors are defined only for positive maps: the record refuses the rest
        with pytest.raises(NotPositiveMapError):
            _kernel_point(MapParams(0.1, 0.1, 0.1, np.pi / 6))


class TestKernelFamily:
    def test_surface_case_nine_members(self):
        # three members per phase pair: nine at the three default pairs
        p = MapParams(0.5, 1, 0.25, np.pi / 6)
        vectors = kernel_vectors(p)
        assert len(vectors) == 3 * len(GENERIC_PAIRS)
        for xi, eta in vectors:
            assert in_kernel(p, xi, eta)

    def test_copositive_case_members(self):
        # three vectors per phase pair plus the three diagonal axis vectors
        p = MapParams(0, 2, 0.5, np.pi / 6)
        vectors = kernel_vectors(p)
        assert len(vectors) == 3 * len(GENERIC_PAIRS) + 3
        for xi, eta in vectors:
            assert in_kernel(p, xi, eta)

    def test_sum_face_interior_only_equal_modulus(self):
        th = np.pi / 6
        pth = cp_threshold(th)
        p = MapParams(1.2, (pth - 1.2) / 2, (pth - 1.2) / 2, th)
        xi = _kernel_point(p).xi
        assert len(xi) == len(GENERIC_TRIPLES)
        assert np.allclose(np.abs(xi), np.abs(xi[:, :1]))

    def test_generic_interior_unsupported(self):
        # a strictly interior map is in no kernel case and has no kernel vector
        p = MapParams(2, 2, 2, np.pi / 6)
        assert has_spanning_property(p).case is None
        assert _kernel_point(p).xi.shape == _kernel_point(p).eta.shape == (0, 3)

    def test_zero_pairing_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            th = generic_theta(rng)
            p = surface_point(rng, th)
            k = _kernel_point(p)
            for z in product_tensors(k.xi, k.eta):
                value = pairing(np.outer(z, z.conj()), p)
                scale = float(np.vdot(z, z).real)
                assert abs(value) <= 1e-9 * max(1.0, scale)

    def test_equal_modulus_branches(self):
        rng = np.random.default_rng(1)
        for th in (-2.8, -1.5, 0.4, 1.5, 2.8):
            if not 1 + 1e-6 < cp_threshold(th) < 2 - 1e-6:
                continue
            a, b, c = boundary_parametrization(th, 1.3)
            p = MapParams(a, b, c, th)
            for al, be, ga in DEFAULT_TRIPLES:
                assert in_kernel(p, *_equal_modulus_vector(th, al, be, ga))


class TestSpanningProperty:
    def test_surface_case_instance(self):
        p = MapParams(0.5, 1, 0.25, np.pi / 6)
        report = has_spanning_property(p)
        assert report
        assert report.case == "i"
        assert report.rank == 9
        assert abs(np.linalg.det(spanning_columns(p))) == pytest.approx(4.0, abs=1e-8)
        assert spanning_det_closed_form(p) == pytest.approx(4.0, abs=1e-8)

    def test_vertex_is_not_spanning(self):
        th = np.pi / 6
        report = has_spanning_property(MapParams(1, cp_threshold(th) - 1, 0, th))
        assert not report
        assert report.rank is not None and report.rank < 9

    def test_copositive_case_instance(self):
        p = MapParams(0, 2, 0.5, np.pi / 6)
        report = has_spanning_property(p)
        assert report
        expected = 512 * np.sqrt(65.0)
        assert abs(np.linalg.det(spanning_columns(p))) == pytest.approx(expected, rel=1e-8)
        assert spanning_det_closed_form(p) == pytest.approx(expected, rel=1e-8)
        assert report.rank == 9

    def test_det_oracle_on_random_surface_points(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            th = generic_theta(rng)
            p = surface_point(rng, th)
            assert has_spanning_property(p)
            det = abs(np.linalg.det(spanning_columns(p)))
            assert det == pytest.approx(spanning_det_closed_form(p), rel=1e-8)

    def test_verdict_matches_rank_on_family_points(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            th = generic_theta(rng)
            p = surface_point(rng, th)
            report = has_spanning_property(p)
            assert report.has_property == (report.rank == 9)


class TestCospanningProperty:
    def test_sum_surface_point(self):
        a, b, c = boundary_parametrization(np.pi / 6, 1.0)
        p = MapParams(a, b, c, np.pi / 6)
        report = has_cospanning_property(p)
        assert report
        assert report.rank == 9
        det = abs(np.linalg.det(cospanning_columns(p)))
        assert det == pytest.approx(cospanning_det_closed_form(p), rel=1e-8)

    def test_sum_face_interior_is_not_cospanning(self):
        th = np.pi / 6
        pth = cp_threshold(th)
        report = has_cospanning_property(MapParams(1, (pth - 1) / 2, (pth - 1) / 2, th))
        assert not report
        assert report.rank is not None and report.rank < 9

    def test_coordinate_edge_is_cospanning(self):
        th = np.pi / 6
        report = has_cospanning_property(MapParams(1.2, 0, np.sqrt(3.0) - 1.2, th))
        assert report
        assert report.rank == 9

    def test_named_vertices_cospanning_with_full_rank(self):
        th = -np.pi / 4
        pth = cp_threshold(th)
        for abc in ((1, pth - 1, 0), (1, 0, pth - 1)):
            report = has_cospanning_property(MapParams(*abc, th))
            assert report
            assert report.rank == 9

    def test_branchwise_det_oracle(self):
        rng = np.random.default_rng(4)
        count = 0
        while count < 50:
            th = generic_theta(rng)
            t = rng.uniform(0.2, 4.0)
            a, b, c = boundary_parametrization(th, t)
            if a > 1 - 1e-3 or a < 2 - cp_threshold(th) + 1e-3:
                pass  # keep interior margin but all curve points qualify
            p = MapParams(a, b, c, th)
            assert has_cospanning_property(p)
            det = abs(np.linalg.det(cospanning_columns(p)))
            assert det == pytest.approx(cospanning_det_closed_form(p), rel=1e-8)
            assert det > 1e-10  # nonvanishing below threshold 2
            count += 1

    def test_columns_exist_only_on_sum_surface_case(self):
        assert cospanning_columns(MapParams(0.5, 1, 0.25, np.pi / 6)) is None
        assert cospanning_det_closed_form(MapParams(0, 2, 0.5, np.pi / 6)) is None


class TestCaseDetection:
    def test_cases(self):
        th = np.pi / 6
        pth = cp_threshold(th)
        assert _kernel_point(MapParams(0.5, 1, 0.25, th)).case == "i"
        a, b, c = boundary_parametrization(th, 2.0)
        assert _kernel_point(MapParams(a, b, c, th)).case == "ii"
        assert _kernel_point(MapParams(0, 2, 0.5, th)).case == "iii"
        assert _kernel_point(MapParams(1.2, (pth - 1.2), 0, th)).case == "iv"
        assert _kernel_point(MapParams(2, 2, 2, th)).case is None

    def test_spanning_closed_forms_defined_per_case(self):
        th = np.pi / 6
        assert spanning_det_closed_form(MapParams(0.5, 1, 0.25, th)) is not None
        assert spanning_det_closed_form(MapParams(2, 2, 2, th)) is None


class TestSampledKernel:
    def test_axis_fallback_off_the_cases(self):
        p = MapParams(1.5, 0.5, 0, np.pi / 6)
        vectors = kernel_vectors(p)
        assert len(vectors) == 3
        for xi, eta in vectors:
            assert in_kernel(p, xi, eta)

    def test_empty_for_strict_interior(self):
        assert kernel_vectors(MapParams(2, 2, 2, np.pi / 6)) == []


# ---------------------------------------------------------------------------
# Property test: on every boundary piece, and 0.05 inside it along each axis,
# the face table, the paper's spanning closed forms and the sampled-kernel
# rank tell the same story, with the rank cut in a wide gap.
# ---------------------------------------------------------------------------

#: Fractional distance kept from the ends of each piece, and additive distance
#: from the sum face, so no draw lands in a neighbouring piece's tolerance band.
MARGIN = 0.02

_thetas = st.floats(-np.pi, np.pi).filter(lambda th: 1 + 1e-3 <= cp_threshold(th) <= 2 - 1e-3)
#: Angles at which every piece is also drawn: both signs, all three theta branches.
FIXED_THETAS = (math.pi / 6, -0.7, 2.0, -2.6)
_fractions = st.floats(MARGIN, 1 - MARGIN)
_ratios = st.floats(0.2, 5.0)

# Each sampler takes (draw, theta) and returns (a, b, c), or None to reject.


def _e_t(draw, th):
    a, t = draw(_fractions), draw(_ratios)
    b, c = (1 - a) * t, (1 - a) / t
    return (a, b, c) if a + b + c > cp_threshold(th) + MARGIN else None


def _curve(draw, th):
    return boundary_parametrization(th, draw(_ratios))


def _sum_face(draw, th):
    pth = cp_threshold(th)
    a = 2 - pth + 2 * (pth - 1) * draw(_fractions)
    r, v = pth - a, draw(_fractions)
    if a >= 1:
        b = r * v
    else:  # between the roots of b (r - b) = (1 - a)^2, so (p2) holds strictly
        half = math.sqrt(r * r / 4 - (1 - a) ** 2)
        b = r / 2 - half + 2 * half * v
    return a, b, r - b


def _e_ab(draw, th):
    pth = cp_threshold(th)
    a = 1 + (pth - 1) * draw(_fractions)
    return a, pth - a, 0.0


def _e_b(draw, th):
    return 1.0, cp_threshold(th) - 1 + MARGIN + 2 * draw(_fractions), 0.0


def _f_ab(draw, th):
    a = 1 + MARGIN + 2 * draw(_fractions)
    return a, max(MARGIN, cp_threshold(th) - a + MARGIN) + 2 * draw(_fractions), 0.0


def _f_bc(draw, th):
    t = draw(_ratios)
    return 0.0, t, (1 + MARGIN + 2 * draw(_fractions)) / t


def _e_a(draw, th):
    return cp_threshold(th) + MARGIN + 2 * draw(_fractions), 0.0, 0.0


def _v_0t(draw, th):
    t = draw(_ratios)
    return 0.0, t, 1 / t


def _mirror(draw, th):
    x, t = 2 * draw(_fractions), draw(_ratios)
    a, b, c = 1 + x, x * t, x / t
    return (a, b, c) if a + b + c > cp_threshold(th) + MARGIN else None


def _swap_bc(sampler):
    def swapped(draw, th):
        abc = sampler(draw, th)
        return None if abc is None else (abc[0], abc[2], abc[1])

    return swapped


#: piece -> (sampler, expected face kind)
BOUNDARY_PIECES = {
    "e_t": (_e_t, FaceKind.E_T),
    "curve": (_curve, FaceKind.V_PARAM_T),
    "sum_face": (_sum_face, FaceKind.F_ABC),
    "f_ab": (_f_ab, FaceKind.F_AB),
    "f_ac": (_swap_bc(_f_ab), FaceKind.F_AC),
    "f_bc": (_f_bc, FaceKind.F_BC),
    "e_a": (_e_a, FaceKind.E_A),
    "e_ab": (_e_ab, FaceKind.E_AB),
    "e_ac": (_swap_bc(_e_ab), FaceKind.E_AC),
    "e_b": (_e_b, FaceKind.E_B),
    "e_c": (_swap_bc(_e_b), FaceKind.E_C),
    "v_p00": (lambda draw, th: (cp_threshold(th), 0.0, 0.0), FaceKind.V_P00),
    "v_1b0": (lambda draw, th: (1.0, cp_threshold(th) - 1, 0.0), FaceKind.V_1B0),
    "v_10c": (lambda draw, th: (1.0, 0.0, cp_threshold(th) - 1), FaceKind.V_10C),
    "v_0t": (_v_0t, FaceKind.V_0T),
    # b*c = (a - 1)^2 with a > 1 is not on the boundary: it lies inside the body
    "surface_mirror": (_mirror, FaceKind.INTERIOR),
    "surface_mirror_bc": (_swap_bc(_mirror), FaceKind.INTERIOR),
}


@pytest.mark.parametrize("piece", BOUNDARY_PIECES)
@settings(max_examples=25)
@given(data=st.data())
def test_face_table_spanning_closed_forms_and_kernel_rank_agree(piece, data):
    sampler, kind = BOUNDARY_PIECES[piece]
    th = data.draw(_thetas, label="theta")
    abc = sampler(data.draw, th)
    assume(abc is not None)
    p = MapParams(*abc, th)

    face = classify_face(p)
    assert face.kind is kind
    # the grid path: the point inside a batch of random points at its angle
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    batch = rng.uniform(0.0, 2.5, size=(32, 3))
    slot = data.draw(st.integers(0, len(batch) - 1), label="slot")
    batch[slot] = abc
    codes = classify_faces(*batch.T, th)
    for k, row in enumerate(batch):
        label = face if k == slot else classify_face(MapParams(*row, th))
        assert FACE_KINDS[codes[k]] is label.kind
    inside = MapParams(*(x + 0.05 for x in abc), th)
    assert classify_face(inside).kind is FaceKind.INTERIOR
    points = [p, inside]
    for fixed in FIXED_THETAS:  # the piece once more at each fixed angle
        abc = sampler(data.draw, fixed)
        if abc is not None:
            points.append(MapParams(*abc, fixed))
            assert classify_face(points[-1]).kind is kind
    for q in points:
        row = row_of(classify_face(q))
        span, cospan = has_spanning_property(q), has_cospanning_property(q)
        assert span.has_property is row.spanning is spans_closed_form(q), q
        assert cospan.has_property is row.co_spanning is cospans_closed_form(q), q
        assert (span.rank == 9) is row.spanning
        assert (cospan.rank == 9) is row.co_spanning
        for report in (span, cospan):  # kept singular values far above the cut, dropped ones far below
            if report.rank is not None:
                assert report.smallest_kept >= 1e-3, (q, report)
                assert (report.largest_dropped is None) is (report.rank == 9)
                assert report.rank == 9 or report.largest_dropped <= 1e-12, (q, report)


@pytest.mark.parametrize("piece", BOUNDARY_PIECES)
@settings(max_examples=10)
@given(data=st.data())
def test_every_record_row_passes_the_public_membership_check(piece, data):
    # each row pair of the point's record passes the one-vector kernel check
    # read off the Choi matrix at the point's own coordinates
    sampler, _ = BOUNDARY_PIECES[piece]
    th = data.draw(_thetas, label="theta")
    abc = sampler(data.draw, th)
    assume(abc is not None)
    p = MapParams(*abc, th)
    vectors = kernel_vectors(p)
    assert len(vectors) == len(_kernel_point(p).tensors)
    assert all(in_kernel(p, xi, eta) for xi, eta in vectors)
