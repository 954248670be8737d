import numpy as np
import pytest

from choimaps import (
    FaceKind,
    FaceLabel,
    MapParams,
    NotAFaceError,
    OutOfRangeError,
    UnsupportedThetaError,
    boundary_parametrization,
    classify_face,
    cp_threshold,
    face_properties,
    is_positive,
)
from choimaps.faces import FACE_KINDS, PROPERTY_TABLE, classify_faces


def classify(a, b, c, th):
    return classify_face(MapParams(a, b, c, th))


class TestBoundaryParametrization:
    def test_unit_parameter_point(self):
        a, b, c = boundary_parametrization(np.pi / 6, 1.0)
        s3 = np.sqrt(3.0)
        assert a == pytest.approx(2 - s3, abs=1e-12)
        assert b == pytest.approx(s3 - 1, abs=1e-12)
        assert c == pytest.approx(s3 - 1, abs=1e-12)

    def test_parameter_two_point(self):
        a, b, c = boundary_parametrization(np.pi / 6, 2.0)
        assert a == pytest.approx(0.51197, abs=1e-5)
        assert b == pytest.approx(0.97607, abs=1e-5)
        assert c == pytest.approx(0.24402, abs=1e-5)

    def test_large_parameter_limit(self):
        a, _, _ = boundary_parametrization(np.pi / 6, 1000.0)
        assert abs(a - 1.0) <= 1e-3

    def test_identities(self):
        for th in (np.pi / 6, -np.pi / 4, 1.5, -2.8):
            pth = cp_threshold(th)
            if not 1 < pth < 2:
                continue
            for t in np.linspace(0.05, 12.0, 40):
                a, b, c = boundary_parametrization(th, t)
                assert abs(a + b + c - pth) <= 1e-12
                assert -1e-12 <= a <= 1 + 1e-12
                assert abs(b * c - (1 - a) ** 2) <= 1e-12

    def test_unsupported_theta(self):
        with pytest.raises(UnsupportedThetaError):
            boundary_parametrization(0.0, 1.0)
        with pytest.raises(UnsupportedThetaError):
            boundary_parametrization(np.pi / 3, 1.0)

    def test_bad_parameter(self):
        with pytest.raises(ValueError):
            boundary_parametrization(np.pi / 6, 0.0)


class TestClassifyFace:
    def test_vertices(self):
        th = np.pi / 6
        pth = cp_threshold(th)
        assert classify(pth, 0, 0, th).kind is FaceKind.V_P00
        assert classify(1, 0, pth - 1, th).kind is FaceKind.V_10C
        assert classify(1, pth - 1, 0, th).kind is FaceKind.V_1B0
        label = classify(0, 2, 0.5, th)
        assert label.kind is FaceKind.V_0T
        assert label.t_value == pytest.approx(2.0)

    def test_parametrized_vertex_recovers_t(self):
        for th in (np.pi / 6, -np.pi / 4):
            for t in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
                a, b, c = boundary_parametrization(th, t)
                label = classify(a, b, c, th)
                assert label.kind is FaceKind.V_PARAM_T
                assert label.t_value == pytest.approx(t, abs=1e-8)

    def test_product_surface_edge(self):
        label = classify(0.5, 1, 0.25, np.pi / 6)
        assert label.kind is FaceKind.E_T
        assert label.t_value == pytest.approx(2.0)

    def test_edges(self):
        th = np.pi / 6
        pth = cp_threshold(th)
        assert classify(2.2, 0, 0, th).kind is FaceKind.E_A
        assert classify(1, pth - 1 + 0.4, 0, th).kind is FaceKind.E_B
        assert classify(1, 0, pth - 1 + 0.4, th).kind is FaceKind.E_C
        mid = (1 + pth) / 2
        assert classify(mid, pth - mid, 0, th).kind is FaceKind.E_AB
        assert classify(mid, 0, pth - mid, th).kind is FaceKind.E_AC

    def test_two_faces(self):
        th = np.pi / 6
        pth = cp_threshold(th)
        assert classify(1.5, 0.5, 0, th).kind is FaceKind.F_AB
        assert classify(1.5, 0, 0.5, th).kind is FaceKind.F_AC
        assert classify(0, 2, 1, th).kind is FaceKind.F_BC
        assert classify(1, (pth - 1) / 2, (pth - 1) / 2, th).kind is FaceKind.F_ABC
        assert classify(1.2, (pth - 1.2) / 2, (pth - 1.2) / 2, th).kind is FaceKind.F_ABC

    def test_interior_and_exterior(self):
        th = np.pi / 6
        assert classify(2, 2, 2, th).kind is FaceKind.INTERIOR
        assert classify(0.1, 0.1, 0.1, th).kind is FaceKind.EXTERIOR

    def test_exterior_iff_not_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            p = MapParams(*rng.uniform(0, 2.5, 3), rng.uniform(-np.pi, np.pi))
            if not 1 + 1e-9 < cp_threshold(p.theta) < 2 - 1e-9:
                continue
            label = classify_face(p)
            assert (label.kind is FaceKind.EXTERIOR) == (not is_positive(p))

    def test_unsupported_theta(self):
        with pytest.raises(UnsupportedThetaError):
            classify(1, 1, 1, 0.0)


class TestClassifyFaces:
    def test_grid_agrees_with_points(self):
        th = np.pi / 6 + 2 * np.pi  # normalized like MapParams
        axis = np.linspace(0.0, 2.5, 41)
        a, b, c = (g.ravel() for g in np.meshgrid(axis, axis, axis, indexing="ij"))
        codes = classify_faces(a, b, c, th)
        for k in range(0, len(a), 7):
            assert FACE_KINDS[codes[k]] is classify(a[k], b[k], c[k], th).kind

    def test_broadcasts_scalars(self):
        codes = classify_faces(0.5, np.array([1.0, 2.0]), 0.25, np.pi / 6)
        assert [FACE_KINDS[k] for k in codes] == [FaceKind.E_T, FaceKind.INTERIOR]

    @pytest.mark.parametrize("bad", [-1.0, np.inf, np.nan])
    def test_rejects_bad_coordinates(self, bad):
        with pytest.raises(OutOfRangeError):
            classify_faces(np.array([1.0, bad]), 0.0, 0.0, np.pi / 6)

    def test_unsupported_theta(self):
        with pytest.raises(UnsupportedThetaError):
            classify_faces(np.ones(3), 1.0, 1.0, 0.0)


class TestPropertyTable:
    def test_fully_parametrized_vertex_row(self):
        row = face_properties(FaceKind.V_PARAM_T)
        assert row.spanning and row.co_spanning and row.bi_spanning
        assert row.optimal and row.co_optimal and row.bi_optimal

    def test_named_vertex_row(self):
        row = face_properties(FaceKind.V_10C)
        assert not row.spanning and row.co_spanning
        assert row.optimal and row.co_optimal and row.bi_optimal
        assert not row.bi_spanning

    def test_sum_face_row(self):
        row = face_properties(FaceKind.F_ABC)
        assert not any([row.spanning, row.co_spanning, row.optimal, row.co_optimal])

    def test_not_a_face(self):
        with pytest.raises(NotAFaceError):
            face_properties(FaceKind.INTERIOR)
        with pytest.raises(NotAFaceError):
            face_properties(FaceLabel(FaceKind.EXTERIOR, interior_of_face=False))

    def test_implications_hold_on_every_row(self):
        for kind, row in PROPERTY_TABLE.items():
            assert not row.spanning or row.optimal, kind
            assert not row.co_spanning or row.co_optimal, kind
            assert row.bi_spanning == (row.spanning and row.co_spanning)
            assert row.bi_optimal == (row.optimal and row.co_optimal)

    def test_rows_constant_on_faces(self):
        # several interior points of the same face give the same row
        th = -np.pi / 4
        pth = cp_threshold(th)
        groups = {
            FaceKind.E_T: [(0.5, 1, 0.25), (0.3, 0.7, 0.7**-1 * 0.49)],
            FaceKind.F_AB: [(1.5, 0.5, 0), (1.2, 1.0, 0)],
            FaceKind.F_ABC: [(1, (pth - 1) / 2, (pth - 1) / 2), (1.1, (pth - 1.1) / 3, 2 * (pth - 1.1) / 3)],
        }
        for kind, pts in groups.items():
            rows = set()
            for a, b, c in pts:
                label = classify(a, b, c, th)
                assert label.kind is kind, (kind, (a, b, c), label)
                rows.add(face_properties(label))
            assert len(rows) == 1


def test_face_label_t_value_consistency():
    with pytest.raises(ValueError):
        FaceLabel(FaceKind.F_AB, t_value=1.0)
    with pytest.raises(ValueError):
        FaceLabel(FaceKind.E_T)
