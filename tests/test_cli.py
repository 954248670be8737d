import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import choimaps
from choimaps import FaceKind, MapParams, boundary_parametrization, build_witness, classify_face, cp_threshold
from choimaps import choi_matrix, is_positive, partial_transpose
from choimaps.cli import _BLOCK, _EXIT_CODES, main, parse_angle
from choimaps.faces import classify_faces, row_of
from choimaps.linalg import INCLUSION_SLACK
from choimaps.positivity import BlockPositivityCertificate
from choimaps.reporting import ReportDocument, real_text, render_plain, round_real
from choimaps.spanning import _in_kernel, _kernel_point

from lemmas import report_json, square_simplex_blocks


def _reparsed(text: str) -> ReportDocument:
    """The document of a report's JSON text, rebuilt from its parsed sections."""
    parsed = json.loads(text)
    return ReportDocument(parsed["params"], parsed["flags"], parsed["evidence"])


class TestParseAngle:
    def test_rational_multiples(self):
        assert parse_angle("pi/6") == pytest.approx(math.pi / 6)
        assert parse_angle("-2pi/3") == pytest.approx(-2 * math.pi / 3)
        assert parse_angle("2pi") == pytest.approx(2 * math.pi)
        assert parse_angle("pi") == pytest.approx(math.pi)
        assert parse_angle("-pi") == pytest.approx(-math.pi)

    def test_decimal(self):
        assert parse_angle("0.5236") == pytest.approx(0.5236)
        assert parse_angle("-1.2") == pytest.approx(-1.2)

    def test_rejects_garbage(self):
        for bad in ("pie", "pi/x", "2pi/0", "", "inf", "-inf", "nan", "1e999", "9" * 400 + "pi"):
            with pytest.raises(ValueError):
                parse_angle(bad)


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "inf", "5"],
        ["sweep", "nan", "5"],
        ["figure-data", "2", "--theta", "inf"],
    ],
)
def test_non_finite_angle_is_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "invalid parse_angle value" in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, theta",
    [
        (["classify", "1", "0.5", "0.5", "-pi/6", "--json"], -math.pi / 6),
        (["spanning", "1", "0.5", "0.5", "-pi/6", "--json"], -math.pi / 6),
        (["classify", "1", "0.5", "0.5", "-3pi/4", "--json"], -3 * math.pi / 4),
        (["witness", "-pi/6", "2", "--json"], -math.pi / 6),
        (["witness", "-.5", "2", "--json"], -0.5),
        (["witness", "-5e-1", "2", "--json"], -0.5),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else "value",
)
def test_negative_angle_literal_is_a_value(argv, theta, capsys):
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["params"]["theta"] == pytest.approx(theta, rel=1e-14)


@pytest.mark.parametrize(
    "argv", [["sweep", "-pi/6", "3"], ["figure-data", "2", "--theta", "-pi/6", "--points", "3"]], ids=" ".join
)
def test_negative_angle_literal_reaches_the_csv(argv, tmp_path):
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert {row.split(",")[3] for row in out.read_text().splitlines()[1:]} == {"-0.523598775598299"}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["witness", "pi/6", "-2e-3"], "requires b > 0"),
        (["witness", "pi/6", "2", "--alpha-tilde", "-.5"], "alpha~ must lie in"),
        (["classify", "1", "-2e-3", "0.5", "pi/6"], "nonnegative"),
        (["sweep", "pi/6", "5", "--plane", "ab", "--box", "-1", "--out", "x.csv"], "box must be"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else "error",
)
def test_negative_literal_gets_its_own_error(argv, message, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{argv[0]}: ") and message in err
    assert "error:" not in err  # the command's own message, not argparse's


def test_options_still_parse_beside_negative_literals(capsys):
    assert main(["classify", "-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: choimaps classify")
    assert main(["classify", "1", "1", "1", "pi/6", "-x"]) == 1
    assert capsys.readouterr().err == "choimaps: error: unrecognized arguments: -x\n"
    assert main(["classify", "-x", "1", "1", "pi/6"]) == 1
    assert capsys.readouterr().err.startswith("choimaps classify: error: ")


class TestClassify:
    def test_vertex_row(self, capsys):
        code = main(["classify", "1", "0.7320508075688772", "0", "pi/6", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["flags"]["face"] == "v_1b0"
        assert out["flags"]["optimal"] is True
        assert out["flags"]["spanning"] is False

    def test_surface_point(self, capsys):
        code = main(["classify", "0.5", "1", "0.25", "pi/6", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["flags"]["positive"] is True
        assert out["flags"]["spanning"] is True
        assert out["flags"]["face"] == "e_t"

    def test_exterior_point(self, capsys):
        code = main(["classify", "0.1", "0.1", "0.1", "pi/6", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["flags"]["positive"] is False
        assert out["flags"]["face"] == "exterior"

    @pytest.mark.parametrize(
        "args",
        [
            # b*c = (a - 1)^2 with a > 1: the mirror of the spanning surface
            ["2", "1", "1", "pi/6"],
            # a = 1 with b*c inside the face band, above the sum face
            ["1", "2e-4", "4e-6", repr(math.pi / 3 - 1e-4)],
        ],
    )
    def test_off_boundary_surface_points_are_interior(self, args, capsys):
        code = main(["classify", *args])
        captured = capsys.readouterr()
        assert code == 0
        assert "face: interior" in captured.out.splitlines()
        assert captured.err == ""

    def test_unsupported_theta_exit_code(self, capsys):
        assert main(["classify", "1", "1", "1", "0"]) == 2
        assert "cp_threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("theta", [math.pi / 3, -math.pi / 3, math.pi])
    def test_vertex_within_the_threshold_gap_is_unsupported(self, theta, capsys):
        # the second-order orthocomplement is not resolved while
        # cp_threshold - 1 < 1e-6; it exited 5 at some of these angles
        for eps in (-3e-8, -1e-8, -1e-9, 1e-9, 1e-8, 3e-8, 3e-6):
            angle = theta + eps
            if angle > math.pi:
                continue
            gap = cp_threshold(angle) - 1.0
            for abc in ((1.0, gap, 0.0), (1.0, 0.0, gap)):
                code = main(["classify", *map(repr, abc), repr(angle), "--json"])
                captured = capsys.readouterr()
                if abs(eps) < 1e-6:
                    assert code == 2 and "not resolved" in captured.err
                else:
                    evidence = json.loads(captured.out)["evidence"]["optimality"]
                    assert code == 0 and evidence["optimal"] == "empty second-order orthocomplement"

    def test_plain_output(self, capsys):
        assert main(["classify", "2", "2", "2", "pi/6"]) == 0
        out = capsys.readouterr().out
        assert "[flags]" in out and "positive: True" in out

    def test_json_round_trips(self, capsys):
        main(["classify", "0.5", "1", "0.25", "pi/6", "--json"])
        text = capsys.readouterr().out
        doc = _reparsed(text)
        assert doc.to_json() + "\n" == text
        assert render_plain(doc)

    def test_each_kernel_vector_checked_once(self, capsys, monkeypatch):
        # the point's record is built once and read by spanning, co-spanning
        # and optimality alike
        import choimaps.spanning as spanning

        p = MapParams(0.5, 1, 0.25, parse_angle("pi/6"))
        expected = len(spanning._kernel_point(p).xi)
        spanning._kernel_point.cache_clear()
        calls = []
        original = spanning._in_kernel

        def counted(w, xi, eta):
            calls.append(len(xi))
            return original(w, xi, eta)

        monkeypatch.setattr(spanning, "_in_kernel", counted)
        assert main(["classify", "0.5", "1", "0.25", "pi/6", "--json"]) == 0
        assert calls == [expected] and expected == 18  # one batched check

    def test_each_spanning_report_built_once(self, capsys, monkeypatch):
        # each report is built once, with the point's one record, and printed
        # once, under evidence; the sample's tensors are built once by
        # broadcasting, not by kron
        import choimaps.spanning as spanning

        spanning._kernel_point.cache_clear()
        reports, krons = [], []
        report, kron = spanning._report, np.kron
        monkeypatch.setattr(spanning, "_report", lambda *args: reports.append(args[0]) or report(*args))
        monkeypatch.setattr(np, "kron", lambda *args: krons.append(1) or kron(*args))
        assert main(["classify", "1", "0", "0.7320508075688772", "pi/6", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["flags"]["face"] == "v_10c" and doc["schema_version"] == "2"
        assert reports == [False, True] and krons == []
        assert spanning._kernel_point.cache_info().misses == 1
        assert set(doc["evidence"]["optimality"]) == {"face", "optimal", "co_optimal"}
        for key, rank in (("spanning", 7), ("co_spanning", 9)):
            assert list(doc["evidence"][key]) == ["has_property", "case", "rank", "smallest_kept", "largest_dropped"]
            assert doc["evidence"][key]["rank"] == rank


def _classify_flags(capsys, abc, theta) -> dict:
    """``classify --json`` at (a, b, c; theta): exit 0, and at a positive
    point the six property flags equal to the row of the face it reports."""
    code = main(["classify", *map(repr, abc), repr(theta), "--json"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    flags = json.loads(captured.out)["flags"]
    if flags["positive"]:
        row, names = row_of(FaceKind(flags["face"])), ["spanning", "co_spanning", "bi_spanning"]
        if flags["face"] != "interior":  # no optimality flags at an interior point
            names += ["optimal", "co_optimal", "bi_optimal"]
        for name in names:
            assert flags[name] is getattr(row, name), (abc, flags)
    return flags


class TestFaceBands:
    """Points whose b or c lies inside the FACE_TOL band: the face alone
    decides their spanning flags, so they classify without an internal
    error and with the face's row."""

    @pytest.mark.parametrize("theta", [math.pi / 6, -0.3, 2.0, -2.5])
    def test_boundary_curve_reads_v_param_t(self, theta, capsys):
        # at |log10 t| >= 5, b or c falls below FACE_TOL; it exited 5 there
        for k in range(-8, 9):
            t = 10.0**k
            flags = _classify_flags(capsys, boundary_parametrization(theta, t), theta)
            assert flags["face"] == "v_param_t" and flags["bi_spanning"] and flags["bi_optimal"]
            assert math.isfinite(flags["face_t"]) and flags["face_t"] == pytest.approx(t, rel=1e-9)

    @pytest.mark.parametrize("theta", [0.05, 0.3, -0.7, 1.0])
    def test_witness_parameters_read_v_param_t(self, theta, capsys):
        for b in (1e-7, 1e-5, 1e5, 1e7):
            p = build_witness(theta, b).normalized_params
            flags = _classify_flags(capsys, p.abc, p.theta)
            assert flags["face"] == "v_param_t" and flags["bi_spanning"]

    @pytest.mark.parametrize("kind", ["v_p00", "v_0t", "e_ab", "e_ac", "v_10c", "v_1b0", "e_b", "e_c"])
    def test_half_band_moves_classify(self, kind, capsys):
        # coordinates moved by half of FACE_TOL, one at a time and together,
        # at an angle of each sign and theta branch; (5e-10, 2, 0.5; pi/6)
        # exited 5 with its spanning flag against the V_0T row, and so did
        # V_P00, E_AB and E_AC with two moved coordinates; V_10C, V_1B0, E_B
        # and E_C exited 5 while their kernel families and the probe ran at the
        # raw coordinates instead of the face's
        for theta in (math.pi / 6, -0.7, 2.0, -2.6):
            pth = cp_threshold(theta)
            abc = {
                "v_p00": (pth, 0.0, 0.0),
                "v_0t": (0.0, 2.0, 0.5),
                "e_ab": (1.2, pth - 1.2, 0.0),
                "e_ac": (1.2, 0.0, pth - 1.2),
                "v_10c": (1.0, 0.0, pth - 1.0),
                "v_1b0": (1.0, pth - 1.0, 0.0),
                "e_b": (1.0, pth - 0.5, 0.0),
                "e_c": (1.0, 0.0, pth - 0.5),
            }[kind]
            moved = 0
            for steps in itertools.product((0.0, 5e-10, -5e-10), repeat=3):
                point = [x + step for x, step in zip(abc, steps)]
                if not any(steps) or min(point) < 0.0 or not is_positive(MapParams(*point, theta)):
                    continue
                _classify_flags(capsys, point, theta)
                assert main(["spanning", *map(repr, point), repr(theta)]) == 0
                assert capsys.readouterr().err == ""
                moved += 1
            assert moved >= 7

    @pytest.mark.parametrize("b, c", [(1.0, 1e-12), (2.0, 1e-12), (1.0, 9e-10), (2.0, 9e-10)])
    def test_surface_with_c_in_the_band_reads_e_t(self, b, c, capsys):
        # b*c = (1 - a)^2 with c below FACE_TOL: it read interior, with a
        # spanning flag that the interior row denies
        flags = _classify_flags(capsys, (1.0 - math.sqrt(b * c), b, c), math.pi / 6)
        assert flags["face"] == "e_t" and flags["spanning"] and flags["optimal"]

    @pytest.mark.parametrize(
        "a, b, c, face",
        [
            (0.99998, 2.0, 5e-10, "interior"),
            (0.99998, 2.0, 1e-12, "exterior"),
            (0.99999, 5e-10, None, "f_abc"),
            (0.99999, 1e-12, None, "exterior"),
            # 1.5e-11 below the curve in a: off the band in the roots b^(1/4),
            # c^(1/4) and (1 - a)^(1/2) that its kernel family is built from
            (0.99997, 5e-10, 1.8 * (1.0 + 1e-6), "interior"),
            (0.99997, 5e-10, 1.8 * (1.0 + 1e-7), "e_t"),
        ],
    )
    def test_off_curve_points_with_both_sides_in_the_band(self, a, b, c, face, capsys):
        # b*c and (1 - a)^2 are both below FACE_TOL without the point being on
        # the surface: it keeps the face it has off the band (c = None puts it
        # on the sum face), in both orders of b and c
        theta = math.pi / 6
        c = cp_threshold(theta) - a - b if c is None else c
        for abc in ((a, b, c), (a, c, b)):
            assert _classify_flags(capsys, abc, theta)["face"] == face

    def test_vertex_with_b_in_the_band_classifies(self, capsys):
        # V_10C with b = 5e-10: built at the raw b, the case ii family had
        # entries b^(1/4) ~ 4.7e-3, far from the vertex's kernel, and failed its
        # membership check (exit 5); at a = 1 + 5e-10 the probe ran just off the
        # vertex and found its verdict inconclusive (exit 5)
        theta = math.pi / 6
        assert main(["classify", "1", "5e-10", repr(cp_threshold(theta) - 1.0), "pi/6"]) == 0
        assert main(["classify", "1.0000000005", "0", "0.7497633207351782", "-2.6"]) == 0


#: A step just inside FACE_TOL (1e-9) and outside RESIDUE_ABS (1e-10).
_BAND_STEP = 6e-10


def _face_stratum_point(stratum: str, theta: float) -> tuple[float, float, float]:
    """(a, b, c) of one point of each face stratum at ``theta``."""
    pth = cp_threshold(theta)
    a = 1.0 + 0.4 * (pth - 1.0)
    b_share = 0.3 if theta > 0 else 0.8  # on the a = 1 slice b is the smaller, or the larger
    return {
        "f_abc": (a, 0.3 * (pth - a), 0.7 * (pth - a)),
        "f_abc_a1": (1.0, b_share * (pth - 1.0), (1.0 - b_share) * (pth - 1.0)),
        "f_ab": (1.5, 1.2, 0.0),
        "f_bc": (0.0, 1.3, 1.5 / 1.3),
        "e_a": (pth + 0.5, 0.0, 0.0),
        "e_b": (1.0, pth - 0.5, 0.0),
        "e_ab": (a, pth - a, 0.0),
        "e_t": (0.3, 0.7 * 2.0, 0.7 / 2.0),
        "v_p00": (pth, 0.0, 0.0),
        "v_10c": (1.0, 0.0, pth - 1.0),
        "v_1b0": (1.0, pth - 1.0, 0.0),
        "v_param_t": boundary_parametrization(theta, 1.7),
        "v_0t": (0.0, 1.7, 1.0 / 1.7),
    }[stratum]


#: The angles of each face stratum's points: one in the middle theta branch
#: and one outer, of opposite signs, except for the strata of one branch.
_BAND_THETAS = {
    **dict.fromkeys(("f_abc_a1", "v_10c", "v_1b0"), (math.pi / 6, -0.7)),
    **dict.fromkeys(("v_10c_outer", "v_1b0_outer"), (2.5, -2.6)),
    **dict.fromkeys(
        ("f_abc", "f_ab", "f_bc", "e_a", "e_b", "e_ab", "e_t", "v_p00", "v_param_t", "v_0t"), (math.pi / 6, -2.6)
    ),
}


@pytest.mark.parametrize("stratum", _BAND_THETAS)
def test_face_band_perturbations_exit_0(stratum, capsys):
    # every coordinate of a face point moved by 0 or +-_BAND_STEP: classify
    # (and spanning, where the moved map is positive) exit 0 without a
    # traceback; on the a = 1 slice of F_ABC classify exited 5, or raised
    # UnsupportedCaseError out of main, while the copositive subtraction ran
    # at the raw coordinates
    for theta in _BAND_THETAS[stratum]:
        face = stratum.removesuffix("_outer").removesuffix("_a1")
        base = _face_stratum_point(stratum.removesuffix("_outer"), theta)
        assert classify_face(MapParams(*base, theta)).kind is FaceKind(face)
        for steps in itertools.product((0.0, _BAND_STEP, -_BAND_STEP), repeat=3):
            point = [x + step for x, step in zip(base, steps)]
            if min(point) < 0.0:
                continue
            positive = is_positive(MapParams(*point, theta))
            for kind in ("classify", "spanning") if positive else ("classify",):
                code = main([kind, *map(repr, point), repr(theta)])
                assert code == 0, (kind, point, theta, capsys.readouterr().err)
            capsys.readouterr()


#: Band points of the surface b*c = (1 - a)^2 where the case i or ii kernel
#: family, built at the raw coordinates, fails its membership self-check:
#: drawn from the E_T, V_PARAM_T and V_0T strata and moved by _BAND_STEP;
#: each labels itself E_T or V_PARAM_T.
_SURFACE_BAND_EXIT_5 = [
    (0.43276100706969317, 0.23670678388951374, 1.3593192026514844, -2.9101780830788346),
    (6e-10, 0.20892591624958412, 4.786385627486587, 0.35783876081535837),
    (0.7814158006876489, 0.04566790446250858, 1.0462282678436197, 0.35783876081535837),
    (0.8923352363866587, 0.02755596144159452, 0.4206603887758828, -0.8362159691438379),
]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="surface-band kernel families are built off the surface")
@pytest.mark.parametrize("point", _SURFACE_BAND_EXIT_5, ids=["e_t", "e_t_from_v_0t", "v_param_t", "v_param_t_2"])
def test_surface_band_points_exit_0(point, capsys):
    for kind in ("classify", "spanning"):
        assert main([kind, *map(repr, point)]) == 0, capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "1", "1", "1", "pie"],
        ["spanning", "1", "1", "1", "pie"],
        ["classify", "-1", "1", "1", "pi/6"],
        ["classify", "nan", "1", "1", "pi/6"],
        ["spanning", "1", "-1", "1", "pi/6"],
        ["spanning", "1", "1", "nan", "pi/6"],
        ["witness", "pie", "1"],
    ],
)
def test_bad_input_is_usage_error(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err
    assert "Traceback" not in captured.err


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.mark.parametrize(
    "argv",
    [
        ["spanning", "1", "1e69", "0", "pi/6"],  # E_B: b**4.5 overflows
        ["classify", "1", "1e69", "0", "pi/6"],
        ["spanning", "1", "0", "1e138", "pi/6"],  # E_C: c**2.25 overflows
        ["spanning", "0", "1e103", "1e-103", "pi/6"],  # V_0T: b**3 overflows
        ["classify", "0", "1e103", "1e-103", "pi/6"],
    ],
)
def test_huge_coordinates_give_strict_json(argv, capsys):
    # where the paper's determinant closed forms (tests/lemmas.py) overflow,
    # the rank gap, relative to the largest singular value, stays finite
    assert main([*argv, "--json"]) == 0
    out = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    for key in ("spanning", "co_spanning"):
        for field in ("smallest_kept", "largest_dropped"):
            value = out["evidence"][key][field]
            assert value is None or (isinstance(value, float) and math.isfinite(value)), (key, field)


class TestLargestFiniteCoordinate:
    # the largest double rounds to inf at 15 digits; the report keeps it
    ARGV = ["classify", "1", "1.7976931348623157e308", "0", "0.5"]

    def test_json_is_strict(self, capsys):
        assert main([*self.ARGV, "--json"]) == 0
        out = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert out["params"]["b"] == 1.7976931348623157e308

    def test_plain_report_has_no_inf(self, capsys):
        assert main(self.ARGV) == 0
        assert "inf" not in capsys.readouterr().out

    def test_serialization_is_byte_stable(self, capsys):
        assert main([*self.ARGV, "--json"]) == 0
        text = capsys.readouterr().out.rstrip("\n")
        assert _reparsed(text).to_json() == text


#: Reals at the edges of the 15-digit rule: signed zeros, subnormals, the
#: smallest normal, the largest double, nan and the infinities.
_EDGE_REALS = (0.0, -0.0, 5e-324, -1.5e-323, 2.2250738585072014e-308 / 3, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, math.nan, math.inf, -math.inf)
_REALS = st.floats() | st.sampled_from(_EDGE_REALS)
_LEAVES = st.none() | st.booleans() | st.integers() | _REALS | st.text()
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=24,
)


@given(params=_VALUES, flags=st.dictionaries(st.text(max_size=6), _VALUES, max_size=3), evidence=_VALUES)
def test_one_walk_writes_the_bytes_of_json_dumps(params, flags, evidence):
    doc = ReportDocument(params=params, flags=flags, evidence=evidence)
    text = doc.to_json()
    assert text == report_json(doc)
    assert _reparsed(text).to_json() == text


@pytest.mark.parametrize("value", [np.float64(1.0), 1j, (1.0, 2.0), np.zeros(2)], ids=["float64", "complex", "tuple", "array"])
def test_the_writer_refuses_a_value_that_is_not_plain(value):
    doc = ReportDocument(params={}, flags={}, evidence={"section": {"value": value}})
    with pytest.raises(TypeError):
        doc.to_json()


def test_a_subnormal_coordinate_keeps_its_choi_matrix(capsys):
    # W is exactly Hermitian, so it is solved as it is: halving it would
    # round each 5e-324 entry to 0
    assert main(["classify", "5e-324", "1", "1", "0.5", "--json"]) == 0
    evidence = json.loads(capsys.readouterr().out)["evidence"]
    w = choi_matrix(MapParams(5e-324, 1.0, 1.0, 0.5))
    spectra = np.linalg.eigvalsh(np.stack([w, partial_transpose(w)])).tolist()
    assert [evidence["choi_eigenvalues"], evidence["partial_transpose_eigenvalues"]] == [
        [round_real(x) for x in spectrum] for spectrum in spectra
    ]
    assert evidence["partial_transpose_eigenvalues"] == [0, 0, 0, 0, 5e-324, 5e-324, 2, 2, 2]


def test_near_overflow_coordinate_classifies(capsys):
    # symmetrizing the Choi matrix must not overflow before halving
    assert main(["classify", "1e308", "0", "0", "pi/6", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["flags"]["face"] == "e_a"
    assert out["flags"]["cp"] is True


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "1", "1e300", "0", "0.5"],  # E_B
        ["classify", "1", "1.7976931348623157e308", "0", "0.5"],
        ["spanning", "1.0000000001", "1e308", "0", "-2.2"],
        ["spanning", "0", "1e200", "1e-200", "0.5"],  # V_0T: the residue was inf <= inf
        ["classify", "0", "1e160", "1e-160", "0.5"],
    ],
    ids=" ".join,
)
def test_huge_coordinates_pass_the_kernel_check_without_overflow(argv, capsys):
    # the record's kernel self-check scales W and each factor to unit largest
    # entry, so no residue overflows, and it still refuses a product vector
    # off the kernel
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    k = _kernel_point(MapParams(*map(float, argv[1:4]), parse_angle(argv[4])))
    ones = np.ones((1, 3), dtype=complex)
    assert _in_kernel(k.choi, k.xi, k.eta).all()
    assert not _in_kernel(k.choi, ones, ones).any()


@pytest.mark.filterwarnings("error")
def test_sweep_over_a_huge_box_warns_nothing(tmp_path, capsys):
    # b * c overflows to inf at the far corner, which is completely copositive
    out = tmp_path / "x.csv"
    assert main(["sweep", "0.5", "10", "--plane", "bc", "--box", "1e308", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_text().splitlines()[-1].split(",")[5:7] == ["0", "1"]


class TestWitness:
    @pytest.mark.parametrize("b", ["1e308", "1e-308"])
    def test_overflowing_pairing_usage_error(self, b, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["witness", "pi/6", b])
        captured = capsys.readouterr()
        assert code == 1
        assert caught == []
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("witness: the pairing cannot be formed in finite doubles")

    def test_detecting(self, capsys):
        code = main(["witness", "pi/6", "1", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["flags"]["detects"] is True
        assert out["flags"]["detection_value"] < 0

    def test_non_detecting_alpha_exit_three(self, capsys):
        code = main(["witness", "pi/6", "1", "--alpha-tilde", "1.5", "--json"])
        captured = capsys.readouterr()
        assert code == 3
        assert "does not detect" in captured.err
        out = json.loads(captured.out)
        assert out["flags"]["detects"] is False

    def test_theta_zero_exit_two(self, capsys):
        assert main(["witness", "0", "1"]) == 2

    def test_alpha_out_of_range_usage_error(self, capsys):
        assert main(["witness", "pi/6", "1", "--alpha-tilde", "0.5"]) == 1

    @pytest.mark.parametrize("b", ["1e8", "1e-8"])
    def test_optimum_in_face_band_names_b(self, b, capsys):
        # no alpha~ given: the message blames b, not an alpha~ the user never chose
        assert main(["witness", "0.06", b]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"witness: b={float(b)!r} is too extreme for the witness ansatz")
        assert "face band" in captured.err and "must lie in" not in captured.err

    def test_nonpositive_b_usage_error(self, capsys):
        assert main(["witness", "pi/6", "0"]) == 1

    def test_failed_self_check_exit_five(self, capsys, monkeypatch):
        # a validation failure is a program defect: exit 5, one stderr line
        import choimaps.witness

        def negative_certificate(w):
            return BlockPositivityCertificate("negative", 5, 1, np.array([0.5, 0.5, 0.0]), -0.5)

        monkeypatch.setattr(choimaps.witness, "certify_block_positivity", negative_certificate)
        assert main(["witness", "pi/6", "1.0"]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("witness: internal consistency check failed: ")
        assert "block-positivity certificate: minimum -0.5" in captured.err
        assert "Traceback" not in captured.err


class TestSweep:
    def test_deterministic_output(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            assert main(["sweep", "pi/6", "25", "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_header_and_columns(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "pi/6", "12", "--out", str(out), "--plane", "ab"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "a,b,c,theta,face,cp,ccp,positive"
        assert len(lines) == 1 + 12 * 12
        row = lines[1].split(",")
        assert len(row) == 8
        assert row[2] == "0"  # plane ab has c = 0

    def test_grid_n_zero_usage_error(self, tmp_path):
        assert main(["sweep", "pi/6", "0", "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("box", ["-1", "inf", "nan"])
    def test_bad_box_usage_error(self, tmp_path, box):
        out = tmp_path / "x.csv"
        assert main(["sweep", "pi/6", "5", "--out", str(out), "--plane", "ab", "--box", box]) == 1
        assert not out.exists()

    def test_unsupported_theta(self, tmp_path):
        assert main(["sweep", "0", "10", "--out", str(tmp_path / "x.csv")]) == 2

    def test_io_error(self):
        assert main(["sweep", "pi/6", "5", "--out", "/nonexistent/dir/x.csv"]) == 4

    @pytest.mark.parametrize("theta", ["0.5", "2.2", "-2.2"])  # one per branch of p_theta
    def test_multi_block_simplex_matches_formatting_each_c(self, theta, tmp_path):
        # the reference formats every c on its own; at these angles the
        # anti-diagonal a + b = p_theta has cells where c rounds to -1 ulp
        # (printed 0) and to +1 ulp (printed as itself)
        n = 155
        assert n * (n + 1) // 2 > 2 * _BLOCK  # three blocks of whole rows
        out = tmp_path / "s.csv"
        assert main(["sweep", theta, str(n), "--out", str(out)]) == 0
        pth = cp_threshold(float(theta))
        axis = np.linspace(0.0, pth, n)
        want, ulps = [], {"0": 0, "+": 0}
        for x in axis:
            for y in axis:
                z = pth - x - y
                if z >= -INCLUSION_SLACK:
                    want.append(f"{real_text(x)},{real_text(y)},{real_text(max(z, 0.0))}")
                    if 0 < abs(z) < 1e-15:
                        ulps["0" if z < 0 else "+"] += 1
                        assert want[-1].endswith(",0" if z < 0 else f",{real_text(z)}")
        assert min(ulps.values()) > 0
        rows = out.read_text().splitlines()[1:]
        assert [row.rsplit(",", 5)[0] for row in rows] == want

    @staticmethod
    def _record_blocks(monkeypatch):
        """The (a, b) arrays of each ``classify_faces`` call of the sweeps."""
        calls = []

        def recording(a, b, c, theta):
            calls.append((a, b))
            return classify_faces(a, b, c, theta)

        monkeypatch.setattr(choimaps.cli, "classify_faces", recording)
        return calls

    @pytest.mark.parametrize("n", [1, 2, 155, 1000])
    def test_simplex_blocks_hold_only_kept_points(self, n, tmp_path, monkeypatch):
        calls = self._record_blocks(monkeypatch)
        out = tmp_path / "s.csv"
        assert main(["sweep", "0.5", str(n), "--out", str(out)]) == 0
        pth = cp_threshold(0.5)
        axis = np.linspace(0.0, pth, n)
        for k, (a, b) in enumerate(calls):
            assert len(a) <= _BLOCK
            assert np.all(pth - a - b >= -INCLUSION_SLACK)
            if k + 1 < len(calls):  # whole rows, as many as fit: the next row would not
                next_row = np.searchsorted(axis, calls[k + 1][0][0])
                assert len(a) + n - next_row > _BLOCK
        assert sum(len(a) for a, _ in calls) == len(out.read_text().splitlines()) - 1

    @pytest.mark.parametrize("n", [1, 2, 3, 155, 2000])
    def test_simplex_points_match_square_blocks(self, n, monkeypatch):
        # the square blocks filtered by c keep the same points in the same order
        for theta in ("0.5", "2.2", "-2.2"):
            calls = self._record_blocks(monkeypatch)
            assert main(["sweep", theta, str(n), "--out", os.devnull]) == 0
            axis = np.linspace(0.0, cp_threshold(float(theta)), n)
            got = [np.concatenate(x) for x in zip(*calls)]
            want = [axis[np.concatenate(x)] for x in zip(*square_simplex_blocks(float(theta), n, _BLOCK))]
            for g, w in zip(got, want):
                assert np.array_equal(g, w)

    def test_memory_is_bounded_by_the_block(self, tmp_path):
        # the per-axis row and column texts grow with grid_n, the blocks do not
        out = str(tmp_path / "s.csv")
        for plane in ("abc_simplex", "ab"):
            main(["sweep", "pi/6", "20", "--plane", plane, "--out", out])  # first-use work out of the count
            peaks = []
            for n in ("200", "800"):
                tracemalloc.start()
                try:
                    assert main(["sweep", "pi/6", n, "--plane", plane, "--out", out]) == 0
                    held, peak = tracemalloc.get_traced_memory()
                    peaks.append(peak)
                finally:
                    tracemalloc.stop()
                assert held < 200_000, plane  # no table outlives the sweep (a value cache held 0.76 MB at 800)
            assert peaks[1] < 1.5 * peaks[0], plane


class TestFigureData:
    def test_threshold_curve(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert main(["figure-data", "1", "--out", str(out), "--points", "1000"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta,p_theta"
        data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        assert data.shape == (1000, 2)
        vals = data[:, 1]
        assert vals.max() == pytest.approx(2.0, abs=1e-4)
        assert vals.min() == pytest.approx(1.0, abs=1e-4)
        # period 2pi/3: compare shifted samples on the common range
        th = data[:, 0]
        for k in (17, 333, 500):
            shifted = th[k] + 2 * np.pi / 3
            if shifted <= np.pi:
                j = np.argmin(np.abs(th - shifted))
                ref = max(2 * np.cos(th[k] + s) for s in (0, 2 * np.pi / 3, -2 * np.pi / 3))
                assert vals[k] == pytest.approx(ref, abs=1e-12)
                assert vals[j] == pytest.approx(vals[k], abs=1e-2)

    def test_face_plane(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert main(["figure-data", "2", "--out", str(out), "--theta", "pi/6", "--points", "15"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "a,b,c,theta,face,cp,ccp,positive"
        assert any(",f_abc," in ln for ln in lines[1:])

    def test_body_scans(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert main(["figure-data", "3", "--out", str(out), "--points", "6"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "label,theta,a,b,c,positive"
        labels = {ln.split(",")[0] for ln in lines[1:]}
        assert labels == {"p=1", "1<p<2", "p=2"}

    def test_body_scans_row_cap(self, tmp_path, capsys):
        # the default --points 1000 would mean 3e9 rows: refused before any work
        out = tmp_path / "fig3.csv"
        for points in ("1000", "70"):  # 3 * 70^3 is the first count above the cap
            assert main(["figure-data", "3", "--out", str(out), "--points", points]) == 1
            assert "1000000" in capsys.readouterr().err
            assert not out.exists()
        assert main(["figure-data", "3", "--out", str(out)]) == 1

    def test_face_plane_points_limit(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        assert main(["figure-data", "2", "--out", str(out), "--points", "2001"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("figure-data: ") and "points" in err and "2000" in err
        assert "grid_n" not in err
        assert not out.exists()

    def test_points_help_states_each_limit(self, capsys):
        assert main(["figure-data", "--help"]) == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "100000 for figure 1, 2000 for figure 2, 69 for figure 3" in help_text


#: SHA-256 of outputs of the row-by-row classifier that ``classify_faces``
#: replaced; the grid code must reproduce them byte for byte.
GOLDEN_CSV = {
    ("sweep", "pi/6", "25", "--plane", "abc_simplex"): "6a54a9eab6415e25116ed743d2026293c87837b918f3ff03b5bea9c9e2d3bf03",
    ("sweep", "pi/6", "25", "--plane", "ab"): "f318879a997dad10bd935470720d067aeca276b023efb9c601ab29eb6b46eb2c",
    ("sweep", "pi/6", "25", "--plane", "ac"): "d92668c70efc066f3521fa97b786928c0d1baa1c14aff91a0a268cb06035a6af",
    ("sweep", "pi/6", "25", "--plane", "bc"): "540dfbf8cf75a60f2a31c6e58ced5cbe8e6fb8319325c9f64f43e4f11074eecb",
    ("figure-data", "2", "--points", "15"): "792c4ef77af0dd383b4b8fe4386ebacdd81a7e4777aebbf03c4196907ee6788a",
    ("figure-data", "3", "--points", "6"): "a1c851dd906c052471ac68485f82919e2b6bd23fcf57f3922f6bacffdbbd4519",
    # entries that span blocks: 3 blocks on each plane and on the simplex
    ("sweep", "pi/6", "110", "--plane", "ab"): "79251d12c3486f47590977229971c116cf2380dfc094c60d0a32e20229c63f2b",
    ("sweep", "pi/6", "110", "--plane", "ac"): "54b9cb4922092076110a708d51e71ec126006e75550d5556be03674e0b40f35e",
    ("sweep", "pi/6", "110", "--plane", "bc"): "af0db1ed11d05f8ac69488e4f8213cd8d9fe4b743c2bc8bbc1c74c59fdab3251",
    ("sweep", "2.2", "155"): "4f7ab692cc101a2ed899b813364ae661972fcc6e69a476fe6b2f315d063774fd",
    ("figure-data", "3", "--points", "20"): "1642c230004b0eef616761299241fdfe11a3c14e8cf214c219e667c5536c05df",
    # simplex runs whose block edges moved when the blocks took only kept points
    ("sweep", "0.3", "160"): "f45e13e6461f9488c290e8a689b2196476c29101fc319f4d4981029ab79ef257",
    ("figure-data", "2", "--points", "300", "--theta", "-2.2"):
        "903a1b56837f11f51b58810decab406405c2327cc2b9ffa3e38c28e1b4cdf19e",
}


@pytest.mark.parametrize("argv", GOLDEN_CSV, ids=" ".join)
def test_grid_output_matches_golden_hash(argv, tmp_path):
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_CSV[argv]


#: SHA-256 of the stdout of reports written through ``json.dumps`` over a
#: canonicalized copy of the document; the one-walk writer must reproduce
#: them byte for byte.  The points: kernel cases i-iv (E_T, V_PARAM_T,
#: V_0T, F_ABC), an interior and an exterior point, the a = 1 slice of
#: F_ABC (a co-optimal subtraction dict), V_10C and V_1B0 (the empty
#: second-order evidence), the largest double, and one witness per sign of
#: theta and side of b = 1.
GOLDEN_REPORTS = {
    ("classify", "0.5", "1", "0.25", "pi/6"): "191215820587d4e68244c1ad39954a2fd8975cb271840466c724c6f92a901992",
    ("classify", "0.5", "1", "0.25", "pi/6", "--json"): "3ad10705bcc12455edb0d771f8a2d4a0cb3f2de42f8c67c51392780d06f2adb7",
    ("spanning", "0.5", "1", "0.25", "pi/6", "--json"): "0f9dcf460132676fc58c8567254ac5a0db580a49902cce1b9436982a78523b38",
    ("classify", "0.5119661282874151", "0.9760677434251699", "0.24401693585629247", "pi/6"): "a5f0a45539d05b9b04ae6ff339f3f5aaecaba2bc7e98bd5a7343f05af8248739",
    ("classify", "0.5119661282874151", "0.9760677434251699", "0.24401693585629247", "pi/6", "--json"): "d783978f5a7d204f7634534c2ed162d99fd868d2b7ab1052c78f42451c5877fb",
    ("spanning", "0.5119661282874151", "0.9760677434251699", "0.24401693585629247", "pi/6", "--json"): "53f564594e22b0f286e0a14e1cab0f1cf10159412898a390b44900751c094a67",
    ("classify", "0", "2", "0.5", "pi/6"): "3c5f1d37545215fb9c3ae099410b57f7095baf96eaae5cdafdeaaaf64983836c",
    ("classify", "0", "2", "0.5", "pi/6", "--json"): "3238a2664cf839f661efdfcc5723e95257ac4b320781b034c8dc81f7b71e1b9a",
    ("spanning", "0", "2", "0.5", "pi/6", "--json"): "8e57bcbf7cbcb2e83357f7426dd84be85de21618cd44fa9cf4a806d7745206cd",
    ("classify", "0.5", "0.6", "0.8106729782512119", "0.3"): "c119dba0c9b1e162fd44470f5db94f1e54c459be59b5145bcc7019a5cc0f397c",
    ("classify", "0.5", "0.6", "0.8106729782512119", "0.3", "--json"): "2e339699bd1ec47cbaca91b4db1065c216075d7b3d62380a1d7b1fcb70c26f25",
    ("spanning", "0.5", "0.6", "0.8106729782512119", "0.3", "--json"): "6ff87ac8d21e5d03aa104f116875e523278b0288f46cc0f03b422a412ebab0f7",
    ("classify", "2", "2", "2", "pi/6"): "ecc46ef067d17897c0f0529e9f8db9a9d0b247437b51692ae2977bee1b39349d",
    ("classify", "2", "2", "2", "pi/6", "--json"): "d4ada0ca72f538a48aac8bff670266d0b3584276bf393e90e0c1c3280da64e09",
    ("spanning", "2", "2", "2", "pi/6", "--json"): "3d8e863bf956e0f0d4d5d3c9733baf33318031dc3db9d3b0a01aa36e9424fc46",
    ("classify", "0.1", "0.1", "0.1", "pi/6"): "b87b7185a9c6144639a92d243866c163bba28fca3902f926b41323a216fc0515",
    ("classify", "0.1", "0.1", "0.1", "pi/6", "--json"): "afae08b5e94d7a2f2aea3428d75b780200c64b1ad5bfd31209cfa506d806d522",
    ("classify", "1", "0.3", "0.43205080756887737", "pi/6"): "da09004fbbd60af887091f62ac2293733634ba58e585dc5b6d4b240e6a5391b7",
    ("classify", "1", "0.3", "0.43205080756887737", "pi/6", "--json"): "0b286166316576a43ae56dae96ca146b3b021325eb795aefa7610bde138101f1",
    ("spanning", "1", "0.3", "0.43205080756887737", "pi/6", "--json"): "6014e38a03873ff2bba0b83e2a07e29abf695e4071e329ac64e7f74b569e9347",
    ("classify", "1", "0", "0.7320508075688774", "pi/6"): "d15528029db1cc028aa35433882ce86298d40f6a22301644c812f0acf5591db7",
    ("classify", "1", "0", "0.7320508075688774", "pi/6", "--json"): "ba16eb4694d1c2146f9bf95de359b7529d6c484ec7e4da92e9534ce46cad4261",
    ("spanning", "1", "0", "0.7320508075688774", "pi/6", "--json"): "5f63e86ec946bc6f439bf7b03eedf808b42def5386b08ebe7654f12a9fcbe86c",
    ("classify", "1", "0.7320508075688774", "0", "-pi/6"): "de18e1dd6f8f9205835455ea6bfc35c1da4e992c6eae347ef6923a71227262ab",
    ("classify", "1", "0.7320508075688774", "0", "-pi/6", "--json"): "be6a5ee1b3c6a9ac10dfc77c73da99620131bfc368a6e628a5af0c6705ac5c4c",
    ("spanning", "1", "0.7320508075688774", "0", "-pi/6", "--json"): "5007808ff89b049f36bb0ed3328282fc61e32492c07ab3a19514612917c111b0",
    ("classify", "1", "1.7976931348623157e308", "0", "0.5"): "996c312873ab44769c445189e2e0e1a29b8a10b206559228f58838f9689968a5",
    ("classify", "1", "1.7976931348623157e308", "0", "0.5", "--json"): "cb2233cc1a7a27bdbb361b10508c60bfbfc57f8c9801bd408ab49f138bf93e2f",
    ("spanning", "1", "1.7976931348623157e308", "0", "0.5", "--json"): "bfab89139d521000778f4d3721e60bd42c2e8964a1d19a7e1efb4b42171a23f2",
    ("witness", "pi/6", "0.5", "--json"): "d2af06e3a3338581b9d7d153f5bb351cf7dc1a6eb1c9b7266355a601505b3f86",
    ("witness", "pi/5", "3", "--json"): "af9b89485608882c44a6b05adc22a5b81689fe92faf763d04e327bf9866dd4ad",
    ("witness", "-pi/6", "0.2", "--json"): "85d2077d314e02e67abdc36b82373ea8f6855d0fd21dda744c3308c6b68bc67a",
    ("witness", "-pi/4", "7", "--json"): "0202c5994aca5fa8c53b7bf88a3a05b5556ff5bdbf13dc2307acee003c7c0382",
}


@pytest.mark.parametrize("argv", GOLDEN_REPORTS, ids=" ".join)
def test_report_matches_golden_hash(argv, capsys):
    assert main(list(argv)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == GOLDEN_REPORTS[argv]


class TestSpanningCommand:
    def test_report(self, capsys):
        code = main(["spanning", "0.5", "1", "0.25", "pi/6", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["flags"]["spanning"] is True
        assert out["flags"]["co_spanning"] is False
        assert out["evidence"]["spanning"]["rank"] == 9

    def test_not_positive_is_usage_level(self, capsys):
        # exterior points have no spanning analysis: report the error cleanly
        for argv in (
            ["spanning", "0.1", "0.1", "0.1", "pi/6"],
            ["spanning", "0.1", "0.1", "0.1", "pi/6", "--json"],
        ):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 1
            assert captured.err.startswith("spanning: ")
            assert "not positive" in captured.err
            assert captured.out == ""


def test_unknown_command_usage():
    assert main(["frobnicate"]) == 1


def test_help_names_every_exit_code(capsys):
    assert main(["--help"]) == 0
    help_text = capsys.readouterr().out
    # the table in the help text: an entry per code, "  <code>  <text>"
    entries = dict(re.findall(r"^  (\d)  (.*?)(?=^  \d  |^\S|\Z)", help_text, re.M | re.S))
    for error, code in _EXIT_CODES.items():
        assert error.__name__ in entries[str(code)], (error.__name__, code)


def _fresh_output(code):
    """Stdout of ``code`` in a fresh interpreter, so that modules imported
    and caches filled by other tests do not count."""
    src = str(Path(choimaps.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return res.stdout.strip()


def test_cli_import_loads_no_scipy():
    # neither scipy nor mpmath: tests and audits may use them, the package not
    code = "import sys, choimaps.cli; print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')))"
    assert _fresh_output(code) == "[]"


def test_cli_import_builds_no_grid():
    # the one grid is built on first use, so no scan work moves into import
    code = "import choimaps.cli, choimaps.positivity as p; print(p._grid.cache_info().currsize)"
    assert _fresh_output(code) == "0"
