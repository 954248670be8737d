"""Self-tests of the benchmark: seeded inputs, the known-answer checker and
a smoke run of every workload.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import known_answers as ka
import workloads as wl
from known_answers import cp_threshold
from strata import SAMPLERS, boundary_point, draw_point, draw_witness

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import choimaps  # noqa: E402
from choimaps import cli  # noqa: E402
import reference  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PI6 = math.pi / 6


def _classify_json(a, b, c, theta, capsys, command="classify"):
    code = cli.main([command, repr(a), repr(b), repr(c), repr(theta), "--json"])
    assert code == 0
    return capsys.readouterr().out


class TestSeededInputs:
    @pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
    def test_same_seed_same_inputs(self, workload):
        def ops(seed):
            rng = wl.stream(workload, seed, "timed")
            return [op for _ in range(3) for op in wl.cycle_ops(workload, rng, "x.csv")]

        assert ops(7) == ops(7)
        assert ops(7) != ops(8)

    def test_defect_stream_is_seeded(self):
        assert wl.defect_ops(wl.stream("classify", 3, "defects")) == wl.defect_ops(
            wl.stream("classify", 3, "defects")
        )

    @pytest.mark.parametrize("stratum", sorted(SAMPLERS))
    def test_points_lie_in_their_stratum(self, stratum):
        rng = wl.stream("points", 0, stratum)
        for _ in range(200):
            a, b, c, th = draw_point(rng, stratum)
            assert 1.0 < cp_threshold(th) < 2.0
            for bad in (0.0, math.pi / 3, 2 * math.pi / 3, math.pi):
                assert abs(abs(th) - bad) >= 0.05
            ka.expected_classify(stratum, a, b, c, th)  # raises off the stratum

    def test_witness_inputs_in_range(self):
        rng = wl.stream("witness", 0, "range")
        for stratum in wl.WITNESS_STRATA:
            for _ in range(100):
                th, b = draw_witness(rng, stratum)
                assert 0.05 <= abs(th) <= math.pi / 3 - 0.05
                assert (th > 0) == stratum.startswith("pos")
                assert 0.05 <= b <= 20.0

    def test_fixed_mix_per_cycle(self):
        rng = wl.stream("classify", 0, "mix")
        strata = [op.stratum for op in wl.cycle_ops("classify", rng, "x.csv")]
        assert sorted(set(strata)) == sorted(wl.CLASSIFY_STRATA)
        kinds = [(op.stratum, op.kind) for op in wl.cycle_ops("classify", rng, "x.csv")]
        assert not set(wl.KNOWN_DEFECTS) & set(kinds)


class TestKnownAnswers:
    def test_boundary_point_matches_paper_parametrization(self):
        for t in (0.3, 1.0, 2.0, 4.5):
            assert boundary_point(PI6, t) == pytest.approx(choimaps.boundary_parametrization(PI6, t), abs=1e-14)

    def test_v_param_t_has_all_four_flags(self, capsys):
        a, b, c = boundary_point(PI6, 2.0)
        want = ka.expected_classify("v_param_t", a, b, c, PI6)
        assert want["face"] == "v_param_t"
        assert all(want[k] for k in ("spanning", "co_spanning", "optimal", "co_optimal"))
        assert ka.check_classify(_classify_json(a, b, c, PI6, capsys), "v_param_t", a, b, c, PI6) == []

    def test_v_1b0_only_spanning_false(self, capsys):
        a, b, c = 1.0, cp_threshold(PI6) - 1.0, 0.0
        want = ka.expected_classify("v_1b0", a, b, c, PI6)
        flags = {k: want[k] for k in ("spanning", "co_spanning", "optimal", "co_optimal")}
        assert flags == {"spanning": False, "co_spanning": True, "optimal": True, "co_optimal": True}
        assert ka.check_classify(_classify_json(a, b, c, PI6, capsys), "v_1b0", a, b, c, PI6) == []

    def test_every_passing_stratum_checks_clean(self, capsys):
        rng = wl.stream("classify", 0, "clean")
        for op in wl.cycle_ops("classify", rng, "x.csv"):
            if op.expect_exit:
                continue
            out = _classify_json(*op.params, capsys, command=op.kind)
            if op.kind == "classify":
                assert ka.check_classify(out, op.stratum, *op.params) == [], op
            else:
                assert ka.check_spanning(out, op.stratum) == [], op

    @pytest.mark.parametrize("flag, value", [("face", "e_t"), ("cp", True), ("optimal", False), ("face_t", 2.5)])
    def test_wrong_flag_is_caught(self, capsys, flag, value):
        a, b, c = boundary_point(PI6, 2.0)
        doc = json.loads(_classify_json(a, b, c, PI6, capsys))
        doc["flags"][flag] = value
        assert ka.check_classify(json.dumps(doc), "v_param_t", a, b, c, PI6)

    def test_malformed_report_is_not_a_verdict(self):
        a, b, c = boundary_point(PI6, 2.0)
        assert ka.check_classify("Traceback", "v_param_t", a, b, c, PI6) is None

    def test_witness_closed_form(self, capsys):
        assert cli.main(["witness", repr(PI6), "1.0", "--json"]) == 0
        out = capsys.readouterr().out
        assert ka.check_witness(out, PI6, 1.0) == []
        doc = json.loads(out)
        doc["flags"]["detection_value"] *= 1.001
        assert ka.check_witness(json.dumps(doc), PI6, 1.0)

    @pytest.mark.parametrize("plane", sorted(wl.SWEEP_GRID))
    def test_sweep_rows(self, plane, tmp_path):
        out = tmp_path / "s.csv"
        assert cli.main(["sweep", repr(PI6), "9", "--plane", plane, "--out", str(out)]) == 0
        text = out.read_text()
        rows, bad = ka.check_sweep(text, PI6, 9, plane)
        assert (rows, bad) == (ka.sweep_row_count(9, plane), [])
        # flip the positivity verdict of an interior row of the grid
        lines = text.splitlines()
        k = next(i for i, ln in enumerate(lines[1:], 1) if ln.endswith(",1") and "exterior" not in ln)
        lines[k] = lines[k][:-1] + "0"
        assert ka.check_sweep("\n".join(lines) + "\n", PI6, 9, plane)[1]
        assert ka.check_sweep("\n".join(lines[:-1]) + "\n", PI6, 9, plane)[1]


def _run(*args, cwd=ROOT):
    res = subprocess.run(
        [sys.executable, str(Path("bench") / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return res


def _result(res) -> dict:
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


def test_speed_factor_is_the_mean_of_neighbouring_chunks():
    nominal = reference.NOMINAL_CHUNK_S
    assert reference.factors([nominal] * 4) == [1.0] * 3
    assert reference.factors([nominal, 3 * nominal, 3 * nominal]) == [2.0, 3.0]
    assert 0.0 < reference.chunk() < 10.0


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_smoke_end_to_end(workload):
    out = _result(_run("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0", "--smoke"))
    assert out["correct"] and out["attempted"] >= 1 and out["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_smoke_traced_counts_repeat(workload):
    runs = [
        _result(_run("--workload", workload, "--seed", "2", "--seconds", "1", "--trace", "1", "--smoke"))
        for _ in range(2)
    ]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in runs[0]["metrics"].items()} == want
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count/verdict" or k.endswith("failed_share")}
        for r in runs
    ]
    assert counts[0] == counts[1]
    assert runs[0]["attempted"] == runs[1]["attempted"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    res = _run("--workload", "classify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert res.returncode != 0
    assert res.stdout.strip() == ""


def test_model_names_match_benchmark():
    model = json.loads((BENCH / "model.json").read_text())
    assert sorted(model["per_layer"]) == sorted(m["name"] for m in SPEC["per_layer"])
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(model["end_to_end"])
    assert sorted(model["workloads"]) == sorted(w["name"] for w in SPEC["workloads"]) == sorted(wl.WORKLOADS)
    for name, spec in wl.WORKLOADS.items():
        assert model["workloads"][name]["tail_percentile"] == spec.tail_percentile
        assert model["workloads"][name]["strata"] == list(spec.strata)
