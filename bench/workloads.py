"""The four workloads: which operations they issue, in which order, and how
each operation is run and checked against its known answer.

Load model: one process, one thread, closed loop (the next operation starts
when the last one returns).  Strata are visited round-robin in a fixed
order, so every run has the same mix; the seed picks the point inside each
stratum.  Operations go in-process through ``choimaps.cli.main(argv)`` and
``choimaps.optimality_probe(MapParams, n_directions=4)``.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from dataclasses import dataclass
from pathlib import Path

import known_answers as ka
from strata import draw_point, draw_theta, draw_witness

CLASSIFY_STRATA = (
    "interior", "exterior", "f_abc", "f_abc_a1", "f_ab", "f_bc", "e_a", "e_b",
    "e_ab", "e_t", "v_p00", "v_10c", "v_1b0", "v_param_t", "v_0t", "surface_a_gt_1",
)
# Fast 'optimal' vertices first, so a smoke run reaches them in seconds.
OPTIMALITY_STRATA = ("v_1b0_outer", "v_10c_outer", "f_ab", "f_abc", "e_ab", "v_p00")
WITNESS_STRATA = ("pos_small", "pos_large", "neg_small", "neg_large")
# Grid sizes giving about 12.1k rows on every plane.
SWEEP_GRID = {"abc_simplex": 155, "ab": 110, "ac": 110, "bc": 110}

#: Operations that fail at the seed for known program defects.  They run in
#: a separate known-defect probe (every run, reported per stratum) instead
#: of the timed loop, so that the timed workloads have no failing operation.
KNOWN_DEFECTS = (
    ("surface_a_gt_1", "classify"),  # classify_face labels the a > 1 surface E_T
    ("exterior", "spanning"),  # cmd_spanning lets NotPositiveMapError escape
)
DEFECT_POINTS = 8
#: Directions per optimality probe (the program's default is 64).  Four
#: keep every verdict and cut a not-optimal probe from 3-6 s to 0.5-1.2 s, so a
#: run holds several whole cycles.
PROBE_DIRECTIONS = 4


@dataclass(frozen=True)
class Op:
    stratum: str
    kind: str  # classify | spanning | witness | sweep | probe
    params: tuple  # the point, as the known-answer checker needs it
    argv: tuple = ()
    expect_exit: int = 0


@dataclass
class Outcome:
    seconds: float
    status: str  # ok | failed | wrong
    verdicts: int = 0
    detail: str = ""


@dataclass(frozen=True)
class Workload:
    strata: tuple
    tail_percentile: int  # fixed by the op count of a nominal run
    nominal_cycle_s: float  # one cycle's wall time on the 2-vCPU reference host; sizes the traced run


WORKLOADS = {
    "classify": Workload(CLASSIFY_STRATA, 99, 0.15),
    "optimality": Workload(OPTIMALITY_STRATA, 75, 4.0),
    "witness": Workload(WITNESS_STRATA, 75, 1.3),
    "sweep": Workload(tuple(SWEEP_GRID), 75, 0.9),
}


def _r(x: float) -> str:
    return repr(float(x))


def _point_ops(stratum: str, point: tuple, defects: bool = False) -> list[Op]:
    """``classify`` then ``spanning`` on one point: only the known-defect
    operations when ``defects``, only the others otherwise."""
    a, b, c, th = point
    ops = []
    for kind in ("classify", "spanning"):
        if ((stratum, kind) in KNOWN_DEFECTS) != defects:
            continue
        argv = (kind, _r(a), _r(b), _r(c), _r(th), "--json")
        # a non-positive map has no spanning analysis: a usage-level error
        expect = 1 if kind == "spanning" and stratum == "exterior" else 0
        ops.append(Op(stratum, kind, point, argv, expect))
    return ops


def cycle_ops(workload: str, rng: random.Random, out_path: str) -> list[Op]:
    """One round-robin pass over the workload's strata."""
    ops: list[Op] = []
    for stratum in WORKLOADS[workload].strata:
        if workload == "classify":
            ops += _point_ops(stratum, draw_point(rng, stratum))
        elif workload == "optimality":
            ops.append(Op(stratum, "probe", draw_point(rng, stratum)))
        elif workload == "witness":
            th, b = draw_witness(rng, stratum)
            ops.append(Op(stratum, "witness", (th, b), ("witness", _r(th), _r(b), "--json")))
        else:
            th = draw_theta(rng)
            n = SWEEP_GRID[stratum]
            argv = ("sweep", _r(th), str(n), "--plane", stratum, "--out", out_path)
            ops.append(Op(stratum, "sweep", (th, n, stratum), argv))
    return ops


def defect_ops(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    for stratum, _ in KNOWN_DEFECTS:
        for _ in range(DEFECT_POINTS):
            ops += _point_ops(stratum, draw_point(rng, stratum), defects=True)
    return ops


def stream(workload: str, seed: int, label: str) -> random.Random:
    """Seeded point stream; ``label`` separates the warm-up, timed and
    defect streams so they never share points."""
    return random.Random(f"{workload}:{label}:{seed}")


class Runner:
    """Runs operations against one imported copy of the program.  Entry
    points are looked up on every call, so a traced binding is used once
    installed."""

    def __init__(self, cli_module, package):
        self.cli = cli_module
        self.pkg = package

    def run(self, op: Op) -> Outcome:
        if op.kind == "probe":
            return self._run_probe(op)
        if op.kind == "sweep":  # a stale CSV must not pass for this op's output
            Path(op.argv[-1]).unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    code = self.cli.main(list(op.argv))
                finally:
                    dt = time.perf_counter() - t0
        except Exception as exc:  # any escape from main is a failed op
            return Outcome(dt, "failed", detail=f"raised {type(exc).__name__}")
        if code != op.expect_exit:
            return Outcome(dt, "failed", detail=f"exit {code} expected {op.expect_exit}")
        if op.expect_exit != 0:
            return Outcome(dt, "ok", 1)
        return self._check(op, out.getvalue(), dt)

    def _run_probe(self, op: Op) -> Outcome:
        t0 = time.perf_counter()
        try:
            report = self.pkg.optimality_probe(self.pkg.MapParams(*op.params), n_directions=PROBE_DIRECTIONS)
        except Exception as exc:
            return Outcome(time.perf_counter() - t0, "failed", detail=f"raised {type(exc).__name__}")
        dt = time.perf_counter() - t0
        want = ka.expected_probe(op.stratum)
        if report.verdict != want:
            return Outcome(dt, "wrong", detail=f"verdict={report.verdict!r} expected {want!r}")
        return Outcome(dt, "ok", 1)

    def _check(self, op: Op, stdout: str, dt: float) -> Outcome:
        verdicts = 1
        if op.kind == "classify":
            bad = ka.check_classify(stdout, op.stratum, *op.params)
        elif op.kind == "spanning":
            bad = ka.check_spanning(stdout, op.stratum)
        elif op.kind == "witness":
            bad = ka.check_witness(stdout, *op.params)
        else:
            try:
                text = Path(op.argv[-1]).read_text(encoding="utf-8")
            except OSError as exc:
                return Outcome(dt, "failed", detail=f"no CSV: {type(exc).__name__}")
            verdicts, bad = ka.check_sweep(text, *op.params)
        if bad is None:
            return Outcome(dt, "failed", detail="malformed report")
        if bad:
            return Outcome(dt, "wrong", detail="; ".join(bad))
        return Outcome(dt, "ok", verdicts)
