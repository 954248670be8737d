"""Benchmark of the choimaps verifier.

    python3 bench/run.py --workload {classify,optimality,witness,sweep}
                         --seed N --seconds S --trace {0,1} [--smoke]

Run from the repository root.  The program is imported from ./src; nothing
is installed.  One process, one thread, closed loop; BLAS is pinned to one
thread.  Every verdict is checked against a known answer computed by the
benchmark itself (known_answers.py).

--trace 0 measures the end-to-end metrics for about S seconds of whole
round-robin cycles.  Operation times are divided by the host's speed factor,
measured by a reference computation run between operations
(reference.py), because the host this was written on drifts by up to 2x
between runs; plain wall times go to the report.

--trace 1 runs a fixed number of cycles (set by S and the workload, about
S/4 seconds' worth on the 2-vCPU host the benchmark was written on, so
counts repeat exactly for one seed), each once untraced and then once
traced, and reports per-layer costs per verdict.  --smoke runs
two operations per workload, for the self-tests.

Standard error gets a per-stratum table, the known-defect probe and the
machine; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Spans and a full report are
written under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from spans import Tracer

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SPAWNS = 3
CHILD_TIMEOUT_S = 60
WARMUP_OPS = 2
REF_EVERY_S = 0.1  # operation time between reference chunks
SMOKE_OPS = 2
LIBS = ("numpy", "scipy", "choimaps")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(spawns: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until ``import
    choimaps.cli`` returns in it, once per spawn.  Plain wall time: the
    child runs on whichever CPU is free, so the benchmark's own speed
    factor does not apply to it."""
    code = "import time, choimaps.cli; print(repr(time.time()))"
    out = []
    for _ in range(spawns):
        t0 = time.time()
        res = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if res.returncode != 0:
            raise RuntimeError(f"import choimaps.cli failed in a fresh interpreter:\n{res.stderr}")
        out.append(float(res.stdout.strip().splitlines()[-1]) - t0)
    return out


def import_self_times() -> dict[str, float]:
    """Self import time in ms, summed per top-level package, from
    ``-X importtime`` in a separate spawn."""
    res = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import choimaps.cli"],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    totals = dict.fromkeys(LIBS, 0.0)
    for line in res.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        try:
            self_us = float(parts[0].split(":")[1])
        except ValueError:
            continue  # the header line
        top = parts[2].strip().split(".")[0]
        if top in totals:
            totals[top] += self_us / 1000.0
    return totals


def percentile(sorted_values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    k = max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)
    return sorted_values[k]


def run_ops(runner: wl.Runner, ops: list[wl.Op], tracer: Tracer | None = None) -> list[wl.Outcome]:
    results = []
    for op in ops:
        if tracer is not None:
            tracer.op_id += 1
        results.append(runner.run(op))
    return results


def timed_loop(runner, workload: str, rng, seconds: float, out_csv: str, max_ops: int | None = None):
    """Whole cycles while one more cycle of average length still fits in
    ``seconds`` (at least one cycle), or the first ``max_ops`` operations of
    one cycle.  A reference chunk runs first and then after every
    ``REF_EVERY_S`` of operation time, so each operation has the host's
    speed factor of the interval it ran in.
    Returns the operations and their outcomes, one list per cycle, the
    factor of every operation in run order, and the chunk times with the
    interval of every operation, for the report."""
    import reference  # imports numpy, so only after main() has pinned BLAS

    ops, results, interval = [], [], []
    chunks = [reference.chunk()]
    since = 0.0
    t0 = time.perf_counter()
    while not ops or (max_ops is None and (time.perf_counter() - t0) * (len(ops) + 1) / len(ops) <= seconds):
        cycle = wl.cycle_ops(workload, rng, out_csv)[:max_ops]
        cycle_results = []
        for op in cycle:
            res = runner.run(op)
            cycle_results.append(res)
            interval.append(len(chunks) - 1)
            since += res.seconds
            if since >= REF_EVERY_S:
                chunks.append(reference.chunk())
                since = 0.0
        ops.append(cycle)
        results.append(cycle_results)
    if since > 0.0:
        chunks.append(reference.chunk())
    per_interval = reference.factors(chunks)
    speed = {"ref_chunks_s": chunks, "op_interval": interval}
    return ops, results, [per_interval[i] for i in interval], speed


def tally(ops, results) -> dict:
    """Per-stratum attempted / failed / wrong, every failure with its argv
    (or probe parameters) and exception type or mismatching field, and every
    latency."""
    table: dict = {}
    for op, res in zip(ops, results):
        row = table.setdefault(
            f"{op.kind}:{op.stratum}",
            {"attempted": 0, "failed": 0, "wrong": 0, "failures": [], "latency_ms": []},
        )
        row["attempted"] += 1
        row["latency_ms"].append(round(res.seconds * 1000.0, 4))
        if res.status != "ok":
            row["failed"] += 1
            row["wrong"] += res.status == "wrong"
            row["failures"].append({"argv": list(op.argv) or list(op.params), "detail": res.detail})
    return table


def _verdict_rate(results) -> float:
    busy = sum(r.seconds for r in results)
    return sum(r.verdicts for r in results if r.status == "ok") / busy if busy > 0 else 0.0


def end_to_end(workload: str, cycles: list[list[wl.Outcome]], factors: list[float], setup: list[float]) -> tuple[dict, dict]:
    """Latency percentiles over all successful operations and verdicts per
    second over the summed time of all operations, each operation's time
    divided by the host's speed factor while it ran (reference.py).  The
    plain wall-time figures go to the report."""
    spec = wl.WORKLOADS[workload]
    results = [r for cycle in cycles for r in cycle]
    ok_raw = sorted(r.seconds * 1000.0 for r in results if r.status == "ok")
    ok = sorted(r.seconds * 1000.0 / f for r, f in zip(results, factors) if r.status == "ok")
    verdicts = sum(r.verdicts for r in results if r.status == "ok")
    norm_busy = sum(r.seconds / f for r, f in zip(results, factors))
    # with no successful operation the run reports correct=false and 0 latencies
    tail = percentile(ok, spec.tail_percentile) if ok else 0.0
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "norm_latency_p50_ms": (statistics.median(ok) if ok else 0.0, "ms"),
        "norm_latency_tail_ms": (tail, "ms"),
        "norm_verdicts_per_s": (verdicts / norm_busy if norm_busy > 0 else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    n = len(results)
    extra = {
        "ops": n,
        "ok_ops": len(ok),
        "tail_percentile": spec.tail_percentile,
        "ops_above_tail": sum(1 for v in ok if v > tail),
        "failed_share": sum(r.status != "ok" for r in results) / n,
        "wrong_share": sum(r.status == "wrong" for r in results) / n,
        "cycles": len(cycles),
        "verdicts": verdicts,
        "busy_s": sum(r.seconds for r in results),
        "setup_samples_s": setup,
        "host_speed_factor_median": statistics.median(factors),
        "wall_latency_p50_ms": statistics.median(ok_raw) if ok_raw else 0.0,
        "wall_latency_tail_ms": percentile(ok_raw, spec.tail_percentile) if ok_raw else 0.0,
        "wall_verdicts_per_s": _verdict_rate(results),
    }
    return metrics, extra


def per_layer(tracer: Tracer, verdicts: int, overhead: float, imports: dict, defects: dict) -> dict:
    v = max(verdicts, 1)

    def calls(*names):
        return sum(tracer.calls.get(n, 0) for n in names) / v

    def total_ms(*names):
        return sum(tracer.total.get(n, 0.0) for n in names) * 1000.0 / v

    def self_ms(name):
        return tracer.self_time.get(name, 0.0) * 1000.0 / v

    closed = ("positivity.is_positive", "positivity.is_completely_positive", "positivity.is_completely_copositive")
    c = tracer.counts
    m = {
        "cli.build_parser.ms": total_ms("cli.build_parser"),
        "cli.main.self_ms": self_ms("cli.main"),
        "reporting.to_json.ms": total_ms("reporting.to_json"),
        "faces.classify_face.calls": calls("faces.classify_face"),
        "faces.classify_face.self_ms": self_ms("faces.classify_face"),
        "positivity.closed_forms.calls": calls(*closed),
        "positivity.closed_forms.ms": total_ms(*closed),
        "spanning.sampled_kernel_vectors.calls": calls("spanning.sampled_kernel_vectors"),
        "spanning.sampled_kernel_vectors.self_ms": self_ms("spanning.sampled_kernel_vectors"),
        "spanning.kernel_membership.calls": calls("spanning.kernel_membership"),
        "spanning.kernel_membership.ms": total_ms("spanning.kernel_membership"),
        "spanning.has_spanning_property.self_ms": self_ms("spanning.has_spanning_property"),
        "spanning.has_cospanning_property.self_ms": self_ms("spanning.has_cospanning_property"),
        "optimality.optimality_probe.calls": calls("optimality.optimality_probe"),
        "optimality.optimality_probe.self_ms": self_ms("optimality.optimality_probe"),
        "optimality.orthocomplement_basis.ms": total_ms("optimality.orthocomplement_basis"),
        "optimality.vertex_optimality_analytic.ms": total_ms("optimality.vertex_optimality_analytic"),
        "optimality.cooptimality_subtraction.ms": total_ms("optimality.cooptimality_subtraction"),
        "optimality.classify_optimality.self_ms": self_ms("optimality.classify_optimality"),
        "positivity.block_positivity_oracle.calls": calls("positivity.block_positivity_oracle"),
        "positivity.block_positivity_oracle.ms": total_ms("positivity.block_positivity_oracle"),
        "witness.build_witness.self_ms": self_ms("witness.build_witness"),
        "maps.choi_matrix.calls": calls("maps.choi_matrix"),
        "maps.choi_matrix.ms": total_ms("maps.choi_matrix"),
        "numpy.eig.calls": c["numpy.eig.calls"] / v,
        "numpy.eig.matrices": c["numpy.eig.matrices"] / v,
        "numpy.svd.calls": c["numpy.svd.calls"] / v,
        "numpy.det.calls": c["numpy.det.calls"] / v,
        "scipy.minimize.calls": c["scipy.minimize.calls"] / v,
        "scipy.minimize.nfev": c["scipy.minimize.nfev"] / v,
        "scipy.minimize.nit": c["scipy.minimize.nit"] / v,
        "scipy.minimize.improved_share": (
            c["scipy.minimize.improved"] / c["scipy.minimize.calls"] if c["scipy.minimize.calls"] else 0.0
        ),
        "setup.import_numpy_ms": imports["numpy"],
        "setup.import_scipy_ms": imports["scipy"],
        "setup.import_choimaps_self_ms": imports["choimaps"],
        "trace.overhead_share": overhead,
    }
    for key, row in defects.items():
        kind, stratum = key.split(":")
        m[f"defects.{kind}.{stratum}.failed_share"] = row["failed"] / row["attempted"]
    return {name: (value, _unit(name)) for name, value in m.items()}


def _unit(name: str) -> str:
    if name.startswith("setup."):
        return "ms"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("ms"):
        return "ms/verdict"
    return "count/verdict"


def machine() -> dict:
    """Versions of the libraries the program imported.  The benchmark itself
    imports only numpy (reference.py), which the program imports anyway."""
    info = {"nproc": os.cpu_count(), "python": platform.python_version()}
    for lib in ("numpy", "scipy"):
        info[lib] = getattr(sys.modules.get(lib), "__version__", None)
    info["blas_threads"] = {var: os.environ[var] for var in BLAS_VARS}
    info["platform"] = platform.platform()
    return info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true", help="two operations per workload, one setup spawn")
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    if not (SRC / "choimaps" / "cli.py").is_file():
        sys.stderr.write(f"bench: no program sources under {SRC}\n")
        return 2
    for var in BLAS_VARS:  # before the program imports numpy; spawns inherit it
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import choimaps
    import choimaps.cli

    if Path(choimaps.__file__).resolve().parent != (SRC / "choimaps").resolve():
        sys.stderr.write(f"bench: imported choimaps from {choimaps.__file__}, not from {SRC}\n")
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    out_csv = str(OUT / f"sweep-{tag}-{os.getpid()}.csv")
    # set-up spawns before and after the timed loop, so the median samples
    # the host at two moments
    spawns = 1 if args.smoke else SETUP_SPAWNS // 2
    setup = [] if args.trace else measure_setup(spawns)
    runner = wl.Runner(choimaps.cli, choimaps)

    warm = wl.cycle_ops(args.workload, wl.stream(args.workload, args.seed, "warmup"), out_csv)
    run_ops(runner, warm[:WARMUP_OPS])
    dops = wl.defect_ops(wl.stream(args.workload, args.seed, "defects"))
    defects = tally(dops, run_ops(runner, dops))

    report: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": machine()}
    rng = wl.stream(args.workload, args.seed, "timed")
    if args.trace:
        n_cycles = max(1, round(args.seconds / 4.0 / wl.WORKLOADS[args.workload].nominal_cycle_s))
        op_cycles = [wl.cycle_ops(args.workload, rng, out_csv) for _ in range(n_cycles)]
        if args.smoke:
            op_cycles = [op_cycles[0][:SMOKE_OPS]]
        # each cycle untraced, then traced, so drift on the host hits both alike
        tracer = Tracer()
        base, results = [], []
        for cycle in op_cycles:
            base += run_ops(runner, cycle)
            tracer.install()
            try:
                results += run_ops(runner, cycle, tracer)
            finally:
                tracer.uninstall()
        checked_ops = [op for cycle in op_cycles for op in cycle] * 2
        checked = base + results
        tracer.write(OUT / f"spans-{tag}.json.gz")
        verdicts = sum(r.verdicts for r in results if r.status == "ok")
        base_rate = _verdict_rate(base)
        overhead = 1.0 - _verdict_rate(results) / base_rate if base_rate > 0 else 0.0
        metrics = per_layer(tracer, verdicts, overhead, import_self_times(), defects)
        report["span_count"] = len(tracer.start)
        report["counts"] = {**tracer.counts, "calls": tracer.calls}
    else:
        op_cycles, result_cycles, factors, speed = timed_loop(
            runner, args.workload, rng, args.seconds, out_csv, SMOKE_OPS if args.smoke else None
        )
        if not args.smoke:
            setup += measure_setup(SETUP_SPAWNS - spawns)
        metrics, extra = end_to_end(args.workload, result_cycles, factors, setup)
        report.update(extra, **speed, op_wall_s=[r.seconds for cycle in result_cycles for r in cycle])
        checked_ops = [op for cycle in op_cycles for op in cycle]
        checked = [r for cycle in result_cycles for r in cycle]
    Path(out_csv).unlink(missing_ok=True)

    strata = tally(checked_ops, checked)
    failed = sum(r.status != "ok" for r in checked)
    report.update(strata=strata, defects=defects, metrics={k: v for k, (v, _) in metrics.items()})
    report_path = OUT / f"report-{tag}.json"
    report_path.write_text(json.dumps(report, indent=1, default=str) + "\n")

    _print_tables(report)
    sys.stderr.write(f"every failure and latency: {report_path}\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _print_tables(report: dict) -> None:
    err = sys.stderr
    err.write(f"machine: {json.dumps(report['machine'])}\n")
    for title, table in (("timed operations", report["strata"]), ("known-defect probe", report["defects"])):
        err.write(f"{title}:\n")
        for key, row in table.items():
            share = row["failed"] / row["attempted"]
            err.write(f"  {key:28s} attempted={row['attempted']:5d} failed_share={share:.3f} wrong={row['wrong']}\n")
            if row["failures"]:
                err.write(f"    first failure: {json.dumps(row['failures'][0])}\n")
    if "tail_percentile" in report:
        err.write(
            f"latency tail = p{report['tail_percentile']} over {report['ok_ops']} ops, "
            f"{report['ops_above_tail']} above it; host speed factor {report['host_speed_factor_median']:.3f} "
            f"(wall p50 {report['wall_latency_p50_ms']:.4g} ms); failed_share={report['failed_share']:.4f} "
            f"wrong_share={report['wrong_share']:.4f}\n"
        )


if __name__ == "__main__":
    sys.exit(main())
