"""opflow benchmark: one workload per invocation, one closed-loop client.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--workload all`` runs every workload, each
in its own process.  With ``--trace 0`` the run measures the end-to-end
metrics; with ``--trace 1`` it runs the same fixed units once untraced and
once traced, and reports per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Details (run record, named
metrics, checks, per-layer table, spans) go to ``perfbench/out/``.  Any
failed check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_THREADS = 1
SETUP_REPEATS = 5  # set-up runs at least this often; setup_s is their median
SETUP_MIN_S = 1.0  # cheap set-ups repeat until this much time is spent
SETUP_MAX_REPEATS = 50

# Pin BLAS threads before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def import_opflow() -> None:
    """Import opflow from this checkout's ``src``, and from nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import opflow

    if Path(opflow.__file__).resolve().parent != ROOT / "src" / "opflow":
        raise ImportError(f"opflow imported from {opflow.__file__}, not from {ROOT / 'src'}")


def run_record(workload, seed: int, seconds: int, trace: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def measure_units(bench, n_min: int, seconds: float | None) -> tuple[int, float]:
    """Run units until ``n_min`` are done and, if given, ``seconds`` have passed."""
    start = time.perf_counter()
    units = 0
    while units < n_min or (seconds is not None and time.perf_counter() - start < seconds):
        bench.unit = units
        bench.run_unit(units)
        units += 1
    return units, time.perf_counter() - start


def run_one(name: str, seed: int, seconds: int, trace: int) -> int:
    import_opflow()
    import workloads
    import tracing
    from reference import NOMINAL_S, Reference

    bench = workloads.WORKLOADS[name](seed)
    reference = Reference()
    setups: list[tuple[float, float]] = []  # (start, seconds)
    while len(setups) < SETUP_REPEATS or (
        sum(s for _, s in setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPEATS
    ):
        start = time.perf_counter()
        bench.setup()
        setups.append((start, time.perf_counter() - start))
        reference.sample()

    details: dict = {"record": run_record(name, seed, seconds, trace)}
    details["record"]["setup_repeats"] = len(setups)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{trace}"
    if trace:
        units, untraced_s = measure_units(bench, bench.traced_units, None)
        bench.reset_timing()
        tracer = tracing.Tracer()
        bench.tracer = tracer
        tracer.install(callers=[workloads])
        try:
            _, traced_s = measure_units(bench, units, None)
        finally:
            tracer.uninstall()
            bench.tracer = None
        metrics = tracing.per_layer_metrics(tracer.spans)
        metrics["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
        units_of = {key: tracing.metric_unit(key) for key in metrics}
        table = tracing.layer_table(tracer.spans, traced_s)
        details["traced_units"] = units
        details["untraced_s"] = untraced_s
        details["traced_s"] = traced_s
        details["layers"] = table
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            for i, span in enumerate(tracer.spans):
                fh.write(json.dumps([i, span.name, span.start, span.end, span.parent, span.request, span.counts]) + "\n")
        print(f"per-layer table, {name}, {units} units traced ({traced_s:.3f} s traced, {untraced_s:.3f} s untraced)")
        print(f"  {'layer':<16}{'calls':>10}{'self ms':>14}{'share %':>10}")
        for row in table:
            print(f"  {row['layer']:<16}{row['calls']:>10}{row['self_ms']:>14.2f}{row['share_pct']:>10.1f}")
        print(f"  tracing overhead: {metrics['trace.overhead_pct']:.1f}% ({traced_s:.3f} s traced vs {untraced_s:.3f} s untraced)")
    else:
        bench.reference = reference
        reference.sample()
        units, _ = measure_units(bench, bench.min_units, seconds)
        reference.sample()
        bench.reference = None
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_s = statistics.median(s for _, s in setups)
        work_per_s, call_p50_ms, call_p99_ms = bench.timings(reference.scale)
        metrics = {
            "setup_s": statistics.median(s * reference.scale(t, t + s) for t, s in setups),
            "peak_rss_mb": peak_rss_mb,
            "work_per_s": work_per_s,
            "call_p50_ms": call_p50_ms,
        }
        units_of = {"setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s", "call_p50_ms": "ms"}
        named = {"setup_s": (setup_s, "s"), **bench.report(), "peak_rss_mb": (peak_rss_mb, "MB")}
        details["named_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
        details["reference"] = {
            "nominal_ms": NOMINAL_S * 1e3,
            "median_ms": reference.median_s() * 1e3,
            "samples": len(reference.seconds),
        }
        details["scaled_call_p99_ms"] = call_p99_ms  # printed, not gated: see README
        details["calls"] = [
            [seconds * 1e3, seconds * reference.scale(start, start + seconds) * 1e3, unit]
            for start, seconds, _, unit in bench.calls
        ]  # raw ms, scaled ms, unit of every timed call
        details["work_unit"] = bench.work_unit
        for key, (value, unit) in named.items():
            print(f"metric {name} {key} {value:.6g} {unit}")
        print(f"  samples: {len(bench.calls)} calls of {bench.work_unit}s (p50/p99 by nearest rank)")
        print(
            f"  host reference kernel: {reference.median_s() * 1e3:.3f} ms median of {len(reference.seconds)} "
            f"samples; the JSON line scales each time to a {NOMINAL_S * 1e3:.1f} ms kernel"
        )

    checks = bench.checks()
    details["checks"] = [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks]
    for check_name, ok, detail in checks:
        print(f"check {check_name}: {'ok' if ok else 'FAILED'} ({detail})")
    failed_checks = sum(1 for _, ok, _ in checks if not ok)
    attempted = bench.attempted + len(checks)
    failed = bench.failed + failed_checks
    details["record"]["counts"] = {"units": units, **bench.counts()}
    details["record"]["parameters"] = workloads.PARAMETERS
    print("record " + json.dumps(details["record"], sort_keys=True))
    stem.with_suffix(".json").write_text(json.dumps(details, indent=1, sort_keys=True) + "\n")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Each workload in its own process, so each peak RSS is its own."""
    code = 0
    for name in ("train", "serve", "replay", "sweep"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        code = max(code, subprocess.run(cmd, check=False).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "serve", "replay", "sweep", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
