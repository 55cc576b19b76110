"""mvarkit benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload fit --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs alternating
untraced and traced passes and prints every per-layer metric with the tracing
overhead. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
non-zero when a correctness gate fails. ``--workload all`` runs each workload
in its own process, one after another.

The package is imported from ``src/`` of the checkout and nowhere else.
BLAS runs single-threaded (set below, before numpy loads).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(BENCH_DIR, ".work")
WORKLOAD_NAMES = ("fit", "rolling", "score", "mc_forecast")
BLAS_THREADS = "1"
SETUP_REPEATS = 3
TAIL_BEYOND = 10         # samples that must lie beyond the tail percentile
TAIL_MAX_PCT = 90.0     # above p90, millisecond jobs on a shared box time the scheduler
MIN_TRACE_PAIRS = 2
MAX_ERRORS_SHOWN = 20

END_TO_END = {   # name -> (unit, better)
    "setup_s": ("s", "lower"),
    "jobs_per_s": ("1/s", "higher"),
    "job_p50_s": ("s", "lower"),
    "job_tail_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "loglik_per_obs": ("nat", "higher"),
    "crps_mean": ("return", "lower"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one mvarkit benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Run every workload in its own process so each reports its own peak memory."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, cwd=ROOT, check=False)
        if proc.returncode != 0:
            print(f"== {name} exited with code {proc.returncode}", flush=True)
            status = 1
    return status


def stamp(seed: int, workload: str) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def tail(times):
    """Wall time at the highest percentile with at least ten samples beyond it.

    The percentile is kept between the median and p90.
    """
    import numpy as np

    n = len(times)
    pct = min(TAIL_MAX_PCT, max(50.0, 100.0 * (n - TAIL_BEYOND) / n))
    return float(np.percentile(times, pct, method="lower")), pct


def run_jobs(wl, indices, errors, tracer=None, span_job_base=0):
    """Run ``indices`` in a closed loop; return (job wall times, failed count).

    A job that raises is counted as failed and reported; gate failures go to ``errors``.
    """
    times, failed = [], 0
    clock = time.perf_counter
    for i in indices:
        if tracer is not None:
            tracer.job_id = span_job_base + i
            tracer.active = True
        t0 = clock()
        try:
            out = wl.run_job(i)
        except Exception as exc:   # a failing job is counted and the loop goes on
            failed += 1
            print(f"job {i} failed: {type(exc).__name__}: {exc}", flush=True)
            continue
        finally:
            if tracer is not None:
                tracer.active = False
        times.append(clock() - t0)
        errors.extend(wl.check(i, out))
    return times, failed


def measure(wl, seconds, errors):
    """Timed phase: jobs until ``seconds`` have passed and the cycle has been run once."""
    times, failed, i = [], 0, 0
    deadline = time.perf_counter() + seconds
    while i < wl.cycle or time.perf_counter() < deadline:
        t, f = run_jobs(wl, [i], errors)
        times += t
        failed += f
        i += 1
    return times, failed, i


def measure_traced(wl, seconds, errors, tracer):
    """Alternate untraced and traced passes over the first ``trace_jobs`` jobs."""
    from tracing import COUNT_METRICS, pass_metrics

    n = wl.trace_jobs
    plain_walls, traced_walls, passes = [], [], []
    failed = attempted = 0
    keep_until = None
    start = time.perf_counter()
    while len(passes) < MIN_TRACE_PAIRS or time.perf_counter() - start < seconds:
        times, f = run_jobs(wl, range(n), errors)
        plain_walls.append(sum(times))
        failed += f
        tracer.counts.clear()
        first = tracer.mark()
        tracer.install()
        try:
            times, f = run_jobs(wl, range(n), errors, tracer, span_job_base=len(passes) * n)
        finally:
            tracer.uninstall()
        traced_walls.append(sum(times))
        failed += f
        attempted += 2 * n
        passes.append(pass_metrics(*tracer.summarize(first, tracer.mark()), tracer.counts, n))
        if keep_until is None:
            keep_until = tracer.mark()
        else:
            tracer.truncate(keep_until)   # spans of the first traced pass are kept for the trace file
    for name in COUNT_METRICS:
        seen = {p[name] for p in passes}
        if len(seen) > 1:
            errors.append(f"count {name} differs between traced passes: {sorted(seen)}")
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    for name in COUNT_METRICS:
        metrics[name] = passes[0][name]
    metrics["trace.overhead_ratio"] = sum(traced_walls) / sum(plain_walls)
    return metrics, attempted, failed, {"passes": len(passes), "jobs_per_pass": n,
                                        "untraced_pass_s": plain_walls, "traced_pass_s": traced_walls}


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if not os.path.isfile(os.path.join(SRC, "mvarkit", "__init__.py")):
        print(f"error: no mvarkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path[:0] = [SRC, BENCH_DIR]
    t0 = time.perf_counter()
    import numpy as np
    import mvarkit
    import workloads
    import_s = time.perf_counter() - t0
    if not os.path.abspath(mvarkit.__file__).startswith(SRC + os.sep):
        print(f"error: mvarkit imported from {mvarkit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    info = stamp(args.seed, args.workload)
    print("stamp " + json.dumps(info), flush=True)
    cls = workloads.WORKLOADS[args.workload]
    errors: list[str] = []
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        setup_times = []
        for r in range(SETUP_REPEATS):
            wl = None
            d = os.path.join(workdir, f"setup-{r}")
            os.mkdir(d)
            t = time.perf_counter()
            wl = cls(args.seed, d)
            wl.warm_up()
            setup_times.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(setup_times)
        print(f"setup: import {import_s:.4f} s + median of {SETUP_REPEATS} input generations "
              f"and warm-ups {statistics.median(setup_times):.4f} s", flush=True)

        if args.trace:
            from tracing import PER_LAYER, Tracer
            tracer = Tracer()
            metrics, attempted, failed, detail = measure_traced(wl, args.seconds, errors, tracer)
            trace_path = os.path.join(WORK_DIR, f"trace-{args.workload}-seed{args.seed}.npz")
            tracer.write(trace_path, {**info, **detail})
            print(f"traced {detail['passes']} passes of {detail['jobs_per_pass']} jobs, each after an "
                  f"untraced pass; spans of the first traced pass in {os.path.relpath(trace_path, ROOT)}")
            out = {}
            for name, unit in PER_LAYER.items():
                print(f"{name}: {metrics[name]!r} {unit}")
                out[name] = {"value": metrics[name], "unit": unit}
        else:
            times, failed, attempted = measure(wl, args.seconds, errors)
            n = len(times)
            print(f"jobs: {attempted} attempted, {n} completed, {failed} failed, "
                  f"failed_frac {failed / attempted!r}, cycle of {wl.cycle} distinct inputs")
            out = {}
            if n:
                tail_s, tail_pct = tail(times)
                print(f"job_tail_s is the p{tail_pct:.2f} of {n} job times")
                values = {
                    "setup_s": setup_s,
                    "jobs_per_s": n / sum(times),
                    "job_p50_s": float(np.median(times)),
                    "job_tail_s": tail_s,
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "loglik_per_obs": wl.loglik_per_obs(),
                    "crps_mean": wl.crps_mean(),
                }
                for name, (unit, better) in END_TO_END.items():
                    print(f"{name}: {values[name]!r} {unit} ({better} is better)")
                    out[name] = {"value": values[name], "unit": unit}
            else:
                errors.append("no job completed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in errors[:MAX_ERRORS_SHOWN]:
        print(f"GATE FAILED: {line}")
    if len(errors) > MAX_ERRORS_SHOWN:
        print(f"... and {len(errors) - MAX_ERRORS_SHOWN} more gate failures")
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}),
          flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
