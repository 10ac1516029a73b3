"""Benchmark worker: one client process running jobs in a closed loop.

Started by run.py with BLAS pinned to one thread and ``src`` on the path.
It imports ringstab, writes the workload's config files, prints ``READY``
(the end of set-up), then runs jobs back to back through
``ringstab.cli.main`` until the time is up, checks every job's output, and
prints one ``RESULT`` JSON line.  With ``--setup-only`` it exits after
``READY``.  With ``--trace 1`` each job runs twice in a row, untraced then
traced, over whole passes of the job list, so the tracing overhead is
measured on identical work and the per-job counts repeat exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

import ringstab
from ringstab import cli

import checks
import workloads


def calibrate() -> float:
    """Median time of a fixed NumPy + pure-Python reference kernel, so that
    host-speed drift shows beside the metrics."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((160, 160)) + 160.0 * np.eye(160)
    b = rng.standard_normal(160)
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        for _ in range(30):
            np.linalg.solve(a, b)
            a @ a
        acc = 0
        for i in range(100000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_job(job) -> tuple[int, str, float, str]:
    if job.out is not None:
        shutil.rmtree(job.out, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:                 # a crash is a failed job, not a dead run
        code = -1
        err.write(traceback.format_exc(limit=-3))
    return code, out.getvalue(), time.perf_counter() - t0, err.getvalue()


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    try:
        jobs = workloads.generate(args.workload, args.seed, args.workdir)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        result = measure(args, jobs)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def measure(args, jobs) -> dict:
    calib = [calibrate()]
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    samples, failures = [], []
    oracle = offblock = 0.0
    overhead = []
    attempted = 0
    #: exits of the correct jobs expected to find no equilibrium
    no_solution = {"exit_4": 0, "exit_0": 0}
    start = time.perf_counter()
    while True:
        job = jobs[attempted % len(jobs)]
        if tracer is not None:
            base = run_job(job)[2]
            tracer.install()
            tracer.begin(attempted)
            try:
                code, text, dt, err = run_job(job)
            finally:
                tracer.uninstall()
            tracer.end()
            overhead.append(dt - base)
        else:
            code, text, dt, err = run_job(job)
        attempted += 1
        try:
            ok, why, orc, off = checks.check(job, code, text, err)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            ok, why, orc, off = False, "unreadable output: %r" % exc, None, None
        if ok:
            samples.append(dt)
            if job.expect_exit == checks.EXIT_SOLVER:
                no_solution["exit_%d" % code] += 1
            if orc is not None:
                oracle = max(oracle, orc)
                offblock = max(offblock, off)
        else:
            failures.append("%s: %s %s" % (job.label, why, err.strip()[-300:]))
        elapsed = time.perf_counter() - start
        whole_pass = attempted % len(jobs) == 0
        if elapsed >= args.seconds and (tracer is None or whole_pass):
            break
    calib.append(calibrate())
    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "job_s": samples,
        "no_solution": no_solution,
        "worst_oracle": oracle,
        "worst_offblock": offblock,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calib_s": calib,
        "env": environment(),
    }
    if tracer is not None:
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = statistics.median(overhead)
        metrics["host.calib_s"] = statistics.median(calib)
        result["per_layer"] = metrics
        trace_path = os.path.join(os.path.dirname(args.workdir),
                                  "spans-%s-seed%d.jsonl" % (args.workload, args.seed))
        tracer.write(trace_path)
        result["spans"] = {"count": len(tracer.spans), "path": trace_path}
    return result


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "ringstab": getattr(ringstab, "__version__", "?"),
    }


if __name__ == "__main__":
    sys.exit(main())
