"""ringstab benchmark: seeded CLI jobs in a closed loop, checked and timed.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for why each was chosen): large-n, verify and
sweep.
One client process (worker.py) runs the jobs back to back, one at a time,
with BLAS pinned to one thread, calling ringstab.cli.main in-process on
generated config files with --format machine.

Prints every metric by name with its unit and sample count, the environment
and the output-check verdict, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
separate traced run (spans are written under perfbench/work/).

``jobs_per_s`` is correct jobs per second of the program's own time: the
number of correct jobs over the sum of their timed ``cli.main`` calls.  The
benchmark's work between jobs (clearing output directories, the output
checks) is left out, so it equals one over the mean job time.

Set-up time is measured from starting a worker process to its READY line
(interpreter start, ``import ringstab``, input generation): four set-up-only
workers plus the measuring worker, median reported.  Exits non-zero without
a result when the program's sources are missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("large-n", "verify", "sweep")
SETUP_ONLY_RUNS = 4
#: a run must end within this many seconds
RUN_LIMIT_S = 170.0
#: digits are capped here so an exact zero error reads as a number
DIGITS_CAP = 16.0

END_TO_END = (("setup_s", "s"), ("jobs_per_s", "jobs/s"), ("job_s.p50", "s"),
              ("job_s.p90", "s"), ("peak_rss_mb", "MB"), ("oracle_digits", "digits"),
              ("offblock_digits", "digits"))
#: per-layer metrics not in seconds
PER_LAYER_UNITS = {
    "symbasis.projector_calls": "count", "symbasis.averaging_calls": "count",
    "dynamics.gradient_calls": "count", "geometry.build_calls": "count",
    "stability.block_factor_calls": "count", "svg.files": "count",
    "dynamics.solve_iters": "count", "stability.max_block": "count",
    "symbasis.sigma_bytes": "bytes", "report.bytes": "bytes",
    "stability.det_flops": "flops",
    "dynamics.solve_rel_residual": "ratio", "symbasis.basis_cond": "ratio",
    "stability.oracle_rel_err": "ratio", "stability.offblock_residual": "ratio",
    "stability.eig_backward_err": "ratio",
}


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    return env


def start_worker(args, workdir: str, setup_only: bool, deadline: float):
    """Start a worker and wait for READY; returns (process, set-up seconds)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        stop(proc, deadline)
        raise RuntimeError("worker did not become ready (exit %s)" % proc.returncode)
    return proc, ready


def stop(proc, deadline: float) -> str:
    """Collect the rest of the worker's output, killing it at the deadline."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    return out


def digits(err: float) -> float:
    return min(DIGITS_CAP, -math.log10(err)) if err > 0 else DIGITS_CAP


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile of a non-empty list."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(SRC, "ringstab", "cli.py")):
        print("error: no ringstab sources under %s" % SRC, file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    base = os.path.join(HERE, "work", "%s-seed%d-%d" % (args.workload, args.seed, os.getpid()))

    setups = []
    try:
        if not args.trace:
            for i in range(SETUP_ONLY_RUNS):
                proc, ready = start_worker(args, "%s-setup%d" % (base, i), True, deadline)
                stop(proc, deadline)
                if proc.returncode != 0:
                    raise RuntimeError("set-up worker exited %d" % proc.returncode)
                setups.append(ready)
        proc, ready = start_worker(args, base, False, deadline)
        setups.append(ready)
        out = stop(proc, deadline)
    except (RuntimeError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    lines = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
    if proc.returncode != 0 or not lines:
        print("error: worker exited %s without a result" % proc.returncode, file=sys.stderr)
        return 1
    res = json.loads(lines[-1][len("RESULT "):])

    env = dict(res["env"], seed=args.seed, workload=args.workload,
               calib_start_s=res["calib_s"][0], calib_end_s=res["calib_s"][1])
    print("env " + json.dumps(env, sort_keys=True))
    for f in res["failures"]:
        print("FAILED %s" % f)
    samples = res["job_s"]
    correct = res["failed"] == 0 and len(samples) > 0
    if args.trace:
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS.get(k, "s")}
                   for k, v in sorted(res["per_layer"].items())}
        print("spans: %d written to %s" % (res["spans"]["count"],
                                           os.path.relpath(res["spans"]["path"], ROOT)))
        counts = {}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "jobs_per_s": len(samples) / sum(samples) if samples else 0.0,
            "job_s.p50": percentile(samples, 0.5) if samples else 0.0,
            "job_s.p90": percentile(samples, 0.9) if samples else 0.0,
            "peak_rss_mb": res["peak_rss_mb"],
            "oracle_digits": digits(res["worst_oracle"]),
            "offblock_digits": digits(res["worst_offblock"]),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
        counts = {"setup_s": len(setups), "jobs_per_s": len(samples),
                  "job_s.p50": len(samples), "job_s.p90": len(samples),
                  "oracle_digits": len(samples), "offblock_digits": len(samples)}
    for name, m in metrics.items():
        extra = "  (n=%d)" % counts[name] if name in counts else ""
        print("%-32s %16.6g %s%s" % (name, m["value"], m["unit"], extra))
    if res["no_solution"]["exit_4"] or res["no_solution"]["exit_0"]:
        print("no-equilibrium jobs: %d exited 4, %d exited 0 with a confirmed equilibrium"
              % (res["no_solution"]["exit_4"], res["no_solution"]["exit_0"]))
    print("output checks: %s (%d attempted, %d failed, fail_share %.4g)"
          % ("PASS" if correct else "FAIL", res["attempted"], res["failed"],
             res["failed"] / max(res["attempted"], 1)))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
