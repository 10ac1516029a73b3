"""Per-job output checks.  Each returns (ok, reason, oracle_err, offblock_err).

The gates are the values the program shipped with (oracle 1e-8, off-block
1e-9), fixed here so that a change that loosens them in the program does
not loosen the benchmark.  Every analyze answer is re-derived by the
independent balance in `physics`, and by the closed form where one exists.
"""

from __future__ import annotations

import json
import os

import physics

ORACLE_GATE = 1e-8
OFFBLOCK_GATE = 1e-9
#: relative agreement of omega with the independent ring balance
BALANCE_RTOL = 1e-9
#: relative agreement of omega with a closed form
CLOSED_FORM_RTOL = 1e-12
EXIT_SOLVER = 4
#: how the CLI reports that the solver found no equilibrium; any other exit 4
#: (a RuntimeError elsewhere in the pipeline) is a failed job
NO_SOLUTION_STDERR = ("solver error: solver did not converge",
                      "solver error: solver stalled")


def _balance_error(job, doc) -> float:
    radii = doc["system"]["radii"]
    rings = [(k, m, r, ph) for (k, m, _, ph), r in zip(job.rings, radii)]
    rates = physics.implied_rates(job.n, rings, job.kind, job.gamma)
    omega = doc["releq"]["omega"]
    mine = omega * omega if job.kind == "homogeneous" else omega
    return max(abs(mine - r) / abs(r) for r in rates)


def _degree_problem(job, fac) -> str | None:
    npoints = sum(1 if r[0] == "center" else job.n for r in job.rings)
    per_size = 1 if job.kind == "vortex" else 2
    want_sum = 2 * npoints * per_size
    if fac["sum_lambda_degrees"] != want_sum or \
            sum(b["degree"] for b in fac["blocks"]) != want_sum:
        return "lambda degrees sum to %s, expected %d" % (fac["sum_lambda_degrees"], want_sum)
    coarse = physics.coarse_blocks(job.n, *job.type_abc)
    if list(fac["degree_profile"]) != list(coarse.values()):
        return "degree profile %s, expected %s" % (fac["degree_profile"], list(coarse.values()))
    sizes: dict[str, int] = {}
    for b in fac["blocks"]:
        if b["degree"] != per_size * b["size"]:
            return "block %s: degree %d for size %d" % (b["label"], b["degree"], b["size"])
        base = b["label"].removesuffix("_lead").removesuffix("_rest")
        sizes[base] = sizes.get(base, 0) + b["size"]
    if sizes != coarse:
        return "block sizes %s, expected %s" % (sizes, coarse)
    return None


def _outputs_problem(job, text: str, doc) -> str | None:
    with open(os.path.join(job.out, "report.json"), encoding="utf-8") as fh:
        if fh.read() != text:
            return "report.json differs from the printed report"
    with open(os.path.join(job.out, "factors.csv"), encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    if len(rows) != 1 + len(doc["factorization"]["blocks"]):
        return "factors.csv has %d rows for %d factors" % (
            len(rows) - 1, len(doc["factorization"]["blocks"]))
    for blk in doc["decomposition"]["blocks"]:
        path = os.path.join(job.out, "block_%s.svg" % blk["label"])
        with open(path, encoding="utf-8") as fh:
            if "<svg" not in fh.read(256):
                return "%s is not an SVG document" % path
    return None


def check_analyze(job, code: int, text: str, err: str):
    if code == EXIT_SOLVER and job.expect_exit == EXIT_SOLVER:
        if err.startswith(NO_SOLUTION_STDERR):
            return True, "", None, None
        return False, "exit 4 without a solver failure", None, None
    if code != 0:
        return False, "exit %d, expected %d" % (code, job.expect_exit), None, None
    # exit 0 must carry a verified equilibrium, also for a system the scan
    # found no outer equilibrium for: any equilibrium the solver reaches is
    # a correct answer when the independent balance confirms it
    doc = json.loads(text)
    fac = doc["factorization"]
    oracle = fac["oracle"]["max_rel_error"]
    off = fac["max_off_residual"]
    problem = _degree_problem(job, fac)
    if problem is None and not oracle <= ORACLE_GATE:
        problem = "oracle error %.3g above %.0e" % (oracle, ORACLE_GATE)
    if problem is None and not off <= OFFBLOCK_GATE:
        problem = "off-block residual %.3g above %.0e" % (off, OFFBLOCK_GATE)
    if problem is None and not (doc["solver"]["converged"] and doc["releq"]["is_releq"]):
        problem = "solver reports no relative equilibrium"
    if problem is None:
        err = _balance_error(job, doc)
        if not err <= BALANCE_RTOL:
            problem = "omega off the independent balance by %.3g" % err
    if problem is None and job.closed_omega is not None:
        omega = doc["releq"]["omega"]
        err = abs(omega - job.closed_omega) / abs(job.closed_omega)
        if not err <= CLOSED_FORM_RTOL:
            problem = "omega %r off the closed form %r by %.3g" % (omega, job.closed_omega, err)
    if problem is None and job.out is not None:
        problem = _outputs_problem(job, text, doc)
    return problem is None, problem or "", oracle, off


def check_verify(job, code: int, text: str):
    if code != 0:
        return False, "exit %d, expected 0" % code, None, None
    doc = json.loads(text)
    oracle = off = None
    for item in doc["invariants"]:
        if item["gated"] and item["status"] != "PASS":
            return False, "invariant %r: %s" % (item["name"], item["status"]), None, None
        if "oracle" in item["name"]:
            oracle = item["residual"]
        elif "off-block" in item["name"]:
            off = item["residual"]
    if not doc["passed"]:
        return False, "verdict is not pass", None, None
    if oracle is None or off is None:
        return False, "oracle or off-block invariant missing", None, None
    if not (oracle <= ORACLE_GATE and off <= OFFBLOCK_GATE):
        return False, "oracle %.3g or off-block %.3g above the gates" % (oracle, off), None, None
    return True, "", oracle, off


def check(job, code: int, text: str, err: str):
    """Judge one job from its exit code, standard output and standard error."""
    if job.verb == "verify":
        return check_verify(job, code, text)
    return check_analyze(job, code, text, err)
