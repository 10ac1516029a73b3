"""Span tracing of the program's layers from outside the package.

`Tracer.install` replaces every public function of each layer module, at
every module attribute of the package that refers to it, with a wrapper
that records a span (id, parent, job, name, start, end).  Callers look the
functions up through those attributes (``ringstab.cli.solve_releq``,
``ringstab.stability.block_factor``, ``ringstab.symbasis.averaging_operator``),
so nested calls become nested spans.  Only names that exist are wrapped: a
later change that removes a function leaves its metrics at zero.

Spans stay in memory; `write` saves them at the end.  A layer's self time is
the duration of its spans minus the part covered by their child spans.
Accuracy metrics are read from the objects the public functions return,
after the job, outside every span.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time

import numpy as np

LAYERS = ("cli", "config", "geometry", "dynamics", "symbasis", "stability",
          "report", "svg")
#: results kept until the end of the job for the accuracy metrics
_KEEP = {"dynamics.solve_releq", "symbasis.assemble_global_basis",
         "stability.factorize", "stability.block_factor"}
_RENDER = {"report.to_machine", "report.to_text", "report.factors_csv"}

# Which end-to-end metric each per-layer metric should move, and where:
#   symbasis.basis_s, *_calls, sigma_bytes -> job_s.p50, jobs_per_s and
#       peak_rss_mb on large-n; less on sweep
#   symbasis.{projector_algebra,j_relations,isotypic,symplectic}_s,
#       dynamics.{equivariance,hessian_fd,translation_kernel}_s,
#       cli.invariants_s -> job_s.p50 on verify; zero elsewhere
#   dynamics.solve_*, gradient_calls, geometry.build_* -> job_s.p90 on
#       sweep (no-solution jobs); ~5% on large-n
#   dynamics.operator_s, hessian_s (O(N^2) pair loop) -> job_s.p50 on
#       large-n
#   stability.* times, block_factor_calls, det_flops, max_block ->
#       jobs_per_s on sweep; tiny on large-n (blocks <= 8)
#   stability.oracle_rel_err, offblock_residual, symbasis.basis_cond ->
#       oracle_digits and offblock_digits everywhere
#   stability.eig_backward_err: diagnostic, no end-to-end metric yet
#   report.*, svg.*, config.parse_s -> jobs_per_s and job_s.p90 on sweep

#: per-layer metric -> the span whose inclusive time (or call count) it sums
INCLUSIVE = {
    "cli.invariants_s": "cli.invariant_suite",
    "config.parse_s": "config.parse_config",
    "geometry.build_s": "geometry.build",
    "dynamics.solve_s": "dynamics.solve_releq",
    "dynamics.operator_s": "dynamics.stability_operator",
    "dynamics.hessian_s": "dynamics.hessian",
    "dynamics.equivariance_s": "dynamics.equivariance_residual",
    "dynamics.hessian_fd_s": "dynamics.hessian_fd_residual",
    "dynamics.translation_kernel_s": "dynamics.translation_kernel_residual",
    "symbasis.basis_s": "symbasis.assemble_global_basis",
    "symbasis.projector_algebra_s": "symbasis.projector_algebra_check",
    "symbasis.j_relations_s": "symbasis.j_relations_check",
    "symbasis.isotypic_s": "symbasis.isotypic_decomposition",
    "symbasis.symplectic_s": "symbasis.symplectic_residuals",
    "stability.factorize_s": "stability.factorize",
    "stability.transform_s": "stability.transform",
    "stability.block_factor_s": "stability.block_factor",
    "stability.oracle_s": "stability.dense_oracle",
    "stability.classical_s": "stability.classical_checks",
    "report.build_s": "report.build_report",
    "svg.emit_s": "svg.emit_svg",
}
CALLS = {
    "symbasis.projector_calls": "symbasis.projector",
    "symbasis.averaging_calls": "symbasis.averaging_operator",
    "dynamics.gradient_calls": "dynamics.gradient",
    "geometry.build_calls": "geometry.build",
    "stability.block_factor_calls": "stability.block_factor",
    "svg.files": "svg.emit_svg",
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.job = -1
        self._stack: list[int] = []
        self._kept: list = []
        self._tables: list = []
        self._installed: list = []
        self.jobs: list[dict] = []      # per traced job: accuracy and counters
        self.cur: dict = {"report_bytes": 0}

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, qual: str, fn):
        spans, stack, kept = self.spans, self._stack, self._kept
        keep = qual in _KEEP
        render = qual in _RENDER
        acc = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (sid, stack[-1] if stack else -1, acc.job, qual, t0, t1)
            if keep:
                kept.append((qual, args, out))
            elif render:
                acc.cur["report_bytes"] += len(out)
            return out

        return wrapper

    def _wrap_sigma_table(self, fn):
        tables = self._tables

        def wrapper(sys):
            out = fn(sys)
            if not any(t is out for t in tables):
                tables.append(out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap each public function of each layer wherever the package
        refers to it."""
        import ringstab
        modules = [ringstab] + [importlib.import_module("ringstab." + m)
                                for m in LAYERS + ("dihedral",)]
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module("ringstab." + layer)
            for name, obj in vars(mod).items():
                if name.startswith("_") or not callable(obj) or isinstance(obj, type):
                    continue
                if getattr(obj, "__module__", None) == mod.__name__:
                    originals[id(obj)] = (obj, self._wrap(layer + "." + name, obj))
        sym = importlib.import_module("ringstab.symbasis")
        table_fn = getattr(sym, "_sigma_table", None)
        if table_fn is not None:
            originals[id(table_fn)] = (table_fn, self._wrap_sigma_table(table_fn))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                    self._installed.append((mod, name, obj))

    def uninstall(self) -> None:
        for mod, name, obj in self._installed:
            setattr(mod, name, obj)
        self._installed.clear()

    # -- per job ------------------------------------------------------------

    def begin(self, job: int) -> None:
        self.job = job
        self.cur = {"report_bytes": 0}

    def end(self) -> None:
        """Turn what the job's calls returned into accuracy and work
        figures; runs outside every span."""
        rec = self.cur
        rec["solves"] = rec["iters"] = 0
        rec["solve_rel"] = rec["basis_cond"] = rec["oracle"] = rec["offblock"] = 0.0
        rec["eig_backward"] = 0.0
        rec["det_flops"] = 0.0
        rec["max_block"] = 0
        for qual, args, out in self._kept:
            if qual == "dynamics.solve_releq":
                rec["solves"] += 1
                rec["iters"] += out.iterations
                if out.converged:
                    rec["solve_rel"] = max(rec["solve_rel"], _solve_rel_residual(args[1], out))
            elif qual == "symbasis.assemble_global_basis":
                rec["basis_cond"] = max(rec["basis_cond"], float(out.cond))
            elif qual == "stability.factorize":
                if out.oracle is not None:
                    rec["oracle"] = max(rec["oracle"], float(out.oracle.max_rel_error))
                rec["offblock"] = max(rec["offblock"], float(out.max_off_residual))
                rec["eig_backward"] = max(rec["eig_backward"], _eig_backward_error(out))
            elif qual == "stability.block_factor":
                size = args[1].shape[0]
                rec["det_flops"] += _determinants(out) * 2.0 / 3.0 * size ** 3
                rec["max_block"] = max(rec["max_block"], size)
        rec["sigma_bytes"] = sum(sum(a.nbytes for a in t.values()) for t in self._tables)
        self._kept.clear()
        self._tables.clear()
        self.jobs.append(rec)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics per traced job (times and counts as means,
        accuracy as the worst job)."""
        jobs = max(len(self.jobs), 1)
        incl: dict[str, float] = {}
        calls: dict[str, int] = {}
        child: dict[int, float] = {}
        for sid, parent, _, name, t0, t1 in self.spans:
            incl[name] = incl.get(name, 0.0) + (t1 - t0)
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (t1 - t0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        for sid, _, _, name, t0, t1 in self.spans:
            self_s[name.split(".", 1)[0]] += (t1 - t0) - child.get(sid, 0.0)
        out = {k: incl.get(v, 0.0) / jobs for k, v in INCLUSIVE.items()}
        out.update({k: calls.get(v, 0) / jobs for k, v in CALLS.items()})
        out.update({"%s.self_s" % layer: self_s[layer] / jobs for layer in LAYERS})
        out["report.render_s"] = sum(incl.get(n, 0.0) for n in _RENDER) / jobs
        recs = self.jobs
        solves = sum(r["solves"] for r in recs)
        out["dynamics.solve_iters"] = sum(r["iters"] for r in recs) / max(solves, 1)
        for key, field in (("report.bytes", "report_bytes"), ("symbasis.sigma_bytes", "sigma_bytes"),
                           ("stability.det_flops", "det_flops")):
            out[key] = sum(r[field] for r in recs) / jobs
        for key, field in (("dynamics.solve_rel_residual", "solve_rel"),
                           ("symbasis.basis_cond", "basis_cond"),
                           ("stability.oracle_rel_err", "oracle"),
                           ("stability.offblock_residual", "offblock"),
                           ("stability.eig_backward_err", "eig_backward"),
                           ("stability.max_block", "max_block")):
            out[key] = max((r[field] for r in recs), default=0.0)
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _solve_rel_residual(pot, sol) -> float:
    """Reduced residual over the force scale omega^k max_i |m_i q_i|."""
    power = 1 if pot.kind == "vortex" else 2
    sysm = sol.system
    scale = abs(sol.omega) ** power * float(np.max(np.abs(sysm.masses[:, None] * sysm.positions)))
    return float(sol.reduced_norm) / max(scale, 1e-300)


def _determinants(factor) -> int:
    """Block determinants one block_factor call evaluates: q + 1 nodes in
    u = lambda^2 plus the mirrored parity probe, and degree + 1 more nodes
    when the factor falls back to full-degree interpolation."""
    q = factor.degree // 2
    return q + 2 + (0 if factor.even else factor.degree + 1)


def _eig_backward_error(fac) -> float:
    """max over reported roots of sigma_min(P_b(lambda)) / sum_k |lambda|^k ||A_k||."""
    worst = 0.0
    for blk in fac.blocks:
        A, J = blk.a_block, blk.j_block
        if A is None or J is None:
            continue
        eye = np.eye(A.shape[0])
        w = fac.omega
        if fac.kind == "vortex":
            coeffs = [A + w * eye, J]
        else:
            coeffs = [A - w * w * eye, 2.0 * w * J, eye]
        norms = [np.linalg.norm(c, 2) for c in coeffs]
        for lam in blk.factor.roots():
            P = sum(c * lam ** k for k, c in enumerate(coeffs))
            smin = np.linalg.svd(P, compute_uv=False)[-1]
            scale = sum(nrm * abs(lam) ** k for k, nrm in enumerate(norms))
            worst = max(worst, float(smin / scale) if scale > 0 else math.inf)
    return worst
