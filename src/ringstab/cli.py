"""Command line driver: analyze, verify, releq, diagram, oracle.

Exit codes: 0 all gated checks pass, 2 validation error, 3 numerical gate
failure, 4 no relative equilibrium found: the solver stalled above the
rounding floor, hit its iteration limit, or a Newton step left the valid
radius domain.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys as _sys

import numpy as np

from .config import ConfigError, JobConfig, parse_config
from .dynamics import (Potential, StabilityOperator, equivariance_residual,
                       hessian_fd_residual, solve_releq, stability_operator,
                       translation_kernel_residual)
from .geometry import RingSystem
from .report import (block_matches, build_report, factors_csv,
                     format_invariant_line, to_machine, to_text)
from .stability import (OFF_BLOCK_TOL, ORACLE_TOL, FactorizationReport,
                        factorize)
from .svg import emit_svg
from .symbasis import (SymBasis, assemble_global_basis, gram_residual,
                       symmetry_certificate)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GATE = 3
EXIT_SOLVER = 4


class SolverFailure(RuntimeError):
    pass


def _resolve_omega(cfg: JobConfig, sysm: RingSystem, pot: Potential):
    """(system, omega, solution|None); solves when the config asks for it."""
    if cfg.omega == "solve":
        sol = solve_releq(sysm, pot, free_radii=cfg.free_radii)
        if not sol.converged:
            raise SolverFailure("solver did not converge: residual %.3g after %d iterations (%s)"
                                % (sol.reduced_norm, sol.iterations, sol.stop))
        return sol.system, sol.omega, sol
    return sysm, float(cfg.omega), None


def _item(name, residual, threshold, status=None, gated=True) -> dict:
    """One reported check; with no status given it passes at residual <= threshold.

    residual is one float, or a dict of named residuals: the item then
    reports the largest, and its name as "worst" (the first on a tie)."""
    item = {"name": name, "threshold": threshold, "gated": gated}
    if isinstance(residual, dict):
        item["worst"] = max(residual, key=residual.get)
        residual = residual[item["worst"]]
    if status is None:
        status = "PASS" if residual <= threshold else "FAIL"
    return {**item, "residual": float(residual), "status": status}


def _verdict(items) -> int:
    """The job's exit code: EXIT_OK when every gated item passes."""
    return EXIT_OK if all(i["status"] == "PASS" for i in items if i["gated"]) else EXIT_GATE


def _factor_gates(fac: FactorizationReport, limit) -> dict[str, dict]:
    """The off-block residual and oracle items, the gates of analyze."""
    return {"off_block": _item("off-block residual", fac.max_off_residual,
                               limit("off_block", OFF_BLOCK_TOL)),
            "oracle": _item("factor product vs dense oracle", fac.oracle.max_rel_error,
                            limit("oracle", ORACLE_TOL))}


def _reversed_residual(op: StabilityOperator) -> float:
    """||releq_residual at -omega||, from the gradient the operator took."""
    return float(np.linalg.norm(op.residual_at(-op.omega)))


def invariant_suite(op: StabilityOperator, basis: SymBasis,
                    fac: FactorizationReport, limit) -> list[dict]:
    """One item per invariant, at the thresholds of limit(key, default),
    the config's tol_<key> when set, else the default.

    The symmetry certificate reads the basis that fac factored, and the
    operator checks read op, the operator that fac factored.
    """
    inv = functools.partial(limit, "invariants")
    items = [_item("basis symmetry certificate", symmetry_certificate(basis), inv(1e-11)),
             _item("equivariance of A", equivariance_residual(op), inv(1e-9)),
             _item("hessian vs complex step", hessian_fd_residual(op), inv(1e-12)),
             _item("translation kernel of A", translation_kernel_residual(op), inv(1e-9))]
    # a full basis has C^T M C = diag(+-1) for masses of any signs; only a
    # partial one, orthogonalized in part by the Euclidean product, is not gated
    partial = basis.m_orthogonal == "partial"
    items.append(_item("basis M-orthogonality", gram_residual(basis), inv(1e-10),
                       status="PARTIAL" if partial else None, gated=not partial))
    items += _factor_gates(fac, limit).values()
    if op.is_releq and fac.classical:
        items.append(_item("classical eigenvector identities", fac.classical, inv(1e-8)))
    else:
        items.append(_item("classical eigenvector identities", 0.0, "-",
                           status="SKIP (not a relative equilibrium)", gated=False))
    return items


def _pipeline(cfg: JobConfig):
    sysm = cfg.system()
    pot = cfg.potential()
    sysm, omega, sol = _resolve_omega(cfg, sysm, pot)
    op = stability_operator(sysm, pot, omega)
    basis = assemble_global_basis(sysm)
    fac = factorize(op, basis, tol_off=cfg.tolerances.get("off_block", OFF_BLOCK_TOL))
    return sysm, op, basis, fac, sol


def _write_outputs(args, cfg: JobConfig, sysm, basis, fac, report: str):
    """Write the report, the text analyze printed, and the files the config
    asks for."""
    if not args.out:
        return
    os.makedirs(args.out, exist_ok=True)
    name = "report.json" if args.format == "machine" else "report.txt"
    with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
        fh.write(report)
    if cfg.outputs.get("csv"):
        with open(os.path.join(args.out, "factors.csv"), "w", encoding="utf-8") as fh:
            fh.write(factors_csv(fac, block=args.block))
    if cfg.outputs.get("svg"):
        for blk in basis.blocks:
            col = blk.start + blk.pairs
            emit_svg(sysm, basis.matrix[:, col],
                     os.path.join(args.out, "block_%s.svg" % blk.label),
                     title=blk.label)


def _cmd_analyze(cfg: JobConfig, args) -> int:
    sysm, op, basis, fac, sol = _pipeline(cfg)
    gates = _factor_gates(fac, cfg.tolerances.get)
    doc = build_report(cfg, sysm, op=op, basis=basis, fac=fac, solution=sol,
                       reversed_residual=_reversed_residual(op),
                       oracle_passed=gates["oracle"]["status"] == "PASS")
    if args.block is not None:
        doc["factorization"]["blocks"] = [
            b for b in doc["factorization"]["blocks"]
            if block_matches(b["label"], args.block)]
    report = to_machine(doc) if args.format == "machine" else to_text(doc)
    print(report, end="")
    _write_outputs(args, cfg, sysm, basis, fac, report)
    return _verdict(gates.values())


def _cmd_verify(cfg: JobConfig, args) -> int:
    sysm, op, basis, fac, sol = _pipeline(cfg)
    items = invariant_suite(op, basis, fac, cfg.tolerances.get)
    code = _verdict(items)
    if args.format == "machine":
        doc = build_report(cfg, sysm, op=op, basis=basis, solution=sol, invariants=items)
        doc["passed"] = code == EXIT_OK
        print(to_machine(doc), end="")
    else:
        for item in items:
            print(format_invariant_line(item))
        print("verdict: %s" % ("pass" if code == EXIT_OK else "FAIL"))
    return code


def _cmd_releq(cfg: JobConfig, args) -> int:
    sysm = cfg.system()
    pot = cfg.potential()
    sysm, omega, sol = _resolve_omega(cfg, sysm, pot)
    op = stability_operator(sysm, pot, omega)
    rev = _reversed_residual(op)
    doc = build_report(cfg, sysm, op=op, solution=sol, reversed_residual=rev)
    print(to_machine(doc) if args.format == "machine" else to_text(doc), end="")
    return EXIT_OK


def _cmd_diagram(cfg: JobConfig, args) -> int:
    sysm = cfg.system()
    basis = assemble_global_basis(sysm)
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    # --block selects whole blocks by the analyze rule, or one half of a
    # lead-pair block by its factor label, LABEL_lead or LABEL_rest
    halves = {label: (blk, cols) for blk in basis.blocks for label, cols in blk.halves()}
    picks = [(blk, blk.cols) for blk in basis.blocks
             if args.block is None or block_matches(blk.label, args.block)]
    if args.block in halves:
        picks = [halves[args.block]]
    if not picks:
        print("unknown block label %r; available: %s"
              % (args.block, " ".join([b.label for b in basis.blocks] + list(halves))),
              file=_sys.stderr)
        return EXIT_CONFIG
    paths = [emit_svg(sysm, None, os.path.join(out, "system.svg"), title="system")]
    for blk, cols in picks:
        for col in cols:
            paths.append(emit_svg(
                sysm, basis.matrix[:, col], os.path.join(out, "col%03d_%s.svg" % (col, blk.label)),
                title="%s column %d" % (blk.label, col - blk.start)))
    for p in paths:
        print(p)
    return EXIT_OK


def _cmd_oracle(cfg: JobConfig, args) -> int:
    sysm, op, basis, fac, sol = _pipeline(cfg)
    orc, gate = fac.oracle, _factor_gates(fac, cfg.tolerances.get)["oracle"]
    code = _verdict([gate])
    if args.format == "machine":
        print(to_machine(build_report(cfg, sysm, op=op, basis=basis, fac=fac, solution=sol,
                                      oracle_passed=code == EXIT_OK)), end="")
    else:
        for t, e in zip(orc.samples, orc.rel_errors):
            print("lambda=%+.6f  rel_error=%.3e" % (t, e))
        print("max rel error %.3e threshold %.3e -> %s"
              % (orc.max_rel_error, gate["threshold"], "pass" if code == EXIT_OK else "FAIL"))
    return code


#: each verb's handler, help and the flags it reads besides --config
_VERBS = {
    "analyze": (_cmd_analyze, "full pipeline: solve, decompose, factor, report",
                ("out", "format", "block")),
    "verify": (_cmd_verify, "run every invariant suite, one line each", ("format",)),
    "releq": (_cmd_releq, "solve or check the relative equilibrium only", ("format",)),
    "diagram": (_cmd_diagram, "emit SVG diagrams of basis columns", ("out", "block")),
    "oracle": (_cmd_oracle, "compare factor product against the dense determinant",
               ("format",)),
}
_FLAGS = {
    "out": dict(default=None, help="directory for output files"),
    "format": dict(choices=("text", "machine"), default="text"),
    "block": dict(default=None, help="restrict diagrams/factors to one block label"),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every main()
    call in the process; parse_args keeps no state in it."""
    from . import __version__
    p = argparse.ArgumentParser(prog="ringstab",
                                description="Symmetry-adapted stability analysis of ring systems.")
    p.add_argument("--version", action="version", version="ringstab %s" % __version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, help_, flags) in _VERBS.items():
        q = sub.add_parser(name, help=help_)
        q.add_argument("--config", required=True, help="path to the job config")
        for flag in flags:
            q.add_argument("--" + flag, **_FLAGS[flag])
    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        for e in exc.errors:
            print("config error: %s" % e, file=_sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print("config error: %s" % exc, file=_sys.stderr)
        return EXIT_CONFIG
    try:
        return _VERBS[args.command][0](cfg, args)
    except RuntimeError as exc:
        print("solver error: %s" % exc, file=_sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print("error: %s" % exc, file=_sys.stderr)
        return EXIT_GATE


if __name__ == "__main__":
    _sys.exit(main())
