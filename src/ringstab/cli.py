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
from .dynamics import (Potential, ReleqSolution, StabilityOperator,
                       equivariance_residual, hessian_fd_residual,
                       solve_releq, stability_operator,
                       translation_kernel_residual)
from .geometry import RingSystem
from .report import (block_matches, build_report, factors_csv,
                     format_invariant_line, to_machine, to_text)
from .stability import (OFF_BLOCK_TOL, ORACLE_TOL, FactorizationReport,
                        factorize)
from .svg import emit_svg
from .symbasis import (SymBasis, assemble_global_basis, gram_residual,
                       isotypic_decomposition, j_relations_check,
                       projector_algebra_check, projector_family,
                       symplectic_residuals)

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


def _tol(args, cfg: JobConfig, name: str, default: float) -> float:
    if args.tol is not None:
        return args.tol
    return cfg.tolerances.get(name, default)


def _reversed_residual(op: StabilityOperator) -> float:
    """||releq_residual at -omega||, from the gradient the operator took."""
    return float(np.linalg.norm(op.residual_at(-op.omega)))


def invariant_suite(op: StabilityOperator, basis: SymBasis,
                    fac: FactorizationReport,
                    tol_invariants: float | None = None,
                    tol_off: float = OFF_BLOCK_TOL,
                    tol_oracle: float = ORACLE_TOL) -> tuple[list[dict], bool]:
    """One entry per invariant; second value is the gated verdict.

    The projector family of op's system is built once and shared by the
    projector checks; the operator checks read op, the operator that fac
    factored.
    """

    def t(default: float) -> float:
        return tol_invariants if tol_invariants is not None else default

    items: list[dict] = []

    def add(name, residual, threshold, status=None, gated=True):
        if status is None:
            status = "PASS" if residual <= threshold else "FAIL"
        items.append({"name": name, "residual": float(residual),
                      "threshold": threshold, "status": status, "gated": gated})

    fam = projector_family(op.system)
    pa = projector_algebra_check(fam, tol=t(1e-11))
    add("projector algebra + completeness", pa.max_residual, t(1e-11))
    jr = j_relations_check(fam, tol=t(1e-11))
    add("J relations", jr.max_residual, t(1e-11))
    try:
        isotypic_decomposition(fam)
        add("multiplicity ranks", 0.0, "exact", status="PASS")
    except ValueError:
        add("multiplicity ranks", 1.0, "exact", status="FAIL")
    add("equivariance of A", equivariance_residual(op, fam.action), t(1e-9))
    add("hessian vs finite differences", hessian_fd_residual(op), t(1e-5))
    add("translation kernel of A", translation_kernel_residual(op), t(1e-9))
    g = gram_residual(basis)
    if basis.m_orthogonal == "partial" or not basis.normalized:
        # mixed signs leave the mass form indefinite; orthogonality is then
        # reported but never gated
        add("basis M-orthogonality", g, t(1e-10), status="PARTIAL", gated=False)
    else:
        add("basis M-orthogonality", g, t(1e-10))
    add("off-block residual", fac.max_off_residual, tol_off)
    if fac.oracle is not None:
        add("factor product vs dense oracle", fac.oracle.max_rel_error, tol_oracle)
    if op.is_releq and fac.classical:
        add("classical eigenvector identities", max(fac.classical.values()), t(1e-8))
    else:
        add("classical eigenvector identities", 0.0, "-",
            status="SKIP (not a relative equilibrium)", gated=False)
    sy = symplectic_residuals(fam)
    add("symplectic pairing diagnostics", max(sy.values()), "-", status="INFO", gated=False)

    ok = all(i["status"] == "PASS" for i in items if i["gated"])
    return items, ok


def _pipeline(cfg: JobConfig, args):
    sysm = cfg.system()
    pot = cfg.potential()
    sysm, omega, sol = _resolve_omega(cfg, sysm, pot)
    op = stability_operator(sysm, pot, omega)
    basis = assemble_global_basis(sysm)
    fac = factorize(op, basis, tol_off=_tol(args, cfg, "off_block", OFF_BLOCK_TOL))
    return sysm, pot, op, basis, fac, sol


def _write_outputs(args, cfg: JobConfig, sysm, basis, fac, report: str):
    """Write the files the config asks for; report is the rendered report,
    the text analyze printed."""
    if not args.out:
        return
    os.makedirs(args.out, exist_ok=True)
    if cfg.outputs.get("report", True):
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
    sysm, pot, op, basis, fac, sol = _pipeline(cfg, args)
    rev = _reversed_residual(op)
    doc = build_report(cfg, sysm, op=op, basis=basis, fac=fac, solution=sol,
                       reversed_residual=rev)
    if args.block is not None:
        doc["factorization"]["blocks"] = [
            b for b in doc["factorization"]["blocks"]
            if block_matches(b["label"], args.block)]
    report = to_machine(doc) if args.format == "machine" else to_text(doc)
    print(report, end="")
    _write_outputs(args, cfg, sysm, basis, fac, report)
    tol_oracle = _tol(args, cfg, "oracle", ORACLE_TOL)
    tol_off = _tol(args, cfg, "off_block", OFF_BLOCK_TOL)
    ok = fac.max_off_residual <= tol_off and \
        fac.oracle is not None and fac.oracle.max_rel_error <= tol_oracle
    return EXIT_OK if ok else EXIT_GATE


def _cmd_verify(cfg: JobConfig, args) -> int:
    sysm, pot, op, basis, fac, sol = _pipeline(cfg, args)
    items, ok = invariant_suite(
        op, basis, fac,
        tol_invariants=args.tol if args.tol is not None else cfg.tolerances.get("invariants"),
        tol_off=_tol(args, cfg, "off_block", OFF_BLOCK_TOL),
        tol_oracle=_tol(args, cfg, "oracle", ORACLE_TOL))
    if args.format == "machine":
        doc = build_report(cfg, sysm, op=op, basis=basis, solution=sol, invariants=items)
        doc["passed"] = ok
        print(to_machine(doc), end="")
    else:
        for item in items:
            print(format_invariant_line(item))
        print("verdict: %s" % ("pass" if ok else "FAIL"))
    return EXIT_OK if ok else EXIT_GATE


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
    blocks = basis.blocks
    if args.block is not None:
        blocks = [b for b in basis.blocks if block_matches(b.label, args.block)]
        if not blocks:
            print("unknown block label %r; available: %s"
                  % (args.block, " ".join(b.label for b in basis.blocks)),
                  file=_sys.stderr)
            return EXIT_CONFIG
    paths = [emit_svg(sysm, None, os.path.join(out, "system.svg"), title="system")]
    for blk in blocks:
        for i, col in enumerate(blk.cols):
            paths.append(emit_svg(
                sysm, col, os.path.join(out, "col%03d_%s.svg" % (col, blk.label)),
                basis=basis.matrix, title="%s column %d" % (blk.label, i)))
    for p in paths:
        print(p)
    return EXIT_OK


def _cmd_oracle(cfg: JobConfig, args) -> int:
    sysm, pot, op, basis, fac, sol = _pipeline(cfg, args)
    orc = fac.oracle
    tol_oracle = _tol(args, cfg, "oracle", ORACLE_TOL)
    ok = orc.max_rel_error <= tol_oracle
    if args.format == "machine":
        doc = build_report(cfg, sysm, op=op, basis=basis, fac=fac, solution=sol)
        doc["oracle_passed"] = bool(ok)
        print(to_machine(doc), end="")
    else:
        for t, e in zip(orc.samples, orc.rel_errors):
            print("lambda=%+.6f  rel_error=%.3e" % (t, e))
        print("max rel error %.3e threshold %.3e -> %s"
              % (orc.max_rel_error, tol_oracle, "pass" if ok else "FAIL"))
    return EXIT_OK if ok else EXIT_GATE


_COMMANDS = {
    "analyze": _cmd_analyze,
    "verify": _cmd_verify,
    "releq": _cmd_releq,
    "diagram": _cmd_diagram,
    "oracle": _cmd_oracle,
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
    for name, help_ in (("analyze", "full pipeline: solve, decompose, factor, report"),
                        ("verify", "run every invariant suite, one line each"),
                        ("releq", "solve or check the relative equilibrium only"),
                        ("diagram", "emit SVG diagrams of basis columns"),
                        ("oracle", "compare factor product against the dense determinant")):
        q = sub.add_parser(name, help=help_)
        q.add_argument("--config", required=True, help="path to the job config")
        q.add_argument("--out", default=None, help="directory for output files")
        q.add_argument("--tol", type=float, default=None,
                       help="override every gate threshold with this value")
        q.add_argument("--format", choices=("text", "machine"), default="text")
        q.add_argument("--block", default=None,
                       help="restrict diagrams/factors to one block label")
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
        return _COMMANDS[args.command](cfg, args)
    except RuntimeError as exc:
        print("solver error: %s" % exc, file=_sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print("error: %s" % exc, file=_sys.stderr)
        return EXIT_GATE


if __name__ == "__main__":
    _sys.exit(main())
