"""Run reports: one nested document, rendered as text or sorted JSON.

The machine rendering is byte-deterministic for a fixed config except for
the timestamp field, which consumers strip before comparing.  Factor
coefficients also go to CSV, one row per factor: label, block size, degree,
then coefficients in ascending order.
"""

from __future__ import annotations

import csv
import datetime
import io
import json

import numpy as np

from .config import JobConfig
from .dynamics import ReleqSolution, StabilityOperator
from .geometry import RingSystem
from .stability import FactorizationReport
from .symbasis import SymBasis, multiplicities

TOOL_NAME = "ringstab"


def _tool_version() -> str:
    from . import __version__
    return __version__


def _plain(obj):
    """Recursively convert numpy scalars/arrays and complex numbers."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return np.stack([obj.real, obj.imag], -1).tolist()
        return obj.tolist()
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def build_report(cfg: JobConfig, sysm: RingSystem, op: StabilityOperator | None = None,
                 basis: SymBasis | None = None, fac: FactorizationReport | None = None,
                 solution: ReleqSolution | None = None,
                 invariants: list[dict] | None = None,
                 reversed_residual: float | None = None,
                 oracle_passed: bool | None = None) -> dict:
    """The report document; oracle_passed is the caller's oracle verdict."""
    a, b, c = sysm.type_abc
    rings = []
    for r in cfg.rings:
        entry = {"kind": r.kind, "mass": r.mass}
        if r.kind != "center":
            entry["radius"] = r.radius
        if r.kind == "regular":
            entry["phase"] = r.phase
        if r.kind == "semiregular":
            entry["half_gap"] = r.half_gap
        rings.append(entry)
    doc = {
        "tool": {"name": TOOL_NAME, "version": _tool_version()},
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": {
            "path": cfg.path,
            "sha256": cfg.source_sha256,
            "n": cfg.n,
            "kind": cfg.kind,
            "gamma": cfg.gamma,
            "omega": cfg.omega,
            "free_radii": list(cfg.free_radii),
        },
        "system": {
            "type": [a, b, c],
            "npoints": sysm.npoints,
            "rings": rings,
            "masses": sysm.masses,
            "radii": [r.radius for r in sysm.rings],
            "multiplicities": multiplicities(sysm.n, a, b, c),
        },
    }
    if solution is not None:
        doc["solver"] = {
            "converged": solution.converged,
            "iterations": solution.iterations,
            "residual": solution.reduced_norm,
            "radii": solution.radii,
        }
    if op is not None:
        doc["releq"] = {
            "omega": op.omega,
            "residual": op.releq_residual_norm,
            "is_releq": op.is_releq,
        }
        if reversed_residual is not None:
            doc["releq"]["residual_reversed_omega"] = reversed_residual
    if basis is not None:
        doc["decomposition"] = {
            "basis_cond": basis.cond,
            "m_orthogonal": basis.m_orthogonal,
            "normalized": basis.normalized,
            "blocks": [{"label": blk.label, "start": blk.start, "pairs": blk.pairs,
                        "lead_pair": blk.lead_pair} for blk in basis.blocks],
        }
    if invariants is not None:
        doc["invariants"] = invariants
    if fac is not None:
        fdoc = {
            "kind": fac.kind,
            "omega": fac.omega,
            "gamma": fac.gamma,
            "is_releq": fac.is_releq,
            "max_off_residual": fac.max_off_residual,
            "degree_profile": fac.degree_profile,
            "lambda_degrees": fac.lambda_degrees,
            "sum_lambda_degrees": int(sum(fac.lambda_degrees)),
            "notes": fac.notes,
            "blocks": [{
                "label": blk.label,
                "size": blk.size,
                "degree": blk.factor.degree,
                "off_residual": blk.off_residual,
                "coefficients": blk.factor.coefficients,
                "roots": blk.factor.roots(),
            } for blk in fac.blocks],
        }
        if fac.oracle is not None:
            fdoc["oracle"] = {
                "samples": fac.oracle.samples,
                "rel_errors": fac.oracle.rel_errors,
                "max_rel_error": fac.oracle.max_rel_error,
                "passed": oracle_passed,
            }
        if fac.classical is not None:
            fdoc["classical"] = fac.classical
        doc["factorization"] = fdoc
    return _plain(doc)


def to_machine(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _fmt_num(x) -> str:
    if isinstance(x, float):
        return "%.12g" % x
    return str(x)


def to_text(doc: dict) -> str:
    out = []
    tool = doc["tool"]
    out.append("%s %s" % (tool["name"], tool["version"]))
    cfg = doc["config"]
    out.append("config: %s (sha256 %s)" % (cfg["path"], cfg["sha256"][:12]))
    s = doc["system"]
    out.append("system: n=%d type (%d,%d,%d), N=%d, kind=%s%s"
               % (cfg["n"], *s["type"], s["npoints"], cfg["kind"],
                  "" if cfg["gamma"] is None else " gamma=%s" % _fmt_num(cfg["gamma"])))
    for i, r in enumerate(doc["system"]["rings"]):
        extra = "".join(" %s=%s" % (k, _fmt_num(v)) for k, v in r.items() if k != "kind")
        out.append("  ring %d: %s%s" % (i, r["kind"], extra))
    if "solver" in doc:
        sv = doc["solver"]
        out.append("solver: converged=%s iterations=%d residual=%s radii=%s"
                   % (sv["converged"], sv["iterations"], _fmt_num(sv["residual"]),
                      " ".join(_fmt_num(x) for x in sv["radii"])))
    if "releq" in doc:
        rq = doc["releq"]
        line = "releq: omega=%s residual=%s -> %s" % (
            _fmt_num(rq["omega"]), _fmt_num(rq["residual"]),
            "relative equilibrium" if rq["is_releq"] else "not a relative equilibrium")
        if "residual_reversed_omega" in rq:
            line += " (reversed omega residual=%s)" % _fmt_num(rq["residual_reversed_omega"])
        out.append(line)
    if "decomposition" in doc:
        d = doc["decomposition"]
        out.append("basis: cond=%s m_orthogonal=%s normalized=%s"
                   % (_fmt_num(d["basis_cond"]), d["m_orthogonal"], d["normalized"]))
        out.append("multiplicities: " + " ".join(
            "%s=%d" % (k, v) for k, v in sorted(doc["system"]["multiplicities"].items())))
    if "factorization" in doc:
        f = doc["factorization"]
        out.append("off-block residual: %s" % _fmt_num(f["max_off_residual"]))
        out.append("degree profile (block dims): %s   lambda degrees: %s   sum=%d"
                   % (f["degree_profile"], f["lambda_degrees"], f["sum_lambda_degrees"]))
        for blk in f["blocks"]:
            coeffs = " ".join(_fmt_num(c) for c in blk["coefficients"])
            out.append("factor %-16s size=%2d degree=%2d  [%s]"
                       % (blk["label"], blk["size"], blk["degree"], coeffs))
        if "oracle" in f:
            out.append("oracle: max rel error %s (%s)"
                       % (_fmt_num(f["oracle"]["max_rel_error"]),
                          "pass" if f["oracle"]["passed"] else "FAIL"))
        if "classical" in f:
            for k in sorted(f["classical"]):
                out.append("classical %-40s %s" % (k, _fmt_num(f["classical"][k])))
        for note in f["notes"]:
            out.append("note: %s" % note)
    return "\n".join(out) + "\n"


def format_invariant_line(item: dict) -> str:
    thr = item["threshold"]
    thr_s = _fmt_num(thr) if isinstance(thr, (int, float)) else str(thr)
    return "%-7s %-34s residual=%-12s threshold=%s" % (
        item["status"], item["name"], _fmt_num(item["residual"]), thr_s)


def block_matches(label: str, wanted: str) -> bool:
    """The --block rule: wanted itself and its split halves (wanted + "_...")."""
    return label == wanted or label.startswith(wanted + "_")


def factor_rows(fac: FactorizationReport) -> list[list]:
    rows = []
    for blk in fac.blocks:
        rows.append([blk.label, blk.size, blk.factor.degree]
                    + blk.factor.coefficients.tolist())
    return rows


def factors_csv(fac: FactorizationReport, block: str | None = None) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["label", "size", "degree", "coefficients..."])
    for row in factor_rows(fac):
        if block is None or block_matches(row[0], block):
            w.writerow(row)
    return buf.getvalue()
