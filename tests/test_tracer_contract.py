"""The benchmark's opt-in tracer (perfbench/tracing.py) reads names of the
program from outside: the public functions it wraps, `BlockReport.a_block`/
`.j_block` and `PolyFactor.roots`.  Run it, loaded unedited from its file,
on one small analyze job and one small verify job, so a change to those
names cannot break `--trace 1` unnoticed.  The benchmark's output checks
(perfbench/checks.py) read `verify`'s machine report, whose item layout is
pinned here too.

The tracer counts only calls of a public `stability.block_factor`, which
no longer exists (`factorize` factors equal-size blocks as one stack), so
the metrics derived from those calls read 0 on every job.  The same holds
for the timers of the four projector checks that `verify` ran before the
symmetry certificate replaced them.  Both are listed here by name, so a
zero elsewhere still fails and a tracer that reads the new names shows up
as a change to these lists."""

import importlib.util
import json
import math
import pathlib

from ringstab import cli

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

CONFIG = """
n = 6
kind = homogeneous
gamma = -1.5
omega = solve
free_radii = 2

[ring]
kind = center
mass = 2.0

[ring]
kind = regular
radius = 1.0
mass = 1.0

[ring]
kind = regular
radius = 1.8
mass = 0.5
phase = pi/n
"""


#: per-layer metrics taken from `block_factor` calls; 0 without that
#: function, and not comparable with runs of code that had it
BLOCK_FACTOR_ZEROS = ("stability.block_factor_calls", "stability.block_factor_s",
                      "stability.det_flops", "stability.max_block")


#: per-layer metrics of the projector checks, which no longer exist
PROJECTOR_CHECK_ZEROS = ("symbasis.projector_algebra_s", "symbasis.j_relations_s",
                         "symbasis.isotypic_s", "symbasis.symplectic_s")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def traced_metrics(verb, tmp_path, capsys) -> dict[str, float]:
    """The tracer's metrics of one job of the verb on CONFIG."""
    cfg = tmp_path / "job.cfg"
    cfg.write_text(CONFIG)
    tracer = load_tracing().Tracer()
    original = cli.factorize
    tracer.install()
    tracer.begin(0)
    try:
        code = cli.main([verb, "--config", str(cfg), "--format", "machine"])
    finally:
        tracer.uninstall()
    tracer.end()
    assert code == 0, capsys.readouterr().err
    assert cli.factorize is original
    return tracer.metrics()


def test_tracer_runs_one_analyze_job(tmp_path, capsys):
    metrics = traced_metrics("analyze", tmp_path, capsys)
    bad = {k: v for k, v in metrics.items() if not math.isfinite(v)}
    assert not bad
    assert {k: metrics[k] for k in BLOCK_FACTOR_ZEROS} == dict.fromkeys(BLOCK_FACTOR_ZEROS, 0.0)
    for key in ("stability.factorize_s", "dynamics.hessian_s", "dynamics.operator_s",
                "report.render_s"):
        assert metrics[key] > 0.0, key
    assert metrics["stability.offblock_residual"] > 0.0
    assert metrics["stability.eig_backward_err"] <= 1e-12
    assert metrics["dynamics.gradient_calls"] == 1
    assert metrics["geometry.build_calls"] == 2


def test_tracer_times_the_verify_checks(tmp_path, capsys):
    metrics = traced_metrics("verify", tmp_path, capsys)
    for key in ("cli.invariants_s", "dynamics.hessian_fd_s", "dynamics.equivariance_s"):
        assert metrics[key] > 0.0, key
    assert {k: metrics[k] for k in PROJECTOR_CHECK_ZEROS} == dict.fromkeys(PROJECTOR_CHECK_ZEROS,
                                                                          0.0)


def test_verify_machine_items_keep_what_the_benchmark_reads(tmp_path, capsys):
    """checks.py finds the oracle and off-block items by name and reads each
    item's status; the items built from named residuals add "worst"."""
    cfg = tmp_path / "job.cfg"
    cfg.write_text(CONFIG)
    outs = []
    for _ in range(2):
        assert cli.main(["verify", "--config", str(cfg), "--format", "machine"]) == 0
        outs.append(capsys.readouterr().out)
    items = json.loads(outs[0])["invariants"]
    names = [item["name"] for item in items]
    assert sum("oracle" in name for name in names) == 1, names
    assert sum("off-block" in name for name in names) == 1, names
    for item in items:
        assert {"name", "residual", "threshold", "status", "gated"} <= set(item), item
    assert [item["name"] for item in items if "worst" in item] == [
        "basis symmetry certificate", "classical eigenvector identities"]
    # byte-identical apart from the timestamp
    stamp = [[l for l in out.splitlines() if '"timestamp"' not in l] for out in outs]
    assert stamp[0] == stamp[1]
