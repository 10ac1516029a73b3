import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ringstab as rs
from ringstab import cli
from ringstab.config import ConfigError, parse_config_text
from ringstab.report import factors_csv, to_machine
from ringstab.svg import emit_svg, render_svg

PENTAGON = """
n = 5
kind = vortex
omega = solve

[ring]
kind = regular
radius = 1.0
mass = 1.0
"""

DOUBLE_SQUARE = """
# centered double square
n = 4
kind = homogeneous
gamma = -1.5
omega = solve
free_radii = 2
csv = true

[ring]
kind = center
mass = 4.0

[ring]
kind = regular
radius = 1.0
mass = 0.5

[ring]
kind = regular
radius = 1.8
mass = 1.0
"""


# Directory that holds the ringstab package this process imported. Children
# run from tmp_path, where a relative PYTHONPATH entry (e.g. "src") no longer
# resolves, so this absolute root goes first on the child's PYTHONPATH.
IMPORT_ROOT = str(Path(rs.__file__).resolve().parents[1])


def child_env():
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = IMPORT_ROOT + (os.pathsep + rest if rest else "")
    return env


def run_cli(args, cwd):
    return subprocess.run([sys.executable, "-m", "ringstab"] + args,
                          capture_output=True, text=True, cwd=cwd, env=child_env())


@pytest.fixture
def pentagon_cfg(tmp_path):
    p = tmp_path / "pentagon.cfg"
    p.write_text(PENTAGON)
    return p


# --- config parsing --------------------------------------------------------

def test_parse_double_square():
    cfg = parse_config_text(DOUBLE_SQUARE, path="inline")
    assert cfg.n == 4
    assert cfg.kind == "homogeneous"
    assert cfg.gamma == -1.5
    assert cfg.omega == "solve"
    assert cfg.free_radii == (2,)
    assert cfg.outputs["csv"] is True
    assert len(cfg.source_sha256) == 64
    assert cfg.system().type_abc == (1, 2, 0)


def test_parse_angle_forms():
    text = "n = 8\nkind = vortex\nomega = 1.0\n[ring]\nkind = regular\nradius = 1\nmass = 1\nphase = pi/n\n"
    cfg = parse_config_text(text, path="inline")
    assert abs(cfg.rings[0].phase - np.pi / 8) < 1e-15
    text = text.replace("phase = pi/n", "phase = 0.0")
    assert parse_config_text(text, path="inline").rings[0].phase == 0.0
    semi = ("n = 6\nkind = vortex\nomega = 1.0\n[ring]\nkind = semiregular\n"
            "radius = 2\nmass = 1\nhalf_gap = pi/24\n")
    assert abs(parse_config_text(semi, path="inline").rings[0].half_gap - np.pi / 24) < 1e-15
    with pytest.raises(ConfigError, match="invalid half_gap 'pi/0'"):
        parse_config_text(semi.replace("pi/24", "pi/0"), path="inline")


def test_parse_collects_all_errors():
    bad = ("n = 1\nkind = fluid\ngamma = -1.0\nbogus = 3\n"
           "[ring]\nkind = regular\nradius = -2\nmass = 0\n")
    with pytest.raises(ConfigError) as ei:
        parse_config_text(bad, path="inline")
    msgs = "\n".join(ei.value.errors)
    assert len(ei.value.errors) >= 4
    assert "n" in msgs and "kind" in msgs
    assert "bogus" in msgs


def test_parse_rejects_gamma_for_vortex():
    text = "n = 3\nkind = vortex\ngamma = -1.5\nomega = 1.0\n[ring]\nkind = regular\nradius = 1\nmass = 1\n"
    with pytest.raises(ConfigError, match="gamma"):
        parse_config_text(text, path="inline")


def test_parse_detects_collision():
    text = ("n = 4\nkind = vortex\nomega = 1.0\n"
            "[ring]\nkind = regular\nradius = 1\nmass = 1\n"
            "[ring]\nkind = regular\nradius = 1\nmass = 2\n")
    with pytest.raises(ConfigError, match="collision"):
        parse_config_text(text, path="inline")


def test_free_radii_index_counts_every_ring_section():
    # ring 0 fails to parse; index 1 still names the center section
    text = ("n = 4\nkind = homogeneous\nomega = solve\nfree_radii = 1\n"
            "[ring]\nkind = regular\nradius = -1\nmass = 1\n"
            "[ring]\nkind = center\nmass = 2\n"
            "[ring]\nkind = regular\nradius = 2\nmass = 1\n")
    with pytest.raises(ConfigError) as ei:
        parse_config_text(text, path="inline")
    assert ei.value.errors == ["ring 0: invalid radius -1 (must be positive)",
                               "free radius index 1 names a center ring"]


RING_CASES = [rs.regular(1.0, 1.0), rs.regular(1.0, 1.0, phase=np.pi / 4),
              rs.regular(1.0, 1.0, phase=np.pi / 4 + 5e-10),
              rs.regular(1.0, 1.0, phase=np.pi / 4 - 5e-10),
              rs.regular(1.0, 1.0, phase=5e-10), rs.regular(1.0, 0.0),
              rs.regular(-1.0, 1.0), rs.regular(np.inf, 1.0),
              rs.semiregular(1.0, np.pi / 8, 1.0), rs.semiregular(1.0, 0.0, 1.0),
              rs.semiregular(1.0, np.pi / 4, 1.0)]


@pytest.mark.parametrize("spec", RING_CASES)
def test_config_admits_a_ring_exactly_when_build_does(spec):
    text = ("n = 4\nkind = vortex\nomega = 1\n[ring]\nkind = center\nmass = 2\n"
            "[ring]\nkind = %s\nmass = %r\nradius = %r\n" % (spec.kind, spec.mass, spec.radius))
    text += ("phase = %r\n" % spec.phase if spec.kind == "regular"
             else "half_gap = %r\n" % spec.half_gap)
    try:
        rs.build(4, [rs.center(2.0), spec])
    except ValueError as exc:
        assert str(exc).startswith("ring 1: ")
        with pytest.raises(ConfigError) as ei:
            parse_config_text(text, path="inline")
        assert ei.value.errors == [str(exc)]
    else:
        assert parse_config_text(text, path="inline").rings[1] == spec


def test_system_rules_are_not_judged_on_a_subset_of_rings():
    text = ("n = 4\nkind = vortex\nomega = 1\n[ring]\nkind = center\nmass = 2\n"
            "[ring]\nkind = regular\nmass = 1\nradius = -1\n")
    with pytest.raises(ConfigError) as ei:
        parse_config_text(text, path="inline")
    assert ei.value.errors == ["ring 1: invalid radius -1 (must be positive)"]


@pytest.mark.parametrize("verb", ["analyze", "verify", "oracle"])
@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_tol_must_be_positive_and_finite(verb, tol, pentagon_cfg, capsys):
    with pytest.raises(SystemExit) as ei:
        cli.main([verb, "--config", str(pentagon_cfg), "--tol", tol])
    assert ei.value.code == 2
    assert "argument --tol: invalid threshold value" in capsys.readouterr().err


def test_parse_duplicate_and_unknown_section():
    text = ("n = 4\nn = 5\nkind = vortex\nomega = 1\n[blob]\nx = 1\n"
            "[ring]\nkind = regular\nradius = 1\nmass = 1\n")
    with pytest.raises(ConfigError) as ei:
        parse_config_text(text, path="inline")
    joined = " ".join(ei.value.errors)
    assert "duplicate" in joined
    assert "blob" in joined


# --- svg -------------------------------------------------------------------

def test_render_svg_arrow_counts():
    sys_ = rs.build(5, [rs.regular(1.0, 1.0)])
    kappa = sys_.config_vector
    doc = render_svg(sys_, kappa)
    assert doc.count("<circle") == 5
    assert doc.count("<line") == 5
    assert doc.count("<polygon") == 5
    assert "viewBox" in doc
    flat = render_svg(sys_, None)
    assert flat.count("<circle") == 5
    assert flat.count("<line") == 0


def test_render_svg_masks_zero_arrows():
    sys_ = rs.build(4, [rs.center(2.0), rs.regular(1.0, 1.0)])
    disp = np.zeros(10)
    disp[2:] = rs.build(4, [rs.regular(1.0, 1.0)]).config_vector * 0.5
    doc = render_svg(sys_, disp)
    # the center point moves by zero and gets no arrow
    assert doc.count("<line") == 4


def test_emit_svg_column_selection(tmp_path):
    sys_ = rs.build(5, [rs.regular(1.0, 1.0)])
    basis = rs.assemble_global_basis(sys_)
    out = emit_svg(sys_, 0, tmp_path / "c0.svg", basis=basis.matrix)
    assert os.path.exists(out)
    with pytest.raises(ValueError, match="out of range"):
        emit_svg(sys_, 99, tmp_path / "c99.svg", basis=basis.matrix)
    with pytest.raises(ValueError, match="without a basis"):
        emit_svg(sys_, 0, tmp_path / "c.svg")


# --- report ----------------------------------------------------------------

def test_machine_report_is_sorted_json():
    from ringstab.report import _plain
    doc = _plain({"b": np.float64(1.5), "a": np.arange(3), "c": {"z": complex(1, 2)}})
    text = to_machine(doc)
    parsed = json.loads(text)
    assert list(parsed) == ["a", "b", "c"]
    assert parsed["a"] == [0, 1, 2]
    assert parsed["c"]["z"] == [1.0, 2.0]
    with pytest.raises(ValueError):
        to_machine({"x": float("nan")})


def test_plain_arrays_match_elementwise_conversion():
    from ringstab.report import _plain
    z = np.array([[1.5 - 0.0j, complex(-0.0, 2.0)], [3e-300 + 1j, -4.25 - 1e300j]])
    x = np.array([[0.1, -0.0], [1e-310, 7.0]])
    want_z = [[[float(v.real), float(v.imag)] for v in row] for row in z.tolist()]
    want_x = [[float(v) for v in row] for row in x.tolist()]
    assert to_machine(_plain(z)) == to_machine(want_z)
    assert to_machine(_plain(x)) == to_machine(want_x)
    assert _plain(np.array([True, False])) == [True, False]
    assert _plain(np.arange(2)) == [0, 1]


def test_factors_csv_layout():
    sys_ = rs.build(5, [rs.regular(1.0, 1.0)])
    sol = rs.solve_releq(sys_, rs.vortex())
    op = rs.stability_operator(sol.system, rs.vortex(), sol.omega)
    fac = rs.factorize(op, rs.assemble_global_basis(sol.system))
    rows = factors_csv(fac).strip().splitlines()
    assert rows[0].startswith("label,size,degree,")
    assert len(rows) == 1 + len(fac.blocks)
    only = factors_csv(fac, block="sigma").strip().splitlines()
    assert len(only) >= 2
    assert all(r.split(",")[0].startswith("sigma") for r in only[1:])


# --- subprocess round trips -------------------------------------------------

def test_child_imports_same_package(tmp_path):
    r = subprocess.run([sys.executable, "-c", "import ringstab; print(ringstab.__file__)"],
                       capture_output=True, text=True, cwd=tmp_path, env=child_env())
    assert r.returncode == 0, r.stdout + r.stderr
    assert Path(r.stdout.strip()).resolve() == Path(rs.__file__).resolve(), r.stdout + r.stderr


def test_analyze_exit_zero_and_report(tmp_path, pentagon_cfg):
    r = run_cli(["analyze", "--config", str(pentagon_cfg), "--out", "out"], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    assert "omega" in r.stdout, r.stdout + r.stderr
    assert (tmp_path / "out" / "report.txt").exists()
    r = run_cli(["analyze", "--config", str(pentagon_cfg), "--out", "out",
                 "--format", "machine"], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    data = json.loads((tmp_path / "out" / "report.json").read_text())
    assert data["system"]["type"] == [0, 1, 0]
    assert data["factorization"]["degree_profile"] == [2, 4, 4]
    assert data["factorization"]["oracle"]["passed"] is True
    assert data["releq"]["omega"] == 2.0


def test_analyze_csv_output(tmp_path):
    cfg = tmp_path / "ds.cfg"
    cfg.write_text(DOUBLE_SQUARE)
    r = run_cli(["analyze", "--config", str(cfg), "--out", "out"], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    lines = (tmp_path / "out" / "factors.csv").read_text().strip().splitlines()
    assert lines[0].split(",")[:3] == ["label", "size", "degree"]
    assert len(lines) > 4


def test_machine_format_deterministic(tmp_path, pentagon_cfg):
    def run(out):
        r = run_cli(["analyze", "--config", str(pentagon_cfg), "--out", out,
                     "--format", "machine"], tmp_path)
        assert r.returncode == 0, r.stdout + r.stderr
        lines = (tmp_path / out / "report.json").read_text().splitlines()
        return [l for l in lines if '"timestamp"' not in l]

    assert run("a") == run("b")


def test_verify_passes_and_lists_invariants(tmp_path, pentagon_cfg):
    r = run_cli(["verify", "--config", str(pentagon_cfg)], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    assert "verdict: pass" in r.stdout, r.stdout + r.stderr
    for name in ("projector algebra", "J relations", "equivariance",
                 "off-block residual", "dense oracle"):
        assert name in r.stdout, r.stdout + r.stderr
    assert "FAIL" not in r.stdout, r.stdout + r.stderr


@pytest.fixture
def broken_symmetry(monkeypatch):
    """Negative control: after the omega solve (which rebuilds the system
    from its ring specs), break the per-ring mass symmetry, so every
    equivariance-dependent check must fail."""
    solve = cli.solve_releq

    def solve_then_perturb(*args, **kwargs):
        sol = solve(*args, **kwargs)
        sol.system.masses = sol.system.masses.copy()
        sol.system.masses[0] *= 1.0 + 1e-3
        return sol

    monkeypatch.setattr(cli, "solve_releq", solve_then_perturb)


def test_verify_negative_control(pentagon_cfg, broken_symmetry, capsys):
    code = cli.main(["verify", "--config", str(pentagon_cfg)])
    out = capsys.readouterr()
    assert code == 3, out.out + out.err
    assert "FAIL" in out.out, out.out + out.err
    assert "equivariance" in out.out.lower(), out.out + out.err


def test_verify_tol_override_loosens_gates(pentagon_cfg, broken_symmetry, capsys):
    code = cli.main(["verify", "--config", str(pentagon_cfg), "--tol", "1.0"])
    out = capsys.readouterr()
    assert code == 0, out.out + out.err


def test_verify_mixed_signs_partial(tmp_path):
    cfg = tmp_path / "mixed.cfg"
    cfg.write_text("n = 3\nkind = vortex\nomega = 0.4\n"
                   "[ring]\nkind = regular\nradius = 1\nmass = 1\n"
                   "[ring]\nkind = regular\nradius = 2\nmass = -0.5\n")
    r = run_cli(["verify", "--config", str(cfg)], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    assert "PARTIAL" in r.stdout, r.stdout + r.stderr
    assert "M-orthogonality" in r.stdout, r.stdout + r.stderr


def test_verify_machine_format(tmp_path, pentagon_cfg):
    r = run_cli(["verify", "--config", str(pentagon_cfg), "--format", "machine"], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    doc = json.loads(r.stdout)
    assert doc["passed"] is True, r.stdout + r.stderr
    names = [item["name"] for item in doc["invariants"]]
    assert "off-block residual" in names


def test_releq_reports_both_senses(tmp_path, pentagon_cfg):
    r = run_cli(["releq", "--config", str(pentagon_cfg)], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    assert "omega=2" in r.stdout, r.stdout + r.stderr
    assert "reversed omega" in r.stdout, r.stdout + r.stderr


def test_omega_zero_runs_without_classical_gates(tmp_path):
    cfg = tmp_path / "frozen.cfg"
    cfg.write_text("n = 4\nkind = homogeneous\ngamma = -1.5\nomega = 0.0\n"
                   "[ring]\nkind = regular\nradius = 1\nmass = 1\n")
    r = run_cli(["analyze", "--config", str(cfg)], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    assert "not a relative equilibrium" in r.stdout, r.stdout + r.stderr


def test_validation_error_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n = 1\nkind = nope\n[ring]\nkind = regular\nradius = -1\nmass = 0\n")
    r = run_cli(["analyze", "--config", str(cfg)], tmp_path)
    assert r.returncode == 2, r.stdout + r.stderr
    assert (r.stderr.count("error") >= 2
            or len(r.stderr.strip().splitlines()) >= 2), r.stdout + r.stderr


def test_freeing_the_radius_gauge_is_a_config_error(tmp_path, capsys):
    # ring 0 is the center, so ring 1 is the gauge; both free_radii errors
    # are reported, before any solve
    cfg = tmp_path / "gauge.cfg"
    cfg.write_text(DOUBLE_SQUARE.replace("free_radii = 2", "free_radii = 1, 5"))
    code = cli.main(["analyze", "--config", str(cfg)])
    err = capsys.readouterr().err.splitlines()
    assert code == 2, err
    assert err == ["config error: ring 1 is the radius gauge and cannot be freed",
                   "config error: free radius index 5 out of range"], err


def test_missing_config_file(tmp_path):
    r = run_cli(["analyze", "--config", "absent.cfg"], tmp_path)
    assert r.returncode == 2, r.stdout + r.stderr


def test_solver_failure_exit_code(tmp_path):
    cfg = tmp_path / "noreal.cfg"
    cfg.write_text("n = 4\nkind = homogeneous\ngamma = -1.5\nomega = solve\n"
                   "[ring]\nkind = center\nmass = -3.0\n"
                   "[ring]\nkind = regular\nradius = 1\nmass = 1\n")
    r = run_cli(["analyze", "--config", str(cfg)], tmp_path)
    assert r.returncode == 4, r.stdout + r.stderr
    assert "solver error" in r.stderr
    assert "solver did not converge" in r.stderr


def test_solver_gives_up_early_without_equilibrium(tmp_path, capsys):
    # fixed vortex rings at r = 1 and r = 2.2 have no common rotation rate
    cfg = tmp_path / "noreleq.cfg"
    cfg.write_text("n = 5\nkind = vortex\nomega = solve\n"
                   "[ring]\nkind = regular\nradius = 1\nmass = 1\n"
                   "[ring]\nkind = regular\nradius = 2.2\nphase = pi/n\nmass = 1\n")
    code = cli.main(["releq", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 4, err
    assert err.startswith(("solver error: solver did not converge",
                           "solver error: solver stalled")), err
    iterations = int(err.split(" iterations")[0].rsplit(" ", 1)[1])
    assert iterations <= 10, err


def test_diagram_files_and_block_filter(tmp_path, pentagon_cfg):
    r = run_cli(["diagram", "--config", str(pentagon_cfg), "--out", "d"], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    names = sorted(os.listdir(tmp_path / "d"))
    assert "system.svg" in names
    cols = [n for n in names if n.startswith("col")]
    assert len(cols) == 10
    assert cols[0] == "col000_tau_alpha.svg"

    r = run_cli(["diagram", "--config", str(pentagon_cfg), "--out", "dt",
                 "--block", "tau_alpha"], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    cols = [n for n in os.listdir(tmp_path / "dt") if n.startswith("col")]
    assert len(cols) == 2

    # --block follows the analyze rule: a label and its split halves
    r = run_cli(["diagram", "--config", str(pentagon_cfg), "--out", "dr",
                 "--block", "rho"], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    cols = sorted(n for n in os.listdir(tmp_path / "dr") if n.startswith("col"))
    assert cols == ["col%03d_rho_2.svg" % c for c in range(2, 6)]

    r = run_cli(["diagram", "--config", str(pentagon_cfg), "--out", "dx",
                 "--block", "nope"], tmp_path)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "tau_alpha" in r.stderr, r.stdout + r.stderr


def test_diagram_kappa_arrows_are_radial(tmp_path, pentagon_cfg):
    r = run_cli(["diagram", "--config", str(pentagon_cfg), "--out", "d"], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    doc = (tmp_path / "d" / "col001_tau_alpha.svg").read_text()
    # the kappa column carries one arrow per vertex, parallel to the position
    import re
    lines = re.findall(r'<line x1="([-0-9.]+)" y1="([-0-9.]+)" x2="([-0-9.]+)" y2="([-0-9.]+)"', doc)
    assert len(lines) == 5
    for x1, y1, x2, y2 in ((float(v) for v in row) for row in lines):
        cross = x1 * (y2 - y1) - y1 * (x2 - x1)
        assert abs(cross) < 1e-6


def test_oracle_verb_prints_samples(tmp_path, pentagon_cfg):
    r = run_cli(["oracle", "--config", str(pentagon_cfg)], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    sample_lines = [l for l in r.stdout.splitlines() if l.startswith("lambda=")]
    assert len(sample_lines) == 20, r.stdout + r.stderr
    assert "rel_error" in sample_lines[0]


def test_version_flag(tmp_path):
    r = run_cli(["--version"], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    assert rs.__version__ in r.stdout, r.stdout + r.stderr


# --- in-process contracts -----------------------------------------------------

@pytest.mark.parametrize("block", [None, "rho"])
@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_analyze_writes_the_printed_report(tmp_path, capsys, fmt, block):
    cfg = tmp_path / "pentagon.cfg"
    cfg.write_text(PENTAGON.replace("omega = solve", "omega = solve\ncsv = true"))
    argv = ["analyze", "--config", str(cfg), "--out", str(tmp_path / "out"),
            "--format", fmt]
    if block is not None:
        argv += ["--block", block]
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    name = "report.json" if fmt == "machine" else "report.txt"
    assert (tmp_path / "out" / name).read_text() == printed

    if fmt == "machine":
        report = json.loads(printed)["factorization"]["blocks"]
        rows = (tmp_path / "out" / "factors.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == [b["label"] for b in report]
        assert [[float(c) for c in r.split(",")[3:]] for r in rows] == \
            [b["coefficients"] for b in report]
        if block is not None:
            assert [b["label"] for b in report] == ["rho_2"]


def test_parser_and_coefficients_are_cached():
    assert cli._parser() is cli._parser()
    sys_ = rs.build(5, [rs.regular(1.0, 1.0)])
    sol = rs.solve_releq(sys_, rs.vortex())
    op = rs.stability_operator(sol.system, rs.vortex(), sol.omega)
    f = rs.factorize(op, rs.assemble_global_basis(sol.system)).blocks[1].factor
    assert f.coefficients is f.coefficients
    assert not f.coefficients.flags.writeable
    assert np.array_equal(f.coefficients, np.poly(f.spectrum).real[::-1])


def test_back_to_back_main_calls_share_no_state(tmp_path, capsys, pentagon_cfg):
    assert cli.main(["diagram", "--config", str(pentagon_cfg),
                     "--out", str(tmp_path / "d"), "--block", "rho"]) == 0
    capsys.readouterr()
    assert cli.main(["analyze", "--config", str(pentagon_cfg), "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [b["label"] for b in doc["factorization"]["blocks"]] == \
        ["tau_alpha", "rho_2", "sigma_lead", "sigma_rest"]
    assert cli.main(["verify", "--config", str(pentagon_cfg)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "verdict: pass"
    args = cli._parser().parse_args(["releq", "--config", "x"])
    assert vars(args) == {"command": "releq", "config": "x", "format": "text"}


@pytest.mark.parametrize("override", [[], ["--tol", "1.0"]])
def test_one_verdict_sets_exit_code_and_pass_marks(tmp_path, capsys, override):
    """tol_oracle = 1e-30 fails the pentagon's oracle (error ~5e-15) in
    analyze and oracle alike, on the exit code and on every pass mark;
    --tol overrides the config and passes both."""
    cfg = tmp_path / "strict.cfg"
    cfg.write_text(PENTAGON.replace("omega = solve\n", "omega = solve\ntol_oracle = 1e-30\n"))
    passed = bool(override)
    code = 0 if passed else 3
    assert cli.main(["analyze", "--config", str(cfg)] + override) == code
    oracle_line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("oracle:")]
    assert len(oracle_line) == 1
    assert oracle_line[0].endswith("(pass)" if passed else "(FAIL)")
    assert cli.main(["analyze", "--config", str(cfg), "--format", "machine"] + override) == code
    doc = json.loads(capsys.readouterr().out)
    assert doc["factorization"]["oracle"]["passed"] is passed
    assert cli.main(["oracle", "--config", str(cfg), "--format", "machine"] + override) == code
    text = capsys.readouterr().out
    assert text.count('"passed"') == 1 and "oracle_passed" not in text
    assert json.loads(text)["factorization"]["oracle"]["passed"] is passed
    assert cli.main(["oracle", "--config", str(cfg)] + override) == code
    assert capsys.readouterr().out.splitlines()[-1].endswith("pass" if passed else "FAIL")


#: the optional flags each verb reads
VERB_FLAGS = {"analyze": {"out", "tol", "format", "block"}, "verify": {"tol", "format"},
              "releq": {"format"}, "diagram": {"out", "block"}, "oracle": {"tol", "format"}}
FLAG_VALUES = {"out": "d", "tol": "1.0", "format": "machine", "block": "sigma"}


@pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
@pytest.mark.parametrize("verb", sorted(VERB_FLAGS))
def test_each_verb_takes_only_the_flags_it_reads(verb, flag, capsys):
    argv = [verb, "--config", "x", "--" + flag, FLAG_VALUES[flag]]
    if flag in VERB_FLAGS[verb]:
        args = cli._parser().parse_args(argv)
        assert vars(args)[flag] == (1.0 if flag == "tol" else FLAG_VALUES[flag])
    else:
        with pytest.raises(SystemExit) as exc:
            cli._parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --%s" % flag in capsys.readouterr().err


def test_diagram_block_selects_split_halves(tmp_path, pentagon_cfg, capsys):
    for label, cols in (("sigma_lead", [6, 8]), ("sigma_rest", [7, 9]), ("sigma", [6, 7, 8, 9])):
        out = tmp_path / label
        assert cli.main(["diagram", "--config", str(pentagon_cfg), "--out", str(out),
                         "--block", label]) == 0
        assert sorted(n for n in os.listdir(out) if n.startswith("col")) == \
            ["col%03d_sigma.svg" % c for c in cols]
        # titles count columns within the coarse block
        first = (out / ("col%03d_sigma.svg" % cols[0])).read_text()
        assert "sigma column %d" % (cols[0] - 6) in first
    capsys.readouterr()
    assert cli.main(["diagram", "--config", str(pentagon_cfg), "--out", str(tmp_path / "x"),
                     "--block", "nope"]) == 2
    assert "available: tau_alpha rho_2 sigma sigma_lead sigma_rest" in capsys.readouterr().err
