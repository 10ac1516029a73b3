import ast
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ringstab as rs
from ringstab import cli
from ringstab.config import ConfigError, parse_config, parse_config_text
from ringstab.geometry import RING_VALUES, RingSystem
from ringstab.report import factors_csv, to_machine
from ringstab.svg import emit_svg, render_svg
from reference import plain, sigma_matrices
from test_acceptance import grid_system, type_grid
from test_tracer_contract import CONFIG as TWO_RINGS

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


def test_cli_import_loads_no_third_party_module(tmp_path):
    """A fresh interpreter that has numpy imports ringstab.cli and gains
    only standard-library modules and ringstab: every CLI start pays for
    what the package imports, so no heavier dependency rides along."""
    code = ("import sys, numpy\n"
            "before = set(sys.modules)\n"
            "import ringstab.cli\n"
            "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
            "print(' '.join(sorted(new - set(sys.stdlib_module_names) - {'ringstab'})))\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       cwd=tmp_path, env=child_env())
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == [], r.stdout


def test_no_module_imports_a_name_it_never_reads():
    """Every name a module of the package imports is read in that module;
    __init__.py, which imports to export, is exempt."""
    unread = []
    for path in sorted(Path(rs.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).partition(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread += ["%s: %s" % (path.name, name) for name in sorted(imported - read)]
    assert unread == []


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
def test_tol_must_be_positive_and_finite(verb, tol, tmp_path, capsys):
    for key in ("tol_off_block", "tol_oracle", "tol_invariants"):
        text = PENTAGON.replace("omega = solve\n", "omega = solve\n%s = %s\n" % (key, tol))
        with pytest.raises(ConfigError) as ei:
            parse_config_text(text, path="inline")
        assert ei.value.errors == ["invalid %s '%s' (must be positive and finite)" % (key, tol)]
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert cli.main([verb, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "config error: %s\n" % ei.value.errors[0]


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


def test_emit_svg_column_selection(tmp_path, pentagon_cfg):
    # diagram draws basis column c as the displacement of colccc_LABEL.svg
    assert cli.main(["diagram", "--config", str(pentagon_cfg), "--out", str(tmp_path),
                     "--block", "rho"]) == 0
    sys_ = parse_config(str(pentagon_cfg)).system()
    basis = rs.assemble_global_basis(sys_)
    for col in range(2, 6):
        assert (tmp_path / ("col%03d_rho_2.svg" % col)).read_text() == \
            render_svg(sys_, basis.matrix[:, col], title="rho_2 column %d" % (col - 2))
    path = str(tmp_path / "c0.svg")
    assert emit_svg(sys_, basis.matrix[:, 0], path) == path
    assert (tmp_path / "c0.svg").read_text() == render_svg(sys_, basis.matrix[:, 0])


# --- report ----------------------------------------------------------------

def test_machine_report_is_sorted_json():
    doc = {"b": np.float64(1.5), "a": np.arange(3), "c": {"z": complex(1, 2)}}
    text = to_machine(doc)
    assert text == dumps(plain(doc))
    parsed = json.loads(text)
    assert list(parsed) == ["a", "b", "c"]
    assert parsed["a"] == [0, 1, 2]
    assert parsed["c"]["z"] == [1.0, 2.0]
    with pytest.raises(ValueError):
        to_machine({"x": float("nan")})


def dumps(doc) -> str:
    """The reference bytes of the machine report of a plain document."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def grid_config(n, a, b, c, kind) -> str:
    """A config of tests/test_acceptance.py::grid_system at omega = 1."""
    lines = ["n = %d" % n, "kind = %s" % kind, "omega = 1.0"]
    for ring in grid_system(n, a, b, c).rings:
        lines += ["", "[ring]", "kind = %s" % ring.kind]
        lines += ["%s = %r" % (key, getattr(ring, key)) for key in RING_VALUES[ring.kind]]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", range(2, 13))
def test_machine_writer_equals_json_dumps_on_every_verb(n, tmp_path, monkeypatch, capsys):
    """Every machine report on the type grid, homogeneous and vortex in
    turn, of analyze with and without --block, verify, releq and oracle."""
    docs = []

    def recording(doc):
        docs.append(doc)
        return to_machine(doc)

    monkeypatch.setattr(cli, "to_machine", recording)
    cfg = tmp_path / "grid.cfg"
    keys = [key for key in type_grid() if key[0] == n]
    for i, key in enumerate(keys):
        cfg.write_text(grid_config(*key, ("homogeneous", "vortex")[i % 2]))
        for verb in (["analyze"], ["analyze", "--block", "tau_alpha"], ["verify"], ["releq"],
                     ["oracle"]):
            assert cli.main(verb + ["--config", str(cfg), "--format", "machine"]) == 0, (key, verb)
    capsys.readouterr()
    assert len(docs) == 5 * len(keys)
    for doc in docs:
        assert to_machine(doc) == dumps(plain(doc))


#: documents at the edges of JSON: empty containers, signed zero, the
#: extreme floats, ints and bools among floats, escapes, non-ASCII text,
#: nesting, and lists that look like runs of floats or [re, im] pairs but
#: are not; then numpy values: scalars, and arrays empty, 0-d, 1-D and 2-D
#: of every dtype kind a report holds
EDGE_DOCUMENTS = [
    [], {}, {"a": [], "b": {}}, [[]], [{}], -0.0, [-0.0, 0.0], 5e-324, 1e300, [5e-324, -1e300, 1e16],
    0, -7, 2 ** 70, [1, 2, 3], True, False, None, [True, False], [None, None],
    "caf\u00e9 \u2603 \U0001f600", 'quote " backslash \\ tab \t newline \n nul \x00 \x1f \x7f',
    {"\u00e9": 1, 'a"b': [2.5], "\n": None}, ["x", "y"],
    [1, 2.5, "x", None, True, [], {}, [1.5, [2.5]], {"k": [[1.0, 2.0]]}],
    [[1.0, 2.0], [3, 4.0]], [[1.0, 2.0], [3.0, 4.0]], [[-0.0, 5e-324]], [[1.0, 2.0, 3.0], [4.0]],
    [[1.0, 2.0], "ab"], [[1.0], [2.0, 3.0]], [[True, 1.0]], [[1.0, 2.0], (3.0, 4.0)],
    [[[1.0, 2.0]], [[3.0, 4.0]]], {"z": {"y": {"x": [[]]}}}, (1.0, 2), complex(-0.0, 1e300),
    np.float64(-0.0), np.float32(0.1), np.int64(-7), np.uint8(255), np.bool_(True),
    np.complex128(complex(1.5, -0.0)), [np.float64(2.5), np.int32(3), np.bool_(False)],
    np.array([]), np.array([], dtype=complex), np.array([], dtype=int), np.zeros((0, 3)),
    np.array(2.5), np.array(-0.0), np.array(3), np.array(True), np.array(complex(-0.0, 2.0)),
    np.array([0.1, -0.0, 5e-324, -1e300, 1e16]), np.array([0.1, 2.5], dtype=np.float32),
    np.array([1.5 - 0.0j, complex(-0.0, 2.0), 3e-300 + 1j]), np.array([1, -2, 2 ** 62]),
    np.array([True, False]), np.array([[0.1, -0.0], [1e-310, 7.0]]), np.array([[1, 2], [3, 4]]),
    np.array([[1.5 - 0.0j, complex(-0.0, 2.0)], [3e-300 + 1j, -4.25 - 1e300j]]),
    np.array([[True], [False]]), np.arange(8.0).reshape(2, 2, 2), np.arange(6.0)[::2],
    {"a": np.array([1.0]), "b": [np.array([2j]), {"c": np.array([[3.0]])}]},
]


def test_machine_writer_equals_json_dumps_on_edge_documents():
    for doc in EDGE_DOCUMENTS:
        assert to_machine(doc) == dumps(plain(doc)), doc
    for bad in (float("nan"), float("inf"), -float("inf")):
        for doc in (bad, [bad], [1.0, bad], [1, bad], [[1.0, bad]], [[2.0, 3.0], [bad, 1.0]],
                    {"a": bad}, {"a": [1, bad]}, [{"b": [bad]}], complex(1.0, bad),
                    np.float64(bad), np.array(bad), np.array([1.0, bad]), np.array([[bad, 1.0]]),
                    np.array([complex(1.0, bad)]), np.array([complex(bad, 1.0), 2j]),
                    np.array([[complex(bad, 0.0)]]), np.array(complex(0.0, bad)),
                    {"a": [np.array([bad], dtype=np.float32)]}):
            with pytest.raises(ValueError):
                dumps(plain(doc))
            with pytest.raises(ValueError):
                to_machine(doc)


def test_plain_arrays_match_elementwise_conversion():
    z = np.array([[1.5 - 0.0j, complex(-0.0, 2.0)], [3e-300 + 1j, -4.25 - 1e300j]])
    x = np.array([[0.1, -0.0], [1e-310, 7.0]])
    want_z = [[[float(v.real), float(v.imag)] for v in row] for row in z.tolist()]
    want_x = [[float(v) for v in row] for row in x.tolist()]
    assert to_machine(z) == to_machine(plain(z)) == to_machine(want_z)
    assert to_machine(x) == to_machine(plain(x)) == to_machine(want_x)
    assert plain(np.array([True, False])) == [True, False]
    assert plain(np.arange(2)) == [0, 1]


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
    for name in ("basis symmetry certificate", "equivariance",
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
    # the broken masses read ~1e-3 against 1e-9
    verify_fails_on("equivariance of A", pentagon_cfg, capsys)


@pytest.fixture
def rotation_averaged_defect(monkeypatch):
    """Sets A off equivariance by eps ||A||_F along a random defect averaged
    over C_n: it commutes with every rotation and breaks the reflections.
    A defect of this kind keeps each block of the adapted basis invariant,
    so the off-block gate cannot see it."""
    operator = cli.stability_operator

    def install(eps):
        def defective(sys_, pot, omega):
            op = operator(sys_, pot, omega)
            R = np.random.default_rng(2417).standard_normal(op.matrix.shape)
            D = sum(S.T @ R @ S for S in sigma_matrices(sys_)[:sys_.n])
            return replace(op, matrix=op.matrix + eps * np.linalg.norm(op.matrix)
                           / np.linalg.norm(D) * D)

        monkeypatch.setattr(cli, "stability_operator", defective)

    return install


def test_verify_equivariance_gate_fails_near_its_threshold(pentagon_cfg,
                                                           rotation_averaged_defect, capsys):
    """Fault injection for the equivariance gate: the defect at 1e-8 reads
    1.5e-8 against 1e-9 (the Hessian, translation kernel and oracle gates
    trip too); at 1e-11 it reads 1.5e-11 and passes, and only the Hessian
    gate, at 1e-12, still sees it."""
    rotation_averaged_defect(1e-8)
    fails = verify_fails_on("equivariance of A", pentagon_cfg, capsys)
    assert len(fails) == 4, fails
    rotation_averaged_defect(1e-11)
    fails = verify_fails_on("hessian vs complex step", pentagon_cfg, capsys)
    assert len(fails) == 1, fails


def test_verify_gathers_only_for_the_certificate(pentagon_cfg, monkeypatch, capsys):
    """verify builds the group action once in each check that reads it,
    the symmetry certificate and the equivariance of A; the latter takes
    all 2n elements in one pass, so the action is applied only by the
    certificate, twice: sigma(r) C and sigma(s) C."""
    calls = {"group_action": 0, "left": 0}
    for owner, name in ((RingSystem, "group_action"), (rs.geometry.GroupAction, "left")):
        def counted(*args, _fn=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(owner, name, counted)
    assert cli.main(["verify", "--config", str(pentagon_cfg)]) == 0, capsys.readouterr().out
    assert calls == {"group_action": 2, "left": 2}
    assert not hasattr(rs.geometry.GroupAction, "right")


def test_verify_tol_override_loosens_gates(tmp_path, broken_symmetry, capsys):
    # the config's tol_<key> values replace the default of every gate
    cfg = tmp_path / "loose.cfg"
    cfg.write_text(PENTAGON.replace("omega = solve\n", "omega = solve\ntol_off_block = 1.0\n"
                                    "tol_oracle = 1.0\ntol_invariants = 1.0\n"))
    code = cli.main(["verify", "--config", str(cfg)])
    out = capsys.readouterr()
    assert code == 0, out.out + out.err


@pytest.fixture
def broken_reflection(monkeypatch):
    """The (0, 0) entry of sigma(s)'s planar block flips sign, so s acts on
    the plane as -I, a rotation by pi, which commutes with J where a
    reflection anticommutes with it."""
    group_action = RingSystem.group_action

    def broken(sys_):
        act = group_action(sys_)
        blocks = act.blocks.copy()
        blocks[1, 0, 0] *= -1.0
        return replace(act, blocks=blocks)

    monkeypatch.setattr(RingSystem, "group_action", broken)


def verify_fails_on(item, cfg, capsys) -> list[str]:
    """Run verify on cfg; it must exit 3 with the named item failing.
    Returns the FAIL lines."""
    code = cli.main(["verify", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 3, out
    assert [l.split()[0] for l in out.splitlines() if item in l] == ["FAIL"], out
    assert out.splitlines()[-1] == "verdict: FAIL"
    return [l for l in out.splitlines() if l.startswith("FAIL ")]


def certificate_fails(cfg, capsys, blocks) -> str:
    """Run verify on cfg; the symmetry certificate must fail, naming a
    relation of one of the given blocks as worst.  Returns its line."""
    line, = [l for l in verify_fails_on("basis symmetry certificate", cfg, capsys)
             if "basis symmetry certificate" in l]
    worst = line.split(" worst=")[1]
    assert worst.split(" ")[0] in blocks, line
    return line


def test_verify_symmetry_certificate_fails_on_a_broken_reflection(pentagon_cfg,
                                                                  broken_reflection, capsys):
    """Fault injection for the symmetry certificate, whose residual reads
    ~1e-15 on working code: with s acting as a rotation by pi, (s r)^2 is no
    longer the identity on the pentagon's sigma block (3.0 against 1e-11)."""
    line = certificate_fails(pentagon_cfg, capsys, ("tau_alpha", "rho_2", "sigma"))
    assert " worst=sigma (s r)^2" in line, line


@pytest.fixture(params=["pentagon", "double_square"])
def solved_cfg(request, tmp_path):
    p = tmp_path / "job.cfg"
    p.write_text(PENTAGON if request.param == "pentagon" else DOUBLE_SQUARE)
    return p


def test_verify_m_orthogonality_gate_fails_on_a_mixed_column(solved_cfg, monkeypatch, capsys):
    """Fault injection for the M-orthogonality gate: 1e-6 of the last
    block's last column added to its first u column keeps the block's span,
    so only this gate trips (4.5e-7 on the pentagon, 3.3e-7 on the double
    square, against 1e-10)."""
    assemble = cli.assemble_global_basis

    def mixed(sys_):
        basis = assemble(sys_)
        last = basis.blocks[-1]
        C = basis.matrix.copy()
        C[:, last.start + last.pairs] += 1e-6 * C[:, last.start + last.size - 1]
        return replace(basis, matrix=C)

    monkeypatch.setattr(cli, "assemble_global_basis", mixed)
    fails = verify_fails_on("basis M-orthogonality", solved_cfg, capsys)
    assert len(fails) == 1, fails


def test_verify_classical_gate_fails_on_a_wrong_omega(solved_cfg, monkeypatch, capsys):
    """Fault injection for the classical eigenvector identities: the
    operator's omega off by 1e-6 relative, with is_releq kept, reads
    5.8e-7 on the pentagon and 1.8e-7 on the double square, against 1e-8;
    factors and oracle share that omega, so only this gate trips."""
    operator = cli.stability_operator

    def wrong_omega(sys_, pot, omega):
        op = operator(sys_, pot, omega)
        return replace(op, omega=op.omega * (1.0 + 1e-6))

    monkeypatch.setattr(cli, "stability_operator", wrong_omega)
    fails = verify_fails_on("classical eigenvector identities", solved_cfg, capsys)
    assert len(fails) == 1, fails


def test_verify_symmetry_certificate_fails_on_swapped_columns(solved_cfg, monkeypatch,
                                                               capsys):
    """Fault injection for the symmetry certificate: the last column pair
    (J u, u) of the second block traded with the last pair of the sigma
    block keeps the J layout and the block sizes, but neither block carries
    one irrep any more: 3.2 on the pentagon and 2.8 on the double square,
    against 1e-11.  On the pentagon each pair spans a subspace that A
    leaves invariant, so the off-block and oracle gates pass, and only this
    gate sees the defect."""
    assemble = cli.assemble_global_basis

    def swapped(sys_):
        basis = assemble(sys_)
        second, last = basis.blocks[1], basis.blocks[-1]
        pairs = [[blk.start + blk.pairs - 1, blk.start + blk.size - 1] for blk in (second, last)]
        C = basis.matrix.copy()
        C[:, pairs[0] + pairs[1]] = C[:, pairs[1] + pairs[0]]
        return replace(basis, matrix=C)

    monkeypatch.setattr(cli, "assemble_global_basis", swapped)
    certificate_fails(solved_cfg, capsys, ("rho_2", "phi_psi", "sigma"))


def test_verify_symmetry_certificate_fails_on_a_leaking_column(solved_cfg, monkeypatch,
                                                               capsys):
    """Fault injection for the symmetry certificate: 1e-6 of the sigma
    block's last column added to the second block's last column leaves that
    block no longer invariant under r: 7.9e-7 on the pentagon and 5.8e-7
    on the double square, against 1e-11 (M-orthogonality and off-block
    trip too)."""
    assemble = cli.assemble_global_basis

    def leaking(sys_):
        basis = assemble(sys_)
        second, last = basis.blocks[1], basis.blocks[-1]
        C = basis.matrix.copy()
        C[:, second.start + second.size - 1] += 1e-6 * C[:, last.start + last.size - 1]
        return replace(basis, matrix=C)

    monkeypatch.setattr(cli, "assemble_global_basis", leaking)
    certificate_fails(solved_cfg, capsys, ("rho_2", "phi_psi"))


def test_verify_oracle_gate_fails_on_a_scaled_factor(solved_cfg, monkeypatch, capsys):
    """Fault injection for the dense-oracle gate: the last factor of the
    first stack of equal-size blocks has its spectrum scaled by 1 + 1e-6,
    which reads 2.0e-6 on the pentagon and 3.9e-6 on the double square,
    against 1e-8; no other item reads the factors, so only this gate
    trips."""
    block_factors = rs.stability._block_factors
    calls = []

    def scaled(*args, **kwargs):
        stack = block_factors(*args, **kwargs)
        calls.append(None)
        if len(calls) == 1:
            stack[-1] = replace(stack[-1], spectrum=stack[-1].spectrum * (1.0 + 1e-6))
        return stack

    monkeypatch.setattr(rs.stability, "_block_factors", scaled)
    fails = verify_fails_on("factor product vs dense oracle", solved_cfg, capsys)
    assert len(fails) == 1, fails


def test_verify_translation_kernel_gate_fails_on_a_shifted_operator(solved_cfg, monkeypatch,
                                                                    capsys):
    """Fault injection for the translation kernel: A + 1e-6 (||A||_F / sqrt(2N)) I
    no longer kills the translations, and reads 3.2e-7 on the pentagon and
    2.4e-7 on the double square, against 1e-9 (the Hessian and classical
    items trip too)."""
    operator = cli.stability_operator

    def shifted(sys_, pot, omega):
        op = operator(sys_, pot, omega)
        A = op.matrix
        shift = 1e-6 * np.linalg.norm(A) / np.sqrt(A.shape[0])
        return replace(op, matrix=A + shift * np.eye(A.shape[0]))

    monkeypatch.setattr(cli, "stability_operator", shifted)
    verify_fails_on("translation kernel of A", solved_cfg, capsys)


def test_verify_off_block_gate_fails_on_a_leaking_column(solved_cfg, monkeypatch, capsys):
    """Fault injection for the off-block gate: 1e-6 of the first block's last
    column added to the last block's last column leaks the last block into
    the first, and reads 5.8e-7 on the pentagon and 4.3e-7 on the double
    square, against 1e-9 (M-orthogonality trips too)."""
    assemble = cli.assemble_global_basis

    def leaking(sys_):
        basis = assemble(sys_)
        first, last = basis.blocks[0], basis.blocks[-1]
        C = basis.matrix.copy()
        C[:, last.start + last.size - 1] += 1e-6 * C[:, first.start + first.size - 1]
        return replace(basis, matrix=C)

    monkeypatch.setattr(cli, "assemble_global_basis", leaking)
    verify_fails_on("off-block residual", solved_cfg, capsys)


def test_verify_hessian_gate_fails_on_a_perturbed_pair_block(pentagon_cfg, monkeypatch,
                                                             capsys):
    """Fault injection for the Hessian gate: one symmetric pair block of the
    analytic Hessian is off by 1e-8 relative, which reads ~4e-9 against the
    complex step."""
    hessian = rs.dynamics.hessian

    def perturbed(sys_, pot):
        H = hessian(sys_, pot)
        H[0:2, 2:4] *= 1.0 + 1e-8
        H[2:4, 0:2] *= 1.0 + 1e-8
        return H

    monkeypatch.setattr(rs.dynamics, "hessian", perturbed)
    verify_fails_on("hessian vs complex step", pentagon_cfg, capsys)


def test_invariant_suite_fails_only_equivariance_on_a_turned_ring():
    """Fault injection for a phase off by 1e-6: the D_6 center and two rings
    of the tracer contract, solved for ring 2's radius, with ring 2 turned
    by 1e-6 afterwards (`check_ring` refuses such a phase as input).  The
    group action, read off the ring order, still maps the basis onto
    itself, so only the equivariance of A, which reads the positions, sees
    it: 9.2e-6 against 1e-9."""
    cfg = parse_config_text(TWO_RINGS, path="inline")
    pot = cfg.potential()
    sol = rs.solve_releq(cfg.system(), pot, free_radii=cfg.free_radii)
    assert sol.converged
    c, s = np.cos(1e-6), np.sin(1e-6)
    positions = sol.system.positions.copy()
    ring = sol.system.orbit_slices[2]
    positions[ring] = positions[ring] @ np.array([[c, s], [-s, c]])
    sysm = replace(sol.system, positions=positions)
    op = rs.stability_operator(sysm, pot, sol.omega)
    basis = rs.assemble_global_basis(sysm)
    items = cli.invariant_suite(op, basis, rs.factorize(op, basis), cfg.tolerances.get)
    failed = {i["name"]: i["residual"] for i in items if i["gated"] and i["status"] != "PASS"}
    assert list(failed) == ["equivariance of A"], items
    assert 5e-6 < failed["equivariance of A"] < 2e-5, failed


def test_lead_pair_split_against_the_wrong_vector_is_refused_for_sigma():
    """Fault injection for a lead pair split against the wrong vector: the
    solved D_6 center and two rings, with each lead pair swapped in C for
    its block's next pair, the J layout kept.  The swapped sigma lead spans
    no invariant plane, so `factorize` refuses the split (off-block
    residual 0.207) and reports sigma coarse, while the oracle, which sees
    only the product of the factors, still passes (5.7e-14).  tau/alpha is
    not pinned: its swapped pair is the M-complement of (J kappa, kappa),
    also invariant, so it still splits with its lead factor mislabelled and
    no gate sees it (ROADMAP item 12)."""
    cfg = parse_config_text(TWO_RINGS, path="inline")
    pot = cfg.potential()
    sol = rs.solve_releq(cfg.system(), pot, free_radii=cfg.free_radii)
    assert sol.converged
    op = rs.stability_operator(sol.system, pot, sol.omega)
    basis = rs.assemble_global_basis(sol.system)
    C = basis.matrix.copy()
    swapped = []
    for blk in basis.blocks:
        if blk.lead_pair and blk.pairs > 1:
            for col in (blk.start, blk.start + blk.pairs):       # J side, u side
                C[:, [col, col + 1]] = C[:, [col + 1, col]]
            swapped.append(blk.label)
    assert swapped == ["tau_alpha", "sigma"]
    report = rs.factorize(op, replace(basis, matrix=C))
    labels = [blk.label for blk in report.blocks]
    assert "sigma" in labels and "sigma_lead" not in labels, labels
    assert report.notes == ["lead pair of sigma not split: off-block residual 0.207"]
    assert report.max_off_residual <= 1e-12
    assert report.oracle.max_rel_error <= 1e-12


def test_verify_gates_m_orthogonality_on_mixed_signs(tmp_path):
    # a full basis has C^T M C = diag(+-1) for masses of any signs, so the
    # gate applies to mixed signs as well
    cfg = tmp_path / "mixed.cfg"
    cfg.write_text("n = 3\nkind = vortex\nomega = 0.4\n"
                   "[ring]\nkind = regular\nradius = 1\nmass = 1\n"
                   "[ring]\nkind = regular\nradius = 2\nmass = -0.5\n")
    r = run_cli(["verify", "--config", str(cfg)], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    assert "PARTIAL" not in r.stdout, r.stdout + r.stderr
    assert "PASS    basis M-orthogonality" in r.stdout, r.stdout + r.stderr


#: systems whose lead-block total has zero M-norm, with the note analyze
#: gives: the shielded vortex (sigma: circulation -6 + 6, omega = -3.5) and
#: a D_6 pair off equilibrium (tau/alpha: sum m r^2 = 6 - 6)
ZERO_TOTAL = {
    "shielded vortex": ("n = 6\nkind = vortex\nomega = solve\n"
                        "[ring]\nkind = center\nmass = -6\n"
                        "[ring]\nkind = regular\nradius = 1\nmass = 1\n",
                        "lead pair of sigma not split: off-block residual 0.481"),
    "two rings": ("n = 6\nkind = vortex\nomega = 1\n"
                  "[ring]\nkind = regular\nradius = 1\nmass = 1\n"
                  "[ring]\nkind = regular\nradius = 2\nmass = -0.25\nphase = pi/n\n",
                  "not a relative equilibrium: tau_alpha lead pair kept coarse"),
}


@pytest.mark.parametrize("name", sorted(ZERO_TOTAL))
def test_zero_total_m_norm_systems_pass_on_a_partial_basis(name, tmp_path, capsys):
    text, note = ZERO_TOTAL[name]
    cfg = tmp_path / "job.cfg"
    cfg.write_text(text)
    assert cli.main(["analyze", "--config", str(cfg), "--format", "machine"]) == 0, \
        capsys.readouterr().err
    doc = json.loads(capsys.readouterr().out)
    assert doc["decomposition"]["m_orthogonal"] == "partial"
    assert note in doc["factorization"]["notes"]
    if name == "shielded vortex":
        assert doc["releq"]["omega"] == pytest.approx(-3.5, rel=1e-12)
    assert cli.main(["verify", "--config", str(cfg)]) == 0, capsys.readouterr().err
    assert "PARTIAL basis M-orthogonality" in capsys.readouterr().out


#: the D_6 shielded vortex with center circulation c near -6, where the
#: sigma lead total (circulation c + 6) is nearly M-null: its basis
#: condition number grows like 1 / |c + 6|
SHIELDED_LADDER = ("n = 6\nkind = vortex\nomega = solve\n"
                   "[ring]\nkind = center\nmass = {c}\n"
                   "[ring]\nkind = regular\nradius = 1\nmass = 1\n")


@pytest.mark.parametrize("c", [-6.1, -6.001, -6.00001])
def test_nearly_m_null_lead_total_ladder(c, tmp_path, capsys):
    """Every rung is analyzed (exit 0), and at c = -6.001 the condition
    number reads 3.4e4, about 34 / |c + 6|; unnormalized mixed-sign
    columns built from the orbits' plain leads read 1.0e8 there and exit
    3.  verify passes down to -6.001; from -6.00001 on the sigma
    certificate reads above its 1e-11 gate (4.5e-10)."""
    cfg = tmp_path / "job.cfg"
    cfg.write_text(SHIELDED_LADDER.format(c=c))
    assert cli.main(["analyze", "--config", str(cfg), "--format", "machine"]) == 0, \
        capsys.readouterr().err
    doc = json.loads(capsys.readouterr().out)
    if c == -6.001:
        assert doc["decomposition"]["basis_cond"] < 1e5
    if c != -6.00001:
        assert cli.main(["verify", "--config", str(cfg)]) == 0, capsys.readouterr().out


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


def test_reversed_omega_residual_is_the_max_norm_of_the_balance(tmp_path, pentagon_cfg, capsys):
    """Both releq residuals are max norms of the rotating-frame balance.  The
    homogeneous balance is even in omega, so both read the same; a vortex
    ring at -omega reads 2 omega max|m q|, 4 on the pentagon (omega = 2)."""
    cfg = tmp_path / "two_rings.cfg"
    cfg.write_text(TWO_RINGS)
    for verb in ("releq", "analyze"):
        assert cli.main([verb, "--config", str(cfg), "--format", "machine"]) == 0
        rq = json.loads(capsys.readouterr().out)["releq"]
        assert rq["residual_reversed_omega"] == rq["residual"] > 0.0
    assert cli.main(["releq", "--config", str(pentagon_cfg), "--format", "machine"]) == 0
    rq = json.loads(capsys.readouterr().out)["releq"]
    assert rq["residual_reversed_omega"] == pytest.approx(4.0, rel=1e-12)


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


@pytest.mark.parametrize("override", [{}, {"tol_oracle": "1.0"}])
def test_one_verdict_sets_exit_code_and_pass_marks(tmp_path, capsys, override):
    """tol_oracle = 1e-30 fails the pentagon's oracle (error ~5e-15) in
    analyze and oracle alike, on the exit code and on every pass mark;
    tol_oracle = 1.0 passes both."""
    cfg = tmp_path / "strict.cfg"
    cfg.write_text(PENTAGON.replace("omega = solve\n", "omega = solve\ntol_oracle = %s\n"
                                    % override.get("tol_oracle", "1e-30")))
    passed = bool(override)
    code = 0 if passed else 3
    assert cli.main(["analyze", "--config", str(cfg)]) == code
    oracle_line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("oracle:")]
    assert len(oracle_line) == 1
    assert oracle_line[0].endswith("(pass)" if passed else "(FAIL)")
    assert cli.main(["analyze", "--config", str(cfg), "--format", "machine"]) == code
    doc = json.loads(capsys.readouterr().out)
    assert doc["factorization"]["oracle"]["passed"] is passed
    assert cli.main(["oracle", "--config", str(cfg), "--format", "machine"]) == code
    text = capsys.readouterr().out
    assert text.count('"passed"') == 1 and "oracle_passed" not in text
    assert json.loads(text)["factorization"]["oracle"]["passed"] is passed
    assert cli.main(["oracle", "--config", str(cfg)]) == code
    assert capsys.readouterr().out.splitlines()[-1].endswith("pass" if passed else "FAIL")


#: the optional flags each verb reads; --tol is retired, so every verb
#: refuses it (thresholds come from the config's tol_<key>)
VERB_FLAGS = {"analyze": {"out", "format", "block"}, "verify": {"format"},
              "releq": {"format"}, "diagram": {"out", "block"}, "oracle": {"format"}}
FLAG_VALUES = {"out": "d", "tol": "1.0", "format": "machine", "block": "sigma"}


@pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
@pytest.mark.parametrize("verb", sorted(VERB_FLAGS))
def test_each_verb_takes_only_the_flags_it_reads(verb, flag, capsys):
    argv = [verb, "--config", "x", "--" + flag, FLAG_VALUES[flag]]
    if flag in VERB_FLAGS[verb]:
        args = cli._parser().parse_args(argv)
        assert vars(args)[flag] == FLAG_VALUES[flag]
    else:
        with pytest.raises(SystemExit) as exc:
            cli._parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --%s" % flag in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["analyze", "diagram"])
def test_unknown_block_label_exits_2_and_lists_the_labels(verb, tmp_path, pentagon_cfg, capsys):
    """analyze and diagram share one --block rule: the basis blocks, their
    halves and `block_matches`.  A label none of them knows exits 2 with the
    labels on stderr, and nothing is printed or written."""
    cfg = tmp_path / "pentagon.cfg"
    cfg.write_text(PENTAGON.replace("omega = solve", "omega = solve\ncsv = true\nsvg = true"))
    out = tmp_path / "out"
    assert cli.main([verb, "--config", str(cfg), "--out", str(out), "--block", "nope"]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == ("unknown block label 'nope'; available: "
                           "tau_alpha rho_2 sigma sigma_lead sigma_rest\n")
    assert not out.exists()
    for label in ("sigma_lead", "rho", "tau_alpha"):
        assert cli.main([verb, "--config", str(cfg), "--out", str(out), "--block", label]) == 0
        assert capsys.readouterr().err == ""


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
