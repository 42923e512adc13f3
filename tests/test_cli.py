import json
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import sphere_spectra
from sphere_spectra import cli, radial
from sphere_spectra.cli import main
from sphere_spectra.generators import (
    combine_meshes, gen_clifford_torus, gen_geodesic_sphere,
)
from sphere_spectra.mesh import SphericalTriMesh
from sphere_spectra.report import load_report, verify_surface
from sphere_spectra.s3off import read_s3off, write_s3off


def test_constants_table(capsys):
    # full-precision sqrt(2): the generic branch applies at lam >= sqrt(n)
    assert main(["constants", "--dim", "2",
                 "--lambda", "1.4142135623730951"]) == 0
    out = capsys.readouterr().out
    assert "a_n" in out and "bound" in out
    assert "1.00001626" in out


def test_constants_totally_geodesic_branch(capsys):
    assert main(["constants", "--dim", "3", "--lambda", "1.2"]) == 0
    out = capsys.readouterr().out
    assert "totally-geodesic" in out
    bound_line = [ln for ln in out.splitlines()
                  if ln.strip().startswith("bound")][0]
    assert " 3 " in bound_line


def test_constants_json_output(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert main(["constants", "--dim", "2", "--lambda", "1.5",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert data["dim"] == 2
    assert data["a_n"] == pytest.approx(1.3155332985270223e-4)
    assert data["chain"]["valid"] is True


@pytest.mark.parametrize("args,collar,eps_tilde", [
    pytest.param(["--lambda", "1e308"], "0", "0.471404520791",
                 id="1e308-0"),
    pytest.param(["--lambda", "1e60"], "2.3147736397e-121",
                 "0.471404520791", id="1e60-2.3147736397e-121"),
    pytest.param(["--lambda", "1e308", "--eps", "4e307"], "0",
                 "6.66666666667e+307", id="1e308-eps4e307-0")])
def test_constants_huge_lambda(args, collar, eps_tilde, capsys):
    # lam ** 6 overflows at all three, lam ** 2 at 1e308 only, and
    # lam * eps in the offset mean-curvature bound at eps = 4e307
    assert main(["constants", *args]) == 0
    rows = {line.split()[0]: line.split()[1]
            for line in capsys.readouterr().out.splitlines()[1:]}
    assert (rows["bound"], rows["t_collar"], rows["eps_tilde"]) \
        == ("1", collar, eps_tilde)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["constants", "--dim"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


@pytest.mark.parametrize("argv,env_seed", [
    (["constants", "--dim", "1"], None),
    (["constants", "--dim", "2", "--lambda", "-1"], None),
    (["verify-surface", "--gen", "sphere", "--r", "2.0"], None),
    (["verify-oracles", "--dims", "1"], None),
    (["verify-surface", "--gen", "clifford", "--res", "8"], "abc"),
    (["verify-oracles", "--dims", ","], None),
    (["offsets", "--gen", "clifford", "--res", "8", "--ts", ","], None),
    (["verify-surface", "--gen", "clifford", "--res", "8", "--offsets", ","],
     None),
    (["constants", "--lambda", "nan"], None),
    (["constants", "--lambda", "inf"], None),
    (["constants", "--lambda", "2", "--beta", "inf"], None),
    (["verify-surface", "--gen", "clifford", "--res", "8", "--tol", "nan"],
     None),
    (["verify-surface", "--gen", "clifford", "--res", "8", "--tol", "inf"],
     None),
    (["offsets", "--gen", "clifford", "--res", "8", "--ts", "nan"], None),
    (["verify-surface", "--gen", "clifford", "--res", "8", "--offsets",
      "nan"], None),
    (["verify-oracles", "--dims", "2", "--tol", "nan"], None),
    (["verify-oracles", "--dims", "2", "--tol", "-1"], None),
    (["offsets", "--gen", "clifford", "--res", "8", "--ts", ""], None),
    (["verify-oracles", "--dims", ""], None),
], ids=["dim", "lambda", "sphere-radius", "oracle-dims", "seed-env",
        "empty-dims", "empty-ts", "empty-offsets", "lambda-nan", "lambda-inf",
        "beta-inf", "tol-nan", "tol-inf", "ts-nan", "offsets-nan",
        "oracle-tol-nan", "oracle-tol-negative", "blank-ts", "blank-dims"])
def test_bad_values_exit_usage(argv, env_seed, monkeypatch, capsys):
    if env_seed is not None:
        monkeypatch.setenv("SPHERE_SPECTRA_SEED", env_seed)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    assert len(err.strip().splitlines()) == 1


def test_verify_surface_writes_report(tmp_path, capsys):
    out = tmp_path / "rep.json"
    csv_out = tmp_path / "rep.csv"
    assert main(["verify-surface", "--gen", "clifford", "--res", "24",
                 "--out", str(out), "--csv", str(csv_out)]) == 0
    text = capsys.readouterr().out
    assert "[pass] improved_bound" in text
    data = load_report(out)
    assert data["spectrum"]["lambda1"] == pytest.approx(2.0, rel=0.01)
    lines = csv_out.read_text().strip().splitlines()
    assert len(lines) == 2


def test_verify_surface_from_s3off(tmp_path, capsys):
    mesh_path = tmp_path / "equator.s3off"
    write_s3off(gen_geodesic_sphere(math.pi / 2.0, 3), mesh_path)
    assert main(["verify-surface", "--mesh", str(mesh_path)]) == 0
    out = capsys.readouterr().out
    assert "totally-geodesic" in out


def test_mesh_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.s3off"
    bad.write_text("NOPE\n")
    assert main(["verify-surface", "--mesh", str(bad)]) == 3
    assert "mesh error" in capsys.readouterr().err


def _great_octahedron(path):
    """An octahedron on the great sphere x0 = 0, as S3OFF: its best pole
    clearance (pi/2, at +-e0) equals its triangles' angular size."""
    verts = np.concatenate([np.zeros((6, 1)), np.kron(np.eye(3), [[1], [-1]])],
                           axis=1)
    tris = [[0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
            [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5]]
    write_s3off(SphericalTriMesh(vertices=verts, triangles=np.array(tris),
                                 genus=0), path)


@pytest.mark.parametrize("argv", [["offsets", "--ts", "0"],
                                  ["verify-surface", "--offsets", "0"]],
                         ids=["offsets", "verify-surface"])
def test_geometry_error_exit_code(argv, tmp_path, capsys):
    mesh_path = tmp_path / "octahedron.s3off"
    _great_octahedron(mesh_path)
    assert main([*argv, "--mesh", str(mesh_path)]) == 3
    err = capsys.readouterr().err
    assert err == ("geometry error: best pole clearance 1.5708 rad does not "
                   "exceed 1.5708 rad, the angular size of the largest "
                   "triangle\n")


def test_flat_octahedron_offsets_stop_at_its_focal_point(tmp_path, capsys):
    # its discrete kappas are exactly 0: the normal geodesics meet at the
    # poles +-e0 at distance pi/2, so no row reaches the offset there
    mesh_path = tmp_path / "octahedron.s3off"
    _great_octahedron(mesh_path)
    assert main(["offsets", "--mesh", str(mesh_path),
                 "--ts", "1.5707963267948966,2.0"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].endswith("horizon T = 1.570796")
    assert rows[2].split() == ["1.571", "beyond", "T=1.5708"]
    assert rows[3].split() == ["2.000", "beyond", "T=1.5708"]


def test_flat_octahedron_report_horizon(tmp_path):
    mesh_path = tmp_path / "octahedron.s3off"
    _great_octahedron(mesh_path)
    rep = verify_surface(read_s3off(mesh_path), offsets=(math.pi / 2, 2.0))
    assert rep["curvature"]["horizon"] == math.pi / 2
    assert [row["status"] for row in rep["offsets"]] == ["beyond-horizon"] * 2
    assert rep["verdicts"]["offsets_embedded"]["detail"] == (
        "embedded at t in []; "
        "beyond the horizon at t in [1.5707963267948966, 2.0]")


@pytest.mark.parametrize("body", [
    b"S3OFF\n1 1\n1 0 0 0\n3 0 1 x\n",
    b"S3OFF\n1 1\n1 0 0 0\n3 0 1 2.5\n",
    b"S3OFF\n1 1\n1 0 0 \xff0\n3 0 1 2\n",
], ids=["letter", "fraction", "non-ascii"])
def test_unparsable_s3off_exit_code(body, tmp_path, capsys):
    bad = tmp_path / "bad.s3off"
    bad.write_bytes(body)
    assert main(["verify-surface", "--mesh", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"mesh error: {bad}: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv,path", [
    (["verify-surface", "--mesh", "{tmp}/missing.s3off"], "missing.s3off"),
    (["offsets", "--mesh", "{tmp}/missing.s3off"], "missing.s3off"),
    (["verify-surface", "--res", "8", "--out", "{tmp}/no/rep.json"],
     "rep.json"),
    (["verify-surface", "--res", "8", "--csv", "{tmp}/no/rep.csv"], "rep.csv"),
    (["constants", "--out", "{tmp}/no/c.json"], "c.json"),
    (["report", "{tmp}/missing.json"], "missing.json"),
], ids=["mesh", "offsets-mesh", "out", "csv", "constants-out", "report"])
def test_file_errors_exit_usage(argv, path, tmp_path, capsys):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert f"{tmp_path}/" in err and f"{path}'" in err


def test_non_finite_vertex_exit_code(tmp_path, capsys):
    mesh_path = tmp_path / "nan.s3off"
    write_s3off(gen_geodesic_sphere(math.pi / 2.0, 3), mesh_path)
    lines = mesh_path.read_text().splitlines()
    lines[2] = "nan nan nan nan"
    mesh_path.write_text("\n".join(lines) + "\n")
    assert main(["verify-surface", "--mesh", str(mesh_path)]) == 3
    assert "vertex 0 is not finite" in capsys.readouterr().err


def test_disconnected_mesh_exit_code(tmp_path, capsys):
    mesh_path = tmp_path / "two_spheres.s3off"
    write_s3off(combine_meshes(gen_geodesic_sphere(math.pi / 4.0, 3),
                               gen_geodesic_sphere(math.pi / 6.0, 3)),
                mesh_path)
    assert main(["verify-surface", "--mesh", str(mesh_path)]) == 3
    assert "2 connected components" in capsys.readouterr().err


def test_solver_failure_exit_code(tmp_path, monkeypatch, capsys):
    from sphere_spectra import report as report_mod
    from sphere_spectra.spectral import ConvergenceError

    def fail(*args, **kwargs):
        raise ConvergenceError("forced", 0.0, None, 1.0, 1)

    monkeypatch.setattr(report_mod.spectral, "smallest_nonzero_eig", fail)
    assert main(["verify-surface", "--gen", "clifford", "--res", "16"]) == 4
    assert "solver failure" in capsys.readouterr().err


def test_quadrature_failure_exit_code(monkeypatch, capsys):
    # an oracle integrand that is not finite (here the interior oracle's,
    # through an infinite sphere volume) gives an integral that is not
    # finite (with a numpy warning): a solver failure, one line and no
    # traceback
    monkeypatch.setattr(radial, "sphere_volume", lambda n: math.inf)
    with pytest.warns(RuntimeWarning):
        code = main(["verify-oracles", "--dims", "3", "--only", "interior"])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("solver failure: non-finite result")
    assert err.count("\n") == 1


def test_verify_oracles_interior_at_large_dims(capsys):
    # the dimensions whose |grad v|^2 = sin^-2n r overflows a double
    assert main(["verify-oracles", "--dims", "289,300,500",
                 "--only", "interior"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "6/6 checks passed"


def test_offsets_table(capsys):
    assert main(["offsets", "--gen", "clifford", "--res", "16",
                 "--ts", "0.2,0.8"]) == 0
    out = capsys.readouterr().out
    assert "embedded" in out
    assert "beyond T=0.7854" in out
    header = out.splitlines()[1].split()
    assert header[-2:] == ["minH(anal)", "maxH(anal)"]


def test_offsets_table_from_s3off_uses_discrete_horizon(tmp_path, capsys):
    # a mesh file carries no curvatures: the horizon is the focal distance
    # of the largest discrete |kappa|, pi/4 as from the generator's kappas
    mesh_path = tmp_path / "clifford.s3off"
    write_s3off(gen_clifford_torus(32, 32), mesh_path)
    assert main(["offsets", "--mesh", str(mesh_path),
                 "--ts", "0.1,0.7,0.8"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].endswith("horizon T = 0.785398")
    assert rows[2].split()[:2] == ["0.100", "embedded"]
    assert rows[3].split()[:2] == ["0.700", "embedded"]
    assert rows[4].split() == ["0.800", "beyond", "T=0.7854"]


def test_verify_oracles_pass(capsys):
    assert main(["verify-oracles", "--dims", "2", "--only", "chain"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out


def test_verify_oracles_filter_and_loose_tol(capsys):
    assert main(["verify-oracles", "--dims", "2", "--only", "reilly",
                 "--tol", "1e-6"]) == 0
    out = capsys.readouterr().out
    assert "reilly" in out and "chain" not in out


def test_verify_oracles_failure_exit(capsys):
    assert main(["verify-oracles", "--dims", "2", "--only", "reilly",
                 "--tol", "1e-16"]) == 5
    err = capsys.readouterr().err
    assert "reilly" in err


def test_verify_oracles_prints_the_table(capsys):
    # the rows, in order, are the table's; the benchmark counts 24 per n
    assert main(["verify-oracles", "--dims", "2,3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [(kind.split("/")[0], int(n), name)
            for kind, n, name, *_ in map(str.split, lines[1:-1])]
    expected = [(kind, n, rep.name) for n in (2, 3)
                for kind, suite in radial.ORACLES.items() for rep in suite(n)]
    assert rows == expected
    assert Counter(kind for kind, n, _ in rows if n == 2) == {
        "reilly": 9, "bochner": 1, "interior": 2, "chain": 4, "collar": 8}
    assert lines[-1] == "48/48 checks passed"


def test_verify_oracles_pass_past_dimension_four(capsys):
    # every threshold is relative, so the Bochner row holds at n >= 5,
    # where its right side grows like sin(0.3)^(-2n)
    assert main(["verify-oracles", "--dims", "2,3,4,5,6,7,8"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "168/168 checks passed"


def test_verify_oracles_only_skips_other_kinds(monkeypatch, capsys):
    def boom(n):
        raise AssertionError("chain computed under --only reilly")

    monkeypatch.setattr(radial, "verify_choiwang_chain_hemisphere", boom)
    assert main(["verify-oracles", "--dims", "2", "--only", "reilly"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "9/9 checks passed"


def test_verify_oracles_tol_scales_lhs_or_rhs(capsys):
    # --tol X: X |lhs| for the flux identity, X |rhs| for the three chain
    # inequalities
    assert main(["verify-oracles", "--dims", "2", "--only", "chain",
                 "--tol", "1e-3"]) == 0
    tols = [line.split()[-2]
            for line in capsys.readouterr().out.splitlines()[1:-1]]
    flux, *ineqs = radial.verify_choiwang_chain_hemisphere(2)
    scales = [flux.lhs] + [r.rhs for r in ineqs]
    assert tols == [f"{1e-3 * abs(s):.1e}" for s in scales]


def test_main_runs_the_handler_on_the_module(monkeypatch, capsys):
    # the parser is cached; the handler is looked up on the module at each
    # call, so one that is replaced there (as a wrapper) is the one run
    calls = []
    handler = cli._cmd_verify_oracles
    monkeypatch.setattr(cli, "_cmd_verify_oracles",
                        lambda args: calls.append(args.dims) or handler(args))
    assert main(["verify-oracles", "--dims", "2", "--only", "bochner"]) == 0
    assert calls == ["2"]
    assert capsys.readouterr().out.endswith("1/1 checks passed\n")


def test_report_merge_and_schema_mismatch(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["verify-surface", "--gen", "sphere", "--r", "0.9",
                 "--subdiv", "3", "--out", str(out)]) == 0
    merged_csv = tmp_path / "merged.csv"
    assert main(["report", str(out), str(out), "--csv", str(merged_csv)]) == 0
    assert len(merged_csv.read_text().strip().splitlines()) == 3
    capsys.readouterr()

    bad = tmp_path / "bad.json"
    data = json.loads(out.read_text())
    data["schema"] = 99
    bad.write_text(json.dumps(data))
    assert main(["report", str(out), str(bad)]) == 6
    assert "schema" in capsys.readouterr().err


def test_report_with_tampered_verdict_is_schema_mismatch(tmp_path, capsys):
    # the stored verdicts pass, but lambda1 = 0.5 fails two of them
    out = tmp_path / "rep.json"
    assert main(["verify-surface", "--res", "16", "--out", str(out)]) == 0
    assert main(["report", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    data["spectrum"]["lambda1"] = 0.5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["report", str(out), str(bad), "--csv",
                 str(tmp_path / "r.csv")]) == 6
    assert capsys.readouterr().err == (
        f"schema mismatch: {bad}: stored verdicts differ from their "
        f"recomputation: choi_wang, improved_bound\n")
    assert not (tmp_path / "r.csv").exists()


def test_report_reads_its_own_merged_output(tmp_path, capsys):
    # report --out writes {"schema": 1, "reports": [...]}; report reads it
    # back as the same rows, and checks each report in it as a file
    out = tmp_path / "rep.json"
    assert main(["verify-surface", "--res", "16", "--out", str(out)]) == 0
    merged, again = tmp_path / "merged.json", tmp_path / "again.json"
    assert main(["report", str(out), str(out), "--csv",
                 str(tmp_path / "a.csv"), "--out", str(merged)]) == 0
    assert main(["report", str(merged), "--csv", str(tmp_path / "b.csv"),
                 "--out", str(again)]) == 0
    assert (tmp_path / "b.csv").read_text() == (tmp_path / "a.csv").read_text()
    assert json.loads(again.read_text()) == json.loads(merged.read_text())
    capsys.readouterr()
    assert main(["report", str(merged), str(out)]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 4
    data = json.loads(merged.read_text())
    data["reports"][1]["spectrum"]["lambda1"] = 0.5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["report", str(bad)]) == 6
    assert capsys.readouterr().err == (
        f"schema mismatch: {bad}: reports[1]: stored verdicts differ from "
        f"their recomputation: choi_wang, improved_bound\n")


def test_report_missing_section_is_schema_mismatch(tmp_path, capsys):
    # a section, or a key of one, that the CSV row reads; the sphere of
    # radius 0.9 is not minimal, so its verdicts do not read bound/branch
    out = tmp_path / "rep.json"
    assert main(["verify-surface", "--gen", "sphere", "--r", "0.9",
                 "--subdiv", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    for path in ("spectrum", "timing_s", "verdicts", "timing_s/total",
                 "surface/triangles", "bound/branch"):
        data = json.loads(out.read_text())
        section, _, key = path.rpartition("/")
        del (data[section] if section else data)[key]
        bad = tmp_path / f"no-{key}.json"
        bad.write_text(json.dumps(data))
        assert main(["report", str(out), str(bad)]) == 6
        assert capsys.readouterr().err \
            == f"schema mismatch: {bad}: schema 1 report without '{key}'\n"


def test_report_null_spectrum_is_schema_mismatch(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["verify-surface", "--res", "12", "--out", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    data["spectrum"] = None
    out.write_text(json.dumps(data))
    assert main(["report", str(out)]) == 6
    err = capsys.readouterr().err
    assert err.startswith(f"schema mismatch: {out}: no CSV row can be read (")
    assert err.count("\n") == 1


@pytest.mark.parametrize("body", [b"nope\n", b'{"schema": "\xff"}\n'],
                         ids=["not-json", "not-utf8"])
def test_report_unreadable_json_names_file(body, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(body)
    assert main(["report", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {bad}: not a JSON report (")
    assert err.count("\n") == 1


def test_report_empty_inputs_header_only(capsys):
    assert main(["report"]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[0].startswith("name,")


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults for the demo run\ndim = 3\nlambda = 1.2\n")
    assert main(["constants", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "n = 3" in out
    # explicit flags override the config
    assert main(["constants", "--config", str(cfg), "--dim", "2"]) == 0
    out = capsys.readouterr().out
    assert "n = 2" in out


def test_config_parse_error(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("dim: 3\n")
    assert main(["constants", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv,line", [
    (["verify-oracles", "--dims", "2"], "only = bogus"),
    (["offsets"], "gen = bogus"),
], ids=["only", "gen"])
def test_config_value_outside_choices(argv, line, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert main(argv + ["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err and "bogus" in captured.err
    assert "checks passed" not in captured.out


def test_config_bad_value_names_option(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("dim = x\n")
    assert main(["constants", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert captured.err.count("\n") == 1 and "--dim" in captured.err
    assert captured.out == ""


def test_config_missing_file_names_path(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert main(["constants", "--config", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert str(missing) in err


def test_config_offsets_precedence(tmp_path, capsys):
    cfg = tmp_path / "offsets.cfg"
    cfg.write_text("res = 8\nts = 0.1\n")
    assert main(["offsets", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("surface: clifford(8x8) ")
    assert [row.split()[0] for row in lines[2:]] == ["0.100"]
    # a command-line flag overrides the file's line
    assert main(["offsets", "--config", str(cfg), "--res", "12"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("surface: clifford(12x12) ")
    assert [row.split()[0] for row in lines[2:]] == ["0.100"]


def test_config_seed_precedence(tmp_path, monkeypatch, capsys):
    # the environment overrides --seed, which overrides the config file
    cfg = tmp_path / "surface.cfg"
    cfg.write_text("gen = clifford\nres = 8\nseed = 3\n")
    out = tmp_path / "rep.json"
    monkeypatch.delenv("SPHERE_SPECTRA_SEED", raising=False)
    for extra, env, seed in [([], None, 3), (["--seed", "5"], None, 5),
                             (["--seed", "5"], "7", 7)]:
        if env is not None:
            monkeypatch.setenv("SPHERE_SPECTRA_SEED", env)
        assert main(["verify-surface", "--config", str(cfg), *extra,
                     "--out", str(out)]) == 0
        assert load_report(out)["parameters"]["seed"] == seed
    capsys.readouterr()


def test_config_unknown_key_ignored(tmp_path, capsys):
    cfg = tmp_path / "extra.cfg"
    cfg.write_text("colour = red\ndim = 3\n")
    assert main(["constants", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert "n = 3" in captured.out and captured.err == ""


def test_config_unknown_key_with_space_ignored(tmp_path, capsys):
    # argparse reads an unknown `--colour=dark red` as a positional
    # argument, which `report` would take for an input path
    cfg = tmp_path / "extra.cfg"
    cfg.write_text("colour = dark red\nmy colour = red\n")
    assert main(["report", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0].startswith("name,")
    assert len(captured.out.splitlines()) == 1 and captured.err == ""


def test_parser_built_once_prints_as_fresh_parsers(tmp_path, monkeypatch,
                                                   capsys):
    # one parser serves every call of the process: successive commands,
    # config files and usage errors print what a parser built for each
    # call prints, and no value of one call leaks into the next
    files = {"constants.cfg": "dim = 4\nlambda = 2.5\n",
             "offsets.cfg": "res = 8\nts = 0.2\ncolour = dark red\n",
             "oracles.cfg": "dims = 3\nonly = interior\n",
             "report.cfg": "colour = red\n",
             "bad.cfg": "dim = x\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    cfg = {name: str(tmp_path / name) for name in files}
    calls = [
        ["constants", "--dim", "3", "--lambda", "1.8"],
        ["verify-oracles", "--dims", "2", "--only", "bochner"],
        ["constants", "--config", cfg["constants.cfg"]],
        ["constants"],
        ["offsets", "--res", "8", "--ts", "0.1"],
        ["offsets", "--config", cfg["offsets.cfg"], "--ts", "0.3"],
        ["verify-oracles", "--config", cfg["oracles.cfg"]],
        ["verify-oracles", "--dims", "2", "--only", "bochner"],
        ["report", "--config", cfg["report.cfg"]],
        ["constants", "--config", cfg["bad.cfg"]],
        ["constants", "--dim", "x"],
        ["verify-oracles", "--only", "bogus"],
        ["no-such-command"],
        ["constants", "--lambda", "1.8"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: builds.append(1) or build())
    cached = cli._parser
    cached.cache_clear()
    try:
        once = [run(argv) for argv in calls]
        assert len(builds) == 1
        monkeypatch.setattr(cli, "_parser", build)
        fresh = [run(argv) for argv in calls]
    finally:
        cached.cache_clear()
    assert once == fresh
    codes = [code for code, _, _ in once]
    assert codes == [0] * 9 + [2] * 4 + [0]
    assert "n = 4" in once[2][1] and "n = 2" in once[3][1]


_CLOSED_STDOUT_CHILD = """
import os, sys
from sphere_spectra.cli import main
read_end, write_end = os.pipe()
os.close(read_end)
os.dup2(write_end, 1)
sys.exit(main(["constants"]))
"""


@pytest.mark.parametrize("buffered", [True, False])
def test_closed_stdout_exit_code(buffered):
    # buffered, the write fails only at the flush; unbuffered, at the print
    src = os.path.dirname(os.path.dirname(sphere_spectra.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED="1")
    if buffered:
        del env["PYTHONUNBUFFERED"]
    proc = subprocess.run([sys.executable, "-c", _CLOSED_STDOUT_CHILD],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 141
    assert proc.stderr == ""


def test_seed_env_override(tmp_path, monkeypatch, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    monkeypatch.setenv("SPHERE_SPECTRA_SEED", "7")
    assert main(["verify-surface", "--gen", "clifford", "--res", "16",
                 "--seed", "3", "--out", str(out_a)]) == 0
    monkeypatch.delenv("SPHERE_SPECTRA_SEED")
    assert main(["verify-surface", "--gen", "clifford", "--res", "16",
                 "--seed", "7", "--out", str(out_b)]) == 0
    capsys.readouterr()
    a = load_report(out_a)
    b = load_report(out_b)
    # env seed 7 overrode --seed 3: identical deterministic runs
    assert a["parameters"]["seed"] == 7
    assert a["spectrum"]["lambda1"] == b["spectrum"]["lambda1"]
    assert a["spectrum"]["iterations"] == b["spectrum"]["iterations"]
