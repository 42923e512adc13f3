import json
import math
from collections import Counter

import pytest

from sphere_spectra import radial
from sphere_spectra.cli import main
from sphere_spectra.generators import (
    combine_meshes, gen_clifford_torus, gen_geodesic_sphere,
)
from sphere_spectra.report import load_report
from sphere_spectra.s3off import write_s3off


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


@pytest.mark.parametrize("lam,collar", [("1e308", "0"),
                                        ("1e60", "2.3147736397e-121")])
def test_constants_huge_lambda(lam, collar, capsys):
    # lam ** 6 overflows at both, lam ** 2 at 1e308 only
    assert main(["constants", "--lambda", lam]) == 0
    rows = {line.split()[0]: line.split()[1]
            for line in capsys.readouterr().out.splitlines()[1:]}
    assert (rows["bound"], rows["t_collar"]) == ("1", collar)


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
], ids=["dim", "lambda", "sphere-radius", "oracle-dims", "seed-env",
        "empty-dims", "empty-ts", "empty-offsets", "lambda-nan", "lambda-inf",
        "beta-inf", "tol-nan", "tol-inf", "ts-nan", "offsets-nan",
        "oracle-tol-nan", "oracle-tol-negative"])
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


def test_offsets_table(capsys):
    assert main(["offsets", "--gen", "clifford", "--res", "16",
                 "--ts", "0.2,0.8"]) == 0
    out = capsys.readouterr().out
    assert "embedded" in out
    assert "beyond T=0.7854" in out
    header = out.splitlines()[1].split()
    assert header[-2:] == ["minH(anal)", "maxH(anal)"]


def test_offsets_table_from_s3off_uses_discrete_horizon(tmp_path, capsys):
    # a mesh file carries no curvatures: t=0.7 is past the discrete horizon
    mesh_path = tmp_path / "clifford.s3off"
    write_s3off(gen_clifford_torus(32, 32), mesh_path)
    assert main(["offsets", "--mesh", str(mesh_path),
                 "--ts", "0.1,0.7"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert "embedded" in rows[2]
    assert rows[3].split()[:2] == ["0.700", "beyond"]


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


def test_verify_oracles_only_skips_other_kinds(monkeypatch, capsys):
    def boom(n):
        raise AssertionError("chain computed under --only reilly")

    monkeypatch.setattr(radial, "verify_choiwang_chain_hemisphere", boom)
    assert main(["verify-oracles", "--dims", "2", "--only", "reilly"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "9/9 checks passed"


def test_verify_oracles_tol_scales_lhs_or_rhs(capsys):
    # --tol X: X (1 + |lhs|) for the flux identity, X (1 + |rhs|) for the
    # three chain inequalities
    assert main(["verify-oracles", "--dims", "2", "--only", "chain",
                 "--tol", "1e-3"]) == 0
    tols = [line.split()[-2]
            for line in capsys.readouterr().out.splitlines()[1:-1]]
    flux, *ineqs = radial.verify_choiwang_chain_hemisphere(2).reports
    scales = [flux.lhs] + [r.rhs for r in ineqs]
    assert tols == [f"{1e-3 * (1.0 + abs(s)):.1e}" for s in scales]


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


def test_report_missing_section_is_schema_mismatch(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["verify-surface", "--gen", "sphere", "--r", "0.9",
                 "--subdiv", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    for key in ("spectrum", "timing_s", "verdicts"):
        bad = tmp_path / f"no-{key}.json"
        bad.write_text(json.dumps({k: v for k, v in data.items() if k != key}))
        assert main(["report", str(out), str(bad)]) == 6
        assert capsys.readouterr().err \
            == f"schema mismatch: {bad}: schema 1 report without '{key}'\n"


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
