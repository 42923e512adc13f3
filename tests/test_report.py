import json
import math

import numpy as np
import pytest

from sphere_spectra import mesh as M
from sphere_spectra import report as R
from sphere_spectra.generators import (
    combine_meshes, gen_clifford_torus, gen_flat_torus, gen_geodesic_sphere,
    rotate_mesh,
)
from sphere_spectra.mesh import MeshError, offset_mesh
from sphere_spectra.s3off import read_s3off, write_s3off
from sphere_spectra.report import (
    CSV_FIELDS, SchemaMismatchError, compute_verdicts, load_report,
    merge_reports, merged_csv_text, offset_row, report_to_csv_row,
    verify_surface, write_json_atomic,
)


@pytest.fixture(scope="module")
def clifford_report():
    return verify_surface(gen_clifford_torus(32, 32), offsets=[0.3, 2.0])


def test_report_core_numbers(clifford_report):
    rep = clifford_report
    assert rep["schema"] == 1
    assert rep["tool"].startswith("sphere-spectra ")
    # full parameter echo for reproducibility
    assert rep["parameters"] == {"seed": 0, "tol": 1e-8, "max_iter": 10000,
                                 "offsets": [0.3, 2.0]}
    assert rep["spectrum"]["lambda1"] == pytest.approx(2.0, rel=0.01)
    # the near shift below the coordinates' Rayleigh quotient was certified
    assert rep["spectrum"]["below_shift"] == 1
    assert 0.0 < rep["spectrum"]["shift"] < rep["spectrum"]["lambda1"]
    assert rep["curvature"]["lam_discrete"] == pytest.approx(
        math.sqrt(2.0), rel=0.02)
    assert rep["bound"]["value_analytic_lam"] == pytest.approx(
        1.0000162658473663, rel=1e-10)
    assert rep["bound"]["branch"] == "generic"
    assert rep["surface"]["genus"] == 1


def test_report_verdicts_pass(clifford_report):
    verdicts = clifford_report["verdicts"]
    for name in ("minimality", "choi_wang", "improved_bound", "yau_upper",
                 "yang_yau", "simons", "volume_bound", "offsets_embedded"):
        assert verdicts[name]["passed"], (name, verdicts[name])


def test_offsets_table_statuses(clifford_report):
    rows = {row["t"]: row for row in clifford_report["offsets"]}
    assert rows[0.3]["status"] == "embedded"
    for key in ("h_analytic_min", "h_analytic_max"):
        assert rows[0.3][key] == pytest.approx(2.0 * math.tan(0.6), rel=1e-9)
    assert rows[0.3]["h_discrete_min"] == pytest.approx(2.0 * math.tan(0.6),
                                                        rel=0.05)
    assert rows[2.0]["status"] == "beyond-horizon"


def test_verdicts_are_recomputable(clifford_report):
    # audit: every stored verdict derives from the stored numbers
    stored = clifford_report["verdicts"]
    assert compute_verdicts(clifford_report) == stored


def test_report_round_trips_losslessly(tmp_path, clifford_report):
    path = tmp_path / "report.json"
    write_json_atomic(clifford_report, path)
    loaded = load_report(path)
    assert loaded == clifford_report


def test_flat_torus_report_skips_minimal_checks():
    rep = verify_surface(gen_flat_torus(0.5, 24, 24))
    verdicts = rep["verdicts"]
    assert not verdicts["minimality"]["passed"]
    assert verdicts["minimality"]["detail"] == "not minimal"
    assert "skipped" in verdicts["improved_bound"]["detail"]
    assert "choi_wang" not in verdicts
    assert "simons" not in verdicts
    assert verdicts["volume_bound"]["passed"]     # mean-convex at r = 0.5
    assert verdicts["yang_yau"]["passed"]
    assert rep["spectrum"]["lambda1"] == pytest.approx(4.0 / 3.0, rel=0.02)


def test_csv_row_covers_fields(clifford_report):
    row = report_to_csv_row(clifford_report)
    assert set(row) == set(CSV_FIELDS)
    assert row["verdict_yang_yau"] == 1


def test_merge_reports(tmp_path, clifford_report):
    paths = []
    for k in range(3):
        p = tmp_path / f"r{k}.json"
        write_json_atomic(clifford_report, p)
        paths.append(p)
    merged = merge_reports(paths)
    assert len(merged) == 3
    text = merged_csv_text(merged)
    lines = text.strip().splitlines()
    assert len(lines) == 4                      # header + 3 rows
    assert lines[0].split(",")[0] == "name"


def test_merge_empty_is_header_only():
    assert merged_csv_text([]).strip().splitlines() == [",".join(CSV_FIELDS)]


def test_merge_rejects_mixed_schema(tmp_path, clifford_report):
    good = tmp_path / "good.json"
    write_json_atomic(clifford_report, good)
    bad = tmp_path / "bad.json"
    tampered = json.loads(json.dumps(clifford_report))
    tampered["schema"] = 2
    write_json_atomic(tampered, bad)
    with pytest.raises(SchemaMismatchError):
        merge_reports([good, bad])


def test_equator_report_totally_geodesic_branch():
    from sphere_spectra.generators import gen_geodesic_sphere
    rep = verify_surface(gen_geodesic_sphere(math.pi / 2.0, 4))
    assert rep["bound"]["branch"] == "totally-geodesic"
    assert rep["bound"]["value_analytic_lam"] == 2.0
    assert rep["curvature"]["lam_discrete"] <= 0.05
    assert rep["spectrum"]["lambda1"] == pytest.approx(2.0, rel=0.01)
    assert len(rep["spectrum"]["cluster"]) == 3
    assert rep["verdicts"]["improved_bound"]["passed"]
    # totally geodesic: curvature-excess integral is ~0, comfortably above floor
    assert rep["verdicts"]["simons"]["passed"]
    assert abs(rep["simons"]["integral"]) < 1e-6


def test_discrete_only_pipeline_from_file(tmp_path):
    # a mesh loaded from disk has no analytic attachments: minimality,
    # curvature level and the offset table all come from discrete data
    from sphere_spectra.generators import gen_clifford_torus
    from sphere_spectra.s3off import read_s3off, write_s3off

    path = tmp_path / "c.s3off"
    write_s3off(gen_clifford_torus(48, 48), path)
    mesh = read_s3off(path)
    assert mesh.kappas is None and mesh.normals is None
    rep = verify_surface(mesh, offsets=[0.3])
    assert rep["curvature"]["lam_analytic"] is None
    assert rep["curvature"]["minimal"]
    assert rep["curvature"]["lam_discrete"] == pytest.approx(
        math.sqrt(2.0), rel=1e-6)
    assert rep["bound"]["branch"] == "generic"
    for name in ("choi_wang", "improved_bound", "yau_upper", "yang_yau",
                 "simons", "volume_bound", "offsets_embedded"):
        assert rep["verdicts"][name]["passed"], name
    row = rep["offsets"][0]
    assert row["status"] == "embedded"
    assert "h_analytic_min" not in row and "h_analytic_max" not in row
    assert row["h_discrete_min"] == pytest.approx(2.0 * math.tan(0.6),
                                                  rel=0.05)


def two_spheres():
    # concentric geodesic spheres: analytic H is 2 cot r on each
    return combine_meshes(gen_geodesic_sphere(math.pi / 4.0, 3),
                          gen_geodesic_sphere(math.pi / 6.0, 3))


def test_offset_row_analytic_h_spans_every_vertex():
    mesh = two_spheres()
    row = offset_row(mesh, 0.1)
    assert row["status"] == "embedded"
    h = offset_mesh(mesh, 0.1).kappas.sum(axis=1)
    assert row["h_analytic_min"] == float(h.min())
    assert row["h_analytic_max"] == float(h.max())
    assert row["h_analytic_min"] == pytest.approx(2.44610, abs=1e-5)
    assert row["h_analytic_max"] == pytest.approx(4.43561, abs=1e-5)


def test_intersecting_offset_row_fails_offsets_verdict(clifford_report):
    # two clifford tori crossed at 0.9 rad meet (Frankel), and so do
    # their parallel surfaces at t = 0.1
    crossed = combine_meshes(
        gen_clifford_torus(32, 32),
        rotate_mesh(gen_clifford_torus(32, 32), 0, 2, 0.9))
    row = offset_row(crossed, 0.1)
    assert row["status"] == "intersecting" and row["witnesses"] == 64
    report = dict(clifford_report, offsets=clifford_report["offsets"] + [row])
    verdict = compute_verdicts(report)["offsets_embedded"]
    assert verdict == {"passed": False,
                       "detail": "self-intersection at t in [0.1]"}


def test_disconnected_mesh_rejected_before_assembly(monkeypatch):
    def no_assembly(mesh):
        raise AssertionError("assembled a disconnected mesh")

    monkeypatch.setattr(R, "assemble_laplacian", no_assembly)
    with pytest.raises(MeshError, match="2 connected components"):
        verify_surface(two_spheres())


def test_one_shape_operator_per_mesh(tmp_path, monkeypatch):
    # base mesh once (cached for the horizon and the offsets), each
    # offset mesh once
    path = tmp_path / "c.s3off"
    write_s3off(gen_clifford_torus(32, 32), path)
    mesh = read_s3off(path)
    calls = []
    original = M.discrete_shape_operator

    def counting(m):
        calls.append(m.name)
        return original(m)

    monkeypatch.setattr(M, "discrete_shape_operator", counting)
    monkeypatch.setattr(R, "discrete_shape_operator", counting)
    rep = verify_surface(mesh, offsets=(0.1, 0.2))
    assert [row["status"] for row in rep["offsets"]] == ["embedded"] * 2
    assert len(calls) == 3


def test_tool_version_looked_up_once(monkeypatch):
    lookups = []

    def version(name):
        lookups.append(name)
        return "9.9.9"

    R.tool_version.cache_clear()
    monkeypatch.setattr(R._im, "version", version)
    try:
        mesh = gen_clifford_torus(16, 16)
        tools = {verify_surface(mesh)["tool"] for _ in range(2)}
        assert tools == {"sphere-spectra 9.9.9"}
        assert lookups == ["sphere-spectra"]
    finally:
        R.tool_version.cache_clear()
