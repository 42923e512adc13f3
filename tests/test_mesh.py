import math
import os
import stat

import numpy as np
import pytest

from sphere_spectra import geometry
from sphere_spectra.generators import (
    combine_meshes, gen_clifford_torus, gen_flat_torus, gen_geodesic_sphere,
    rotate_mesh,
)
from sphere_spectra.mesh import (
    MeshError, MeshQualityError, SphericalTriMesh, assemble_laplacian,
    discrete_shape_operator, offset_mesh, vertex_areas, write_text_atomic,
)
from sphere_spectra.report import write_json_atomic
from sphere_spectra.s3off import write_s3off

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# generators

def test_clifford_counts_and_area():
    mesh = gen_clifford_torus(64, 64)
    assert mesh.vertex_count == 4096
    assert mesh.euler_characteristic == 0
    assert mesh.genus == 1
    assert abs(mesh.area() - 2.0 * math.pi ** 2) <= 0.005 * 2.0 * math.pi ** 2
    # analytic attachments
    assert np.allclose(np.sort(mesh.kappas[0]), [-1.0, 1.0])
    assert abs(mesh.kappas.sum(axis=1)).max() < 1e-12   # minimal


def test_flat_torus_analytic_data():
    r = 0.5
    mesh = gen_flat_torus(r, 16, 16)
    s = math.sqrt(1.0 - r * r)
    assert np.allclose(np.sort(mesh.kappas[0]), sorted([s / r, -r / s]))
    h = mesh.kappas[0].sum()
    assert h == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-12)
    assert mesh.meta["area"] == pytest.approx(math.pi ** 2 * math.sqrt(3.0))
    assert mesh.meta["lambda1"] == pytest.approx(4.0 / 3.0)
    # mean-convex for r <= 1/sqrt(2)
    assert gen_flat_torus(0.4, 16, 16).kappas[0].sum() > 0
    assert gen_flat_torus(0.8, 16, 16).kappas[0].sum() < 0


def test_flat_torus_reduces_to_clifford():
    a = gen_flat_torus(math.sqrt(0.5), 12, 12)
    b = gen_clifford_torus(12, 12)
    assert np.allclose(a.vertices, b.vertices)
    assert np.array_equal(a.triangles, b.triangles)


def test_geodesic_sphere_family():
    for r, subdiv, area in [(math.pi / 2.0, 5, 4.0 * math.pi),
                            (math.pi / 6.0, 4, math.pi)]:
        mesh = gen_geodesic_sphere(r, subdiv)
        assert mesh.euler_characteristic == 2
        assert mesh.genus == 0
        assert abs(mesh.area() - area) <= 0.005 * area
        cot = math.cos(r) / math.sin(r)
        assert np.allclose(mesh.kappas, cot)


def test_generator_preconditions():
    with pytest.raises(ValueError):
        gen_flat_torus(1.5, 16, 16)
    with pytest.raises(ValueError):
        gen_flat_torus(0.5, 4, 16)
    with pytest.raises(ValueError):
        gen_geodesic_sphere(2.0, 4)
    with pytest.raises(ValueError):
        gen_geodesic_sphere(1.0, 2)


def test_generator_normals_match_estimates():
    for mesh in [gen_clifford_torus(16, 16), gen_flat_torus(0.3, 16, 16),
                 gen_geodesic_sphere(0.8, 3)]:
        dots = np.einsum("ij,ij->i", mesh.estimated_normals(), mesh.normals)
        assert dots.min() > 0.99


# ---------------------------------------------------------------------------
# validation

def test_rejects_open_mesh():
    verts = np.eye(4)
    tris = np.array([[0, 1, 2]])
    with pytest.raises(MeshError, match="not closed"):
        SphericalTriMesh(vertices=verts, triangles=tris)


def test_rejects_inconsistent_orientation():
    # tetrahedron with one face flipped: repeated directed edge
    verts = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0],
                      [0, 0, 1.0, 0], [0, 0, 0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 1, 3], [1, 2, 3], [0, 2, 3]])
    with pytest.raises(MeshError, match="orientation|not closed"):
        SphericalTriMesh(vertices=verts, triangles=tris)


def test_accepts_oriented_tetrahedron():
    verts = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0],
                      [0, 0, 1.0, 0], [0, 0, 0, 1.0]])
    tris = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]])
    mesh = SphericalTriMesh(vertices=verts, triangles=tris, genus=0)
    assert mesh.euler_characteristic == 2


def test_rejects_off_sphere_vertex():
    verts = np.array([[1.1, 0, 0, 0], [0, 1.0, 0, 0],
                      [0, 0, 1.0, 0], [0, 0, 0, 1.0]])
    tris = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]])
    with pytest.raises(MeshError, match="unit sphere"):
        SphericalTriMesh(vertices=verts, triangles=tris)


def test_rejects_wrong_genus():
    mesh = gen_clifford_torus(8, 8)
    with pytest.raises(MeshError, match="genus"):
        SphericalTriMesh(vertices=mesh.vertices, triangles=mesh.triangles,
                         genus=0)


def test_union_has_no_genus_but_counts_components():
    u = combine_meshes(gen_geodesic_sphere(0.5, 3), gen_geodesic_sphere(1.0, 3))
    assert u.genus is None
    assert u.component_count == 2
    assert u.euler_characteristic == 4


# ---------------------------------------------------------------------------
# Laplacian

def test_laplacian_row_sums_and_mass():
    mesh = gen_clifford_torus(24, 24)
    pair = assemble_laplacian(mesh)
    ones = np.ones(pair.size)
    scale = abs(pair.stiffness.data).max()
    assert abs(pair.stiffness @ ones).max() <= 1e-10 * scale
    assert pair.mass.sum() == pytest.approx(mesh.area(), rel=1e-12)
    assert (pair.mass > 0).all()
    assert np.allclose(pair.mass, vertex_areas(mesh))


def test_laplacian_psd():
    mesh = gen_geodesic_sphere(1.0, 3)
    pair = assemble_laplacian(mesh)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(pair.size)
        assert x @ (pair.stiffness @ x) >= -1e-9


def test_laplacian_symmetry():
    mesh = gen_flat_torus(0.4, 12, 12)
    pair = assemble_laplacian(mesh)
    diff = (pair.stiffness - pair.stiffness.T).tocoo()
    assert abs(diff.data).max() < 1e-14 if diff.nnz else True


def test_degenerate_triangle_rejected():
    # collapse one edge of a real triangle -> zero-area triangle
    base = gen_geodesic_sphere(1.0, 3)
    i, j = base.triangles[0][:2]
    verts = base.vertices.copy()
    verts[j] = verts[i]
    mesh = SphericalTriMesh.__new__(SphericalTriMesh)
    # bypass validation to target the quality check
    mesh.vertices = verts
    mesh.triangles = base.triangles
    mesh._cache = {}
    with pytest.raises(MeshQualityError, match="triangle"):
        assemble_laplacian(mesh)


def test_rayleigh_of_analytic_mode():
    mesh = gen_clifford_torus(64, 64)
    pair = assemble_laplacian(mesh)
    theta = np.arctan2(mesh.vertices[:, 1], mesh.vertices[:, 0])
    mode = np.cos(theta)
    mode -= (pair.mass @ mode) / pair.mass.sum()
    rq = (mode @ (pair.stiffness @ mode)) / (mode @ (pair.mass * mode))
    assert rq == pytest.approx(2.0, rel=0.02)


# ---------------------------------------------------------------------------
# discrete shape operator

def test_shape_operator_clifford():
    mesh = gen_clifford_torus(128, 128)
    geom = discrete_shape_operator(mesh)
    assert abs(geom.norm_A - SQRT2).max() <= 0.02 * SQRT2
    assert abs(geom.mean_H).max() <= 0.02
    assert geom.lam_max == pytest.approx(SQRT2, rel=0.02)
    assert geom.genus == 1
    assert geom.total_area == pytest.approx(mesh.area(), rel=1e-12)
    assert (geom.areas > 0).all()
    # symmetric operators by construction
    assert np.allclose(geom.shape_operators,
                       np.swapaxes(geom.shape_operators, 1, 2))


def test_shape_operator_equator_noise():
    geom = discrete_shape_operator(gen_geodesic_sphere(math.pi / 2.0, 5))
    assert geom.lam_max <= 0.05


def test_shape_operator_geodesic_sphere():
    geom = discrete_shape_operator(gen_geodesic_sphere(math.pi / 4.0, 4))
    assert abs(geom.mean_H - 2.0).max() <= 0.02 * 2.0
    assert geom.lam_max == pytest.approx(SQRT2, rel=0.02)


def test_shape_operator_sign_convention():
    # geodesic spheres curve positively toward the pole-ward normal
    geom = discrete_shape_operator(gen_geodesic_sphere(0.7, 3))
    assert geom.kappas.min() > 0


def test_shape_operator_falls_back_or_raises():
    # a tetrahedron has 3-vertex one-rings: the fit is fine; but a mesh
    # with analytic curvature attachments must never raise
    mesh = gen_clifford_torus(8, 8)
    geom = discrete_shape_operator(mesh)
    assert np.isfinite(geom.norm_A).all()


# ---------------------------------------------------------------------------
# offsets

def test_offset_zero_is_identity():
    mesh = gen_clifford_torus(16, 16)
    off = offset_mesh(mesh, 0.0)
    assert np.allclose(off.vertices, mesh.vertices)
    assert np.array_equal(off.triangles, mesh.triangles)


def test_offset_clifford_is_flat_torus():
    mesh = gen_clifford_torus(24, 24)
    t = 0.3
    off = offset_mesh(mesh, t)
    # moving along the core-pointing normal shrinks the tube parameter:
    # radii become (cos(pi/4 + t), sin(pi/4 + t)) in the two planes
    target = gen_flat_torus(math.cos(math.pi / 4.0 + t), 24, 24)
    assert np.abs(off.vertices - target.vertices).max() < 1e-9
    # transported analytic curvatures match the new generator's
    assert np.allclose(np.sort(off.kappas[0]), np.sort(target.kappas[0]),
                       rtol=1e-12)


def test_offset_equator_is_geodesic_sphere():
    mesh = gen_geodesic_sphere(math.pi / 2.0, 3)
    off = offset_mesh(mesh, math.pi / 4.0)
    target = gen_geodesic_sphere(math.pi / 4.0, 3)
    assert np.abs(off.vertices - target.vertices).max() < 1e-9


def test_offset_beyond_horizon_raises():
    mesh = gen_clifford_torus(12, 12)
    with pytest.raises(geometry.HorizonError):
        offset_mesh(mesh, math.pi / 4.0)


def test_offset_curvature_consistency():
    # discrete curvature of the offset matches transported curvature
    mesh = gen_flat_torus(0.55, 48, 48)
    for t in (0.15, -0.2):
        off = offset_mesh(mesh, t)
        geom = discrete_shape_operator(off)
        expected = sorted(geometry.curvature_transport(float(k), t)
                          for k in mesh.kappas[0])
        got = np.sort(geom.kappas, axis=1)
        assert abs(got[:, 0] - expected[0]).max() <= 0.03 * max(1, abs(expected[0]))
        assert abs(got[:, 1] - expected[1]).max() <= 0.03 * max(1, abs(expected[1]))


def test_rotate_mesh_is_rigid():
    mesh = gen_flat_torus(0.3, 12, 12)
    rot = rotate_mesh(mesh, 0, 2, 0.7)
    assert np.allclose(np.linalg.norm(rot.vertices, axis=1), 1.0)
    assert rot.area() == pytest.approx(mesh.area(), rel=1e-12)


# ---------------------------------------------------------------------------
# refinement behavior

def test_clifford_discrete_convergence():
    errors_lam = []
    errors_area = []
    for res in (32, 64, 128):
        mesh = gen_clifford_torus(res, res)
        geom = discrete_shape_operator(mesh)
        errors_lam.append(abs(geom.lam_max - SQRT2))
        errors_area.append(abs(geom.total_area - 2.0 * math.pi ** 2))
    # curvature estimates sit at roundoff on these structured grids;
    # allow a floor well below the acceptance tolerances
    floor = 1e-10
    assert errors_lam[1] <= 1.1 * errors_lam[0] + floor
    assert errors_lam[2] <= 1.1 * errors_lam[1] + floor
    # area error genuinely decreases under refinement
    assert errors_area[1] < errors_area[0]
    assert errors_area[2] < errors_area[1]


# ---------------------------------------------------------------------------
# atomic text writer (JSON reports, CSV tables and S3OFF meshes use it)

def _fail_replace(src, dst):
    raise OSError("rename failed")


@pytest.mark.parametrize("write", [
    lambda path: write_text_atomic("a,b\n1,2\n", path),
    lambda path: write_json_atomic({"schema": 1}, path),
    lambda path: write_s3off(gen_flat_torus(0.5, 8, 8), path),
], ids=["text", "json", "s3off"])
def test_failed_write_leaves_no_file(tmp_path, monkeypatch, write):
    monkeypatch.setattr(os, "replace", _fail_replace)
    with pytest.raises(OSError, match="rename failed"):
        write(tmp_path / "out")
    assert list(tmp_path.iterdir()) == []


def test_failed_write_keeps_earlier_file(tmp_path):
    path = tmp_path / "out.csv"
    write_text_atomic("old\n", path)
    with pytest.raises(UnicodeEncodeError):
        write_text_atomic("\ud800", path)   # a lone surrogate cannot encode
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_text() == "old\n"


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
def test_atomic_write_file_mode(tmp_path):
    old_umask = os.umask(0o022)
    try:
        # a new file gets what a plain open gives: 0644 under umask 022
        plain = tmp_path / "plain.csv"
        with open(plain, "w") as fh:
            fh.write("a\n")
        new = tmp_path / "new.csv"
        write_text_atomic("a\n", new)
        assert stat.S_IMODE(new.stat().st_mode) == 0o644
        assert stat.S_IMODE(plain.stat().st_mode) == 0o644
        os.umask(0o027)
        write_json_atomic({"schema": 1}, tmp_path / "report.json")
        assert stat.S_IMODE((tmp_path / "report.json").stat().st_mode) \
            == 0o640
        # an existing file keeps its mode, whatever the umask
        kept = tmp_path / "kept.s3off"
        kept.write_text("old\n")
        kept.chmod(0o604)
        write_s3off(gen_flat_torus(0.5, 8, 8), kept)
        assert stat.S_IMODE(kept.stat().st_mode) == 0o604
        assert kept.read_text().startswith("S3OFF")
    finally:
        os.umask(old_umask)
    assert sorted(p.name for p in tmp_path.iterdir()) \
        == ["kept.s3off", "new.csv", "plain.csv", "report.json"]
