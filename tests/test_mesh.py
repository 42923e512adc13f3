import math
import os
import re
import stat

import numpy as np
import pytest

from sphere_spectra import generators, geometry
from sphere_spectra import mesh as mesh_module
from sphere_spectra.generators import (
    combine_meshes, gen_clifford_torus, gen_flat_torus, gen_geodesic_sphere,
    rotate_mesh,
)
from sphere_spectra.mesh import (
    MeshError, MeshQualityError, SphericalTriMesh, assemble_laplacian,
    discrete_shape_operator, offset_horizon, offset_mesh, vertex_areas,
    write_text_atomic,
)
from sphere_spectra.report import write_json_atomic
from sphere_spectra.s3off import read_s3off, write_s3off

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


def _icosphere_loop(subdiv):
    """The icosphere as a loop over faces, one midpoint per new edge."""
    ico = generators._ICO_VERTS
    verts = list(ico / np.linalg.norm(ico, axis=1)[:, None])
    faces = [tuple(f) for f in generators._ICO_FACES]
    for _ in range(subdiv):
        midpoint = {}

        def mid(i, j):
            key = (i, j) if i < j else (j, i)
            if key not in midpoint:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                midpoint[key] = len(verts) - 1
            return midpoint[key]

        new_faces = []
        for (i, j, k) in faces:
            ij, jk, ki = mid(i, j), mid(j, k), mid(k, i)
            new_faces += [(i, ij, ki), (j, jk, ij), (k, ki, jk),
                          (ij, jk, ki)]
        faces = new_faces
    return np.array(verts), np.array(faces, dtype=np.int64)


@pytest.mark.parametrize("subdiv", range(6))
def test_icosphere_matches_midpoint_loop(subdiv):
    verts, faces = generators._icosphere(subdiv)
    ref_verts, ref_faces = _icosphere_loop(subdiv)
    assert np.array_equal(verts, ref_verts)
    assert np.array_equal(faces, ref_faces)


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

NOT_CLOSED = "^mesh is not closed: edge not shared by exactly two triangles$"
REPEATED_EDGE = "^inconsistent orientation: repeated directed edge$"
TETRA = [[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]]


def test_rejects_open_mesh():
    verts = np.eye(4)
    tris = np.array([[0, 1, 2]])
    with pytest.raises(MeshError, match=NOT_CLOSED):
        SphericalTriMesh(vertices=verts, triangles=tris)
    # a closed tetrahedron less one face
    with pytest.raises(MeshError, match=NOT_CLOSED):
        SphericalTriMesh(vertices=verts, triangles=np.array(TETRA[1:]))


def test_rejects_inconsistent_orientation():
    # tetrahedron with one face flipped: repeated directed edge
    verts = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0],
                      [0, 0, 1.0, 0], [0, 0, 0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 1, 3], [1, 2, 3], [0, 2, 3]])
    with pytest.raises(MeshError, match=REPEATED_EDGE):
        SphericalTriMesh(vertices=verts, triangles=tris)


def test_rejects_non_manifold_edge():
    # a third triangle on the tetrahedron's edge (0, 1), both ways round:
    # two of three triangles on one edge always run it the same way
    verts = np.concatenate([np.eye(4), [[0.0, 0.0, -1.0, 0.0]]])
    for extra in ([0, 1, 4], [1, 0, 4]):
        with pytest.raises(MeshError, match=REPEATED_EDGE):
            SphericalTriMesh(vertices=verts,
                             triangles=np.array(TETRA + [extra]))


def test_rejects_duplicated_triangle():
    with pytest.raises(MeshError, match=REPEATED_EDGE):
        SphericalTriMesh(vertices=np.eye(4),
                         triangles=np.array(TETRA + [TETRA[2]]))


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


# the oriented tetrahedron on the coordinate axes, with a normal at each
# vertex that is unit and tangent to S^3 (the next axis)
_TETRA_FIELDS = {"vertices": np.eye(4), "triangles": np.array(TETRA),
                 "normals": np.roll(np.eye(4), 1, axis=1)}


@pytest.mark.parametrize("field,value,message", [
    ("vertices", np.ones((4, 3)) / math.sqrt(3.0),
     "vertices must be a (V, 4) array"),
    ("triangles", np.zeros((4, 4), dtype=int),
     "triangles must be a (F, 3) array"),
    ("triangles", np.array(TETRA[:3] + [[0, 3, 4]]),
     "triangle index out of range"),
    ("triangles", np.array(TETRA[:3] + [[0, 3, 3]]),
     "triangle with a repeated vertex"),
    ("normals", np.eye(4)[:, :3], "normals must match vertices in shape"),
    ("normals", 2.0 * np.roll(np.eye(4), 1, axis=1),
     "normals must be unit vectors"),
    ("normals", np.eye(4), "normals must be tangent to the sphere"),
    ("kappas", np.zeros((4, 3)), "kappas must be a (V, 2) array"),
], ids=["vertices-shape", "triangles-shape", "index-range",
        "repeated-vertex", "normals-shape", "normals-unit", "normals-tangent",
        "kappas-shape"])
def test_constructor_rejects(field, value, message):
    SphericalTriMesh(**_TETRA_FIELDS, genus=0)     # valid as it stands
    with pytest.raises(MeshError, match=f"^{re.escape(message)}$"):
        SphericalTriMesh(**dict(_TETRA_FIELDS, **{field: value}))


def test_vanishing_normal_rejected():
    # one triangle on both sides: closed and oriented, but at each vertex
    # the two sides' normals cancel
    mesh = SphericalTriMesh(vertices=np.eye(4)[:3],
                            triangles=np.array([[0, 1, 2], [0, 2, 1]]))
    with pytest.raises(MeshQualityError,
                       match="^vanishing discrete normal at a vertex$"):
        mesh.estimated_normals()


@pytest.mark.parametrize("field", ["vertices", "normals", "kappas"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_rejects_non_finite_input(field, value):
    # |nan - 1| > tol is False, so only an explicit check rejects a NaN
    base = gen_clifford_torus(8, 8)
    data = {"vertices": base.vertices.copy(), "normals": base.normals.copy(),
            "kappas": base.kappas.copy()}
    data[field][5, :] = value
    with pytest.raises(MeshError, match="5 is not finite"):
        SphericalTriMesh(triangles=base.triangles, **data)


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


def test_geometry_computed_once_per_mesh():
    mesh = gen_geodesic_sphere(math.pi / 4.0, 3)
    pair = assemble_laplacian(mesh)
    geom = discrete_shape_operator(mesh)
    assert geom.areas is pair.mass is vertex_areas(mesh)
    assert mesh.triangle_areas() is mesh.triangle_areas()
    assert not pair.mass.flags.writeable
    assert not mesh.triangle_areas().flags.writeable
    # every cached per-vertex array is read-only, so that no caller can
    # change what the next verify_surface of this mesh reads
    assert geom.normals is mesh.estimated_normals()
    for array in (geom.normals, geom.shape_operators, geom.kappas,
                  geom.norm_A, geom.mean_H):
        assert not array.flags.writeable
    with pytest.raises(ValueError):
        discrete_shape_operator(mesh).mean_H[:] = 1.0
    # the bincount sums add in the order of an np.add.at loop over corners
    areas = np.zeros(mesh.vertex_count)
    normals = np.zeros((mesh.vertex_count, 4))
    p = mesh.triangle_points()
    for k in range(3):
        np.add.at(areas, mesh.triangles[:, k], mesh.triangle_areas() / 3.0)
        e1 = p[:, (k + 1) % 3] - p[:, k]
        e2 = p[:, (k + 2) % 3] - p[:, k]
        w = np.einsum("ij,ij->i", e1, e1) * np.einsum("ij,ij->i", e2, e2)
        np.add.at(normals, mesh.triangles[:, k],
                  mesh_module._cross4(e1, e2, p[:, k]) / w[:, None])
    assert np.array_equal(pair.mass, areas)
    normals -= mesh.vertices * np.einsum(
        "ij,ij->i", normals, mesh.vertices)[:, None]
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    assert np.array_equal(mesh.estimated_normals(), normals)


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


def test_shape_operator_rank_deficient_raises(monkeypatch):
    mesh = gen_clifford_torus(8, 8)
    geom = discrete_shape_operator(mesh)
    assert np.isfinite(geom.norm_A).all()
    # tangent frames whose two axes coincide at vertex 0 give its one-ring
    # fit rank 1 there and nowhere else: the mesh raises whether or not it
    # carries analytic curvatures
    frames = mesh_module._tangent_frames

    def one_axis_at_zero(vertices, normals):
        t1, t2 = frames(vertices, normals)
        t2[0] = t1[0]
        return t1, t2

    monkeypatch.setattr(mesh_module, "_tangent_frames", one_axis_at_zero)
    for rank_deficient in (gen_clifford_torus(8, 8),
                           SphericalTriMesh(mesh.vertices, mesh.triangles)):
        with pytest.raises(MeshQualityError,
                           match="rank-deficient one-ring fit at vertex 0$"):
            discrete_shape_operator(rank_deficient)


def _linalg_fit(mesh):
    """The one-ring normal equations solved by np.linalg: the (V, 3, 3)
    systems through det/solve, the operators' eigenvalues by eigvalsh."""
    normals = mesh.estimated_normals()
    v = mesh.vertices
    t1, t2 = mesh_module._tangent_frames(v, normals)
    adj = mesh.adjacency()
    src = np.repeat(np.arange(mesh.vertex_count), np.diff(adj.indptr))
    dx = v[adj.indices] - v[src]
    dn = normals[adj.indices] - normals[src]
    a1, a2 = (dx * t1[src]).sum(axis=1), (dx * t2[src]).sum(axis=1)
    b1, b2 = (dn * t1[src]).sum(axis=1), (dn * t2[src]).sum(axis=1)

    def seg(x):
        return np.bincount(src, weights=x, minlength=mesh.vertex_count)

    p11, p12, p22 = seg(a1 * a1), seg(a1 * a2), seg(a2 * a2)
    zero = np.zeros_like(p11)
    lhs = np.stack([np.stack([p11, p12, zero], axis=1),
                    np.stack([p12, p11 + p22, p12], axis=1),
                    np.stack([zero, p12, p22], axis=1)], axis=1)
    rhs = -np.stack([seg(a1 * b1), seg(a2 * b1) + seg(a1 * b2),
                     seg(a2 * b2)], axis=1)
    assert (np.linalg.det(lhs) >= 1e-10 * (p11 + p22) ** 3).all()
    sol = np.linalg.solve(lhs, rhs[:, :, None])[:, :, 0]
    s_ops = np.stack([sol[:, :2], sol[:, 1:]], axis=1)
    return s_ops, np.linalg.eigvalsh(s_ops)


@pytest.mark.parametrize("make", [
    lambda: gen_clifford_torus(32, 32),
    lambda: gen_geodesic_sphere(math.pi / 4.0, 3),
    lambda: offset_mesh(gen_clifford_torus(32, 32), 0.7),
    lambda: offset_mesh(gen_geodesic_sphere(math.pi / 4.0, 3), 0.2),
], ids=["clifford-32", "sphere-3", "clifford-32-t0.7", "sphere-3-t0.2"])
def test_shape_operator_closed_form_matches_linalg(make):
    mesh = make()
    geom = discrete_shape_operator(mesh)
    s_ops, kappas = _linalg_fit(mesh)
    scale = 1e-13 * max(1.0, geom.lam_max)
    np.testing.assert_allclose(geom.shape_operators, s_ops,
                               rtol=1e-13, atol=scale)
    # each principal curvature to 1e-13 of itself, the small one of an
    # offset torus (-0.086 against 11.7 at t = 0.7) included
    np.testing.assert_allclose(geom.kappas, kappas, rtol=1e-13)
    np.testing.assert_allclose(
        geom.norm_A, np.sqrt((s_ops ** 2).sum(axis=(1, 2))), rtol=1e-13)
    np.testing.assert_allclose(geom.mean_H, s_ops[:, 0, 0] + s_ops[:, 1, 1],
                               rtol=1e-13, atol=scale)


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


def test_shape_operator_cached_on_mesh():
    # a second call returns the mesh's geometry; an offset mesh starts
    # without it and computes its own
    mesh = gen_geodesic_sphere(math.pi / 4.0, 3)
    geom = discrete_shape_operator(mesh)
    assert discrete_shape_operator(mesh) is geom
    off = offset_mesh(mesh, 0.1)
    assert "geometry" not in off._cache
    assert discrete_shape_operator(off) is not geom
    assert discrete_shape_operator(off) is discrete_shape_operator(off)


def test_offset_horizon_analytic_or_discrete(tmp_path):
    # the focal distance of the largest principal |kappa|: the analytic
    # kappas if the mesh has them, else the discrete ones (not lam_max =
    # max ||A||, which is sqrt(2) times larger on the Clifford torus)
    mesh = gen_clifford_torus(16, 16)
    assert offset_horizon(mesh) == pytest.approx(math.pi / 4.0, rel=1e-12)
    path = tmp_path / "c.s3off"
    write_s3off(mesh, path)
    loaded = read_s3off(path)
    kappa = np.abs(discrete_shape_operator(loaded).kappas).max()
    assert offset_horizon(loaded) == math.atan(1.0 / kappa)
    assert offset_horizon(loaded) == pytest.approx(math.pi / 4.0, rel=1e-12)
    with pytest.raises(geometry.HorizonError):
        offset_mesh(loaded, math.atan(1.0 / kappa))


@pytest.mark.parametrize("t", [0.8, -0.8, "horizon"])
def test_offset_mesh_and_mean_curvature_refuse_alike(t):
    # one horizon test for both: the same message and critical_t, a plain
    # float, from the mesh and from its curvature set
    mesh = gen_clifford_torus(16, 16)
    horizon = offset_horizon(mesh)
    if t == "horizon":
        t = horizon
    with pytest.raises(geometry.HorizonError) as from_mesh:
        offset_mesh(mesh, t)
    with pytest.raises(geometry.HorizonError) as from_kappas:
        geometry.offset_mean_curvature(mesh.kappas[0], t)
    assert str(from_mesh.value) == str(from_kappas.value)
    for exc in (from_mesh.value, from_kappas.value):
        assert type(exc.critical_t) is float
        assert exc.critical_t == math.copysign(horizon, t)


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


@pytest.mark.parametrize("derive", [
    lambda mesh: offset_mesh(mesh, 0.1),
    lambda mesh: rotate_mesh(mesh, 0, 2, 0.7),
], ids=["offset", "rotate"])
@pytest.mark.parametrize("make", [
    lambda: gen_clifford_torus(16, 12),
    lambda: gen_geodesic_sphere(1.0, 3),
    lambda: combine_meshes(gen_geodesic_sphere(0.5, 3),
                           gen_geodesic_sphere(1.0, 3)),
], ids=["clifford", "sphere", "union"])
def test_derived_mesh_keeps_connectivity(make, derive):
    parent = make()
    child = derive(parent)
    fresh = SphericalTriMesh(vertices=child.vertices,
                             triangles=child.triangles)
    adj = child.adjacency()
    assert adj is parent.adjacency()
    assert not any(x.flags.writeable
                   for x in (adj.data, adj.indices, adj.indptr))
    ref = fresh.adjacency()
    assert all(np.array_equal(x, y) for x, y in [
        (adj.indptr, ref.indptr), (adj.indices, ref.indices),
        (adj.data, ref.data)])
    assert child.component_count == fresh.component_count \
        == parent.component_count
    assert child.edge_count == fresh.edge_count == parent.edge_count
    assert child.triangles is not parent.triangles


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
