import math

import numpy as np
import pytest

from sphere_spectra.generators import (
    combine_meshes, gen_clifford_torus, gen_flat_torus, gen_geodesic_sphere,
    rotate_mesh,
)
from sphere_spectra.intersect import (
    PoleSelectionError, select_pole, self_intersection_test,
    stereographic_project, triangles_intersect,
)
from sphere_spectra.mesh import SphericalTriMesh, offset_mesh


# ---------------------------------------------------------------------------
# exact triangle-triangle predicate

T_BASE = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]


@pytest.mark.parametrize("other,expected", [
    ([(0.2, 0.2, -1.0), (0.3, 0.2, 1.0), (0.2, 0.3, 1.0)], True),   # pierces
    ([(0.2, 0.2, 0.5), (1.2, 0.2, 1.0), (0.2, 1.3, 1.0)], False),   # above
    ([(0.1, 0.1, 0.0), (0.9, 0.1, 0.0), (0.1, 0.9, 0.0)], True),    # coplanar
    ([(2.0, 2.0, 0.0), (3.0, 2.0, 0.0), (2.0, 3.0, 0.0)], False),   # far coplanar
    ([(0.0, 0.0, 0.0), (-1.0, 0.0, 1.0), (0.0, -1.0, 1.0)], True),  # vertex touch
    ([(0.3, 0.3, -1.0), (0.3, 0.3, 1.0), (5.0, 5.0, 3.0)], True),   # edge stab
    ([(0.5, 0.5, 1e-12), (1.5, 0.5, 1.0), (0.5, 1.5, 1.0)], False), # near miss
])
def test_triangle_predicate_cases(other, expected):
    assert triangles_intersect(T_BASE, other) is expected
    assert triangles_intersect(other, T_BASE) is expected


def _float_reference(tri_a, tri_b):
    """Independent float reference for generic (non-degenerate) pairs."""
    def seg_tri(p, q, tri):
        a, b, c = (np.asarray(v, dtype=float) for v in tri)
        n = np.cross(b - a, c - a)
        dp, dq = float((p - a) @ n), float((q - a) @ n)
        if dp * dq > 0 or dp == dq:
            return False
        lam = dp / (dp - dq)
        x = p + lam * (q - p)
        v0, v1, v2 = b - a, c - a, x - a
        d00, d01, d11 = v0 @ v0, v0 @ v1, v1 @ v1
        d20, d21 = v2 @ v0, v2 @ v1
        den = d00 * d11 - d01 * d01
        u = (d11 * d20 - d01 * d21) / den
        v = (d00 * d21 - d01 * d20) / den
        return u >= -1e-12 and v >= -1e-12 and u + v <= 1 + 1e-12

    a = [np.asarray(p, dtype=float) for p in tri_a]
    b = [np.asarray(p, dtype=float) for p in tri_b]
    edges = [(a[0], a[1], b), (a[1], a[2], b), (a[2], a[0], b),
             (b[0], b[1], a), (b[1], b[2], a), (b[2], b[0], a)]
    return any(seg_tri(p, q, tri) for p, q, tri in edges)


def test_triangle_predicate_random_agreement():
    rng = np.random.default_rng(12)
    for _ in range(2000):
        tri_a = rng.uniform(-1.0, 1.0, (3, 3))
        tri_b = rng.uniform(-1.0, 1.0, (3, 3))
        assert triangles_intersect(tri_a, tri_b) \
            == _float_reference(tri_a, tri_b)


# ---------------------------------------------------------------------------
# projection machinery

def test_select_pole_clears_mesh():
    mesh = gen_clifford_torus(24, 24)
    pole, clearance = select_pole(mesh.vertices)
    assert abs(np.linalg.norm(pole) - 1.0) < 1e-12
    dots = mesh.vertices @ pole
    assert math.acos(dots.max()) == pytest.approx(clearance, abs=1e-12)
    assert clearance > 0.1


@pytest.mark.parametrize("make", [
    lambda: gen_clifford_torus(32, 32),
    lambda: gen_geodesic_sphere(math.pi / 4.0, 4),    # V = 2562, partial chunk
])
def test_select_pole_matches_full_matrix(make):
    vertices = make().vertices
    # reference: the whole (candidates x vertices) matrix at once
    rng = np.random.default_rng(20240317)
    cand = np.concatenate([rng.standard_normal((4096, 4)), np.eye(4),
                           -np.eye(4)])
    cand /= np.linalg.norm(cand, axis=1)[:, None]
    worst = np.max(cand @ vertices.T, axis=1)
    best = int(np.argmin(worst))
    pole, clearance = select_pole(vertices)
    assert np.array_equal(pole, cand[best])
    assert clearance == math.acos(min(1.0, max(-1.0, worst[best])))


def test_stereographic_preserves_structure():
    mesh = gen_geodesic_sphere(0.6, 3)
    pole, _ = select_pole(mesh.vertices)
    pts = stereographic_project(mesh.vertices, pole)
    assert pts.shape == (mesh.vertex_count, 3)
    assert np.isfinite(pts).all()


def test_pole_through_mesh_rejected():
    mesh = gen_geodesic_sphere(0.6, 3)
    with pytest.raises(PoleSelectionError):
        stereographic_project(mesh.vertices, mesh.vertices[0])


# ---------------------------------------------------------------------------
# mesh-level verdicts

def test_generators_embedded_at_zero_offset():
    for mesh in [gen_clifford_torus(16, 16), gen_flat_torus(0.35, 16, 16),
                 gen_geodesic_sphere(0.9, 3)]:
        embedded, witnesses = self_intersection_test(mesh)
        assert embedded
        assert witnesses == []


def test_clifford_offsets_embedded():
    mesh = gen_clifford_torus(24, 24)
    for t in (0.2, 0.6):
        embedded, _ = self_intersection_test(offset_mesh(mesh, t))
        assert embedded


def test_concentric_spheres_embedded():
    union = combine_meshes(gen_geodesic_sphere(0.5, 3),
                           gen_geodesic_sphere(1.0, 3))
    embedded, witnesses = self_intersection_test(union)
    assert embedded
    assert witnesses == []


def test_crossed_tori_detected():
    # two equal tubes around great circles that cross at (0,0,0,+-1):
    # the tubes must intersect each other
    tube_a = gen_flat_torus(0.3, 20, 20)
    tube_b = rotate_mesh(gen_flat_torus(0.3, 20, 20), 0, 2, 0.8)
    union = combine_meshes(tube_a, tube_b)
    embedded, witnesses = self_intersection_test(union)
    assert not embedded
    assert len(witnesses) > 0
    # witnesses point at genuinely intersecting projected triangles
    pole, _ = select_pole(union.vertices)
    pts = stereographic_project(union.vertices, pole)
    i, j = witnesses[0]
    assert triangles_intersect(pts[union.triangles[i]],
                               pts[union.triangles[j]])


def test_dense_mesh_rejected():
    # two antipodal tetrahedra: every pole is within pi/3 of some vertex
    # while the triangle-size margin is pi/2, so no pole clears the mesh
    verts = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0],
                      [0, 0, 1.0, 0], [0, 0, 0, 1.0]])
    tris = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]])
    tetra = SphericalTriMesh(vertices=verts, triangles=tris, genus=0)
    anti = SphericalTriMesh(vertices=-verts, triangles=tris[:, ::-1].copy(),
                            genus=0)
    with pytest.raises(PoleSelectionError):
        self_intersection_test(combine_meshes(tetra, anti))


def test_pipeline_matches_brute_force_enumeration():
    # full pipeline (hash broad phase + filtered narrow phase) against a
    # plain O(n^2) sweep with the exact predicate, witness-for-witness
    union = combine_meshes(
        gen_flat_torus(0.3, 10, 10),
        rotate_mesh(gen_flat_torus(0.3, 10, 10), 0, 2, 0.1))
    embedded, witnesses = self_intersection_test(union, max_witnesses=10**6)
    assert not embedded

    pole, _ = select_pole(union.vertices)
    pts = stereographic_project(union.vertices, pole)
    tris = union.triangles
    tp = pts[tris]
    lo, hi = tp.min(axis=1), tp.max(axis=1)
    sets = [set(t) for t in tris]
    ref = set()
    for i in range(len(tris)):
        overlap = np.all(lo[i] <= hi[i + 1:], axis=1) \
            & np.all(lo[i + 1:] <= hi[i], axis=1)
        for j in np.nonzero(overlap)[0] + i + 1:
            j = int(j)
            if sets[i] & sets[j]:
                continue
            if triangles_intersect(tp[i], tp[j]):
                ref.add((i, j))
    assert set(map(tuple, witnesses)) == ref
    assert len(ref) > 100
