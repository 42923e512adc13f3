"""Analytic test-surface generators: flat tori and geodesic spheres in S^3.

Every generator attaches exact per-vertex normals and principal
curvatures and documents its normal convention.  Curvature signs follow
:mod:`sphere_spectra.geometry` (geodesic spheres curve positively toward
their center).
"""

import math

import numpy as np

from .mesh import SphericalTriMesh

__all__ = [
    "gen_flat_torus", "gen_clifford_torus", "gen_geodesic_sphere",
    "combine_meshes", "rotate_mesh",
]


def gen_flat_torus(r, res_u, res_v, name=None):
    """Product torus S^1(r) x S^1(sqrt(1-r^2)), a tube around a great circle.

    Normals point toward the core great circle of the r-tube (the circle
    the surface collapses onto as r -> 0), with principal curvatures
    (sqrt(1-r^2)/r, -r/sqrt(1-r^2)).  Mean-convex iff r <= 1/sqrt(2);
    minimal (the square torus) at r = 1/sqrt(2).  Flat metric of area
    4 pi^2 r sqrt(1-r^2).
    """
    if not (0.0 < r < 1.0):
        raise ValueError(f"tube parameter r must lie in (0, 1), got {r}")
    if res_u < 8 or res_v < 8:
        raise ValueError("need at least 8 segments per circle")
    s = math.sqrt(1.0 - r * r)
    theta = 2.0 * np.pi * np.arange(res_u) / res_u
    phi = 2.0 * np.pi * np.arange(res_v) / res_v
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    th, ph = th.ravel(), ph.ravel()
    verts = np.stack([r * np.cos(th), r * np.sin(th),
                      s * np.cos(ph), s * np.sin(ph)], axis=1)
    normals = np.stack([-s * np.cos(th), -s * np.sin(th),
                        r * np.cos(ph), r * np.sin(ph)], axis=1)
    kappas = np.tile([s / r, -r / s], (len(verts), 1))

    idx = np.arange(res_u * res_v).reshape(res_u, res_v)
    a = idx
    b = np.roll(idx, -1, axis=0)
    c = np.roll(np.roll(idx, -1, axis=0), -1, axis=1)
    d = np.roll(idx, -1, axis=1)
    # winding chosen so the estimated discrete normal matches `normals`
    tris = np.concatenate([
        np.stack([a.ravel(), b.ravel(), c.ravel()], axis=1),
        np.stack([a.ravel(), c.ravel(), d.ravel()], axis=1),
    ])
    meta = {
        "family": "flat-torus", "r": r, "res_u": res_u, "res_v": res_v,
        "area": 4.0 * math.pi ** 2 * r * s,
        "lambda1": min(1.0 / r ** 2, 1.0 / (s * s)),
    }
    return SphericalTriMesh(
        vertices=verts, triangles=tris, normals=normals, kappas=kappas,
        genus=1, name=name or f"flat-torus(r={r:g},{res_u}x{res_v})",
        normal_doc="toward the core great circle of the r-tube", meta=meta)


def gen_clifford_torus(res_u, res_v):
    """Square (minimal) flat torus at r = 1/sqrt(2); kappas (1, -1)."""
    mesh = gen_flat_torus(math.sqrt(0.5), res_u, res_v,
                          name=f"clifford({res_u}x{res_v})")
    mesh.meta["family"] = "clifford"
    mesh.meta["area"] = 2.0 * math.pi ** 2
    mesh.meta["lambda1"] = 2.0
    return mesh


_ICO_T = (1.0 + math.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array([
    (-1, _ICO_T, 0), (1, _ICO_T, 0), (-1, -_ICO_T, 0), (1, -_ICO_T, 0),
    (0, -1, _ICO_T), (0, 1, _ICO_T), (0, -1, -_ICO_T), (0, 1, -_ICO_T),
    (_ICO_T, 0, -1), (_ICO_T, 0, 1), (-_ICO_T, 0, -1), (-_ICO_T, 0, 1),
], dtype=float)
_ICO_FACES = np.array([
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
], dtype=np.int64)


def _icosphere(subdiv):
    """Unit icosphere in R^3 after `subdiv` 1-to-4 refinements.

    Each face (i, j, k) gives (i, ij, ki), (j, jk, ij), (k, ki, jk) and
    (ij, jk, ki); the midpoints are numbered in the order the faces
    first use their edges.
    """
    verts = _ICO_VERTS / np.linalg.norm(_ICO_VERTS, axis=1)[:, None]
    faces = _ICO_FACES.copy()
    for _ in range(subdiv):
        n = len(verts)
        ends = np.stack([faces, np.roll(faces, -1, axis=1)], axis=2)
        ends = np.sort(ends.reshape(-1, 2), axis=1)
        _, first, inverse = np.unique(ends[:, 0] * n + ends[:, 1],
                                      return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        mids = (n + rank[inverse]).reshape(-1, 3)
        edges = ends[first[order]]
        m = verts[edges[:, 0]] + verts[edges[:, 1]]
        # the row-wise matmul rounds as a dot product of each row does
        nrm = np.sqrt(np.matmul(m[:, None, :], m[:, :, None]))[:, 0]
        verts = np.concatenate([verts, m / nrm])
        i, j, k = faces.T
        ij, jk, ki = mids.T
        faces = np.stack([i, ij, ki, j, jk, ij, k, ki, jk, ij, jk, ki],
                         axis=1).reshape(-1, 3)
    return verts, faces


def gen_geodesic_sphere(r, subdiv):
    """Geodesic sphere of radius r about the pole (1, 0, 0, 0).

    Built from an icosphere in the tangent 3-space: direction u on S^2
    maps to (cos r, sin r * u).  Normals point toward the pole, giving
    principal curvatures (cot r, cot r); area 4 pi sin(r)^2.  At r = pi/2
    this is a totally geodesic equator.
    """
    if not (0.0 < r <= math.pi / 2.0):
        raise ValueError(f"radius must lie in (0, pi/2], got {r}")
    if subdiv < 3:
        raise ValueError("need subdiv >= 3 for a usable sphere mesh")
    u, faces = _icosphere(subdiv)
    cr, sr = math.cos(r), math.sin(r)
    verts = np.concatenate([np.full((len(u), 1), cr), sr * u], axis=1)
    normals = np.concatenate([np.full((len(u), 1), sr), -cr * u], axis=1)
    cot = cr / sr
    kappas = np.tile([cot, cot], (len(u), 1))
    meta = {
        "family": "geodesic-sphere", "r": r, "subdiv": subdiv,
        "area": 4.0 * math.pi * sr * sr,
        "lambda1": 2.0 / (sr * sr),
    }
    return SphericalTriMesh(
        vertices=verts, triangles=faces, normals=normals, kappas=kappas,
        genus=0, name=f"geodesic-sphere(r={r:g},subdiv={subdiv})",
        normal_doc="toward the pole (1, 0, 0, 0)", meta=meta)


def combine_meshes(first, second):
    """Disjoint union "first+second" of two meshes (no genus declared), with
    normals and kappas where both meshes have them."""
    verts = np.concatenate([first.vertices, second.vertices])
    tris = np.concatenate(
        [first.triangles, second.triangles + first.vertex_count])
    normals = None
    if first.normals is not None and second.normals is not None:
        normals = np.concatenate([first.normals, second.normals])
    kappas = None
    if first.kappas is not None and second.kappas is not None:
        kappas = np.concatenate([first.kappas, second.kappas])
    return SphericalTriMesh(
        vertices=verts, triangles=tris, normals=normals, kappas=kappas,
        genus=None, name=f"{first.name}+{second.name}",
        normal_doc=first.normal_doc)


def rotate_mesh(mesh, axis_a, axis_b, angle):
    """Rigid rotation by `angle` in the coordinate plane (axis_a, axis_b).

    The rotated mesh keeps the triangles, and shares the mesh's adjacency
    and component count from the start.
    """
    rot = np.eye(4)
    c, s = math.cos(angle), math.sin(angle)
    rot[axis_a, axis_a] = c
    rot[axis_b, axis_b] = c
    rot[axis_a, axis_b] = -s
    rot[axis_b, axis_a] = s
    normals = None if mesh.normals is None else mesh.normals @ rot.T
    kappas = None if mesh.kappas is None else mesh.kappas.copy()
    return mesh._with_vertices(mesh.vertices @ rot.T, normals, kappas,
                               f"{mesh.name}|rot")
