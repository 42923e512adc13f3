"""The embeddedness verdict under relabellings of one and the same mesh.

Vertex relabelling, triangle reordering, cyclic corner rotation and a
global orientation flip leave the surface, and so the projection pole,
unchanged: the full witness set must map exactly through the triangle
permutation.  Rotations of S^3 move the pole and are not tested here.
"""

import numpy as np
import pytest

from sphere_spectra.generators import (
    combine_meshes, gen_clifford_torus, gen_flat_torus, rotate_mesh,
)
from sphere_spectra.intersect import self_intersection_test
from sphere_spectra.mesh import SphericalTriMesh, offset_mesh

ALL = 10 ** 6


def _crossed_flat_tori():
    return combine_meshes(
        gen_flat_torus(0.3, 10, 10),
        rotate_mesh(gen_flat_torus(0.3, 10, 10), 0, 2, 0.1))


def _crossed_clifford_32():
    return combine_meshes(gen_clifford_torus(32, 32),
                          rotate_mesh(gen_clifford_torus(32, 32), 0, 2, 0.9))


MESHES = {
    "crossed-flat-tori": _crossed_flat_tori,
    "crossed-clifford-32": _crossed_clifford_32,
    "clifford-16-t0.7": lambda: offset_mesh(gen_clifford_torus(16, 16), 0.7),
}


def _relabel_vertices(mesh, rng):
    # old vertex v becomes new vertex perm[v]; triangle order is kept
    perm = rng.permutation(mesh.vertex_count)
    vertices = np.empty_like(mesh.vertices)
    vertices[perm] = mesh.vertices
    return vertices, perm[mesh.triangles], np.arange(mesh.triangle_count)


def _reorder_triangles(mesh, rng):
    # new triangle k is old triangle order[k]
    order = rng.permutation(mesh.triangle_count)
    return mesh.vertices, mesh.triangles[order], np.argsort(order)


def _rotate_corners(mesh, rng):
    return (mesh.vertices, mesh.triangles[:, [1, 2, 0]],
            np.arange(mesh.triangle_count))


def _flip_orientation(mesh, rng):
    return (mesh.vertices, mesh.triangles[:, ::-1],
            np.arange(mesh.triangle_count))


VARIANTS = {
    "relabel-vertices": _relabel_vertices,
    "reorder-triangles": _reorder_triangles,
    "rotate-corners": _rotate_corners,
    "flip-orientation": _flip_orientation,
}


@pytest.fixture(scope="module", params=list(MESHES))
def reference(request):
    """A mesh with its full witness set, computed once."""
    mesh = MESHES[request.param]()
    return mesh, self_intersection_test(mesh, max_witnesses=ALL)


@pytest.mark.parametrize("variant", VARIANTS)
def test_witnesses_invariant_under_relabelling(reference, variant):
    mesh, (embedded, witnesses) = reference
    # new_index[i] is the new number of old triangle i
    vertices, triangles, new_index = VARIANTS[variant](
        mesh, np.random.default_rng(17))
    other = SphericalTriMesh(vertices=vertices, triangles=triangles)
    expected = sorted(tuple(sorted(map(int, new_index[[i, j]])))
                      for i, j in witnesses)
    assert self_intersection_test(other, max_witnesses=ALL) \
        == (embedded, expected)
    # the default cap may list other witnesses, but never a false one
    # and never a different verdict
    capped_embedded, capped = self_intersection_test(other)
    assert capped_embedded == embedded
    assert len(capped) == min(64, len(expected))
    assert set(capped) <= set(expected)
