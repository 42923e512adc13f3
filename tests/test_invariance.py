"""Verdicts under relabellings of a mesh and under the symmetries of S^3.

Embeddedness: vertex relabelling, triangle reordering, cyclic corner
rotation and a global orientation flip leave the surface, and so the
projection pole, unchanged: the full witness set must map exactly
through the triangle permutation.  Rotations of S^3 move the pole and are
not tested for it here.

Spectrum: `verify_surface` must give the same lambda1 and near shift (to
1e-12 relative; the fill-reducing ordering depends on the labels, so not
bitwise), cluster, inertia count, iteration count and verdicts under
relabellings, the orientation flip, signed permutations of the
coordinates and SO(4) rotations.  The solver's shift and start block
come from the vertex coordinates, so this also shows that its result
does not depend on the frame.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphere_spectra.generators import (
    combine_meshes, gen_clifford_torus, gen_flat_torus, gen_geodesic_sphere,
    rotate_mesh,
)
from sphere_spectra.intersect import self_intersection_test
from sphere_spectra.mesh import (
    SphericalTriMesh, assemble_laplacian, discrete_shape_operator,
    offset_mesh,
)
from sphere_spectra.report import verify_surface
from sphere_spectra.spectral import smallest_nonzero_eig

from irregular_tori import haar_rotation, irregular_torus

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


def _rebuild(mesh, **changes):
    """The mesh with some fields replaced; analytic data carried along."""
    fields = {"vertices": mesh.vertices, "triangles": mesh.triangles,
              "normals": mesh.normals, "kappas": mesh.kappas,
              "genus": mesh.genus, "name": mesh.name,
              "normal_doc": mesh.normal_doc, "meta": dict(mesh.meta)}
    fields.update(changes)
    return SphericalTriMesh(**fields)


# each variant returns (new mesh, new number of each old vertex, new
# number of each old triangle)

def _relabel_vertices(mesh, rng):
    perm = rng.permutation(mesh.vertex_count)

    def moved(rows):
        if rows is None:
            return None
        out = np.empty_like(rows)
        out[perm] = rows
        return out
    return (_rebuild(mesh, vertices=moved(mesh.vertices),
                     normals=moved(mesh.normals), kappas=moved(mesh.kappas),
                     triangles=perm[mesh.triangles]),
            perm, np.arange(mesh.triangle_count))


def _reorder_triangles(mesh, rng):
    # new triangle k is old triangle order[k]
    order = rng.permutation(mesh.triangle_count)
    return (_rebuild(mesh, triangles=mesh.triangles[order]),
            np.arange(mesh.vertex_count), np.argsort(order))


def _rotate_corners(mesh, rng):
    return (_rebuild(mesh, triangles=mesh.triangles[:, [1, 2, 0]]),
            np.arange(mesh.vertex_count), np.arange(mesh.triangle_count))


def _flip_orientation(mesh, rng):
    # the estimated normals, and with them the discrete mean curvature,
    # follow the winding; the analytic normals and curvatures stay
    return (_rebuild(mesh, triangles=mesh.triangles[:, ::-1]),
            np.arange(mesh.vertex_count), np.arange(mesh.triangle_count))


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
    other, _, new_index = VARIANTS[variant](mesh, np.random.default_rng(17))
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


# ---------------------------------------------------------------------------
# spectrum

SPECTRUM_MESHES = {
    "clifford-32": lambda: gen_clifford_torus(32, 32),
    "sphere-pi_4-3": lambda: gen_geodesic_sphere(math.pi / 4.0, 3),
    # irregular: no coordinate is an eigenvector, so the near shift
    # rests on the Ritz values of their span
    "pinched-48-0.5": lambda: irregular_torus(48, pinch=0.5),
}

# det +1: a 4-cycle with one sign flip, a double swap, and a swap of
# coordinates paired with a sign flip of another
SIGNED_PERMUTATIONS = {
    "cycle": ([1, 2, 3, 0], [1, 1, 1, -1]),
    "double-swap": ([2, 3, 0, 1], [1, 1, 1, 1]),
    "swap-flip": ([1, 0, 2, 3], [1, 1, -1, 1]),
}


def _rotated(mesh, rot):
    normals = None if mesh.normals is None else mesh.normals @ rot.T
    return _rebuild(mesh, vertices=mesh.vertices @ rot.T, normals=normals)


def _signed_permutation(perm, signs):
    rot = np.zeros((4, 4))
    rot[np.arange(4), perm] = signs
    assert round(np.linalg.det(rot)) == 1
    return rot


@pytest.fixture(scope="module", params=list(SPECTRUM_MESHES))
def spectrum_reference(request):
    """A mesh with its report and per-vertex discrete mean curvature."""
    mesh = SPECTRUM_MESHES[request.param]()
    return mesh, verify_surface(mesh), discrete_shape_operator(mesh).mean_H


def _assert_same_spectrum(reference, other, vertex_map, sign=1.0):
    _, rep, mean_h = reference
    got = verify_surface(other)
    spec, ref = got["spectrum"], rep["spectrum"]
    assert spec["lambda1"] == pytest.approx(ref["lambda1"], rel=1e-12)
    assert len(spec["cluster"]) == len(ref["cluster"])
    assert spec["below_shift"] == ref["below_shift"] == 1
    assert spec["shift"] == pytest.approx(ref["shift"], rel=1e-12)
    assert spec["iterations"] == ref["iterations"]
    assert got["verdicts"] == rep["verdicts"]
    assert got["curvature"]["lam_discrete"] == pytest.approx(
        rep["curvature"]["lam_discrete"], rel=1e-12)
    other_h = discrete_shape_operator(other).mean_H[vertex_map]
    assert np.abs(other_h - sign * mean_h).max() <= 1e-12


@pytest.mark.parametrize("variant", VARIANTS)
def test_spectrum_invariant_under_relabelling(spectrum_reference, variant):
    other, vertex_map, _ = VARIANTS[variant](spectrum_reference[0],
                                             np.random.default_rng(17))
    sign = -1.0 if variant == "flip-orientation" else 1.0
    _assert_same_spectrum(spectrum_reference, other, vertex_map, sign)


@pytest.mark.parametrize("signed", SIGNED_PERMUTATIONS)
def test_spectrum_invariant_under_signed_permutations(spectrum_reference,
                                                      signed):
    mesh = spectrum_reference[0]
    rot = _signed_permutation(*SIGNED_PERMUTATIONS[signed])
    _assert_same_spectrum(spectrum_reference, _rotated(mesh, rot),
                          np.arange(mesh.vertex_count))


@settings(max_examples=3, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_spectrum_invariant_under_rotations(spectrum_reference, seed):
    mesh = spectrum_reference[0]
    _assert_same_spectrum(spectrum_reference,
                          _rotated(mesh, haar_rotation(seed)),
                          np.arange(mesh.vertex_count))


@pytest.mark.parametrize("pinch", [0.5, 0.55])
def test_near_shift_same_in_every_frame(pinch):
    # the smallest Ritz value depends on the coordinates' span alone, so
    # the identity frame and 15 Haar rotations take the same near shift
    mesh = irregular_torus(48, pinch=pinch)
    ref = smallest_nonzero_eig(assemble_laplacian(mesh), trial=mesh.vertices)
    assert ref.below_shift == 1
    for seed in range(1, 16):
        turned = _rotated(mesh, haar_rotation(seed))
        res = smallest_nonzero_eig(assemble_laplacian(turned),
                                   trial=turned.vertices)
        assert (res.below_shift, res.iterations) \
            == (ref.below_shift, ref.iterations)
        assert res.shift == pytest.approx(ref.shift, rel=1e-12)
