"""Irregular Clifford tori, vertices and triangles only, for the spectral
tests and the north-star figures in CI (which puts this directory on
PYTHONPATH): no coordinate is an eigenvector on them, so the solver's
near shift rests on the Ritz values of the coordinates' span."""

import math

import numpy as np

from sphere_spectra.generators import gen_clifford_torus
from sphere_spectra.mesh import SphericalTriMesh


def irregular_torus(res, pinch=0.0, jitter=0.0, seed=0):
    """The res x res Clifford torus with each grid parameter moved by
    jitter * h * U(-1, 1) (h the grid step, U seeded) and pinched along
    one circle: a = pi/4 + pinch cos(theta) in
    (cos a cos theta, cos a sin theta, sin a cos phi, sin a sin phi).
    With jitter 0 the parameters move by 0.0, so they stay bitwise."""
    base = gen_clifford_torus(res, res)
    rng = np.random.default_rng(seed)
    h = 2.0 * math.pi / res
    th = np.arctan2(base.vertices[:, 1], base.vertices[:, 0])
    ph = np.arctan2(base.vertices[:, 3], base.vertices[:, 2])
    th = th + jitter * h * rng.uniform(-1.0, 1.0, len(th))
    ph = ph + jitter * h * rng.uniform(-1.0, 1.0, len(ph))
    a = math.pi / 4.0 + pinch * np.cos(th)
    verts = np.stack([np.cos(a) * np.cos(th), np.cos(a) * np.sin(th),
                      np.sin(a) * np.cos(ph), np.sin(a) * np.sin(ph)], 1)
    return SphericalTriMesh(vertices=verts, triangles=base.triangles, genus=1)


def haar_rotation(seed):
    """A Haar-distributed rotation of R^4: QR of a seeded Gaussian matrix,
    signs fixed by R's diagonal, det made +1 by flipping one column."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((4, 4)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q
