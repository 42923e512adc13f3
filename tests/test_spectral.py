import functools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import sphere_spectra
from sphere_spectra import spectral
from sphere_spectra.generators import (
    gen_clifford_torus, gen_flat_torus, gen_geodesic_sphere, rotate_mesh,
)
from sphere_spectra.mesh import LaplacePair, assemble_laplacian, offset_mesh
from sphere_spectra.spectral import (
    ConvergenceError, rayleigh_quotient, smallest_nonzero_eig,
)

from irregular_tori import irregular_torus


@pytest.fixture(scope="module")
def clifford_pair():
    return assemble_laplacian(gen_clifford_torus(64, 64))


def test_clifford_lambda1(clifford_pair):
    res = smallest_nonzero_eig(clifford_pair, tol=1e-8)
    assert res.lambda1 == pytest.approx(2.0, rel=0.01)
    assert res.residual <= 1e-8
    assert res.multiplicity == 4            # cos/sin in both circle factors
    # eigenvector is mass-orthogonal to constants
    mass = clifford_pair.mass
    const = np.ones(len(mass)) / math.sqrt(mass.sum())
    assert abs((mass * const) @ res.eigenvector) <= 1e-10


def test_equator_lambda1_multiplicity():
    pair = assemble_laplacian(gen_geodesic_sphere(math.pi / 2.0, 4))
    res = smallest_nonzero_eig(pair, tol=1e-8)
    assert res.lambda1 == pytest.approx(2.0, rel=0.01)
    assert res.multiplicity == 3            # restricted linear coordinates


def test_flat_torus_lambda1():
    pair = assemble_laplacian(gen_flat_torus(0.5, 64, 64))
    res = smallest_nonzero_eig(pair, tol=1e-8)
    assert res.lambda1 == pytest.approx(4.0 / 3.0, rel=0.015)
    assert res.multiplicity == 2


# lambda1 multiplicities 4, 3 and 2, and a non-minimal surface
ARPACK_CASES = {
    "clifford-64": lambda: gen_clifford_torus(64, 64),
    "equator-4": lambda: gen_geodesic_sphere(math.pi / 2.0, 4),
    "flat-torus-0.5": lambda: gen_flat_torus(0.5, 64, 64),
    "sphere-pi_4-4": lambda: gen_geodesic_sphere(math.pi / 4.0, 4),
}


@pytest.mark.parametrize("case", list(ARPACK_CASES))
def test_cross_check_against_arpack(case):
    pair = assemble_laplacian(ARPACK_CASES[case]())
    res = smallest_nonzero_eig(pair, tol=1e-10)
    mass_mat = sp.diags(pair.mass).tocsc()
    vals = spla.eigsh(pair.stiffness.tocsc(), k=6, M=mass_mat,
                      sigma=-1e-2, which="LM",
                      v0=np.ones(pair.size))[0]
    smallest_nonzero = np.sort(vals)[1]     # vals[0] ~ 0 (constants)
    assert res.lambda1 == pytest.approx(smallest_nonzero, rel=1e-7)


def _count_splu(monkeypatch):
    """Patches `splu` to append each factorization it returns to a list."""
    calls = []
    splu = spla.splu

    def counting_splu(*args, **kwargs):
        calls.append(splu(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(spla, "splu", counting_splu)
    return calls


def test_one_factorization_per_call(clifford_pair, monkeypatch):
    calls = _count_splu(monkeypatch)
    res = smallest_nonzero_eig(clifford_pair, tol=1e-10)
    assert res.iterations > 1
    assert len(calls) == 1


@pytest.mark.parametrize("shift", ["near", "fixed"])
def test_factorization_fill(clifford_pair, monkeypatch, shift):
    # nnz(L + U) is 210k in the minimum-degree order on A + A^T, 401k in
    # SuperLU's default COLAMD order; both shifts pivot on the diagonal
    trial = gen_clifford_torus(64, 64).vertices if shift == "near" else None
    calls = _count_splu(monkeypatch)
    res = smallest_nonzero_eig(clifford_pair, trial=trial)
    assert res.below_shift == (1 if shift == "near" else None)
    assert len(calls) == 1
    assert calls[0].L.nnz + calls[0].U.nnz < 300_000
    assert np.array_equal(calls[0].perm_r, calls[0].perm_c)


INERTIA_MESHES = {
    "clifford-12": lambda: gen_clifford_torus(12, 12),
    "equator-3": lambda: gen_geodesic_sphere(math.pi / 2.0, 3),
    "sphere-pi_4-3": lambda: gen_geodesic_sphere(math.pi / 4.0, 3),
    "flat-torus-0.4": lambda: gen_flat_torus(0.4, 10, 14),
}


@functools.lru_cache(maxsize=None)
def _dense_spectrum(case):
    pair = assemble_laplacian(INERTIA_MESHES[case]())
    return pair, scipy.linalg.eigh(pair.stiffness.toarray(),
                                   np.diag(pair.mass), eigvals_only=True)


@pytest.mark.parametrize("mu", [-0.01, 0.5, 1.3, 1.9, 2.05, 3.7, 5.0, 8.0,
                                15.0, 40.0])
@pytest.mark.parametrize("case", list(INERTIA_MESHES))
def test_inertia_count_matches_dense(case, mu):
    # the factorization both shifts use: its negative pivots count the
    # generalized eigenvalues below mu (Sylvester), as perm_r == perm_c
    pair, eigs = _dense_spectrum(case)
    assert np.abs(eigs - mu).min() > 1e-6 * max(abs(mu), 1.0)
    lu = spla.splu((pair.stiffness - mu * sp.diags(pair.mass)).tocsc(),
                   **spectral._SPLU_OPTIONS)
    assert np.array_equal(lu.perm_r, lu.perm_c)
    assert np.count_nonzero(lu.U.diagonal() < 0) == np.count_nonzero(
        eigs < mu)


# the ARPACK meshes and a thin, non-minimal offset torus (~12:1 triangles)
TRIAL_CASES = dict(ARPACK_CASES, **{
    "thin-offset-0.7": lambda: offset_mesh(gen_clifford_torus(48, 48), 0.7),
})


@pytest.mark.parametrize("case", list(TRIAL_CASES))
def test_trial_shift_matches_fixed_shift(case):
    mesh = TRIAL_CASES[case]()
    pair = assemble_laplacian(mesh)
    fixed = smallest_nonzero_eig(pair)
    near = smallest_nonzero_eig(pair, trial=mesh.vertices)
    assert (fixed.shift, fixed.below_shift) == (-1e-2, None)
    assert near.below_shift == 1
    assert 0.0 < near.shift < near.lambda1
    assert near.lambda1 == pytest.approx(fixed.lambda1, rel=1e-12)
    assert len(near.cluster) == len(fixed.cluster)
    assert near.iterations < fixed.iterations


def test_trial_shift_one_factorization(clifford_pair, monkeypatch):
    mesh = gen_clifford_torus(64, 64)
    calls = _count_splu(monkeypatch)
    res = smallest_nonzero_eig(clifford_pair, trial=mesh.vertices)
    assert len(calls) == 1
    assert res.below_shift == 1
    assert res.shift == pytest.approx(0.95 * 2.0, rel=1e-2)


def test_warm_start_two_iterations(clifford_pair):
    # the coordinates span the lambda1 eigenspace, so the warm-started
    # block has converged after one step and stops at the floor
    mesh = gen_clifford_torus(64, 64)
    res = smallest_nonzero_eig(clifford_pair, trial=mesh.vertices)
    assert res.below_shift == 1
    assert res.iterations == 2
    assert res.residual <= 1e-8


def test_warm_start_single_column_full_cluster(clifford_pair):
    # x0 spans one of the four lambda1 directions; the random columns
    # resolve the other three only by the second step, so a stop after
    # the first would report a cluster of 1
    x0 = gen_clifford_torus(64, 64).vertices[:, 0]
    res = smallest_nonzero_eig(clifford_pair, trial=x0)
    assert res.below_shift == 1
    assert len(res.cluster) == 4


def test_warm_start_dependent_trial_columns():
    # the equator rotated in the (x0, x3) plane: x0 and x3 are constants
    # plus proportional multiples of the old x3, so after deflation the
    # four coordinates span only three directions
    mesh = rotate_mesh(gen_geodesic_sphere(math.pi / 2.0, 4), 0, 3, 0.3)
    pair = assemble_laplacian(mesh)
    theta, ritz = spectral._trial_ritz(mesh.vertices, pair.stiffness,
                                       pair.mass)
    assert ritz.shape == (pair.size, 3)
    assert np.all(np.diff(theta) >= 0.0)
    gram = np.einsum("ij,ik->jk", ritz, pair.mass[:, None] * ritz)
    assert np.allclose(gram, np.eye(3), atol=1e-12)
    fixed = smallest_nonzero_eig(pair)
    near = smallest_nonzero_eig(pair, trial=mesh.vertices)
    assert near.below_shift == 1
    assert near.lambda1 == pytest.approx(fixed.lambda1, rel=1e-12)
    assert len(near.cluster) == 3


@pytest.mark.parametrize("kind", ["nan", "inf", "norm-overflow"])
def test_non_finite_trial_raises_before_factorization(clifford_pair,
                                                      monkeypatch, kind):
    # a column with a NaN, an inf or an overflowing squared mass norm
    # is an error, not a column to leave out
    trial = gen_clifford_torus(64, 64).vertices.copy()
    if kind == "norm-overflow":
        trial[:, 2] *= 1e160
    else:
        trial[7, 2] = {"nan": np.nan, "inf": np.inf}[kind]
    calls = _count_splu(monkeypatch)
    with pytest.raises(ValueError, match="trial has a non-finite entry"):
        smallest_nonzero_eig(clifford_pair, trial=trial)
    assert calls == []


@pytest.mark.parametrize("kind", ["cos-2-theta", "noise", "zero"])
def test_rejected_trial_falls_back(clifford_pair, monkeypatch, kind):
    # cos(2 theta) is an eigenvector for lambda ~ 8, so 8 nonzero
    # eigenvalues lie below its shift and the count rejects it; seeded
    # noise has a quotient far above lambda1, and the count rejects its
    # shift too; a zero trial has no usable column
    n = clifford_pair.size
    verts = gen_clifford_torus(64, 64).vertices
    theta = np.arctan2(verts[:, 1], verts[:, 0])
    trial = {"cos-2-theta": np.cos(2.0 * theta),
             "noise": np.random.default_rng(5).standard_normal((n, 2)),
             "zero": np.zeros((n, 4))}[kind]
    fixed = smallest_nonzero_eig(clifford_pair)
    calls = _count_splu(monkeypatch)
    res = smallest_nonzero_eig(clifford_pair, trial=trial)
    assert res.shift == -1e-2
    if kind == "cos-2-theta":
        assert res.below_shift == 9
        assert len(calls) == 2
    elif kind == "noise":
        assert res.below_shift > 1
        assert len(calls) == 2
    else:
        assert res.below_shift is None
        assert len(calls) == 1
    assert res.lambda1 == fixed.lambda1        # bitwise
    assert res.iterations == fixed.iterations
    assert np.array_equal(res.eigenvector, fixed.eigenvector)


def test_count_rejects_pinched_torus(monkeypatch):
    # pinched by 0.6, lambda1 ~ 1.64 lies below 0.95 times the smallest
    # Ritz value ~ 1.73 of the coordinates' span: the count at the near
    # shift is 2, and the solver falls back to the fixed shift
    mesh = irregular_torus(48, pinch=0.6)
    verts = mesh.vertices
    pair = assemble_laplacian(mesh)
    fixed = smallest_nonzero_eig(pair)
    theta = spectral._trial_ritz(verts, pair.stiffness, pair.mass)[0]
    assert fixed.lambda1 < 0.95 * theta[0]
    calls = _count_splu(monkeypatch)
    res = smallest_nonzero_eig(pair, trial=verts)
    assert len(calls) == 2
    assert (res.shift, res.below_shift) == (-1e-2, 2)
    assert res.lambda1 == fixed.lambda1        # bitwise


@pytest.mark.parametrize("res, pinch, jitter", [(32, 0.0, 0.15),
                                                (48, 0.3, 0.0)],
                         ids=["jittered-clifford-32", "pinched-48"])
def test_irregular_torus_takes_near_shift(res, pinch, jitter):
    # the coordinates are not eigenvectors here (relative residual 0.055
    # and 0.17), yet the smallest Ritz value of their span lies within
    # the margin of lambda1, so the count certifies the near shift
    mesh = irregular_torus(res, pinch=pinch, jitter=jitter, seed=1)
    pair = assemble_laplacian(mesh)
    fixed = smallest_nonzero_eig(pair)
    near = smallest_nonzero_eig(pair, trial=mesh.vertices)
    assert near.below_shift == 1
    assert 0.0 < near.shift < near.lambda1
    assert near.iterations <= 4
    assert near.lambda1 == pytest.approx(fixed.lambda1, rel=1e-12)


def test_rayleigh_quotient_properties(clifford_pair):
    mesh = gen_clifford_torus(64, 64)
    theta = np.arctan2(mesh.vertices[:, 1], mesh.vertices[:, 0])
    assert rayleigh_quotient(np.cos(theta), clifford_pair) \
        == pytest.approx(2.0, rel=0.02)
    with pytest.raises(ValueError, match="zero mass norm"):
        rayleigh_quotient(np.ones(clifford_pair.size), clifford_pair)


def test_rayleigh_quotient_rejects_non_finite(clifford_pair):
    x = np.ones(clifford_pair.size)
    x[3] = np.nan
    with pytest.raises(ValueError, match="non-finite entry"):
        rayleigh_quotient(x, clifford_pair)


def test_rayleigh_upper_bound_property(clifford_pair):
    res = smallest_nonzero_eig(clifford_pair, tol=1e-8)
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.standard_normal(clifford_pair.size)
        rq = rayleigh_quotient(x, clifford_pair)
        assert res.lambda1 <= rq * (1.0 + 1e-9) + res.residual


def test_eigenvector_satisfies_equation(clifford_pair):
    res = smallest_nonzero_eig(clifford_pair, tol=1e-9)
    x = res.eigenvector
    r = clifford_pair.stiffness @ x - res.lambda1 * (clifford_pair.mass * x)
    rel = math.sqrt(float((r ** 2 / clifford_pair.mass).sum())) / res.lambda1
    assert rel <= 1e-9


def test_scale_equivariance(clifford_pair):
    res = smallest_nonzero_eig(clifford_pair, tol=1e-10)
    scaled = LaplacePair(stiffness=clifford_pair.stiffness * 3.0,
                         mass=clifford_pair.mass * 3.0)
    res_scaled = smallest_nonzero_eig(scaled, tol=1e-10)
    assert res_scaled.lambda1 == pytest.approx(res.lambda1, rel=1e-12)
    mass_only = LaplacePair(stiffness=clifford_pair.stiffness,
                            mass=clifford_pair.mass * 2.0)
    res_mass = smallest_nonzero_eig(mass_only, tol=1e-10)
    assert res_mass.lambda1 == pytest.approx(res.lambda1 / 2.0, rel=1e-9)


def test_determinism_bitwise():
    pair = assemble_laplacian(gen_clifford_torus(24, 24))
    a = smallest_nonzero_eig(pair, tol=1e-9, seed=123)
    b = smallest_nonzero_eig(pair, tol=1e-9, seed=123)
    assert a.lambda1 == b.lambda1           # bitwise
    assert a.iterations == b.iterations
    assert np.array_equal(a.eigenvector, b.eigenvector)


def test_nonconvergence_carries_best_iterate():
    pair = assemble_laplacian(gen_clifford_torus(16, 16))
    with pytest.raises(ConvergenceError) as info:
        smallest_nonzero_eig(pair, tol=1e-11, max_iter=1)
    err = info.value
    assert err.best_vector is not None
    assert err.iterations == 1
    assert err.best_value == pytest.approx(2.0, rel=0.5)


_THREADS_CHILD = """
import hashlib
from sphere_spectra.generators import gen_clifford_torus
from sphere_spectra.mesh import assemble_laplacian
from sphere_spectra.spectral import rayleigh_quotient, smallest_nonzero_eig
res = smallest_nonzero_eig(assemble_laplacian(gen_clifford_torus(104, 104)))
print(repr(res.lambda1), hashlib.sha256(res.eigenvector.tobytes()).hexdigest())
mesh = gen_clifford_torus(128, 128)
print(repr(rayleigh_quotient(mesh.vertices[:, 0], assemble_laplacian(mesh))))
mesh = gen_clifford_torus(104, 104)
res = smallest_nonzero_eig(assemble_laplacian(mesh), trial=mesh.vertices)
print(repr(res.lambda1), repr(res.shift), res.below_shift,
      hashlib.sha256(res.eigenvector.tobytes()).hexdigest())
"""


def test_blas_thread_count_invariance():
    # clifford 104x104 (V = 10816) is large enough for OpenBLAS to split
    # its dot products between threads; at 96x96 even BLAS reductions in
    # the solver gave the same lambda1 under 1 and 2 threads.  A BLAS dot
    # in the Rayleigh quotient of x0 gave different values at 128x128
    # (not at 104x104).
    src = os.path.dirname(os.path.dirname(sphere_spectra.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _THREADS_CHILD], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=120)
        outputs.append(proc.stdout.split())
    assert outputs[0] == outputs[1]


def test_tol_floor_rejected():
    pair = assemble_laplacian(gen_clifford_torus(16, 16))
    with pytest.raises(ValueError):
        smallest_nonzero_eig(pair, tol=1e-13)


def test_thin_offset_torus_spectrum():
    # offset at t=0.7 has ~12:1 anisotropic triangles; the product-torus
    # spectrum min(1/a^2, 1/b^2) is still hit to solver accuracy
    from sphere_spectra.generators import gen_clifford_torus
    from sphere_spectra.mesh import offset_mesh

    mesh = offset_mesh(gen_clifford_torus(48, 48), 0.7)
    pair = assemble_laplacian(mesh)
    res = smallest_nonzero_eig(pair, tol=1e-8)
    a = math.cos(math.pi / 4.0 + 0.7)
    b = math.sin(math.pi / 4.0 + 0.7)
    assert res.lambda1 == pytest.approx(min(a ** -2, b ** -2), rel=1e-6)
