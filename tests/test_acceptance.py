"""Acceptance suite: one test per top-level criterion.

Each test prints a single PASS line (with its wall time) once every
assertion of the criterion has held at the stated tolerance; run with
``pytest -s tests/test_acceptance.py`` to see the lines live.
"""

import math
import time

import numpy as np
import pytest

from sphere_spectra import constants as C
from sphere_spectra import radial
from sphere_spectra.generators import gen_clifford_torus, gen_geodesic_sphere
from sphere_spectra.mesh import discrete_shape_operator, offset_mesh
from sphere_spectra.intersect import self_intersection_test
from sphere_spectra.report import verify_surface

SQRT2 = math.sqrt(2.0)


def _report(num, name, t0, limit):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"criterion {num} took {elapsed:.1f}s >= {limit}s"
    print(f"ACCEPTANCE {num} ({name}): PASS  [{elapsed:.2f}s < {limit}s]")


@pytest.fixture(scope="module")
def clifford_128_report():
    t0 = time.perf_counter()
    rep = verify_surface(gen_clifford_torus(128, 128), tol=1e-8, seed=0)
    rep["_elapsed"] = time.perf_counter() - t0
    return rep


def test_criterion_1_constant_chain():
    t0 = time.perf_counter()
    for n in range(2, 65):
        bc = C.compute_bound_constants(n)
        assert bc.a_n >= bc.a_floor * (1.0 + 1e-12), n
        assert bc.b_n <= bc.b_ceiling * (1.0 - 1e-12), n
    ns = np.unique(np.logspace(math.log10(2.0), 6.0, 200).astype(int))
    values = [C.arctan_cubed_factor(int(n)) for n in ns]
    for v in values:
        assert 7.0 / 200.0 <= v <= 1.0 / 27.0
    assert all(b > a for a, b in zip(values, values[1:]))
    _report(1, "constant chain", t0, 1.0)


def test_criterion_2_clifford_end_to_end(clifford_128_report):
    t0 = time.perf_counter() - clifford_128_report["_elapsed"]
    rep = clifford_128_report
    lam1 = rep["spectrum"]["lambda1"]
    assert 1.98 <= lam1 <= 2.02
    lam_d = rep["curvature"]["lam_discrete"]
    assert 1.386 <= lam_d <= 1.442
    bound = rep["bound"]["value_analytic_lam"]
    assert abs(bound - 1.0000162658473663) < 1e-9
    assert 1.0 < bound <= lam1 <= 2.0 * (1.0 + 1e-9)
    _report(2, "clifford end-to-end", t0, 60.0)


def test_criterion_3_equator():
    t0 = time.perf_counter()
    rep = verify_surface(gen_geodesic_sphere(math.pi / 2.0, 5), tol=1e-8)
    lam1 = rep["spectrum"]["lambda1"]
    assert 1.98 <= lam1 <= 2.02
    assert len(rep["spectrum"]["cluster"]) == 3
    assert rep["curvature"]["lam_discrete"] <= 0.05
    assert rep["bound"]["branch"] == "totally-geodesic"
    assert rep["bound"]["value_analytic_lam"] == 2.0     # exact
    _report(3, "equator", t0, 30.0)


def test_criterion_4_volume_bounds():
    t0 = time.perf_counter()
    # closed-form tube integrals to 1e-9
    assert abs(C.tube_integral(2, 1.0) - (math.pi / 4.0 - 0.5)) <= 1e-9
    i_sqrt2_exact = 1.5 * math.atan(1.0 / SQRT2) - SQRT2 / 2.0
    assert abs(C.tube_integral(2, SQRT2) - i_sqrt2_exact) <= 1e-9
    # analytic areas under the sharp bound
    surfaces = []
    for r in (math.pi / 6.0, math.pi / 4.0, math.pi / 3.0):
        area = 4.0 * math.pi * math.sin(r) ** 2
        lam = SQRT2 * math.cos(r) / math.sin(r)
        surfaces.append((f"sphere(r={r:.3f})", area, lam))
    for r in (0.4, 0.5, 1.0 / SQRT2):
        s = math.sqrt(1.0 - r * r)
        area = 4.0 * math.pi ** 2 * r * s
        lam = math.sqrt(r ** 4 + s ** 4) / (r * s)
        surfaces.append((f"flat-torus(r={r:.3f})", area, lam))
    for name, area, lam in surfaces:
        cap = C.volume_upper_bound(2, lam).sharp
        assert area <= cap, f"{name}: {area} > {cap}"
    # crude floor for the tube integral on a lam grid
    for lam in np.linspace(0.25, 10.0, 64):
        assert C.tube_integral(2, float(lam)) \
            >= C.tube_integral_floor(2, float(lam))
    _report(4, "mean-convex volume bounds", t0, 5.0)


def test_criterion_5_offset_embeddedness():
    t0 = time.perf_counter()
    mesh = gen_clifford_torus(64, 64)
    horizon = math.pi / 4.0
    for t in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7):
        off = offset_mesh(mesh, t)
        embedded, witnesses = self_intersection_test(off)
        assert embedded, f"t={t}: witnesses {witnesses[:4]}"
        h_min = float(discrete_shape_operator(off).mean_H.min())
        h_true = 2.0 * math.tan(2.0 * t)
        assert h_true > 0.0
        assert abs(h_min - h_true) <= 0.05 * h_true, (t, h_min, h_true)
    # t = 0.8 sits beyond the horizon
    assert 0.8 >= horizon
    with pytest.raises(Exception):
        offset_mesh(mesh, 0.8)
    _report(5, "offset embeddedness", t0, 90.0)


def test_criterion_6_radial_oracles():
    t0 = time.perf_counter()
    for n in (2, 3, 4):
        for kind, suite in radial.ORACLES.items():
            for rep in suite(n):
                assert rep.passed, (kind, rep.name)
        # the Reilly profiles the CLI suite leaves out, at its radii
        for pname in ("r4", "lorentz", "sin2"):
            for radius in (0.5, 1.0, 1.4):
                rep = radial.verify_reilly_radial(
                    n, radius, radial.PROFILES[pname])
                assert rep.passed, rep.name
    _report(6, "radial oracles", t0, 10.0)


def test_criterion_7_yang_yau_and_simons(clifford_128_report):
    t0 = time.perf_counter()
    rep = clifford_128_report
    product = rep["spectrum"]["lambda1"] * rep["area"]["discrete"]
    assert abs(product - 39.5) < 0.5
    assert product <= 16.0 * math.pi
    assert rep["simons"]["integral"] >= -0.05
    assert rep["verdicts"]["yang_yau"]["passed"]
    assert rep["verdicts"]["simons"]["passed"]
    _report(7, "yang-yau and simons", t0, 60.0)
