import math

import numpy as np
import pytest

from sphere_spectra import geometry as G


def test_curvature_transport_identities():
    assert abs(G.curvature_transport(0.0, 0.3) - math.tan(0.3)) < 1e-15
    # tangent addition: (1 + 1/3) / (1 - 1/3) = 2
    assert abs(G.curvature_transport(1.0, math.atan(1.0 / 3.0)) - 2.0) < 1e-14
    rng = np.random.default_rng(3)
    for _ in range(200):
        k = float(rng.uniform(-3.0, 3.0))
        t = float(rng.uniform(-0.2, 0.2))
        if abs(1.0 - k * math.tan(t)) < 1e-3:
            continue
        assert G.curvature_transport(k, t) == pytest.approx(
            math.tan(math.atan(k) + t), rel=1e-12, abs=1e-12)


def test_curvature_transport_singularity():
    with pytest.raises(G.HorizonError) as info:
        G.curvature_transport(1.0, math.pi / 4.0)
    assert info.value.critical_t == pytest.approx(math.pi / 4.0)
    with pytest.raises(G.HorizonError):
        G.curvature_transport(-1.0, -math.pi / 4.0)
    with pytest.raises(G.HorizonError):
        G.curvature_transport(0.0, math.pi / 2.0)


def _reference_refusal(kappa, t):
    """The critical_t a refusal of curvature_transport(kappa, t) carries,
    or None, by the two-test rule: a |t| >= pi/2 is refused at pi/2,
    else t at or beyond arctan(1/kappa) on kappa's side."""
    if abs(t) >= math.pi / 2.0:
        return math.copysign(math.pi / 2.0, t)
    if kappa != 0 and (t >= math.atan(1.0 / kappa) > 0
                       or t <= math.atan(1.0 / kappa) < 0):
        return math.atan(1.0 / kappa)
    return None


def test_curvature_transport_refuses_where_the_two_test_rule_does():
    # the one focal-distance rule refuses exactly where the two-test rule
    # does, with the same critical_t, bit for bit
    for kappa in (0.0, -0.0, 1e-300, -1e-300, 0.5, -0.5, 1.0, -1.0, 3.0,
                  -3.0):
        focal = math.atan(1.0 / abs(kappa)) if kappa else math.pi / 2.0
        near = [focal, math.nextafter(focal, 0.0),
                math.nextafter(focal, math.inf)]
        for t in near + [-x for x in near] + [
                0.0, math.pi / 2.0, -math.pi / 2.0, 1.6, -1.6]:
            expected = _reference_refusal(kappa, t)
            if expected is None:
                tt = math.tan(t)
                assert G.curvature_transport(kappa, t) == \
                    (kappa + tt) / (1.0 - kappa * tt)
                continue
            with pytest.raises(G.HorizonError) as info:
                G.curvature_transport(kappa, t)
            assert info.value.critical_t.hex() == expected.hex(), (kappa, t)


def test_flat_set_refused_at_its_focal_distance():
    # a flat curvature set's normal geodesics meet at distance pi/2
    with pytest.raises(G.HorizonError) as info:
        G.offset_mean_curvature([0.0, 0.0], 1.6)
    assert info.value.critical_t == math.pi / 2.0
    with pytest.raises(ValueError, match="exceeds the embeddedness horizon"):
        G.tube_volume([(1.0, [0.0, 0.0])], 1.6)


def test_transport_composition_law():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 300:
        k = float(rng.uniform(-2.0, 2.0))
        s = float(rng.uniform(-0.3, 0.3))
        t = float(rng.uniform(-0.3, 0.3))
        try:
            one = G.curvature_transport(G.curvature_transport(k, s), t)
            two = G.curvature_transport(k, s + t)
        except G.HorizonError:
            continue
        if abs(one) > 50.0:
            continue   # near-singular values lose relative accuracy
        assert one == pytest.approx(two, rel=1e-12, abs=1e-12)
        checked += 1


def test_embeddedness_horizon():
    assert G.embeddedness_horizon([1.0, -1.0]) == pytest.approx(math.pi / 4.0)
    assert G.embeddedness_horizon([0.0, 0.0]) == math.pi / 2.0
    assert G.embeddedness_horizon([2.0, -1.0]) == pytest.approx(
        math.atan(0.5), abs=1e-15)


def test_horizon_monotone_under_scaling():
    rng = np.random.default_rng(5)
    for _ in range(100):
        kappas = rng.uniform(-2.0, 2.0, size=3)
        lam = float(rng.uniform(1.0, 4.0))
        assert G.embeddedness_horizon(lam * kappas) \
            <= G.embeddedness_horizon(kappas) + 1e-15


def test_offset_mean_curvature_clifford():
    for t in np.linspace(-0.7, 0.7, 29):
        h = G.offset_mean_curvature([1.0, -1.0], float(t))
        assert h == pytest.approx(2.0 * math.tan(2.0 * t), rel=1e-12, abs=1e-12)
    assert G.offset_mean_curvature([1.0, -1.0], 0.0) == 0.0


def test_offset_mean_curvature_geodesic_sphere():
    # offsets of geodesic spheres are geodesic spheres: H = 2 cot(r - t)
    r = 1.0
    k = 1.0 / math.tan(r)
    for t in (0.1, 0.3, 0.6):
        h = G.offset_mean_curvature([k, k], t)
        assert h == pytest.approx(2.0 / math.tan(r - t), rel=1e-12)


def test_offset_mean_curvature_horizon_guard():
    with pytest.raises(G.HorizonError):
        G.offset_mean_curvature([1.0, -1.0], math.pi / 4.0)


def test_offset_mean_convexity_lower_bound():
    # minimal curvature sets become strictly mean-convex at positive offsets:
    # H >= (n + ||A||^2) tan t (1 - kappa_max tan t) > 0
    rng = np.random.default_rng(17)
    for _ in range(300):
        a = float(rng.uniform(0.1, 3.0))
        kappas = np.array([a, -a])   # minimal pair
        horizon = G.embeddedness_horizon(kappas)
        t = float(rng.uniform(1e-3, 0.999 * horizon))
        h = G.offset_mean_curvature(kappas, t)
        floor = (2.0 + 2.0 * a * a) * math.tan(t) \
            * (1.0 - a * math.tan(t))
        assert h > 0.0
        assert h >= floor - 1e-12


def test_offset_mean_curvature_bound_values():
    lam = math.sqrt(2.0)
    val = G.offset_mean_curvature_bound(2, lam, lam / 3.0)
    assert val == pytest.approx(math.sqrt(2.0), rel=1e-14)
    # extreme allowed eps = lam/2
    val = G.offset_mean_curvature_bound(2, lam, lam / 2.0)
    assert val == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-14)
    with pytest.raises(ValueError):
        G.offset_mean_curvature_bound(2, lam, lam)
    with pytest.raises(ValueError, match="integer >= 2, got 2.5"):
        G.offset_mean_curvature_bound(2.5, lam, lam / 3.0)


@pytest.mark.parametrize("lam", [math.inf, math.nan, 0.0, -1.0])
def test_offset_mean_curvature_bound_rejects_bad_lambda(lam):
    with pytest.raises(ValueError, match="lam must be finite and positive"):
        G.offset_mean_curvature_bound(2, lam, 0.1)


def test_offset_bound_dominates_transported_mean_curvature():
    # Clifford curvatures at the endpoint offset d_eps stay below the bound
    lam, eps = math.sqrt(2.0), math.sqrt(2.0) / 3.0
    bound = G.offset_mean_curvature_bound(2, lam, eps)
    d_eps = math.atan(eps / lam ** 2)
    assert G.offset_mean_curvature([1.0, -1.0], d_eps) <= bound
    # random minimal sets with ||A|| <= lam on a t grid in [0, d_eps]
    rng = np.random.default_rng(23)
    for _ in range(200):
        a = float(rng.uniform(0.0, lam / math.sqrt(2.0)))
        for t in np.linspace(0.0, d_eps, 7):
            h = G.offset_mean_curvature([a, -a], float(t))
            assert h <= bound + 1e-12


def test_tube_volume_equator_hemisphere():
    # totally geodesic equator of area 4 pi swept to distance pi/2 fills
    # a hemisphere of S^3
    entries = [(4.0 * math.pi, np.zeros(2))]
    vol = G.tube_volume(entries, math.pi / 2.0, side=+1)
    assert vol == pytest.approx(math.pi ** 2, rel=1e-10)


def test_tube_volume_clifford_fills_sphere():
    area = 2.0 * math.pi ** 2
    entries = [(area, np.array([1.0, -1.0]))]
    plus = G.tube_volume(entries, math.pi / 4.0, side=+1)
    minus = G.tube_volume(entries, math.pi / 4.0, side=-1)
    assert plus + minus == pytest.approx(2.0 * math.pi ** 2, rel=1e-9)


def test_tube_volume_never_exceeds_sphere_volume():
    sphere_vol = 2.0 * math.pi ** 2
    cases = [
        ([(4.0 * math.pi, np.zeros(2))], math.pi / 2.0),                  # equator
        ([(2.0 * math.pi ** 2, np.array([1.0, -1.0]))], math.pi / 4.0),   # square torus
        ([(4.0 * math.pi * 0.25, np.array([math.sqrt(3.0)] * 2))],
         math.atan(1.0 / math.sqrt(3.0))),                                # small sphere
    ]
    for entries, horizon in cases:
        plus = G.tube_volume(entries, horizon, side=+1)
        minus = G.tube_volume(entries, horizon, side=-1)
        assert plus + minus <= sphere_vol * (1.0 + 1e-9)


def test_tube_volume_zero_and_guards():
    entries = [(1.0, np.array([1.0, -1.0]))]
    assert G.tube_volume(entries, 0.0) == 0.0
    with pytest.raises(ValueError):
        G.tube_volume(entries, 1.0)          # beyond the pi/4 horizon
    with pytest.raises(ValueError):
        G.tube_volume([(-1.0, np.zeros(2))], 0.1)


def test_kappa_helpers():
    assert G.kappa_max([3.0, -4.0]) == 4.0
