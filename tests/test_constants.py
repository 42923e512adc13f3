import math

import numpy as np
import pytest

from sphere_spectra import constants as C

# High-precision reference values, frozen from a 40-digit evaluation of
# the defining formulas with an independent arbitrary-precision arctan.
A2_REF = 1.3155332985270223e-4
B2_REF = 8.7702219901801488e-2
BOUND_2_SQRT2 = 1.0000162658473663
DELTA_2_DEFAULT = 0.46295472794035673
TUBE_SQRT2 = 0.21611278181903349     # 3*atan(1/sqrt 2)/2 - sqrt(2)/2
VOLBOUND_2_SQRT2 = 45.668767566713737


def arctan_series(x):
    """Independent arctan oracle: argument-reduced Taylor series.

    Uses atan(x) = 2 atan(x / (1 + sqrt(1 + x^2))) to halve the argument
    until |x| < 1e-2, then sums the Taylor series to machine precision.
    """
    reductions = 0
    while abs(x) > 1e-2:
        x = x / (1.0 + math.sqrt(1.0 + x * x))
        reductions += 1
    total, term, k = x, x, 0
    xx = x * x
    while True:
        k += 1
        term *= -xx
        delta = term / (2 * k + 1)
        total += delta
        if abs(delta) <= 1e-18 * abs(total):
            break
    return total * 2.0 ** reductions


def test_arctan_oracle_agrees_with_platform():
    for x in np.linspace(-5.0, 5.0, 101):
        assert abs(math.atan(x) - arctan_series(x)) <= 1e-15 * (1 + abs(x))


def test_arctan_cubed_factor_values():
    v = C.arctan_cubed_factor(2)
    ref = 2.0 ** 1.5 * arctan_series(1.0 / (3.0 * math.sqrt(2.0))) ** 3
    assert abs(v - ref) < 1e-15
    assert abs(v - 0.035080887960720595) < 1e-15
    assert 7.0 / 200.0 <= v <= 1.0 / 27.0


def test_arctan_cubed_factor_window_and_monotone():
    ns = np.unique(np.logspace(np.log10(2), 6, 60).astype(int))
    vals = [C.arctan_cubed_factor(int(n)) for n in ns]
    for v in vals:
        assert 7.0 / 200.0 <= v <= 1.0 / 27.0
    assert all(b > a for a, b in zip(vals, vals[1:]))
    # large-n limit is 1/27
    assert abs(C.arctan_cubed_factor(10 ** 6) - 1.0 / 27.0) < 1e-7


def test_arctan_cubed_factor_rejects_small_dim():
    with pytest.raises(ValueError):
        C.arctan_cubed_factor(1)


def test_bound_constants_n2():
    bc = C.compute_bound_constants(2)
    assert abs(bc.a_n - A2_REF) < 1e-18
    assert abs(bc.b_n - B2_REF) < 1e-15
    assert bc.a_n >= 4.0 / 32000.0
    assert bc.b_n <= 20.0 / 216.0
    assert bc.c_n == 25.0 / 3.0


def test_bound_constants_n3_floor():
    bc = C.compute_bound_constants(3)
    assert bc.a_n >= 2 * 9 / 32000.0


def test_bound_constants_satisfy_floors_up_to_64():
    for n in range(2, 65):
        bc = C.compute_bound_constants(n)
        assert bc.a_n >= bc.a_floor * (1.0 + 1e-12)
        assert bc.b_n <= bc.b_ceiling * (1.0 - 1e-12)
        assert bc.c_n <= 25.0 / 3.0 * 1.25 ** (n - 2) * (1 + 1e-15)


def test_eigenvalue_lower_bound_branches():
    assert C.eigenvalue_lower_bound(2, 0.0) == 2.0          # totally geodesic
    assert C.eigenvalue_lower_bound(3, 1.2) == 3.0          # lam < sqrt(3)
    v = C.eigenvalue_lower_bound(2, math.sqrt(2.0))
    assert abs(v - BOUND_2_SQRT2) < 1e-13
    # limit from above: n/2 as lam -> infinity
    assert abs(C.eigenvalue_lower_bound(2, 1e6) - 1.0) < 1e-12
    for lam in [math.sqrt(2.0), 2.0, 10.0, 100.0]:
        v = C.eigenvalue_lower_bound(2, lam)
        assert 1.0 < v < 2.0


def test_huge_lambda_takes_the_limits():
    # lam ** 6 and lam ** 2 overflow: the bound is n/2, the collars 0
    assert C.eigenvalue_lower_bound(2, 1e308) == 1.0
    chain = C.build_parameter_chain(2, 1e308)
    assert chain.t_collar == 0.0 and chain.d_eps == 0.0 and chain.valid


@pytest.mark.parametrize("n", [2, 3, 5])
def test_bound_sweep_matches_power_formula(n):
    # bitwise n/2 + a_n / (lam ** 6 + b_n) wherever that power is finite
    bc = C.compute_bound_constants(n)
    for lam in np.geomspace(1.5, 1.7e308, 400).tolist():
        try:
            expected = n / 2.0 + bc.a_n / (lam ** 6 + bc.b_n)
        except OverflowError:
            expected = n / 2.0
        if lam < math.sqrt(n):
            expected = float(n)
        assert C.eigenvalue_lower_bound(n, lam) == expected, lam


def test_bound_branch_threshold_is_sqrt_n():
    assert C.bound_branch(2, 0.0) == "totally-geodesic"
    assert C.bound_branch(2, math.nextafter(math.sqrt(2.0), 0.0)) \
        == "totally-geodesic"
    assert C.bound_branch(2, math.sqrt(2.0)) == "generic"
    assert C.bound_branch(3, 1.2) == "totally-geodesic"
    assert C.bound_branch(3, 2.0) == "generic"


def test_eigenvalue_lower_bound_rejects_negative():
    with pytest.raises(ValueError):
        C.eigenvalue_lower_bound(2, -1.0)


def test_parameter_chain_default_n2():
    lam = math.sqrt(2.0)
    chain = C.build_parameter_chain(2, lam)
    assert abs(chain.eps - lam / 3.0) < 1e-15
    assert abs(chain.beta - lam / 20.0) < 1e-15
    assert abs(chain.eps_tilde - math.sqrt(2.0)) < 1e-14
    assert abs(chain.delta - DELTA_2_DEFAULT) < 1e-14
    assert abs(chain.t_collar - chain.delta / 4.0) < 1e-15
    assert abs(chain.d_eps - math.atan(chain.eps / 2.0)) < 1e-15
    assert chain.gamma >= 3.0 * math.sqrt(2.0) / 100.0
    assert chain.valid
    assert chain.t_collar <= chain.d_eps / 2.0 + 1e-15


def test_parameter_chain_gamma_floor_for_default_slack():
    for n in (2, 3, 5, 8, 16):
        for lam_mult in (1.0, 1.5, 4.0, 50.0):
            lam = math.sqrt(n) * lam_mult
            chain = C.build_parameter_chain(n, lam)
            assert chain.gamma >= 3.0 * math.sqrt(n) / 100.0
            assert chain.t_collar <= chain.d_eps / 2.0 + 1e-15


def test_parameter_chain_rejects_large_eps():
    with pytest.raises(ValueError):
        C.build_parameter_chain(2, 1.0, eps=0.6)


def test_parameter_chain_degenerate_flagged_not_raised():
    # huge beta kills gamma but the chain is still returned
    chain = C.build_parameter_chain(2, math.sqrt(2.0), beta=10.0)
    assert not chain.valid
    assert chain.gamma < 0.0


def test_numerator_denominator_combination_identity():
    # a/(lam^6 + b) with a = (n-1) delta^3 gamma / 32 and
    # b = (n-1) delta^3 / (32 beta) equals
    # gamma beta (n-1) delta^3 / (32 beta lam^6 + (n-1) delta^3)
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        lam = math.sqrt(n) * float(rng.uniform(1.0, 20.0))
        chain = C.build_parameter_chain(n, lam)
        delta, gamma, beta = chain.delta, chain.gamma, chain.beta
        a = (n - 1) * delta ** 3 * gamma / 32.0
        b = (n - 1) * delta ** 3 / (32.0 * beta)
        lhs = a / (lam ** 6 + b)
        rhs = gamma * beta * (n - 1) * delta ** 3 \
            / (32.0 * beta * lam ** 6 + (n - 1) * delta ** 3)
        assert abs(lhs - rhs) <= 1e-14 * abs(lhs)


def test_tube_integral_closed_forms():
    v1 = C.tube_integral(2, 1.0)
    assert abs(v1 - (math.pi / 4.0 - 0.5)) < 1e-10
    v2 = C.tube_integral(2, math.sqrt(2.0))
    assert abs(v2 - TUBE_SQRT2) < 1e-10


def test_tube_integral_floor_on_lambda_grid():
    for lam in np.linspace(0.25, 10.0, 40):
        val = C.tube_integral(2, float(lam))
        assert val >= C.tube_integral_floor(2, float(lam))


def test_tube_integral_floor_needs_quarter():
    with pytest.raises(ValueError):
        C.tube_integral_floor(2, 0.2)


@pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan])
def test_volume_bound_rejects_lambda_outside_domain(lam):
    for fn in (C.tube_integral, C.volume_upper_bound):
        with pytest.raises(ValueError, match="finite and positive"):
            fn(2, lam)
    with pytest.raises(ValueError, match="finite lam >= 1/4"):
        C.tube_integral_floor(2, lam)


def test_volume_upper_bound_n2():
    vb = C.volume_upper_bound(2, math.sqrt(2.0))
    assert abs(vb.sphere_vol - 2.0 * math.pi ** 2) < 1e-12
    assert abs(vb.sharp - VOLBOUND_2_SQRT2) < 1e-8
    # Clifford torus area fits under the bound
    assert 2.0 * math.pi ** 2 <= vb.sharp
    assert vb.crude is not None and vb.sharp <= vb.crude


def test_volume_upper_bound_crude_at_quarter():
    vb = C.volume_upper_bound(2, 0.25)
    assert vb.crude == pytest.approx(25.0 / 3.0 * 0.25 * 2.0 * math.pi ** 2)
    assert vb.sharp <= vb.crude
    # below 1/4 no crude bound is reported
    assert C.volume_upper_bound(2, 0.2).crude is None


def test_sphere_volume_values():
    assert abs(C.sphere_volume(1) - 2.0 * math.pi) < 1e-12
    assert abs(C.sphere_volume(2) - 4.0 * math.pi) < 1e-12
    assert abs(C.sphere_volume(3) - 2.0 * math.pi ** 2) < 1e-12


def log_sphere_volume(d):
    """log Vol(S^d) from Vol(S^1) = 2 pi, Vol(S^2) = 4 pi and the
    recurrence Vol(S^d) = Vol(S^(d-2)) 2 pi / (d - 1)."""
    base = 1 if d % 2 else 2
    return math.fsum([math.log(2.0 * base * math.pi)]
                     + [math.log(2.0 * math.pi / (k - 1))
                        for k in range(base + 2, d + 1, 2)])


@pytest.mark.parametrize("d", [342, 343, 400, 2000])
def test_sphere_volume_past_gamma_overflow(d):
    # Gamma((d + 1)/2) overflows from d = 343 on; the volume does not
    # until it underflows (to 0 at d = 2000, as its reference does)
    assert C.sphere_volume(d) == pytest.approx(
        math.exp(log_sphere_volume(d)), rel=1e-12, abs=0.0)
    if d == 342:
        assert C.sphere_volume(d) == 2.0 * math.pi ** 171.5 / math.gamma(171.5)


def test_sphere_volume_decreases_past_six():
    vols = [C.sphere_volume(d) for d in range(6, 2001)]
    positive = [v for v in vols if v > 0.0]
    assert all(a > b for a, b in zip(positive, positive[1:]))
    assert all(v == 0.0 for v in vols[len(positive):])
    assert 300 < len(positive) < 2000
