import math

import numpy as np
import pytest

from sphere_spectra import quadrature
from sphere_spectra.quadrature import QuadratureError, integrate


def test_polynomial_exact():
    # G7/K15 is exact for polynomials up to degree 22 on one interval
    val, err = integrate(lambda x: 7.0 * x ** 6, 0.0, 1.0)
    assert abs(val - 1.0) < 1e-14
    assert err < 1e-12


def test_sin_closed_form():
    val, _ = integrate(np.sin, 0.0, math.pi)
    assert abs(val - 2.0) < 1e-13


def test_oscillatory_meets_tolerance():
    val, err = integrate(lambda x: np.sin(40.0 * x), 0.0, math.pi, tol=1e-12)
    exact = (1.0 - math.cos(40.0 * math.pi)) / 40.0
    assert err <= 1e-12
    assert abs(val - exact) < 1e-11


def test_zero_width_interval():
    assert integrate(np.exp, 1.0, 1.0) == (0.0, 0.0)


def test_inverted_interval_rejected():
    with pytest.raises(ValueError):
        integrate(np.exp, 1.0, 0.0)


def test_stall_reports_achieved():
    # |x|^(1/2)-style kink with an absurd tolerance: the error estimate
    # stops halving, and the error carries the achieved estimate and value
    with pytest.raises(QuadratureError, match="stalled") as info:
        integrate(lambda x: np.sqrt(np.abs(x)), -1.0, 1.0, tol=1e-300)
    assert info.value.achieved > 1e-300
    assert math.isfinite(info.value.value)


def test_tolerance_scaling():
    # smooth integrand: achieved error estimate tracks the request
    exact = math.sqrt(math.pi) / 2.0 * math.erf(3.0)
    for tol in (1e-6, 1e-10):
        val, err = integrate(lambda x: np.exp(-x * x), 0.0, 3.0, tol=tol)
        assert err <= tol
        assert abs(val - exact) < max(tol, 1e-13)


def test_roundoff_stall_detected_quickly():
    # absolute tolerance below the double-precision floor of a large
    # integrand: must error out with the achieved estimate as soon as
    # the estimate stops halving
    with pytest.raises(QuadratureError) as info:
        integrate(lambda x: 1e6 * np.exp(-x * x), 0.0, 3.0, tol=1e-14)
    assert 1e-12 < info.value.achieved < 1e-6


@pytest.mark.parametrize("tol", [math.nan, -1e-10, -math.inf])
def test_bad_tolerance_rejected(tol):
    with pytest.raises(ValueError, match="tol must be >= 0"):
        integrate(np.exp, 0.0, 1.0, tol=tol)


@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0),
                                  (math.nan, 1.0), (math.inf, math.inf)])
def test_non_finite_bounds_rejected(a, b):
    with pytest.raises(ValueError, match="bounds must be finite"):
        integrate(np.exp, a, b)


def test_nan_integrand_raises():
    with pytest.raises(QuadratureError, match="non-finite") as info:
        integrate(lambda x: np.where(x > 0.5, np.nan, x), 0.0, 1.0)
    assert math.isnan(info.value.value)


def test_infinite_integrand_raises():
    # an inf node value makes the Gauss sum inf * 0 = nan
    with pytest.raises(QuadratureError, match="non-finite") as info, \
            np.errstate(invalid="ignore"):
        integrate(lambda x: np.where(x > 0.5, np.inf, x), 0.0, 1.0)
    assert not math.isfinite(info.value.achieved)


def test_relative_tolerance_follows_running_estimate():
    # a 1e6-sized integrand: 1e-14 absolute is below the roundoff floor,
    # 1e-14 relative to the running estimate is not
    def f(x):
        return 1e6 * np.exp(-x * x)

    val, err = integrate(f, 0.0, 3.0, tol=1e-14, relative=True)
    assert err <= 1e-14 * abs(val)
    exact = 1e6 * math.sqrt(math.pi) / 2.0 * math.erf(3.0)
    assert val == pytest.approx(exact, rel=1e-13)


def test_relative_target_resolves_a_peak_the_first_rule_misses():
    # the first rule on [0.3, 1.3] sees almost none of a peak of width
    # 1e-4 at 0.3, so a target fixed at tol * |first rule| would sit
    # below the roundoff floor of the integral
    val, err = integrate(lambda x: np.exp(-1e4 * (x - 0.3)), 0.3, 1.3,
                         1e-10, relative=True)
    assert val == pytest.approx(-math.expm1(-1e4) / 1e4, rel=1e-12)
    assert err <= 1e-10 * val


def test_relative_target_has_no_absolute_floor():
    # an integrand that is 0 meets the target 0 at once (the interior
    # oracle rows from n = 455 on, where Vol(S^n) underflows), and a
    # peaked one scaled by 1e-200 is resolved as far as unscaled
    assert integrate(lambda x: np.zeros_like(x), 0.3, 1.3,
                     relative=True) == (0.0, 0.0)

    def peak(x):
        return np.exp(-100.0 * (x - 0.5) ** 2)

    exact = math.sqrt(math.pi) / 20.0 * (math.erf(5.0) + math.erf(25.0))
    for scale in (1.0, 1e-200):
        val, err = integrate(lambda x: scale * peak(x), 0.0, 3.0, 1e-10,
                             relative=True)
        assert val / scale == pytest.approx(exact, rel=1e-10)
        assert err <= 1e-10 * val


@pytest.mark.parametrize("f, a, b", [
    (np.exp, 0.0, 1.0),
    (lambda x: x ** 6 - 3.0 * x, -2.0, 0.5),
    (np.cos, 0.0, 1e-3),
    (lambda x: np.full_like(x, -1e-320), 0.0, 1e-10),    # rule value -0.0
])
def test_first_rule_result_equals_general_path(f, a, b):
    # a first rule that meets the target is returned at once; the general
    # path would sum the one interval's value with np.sum
    k, err = quadrature._rule(f, a, b)
    assert err <= 1e-10
    val, achieved = integrate(f, a, b, 1e-10)
    assert (val.hex(), achieved.hex()) == (
        float(np.sum(np.array([k]))).hex(), err.hex())
    assert integrate(f, a, b, 1e-10, relative=True) == (val, achieved)


def test_first_rule_relative_estimate_does_not_depend_on_scale():
    # QUADPACK's sharpening acts in units of the integrand's spread, so
    # scaling f scales the estimate with it, down to 1e-80
    rel = []
    for c in (1e-6, 1e-30, 1e-80):
        k, err = quadrature._rule(lambda x: c * np.exp(-x * x), 0.0, 3.0)
        rel.append(err / k)
    assert rel == pytest.approx([rel[0]] * 3, rel=1e-8)


@pytest.mark.parametrize("relative", [False, True])
def test_first_rule_nan_raises(relative):
    # a NaN value with a zero error estimate meets any target at once
    assert quadrature._rule(lambda x: np.full_like(x, np.nan), 0.0, 1.0)[1] \
        == 0.0
    with pytest.raises(QuadratureError, match="non-finite"):
        integrate(lambda x: np.full_like(x, np.nan), 0.0, 1.0,
                  relative=relative)
