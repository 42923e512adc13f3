import math

import numpy as np
import pytest
import scipy.special

from sphere_spectra import cli, quadrature, radial
from sphere_spectra.quadrature import integrate
from sphere_spectra.radial import PROFILES

# boundary normal derivative of the hemisphere extension, closed forms
# obtained from the hypergeometric representation
BOUNDARY_DERIVATIVE = {2: 4.0 / math.pi, 3: 1.5, 4: 16.0 / (3.0 * math.pi)}


def hyp_extension(n, theta):
    """Independent closed form: F = C sin(t) 2F1(1, n+1; (n+3)/2; sin^2(t/2))."""
    norm = scipy.special.hyp2f1(1, n + 1, (n + 3) / 2.0, 0.5)
    return np.sin(theta) * scipy.special.hyp2f1(
        1, n + 1, (n + 3) / 2.0, np.sin(theta / 2.0) ** 2) / norm


# ---------------------------------------------------------------------------

def test_judge_scales_identity_by_lhs_and_inequality_by_rhs():
    # an identity's slack is -|lhs - rhs|, an inequality's rhs - lhs
    ident = radial.judge(True, "i", -3.0, -3.5, 1e-3)
    assert (ident.slack, ident.tol, ident.passed) == (-0.5, 1e-3 * 3.0, False)
    assert radial.judge(True, "i", -3.5, -3.0, 1e-3).slack == -0.5
    ineq = radial.judge(False, "q", 2.0, -5.0, 0.5)
    assert (ineq.slack, ineq.tol, ineq.passed) == (-7.0, 0.5 * 5.0, False)
    assert radial.judge(False, "q", 2.0, -5.0, 2.0).passed
    # no absolute floor: sides far below 1 that differ by half fail
    assert not radial.judge(True, "i", 2e-20, 1e-20, 1e-8).passed
    assert not radial.judge(False, "q", 2e-20, 1e-20, 1e-8).passed
    # a dropped term that is not positive fails the inequality
    assert not radial.judge(False, "g", 1.0, 1.0, 1e-8,
                            {"dropped_term": 0.0}).passed


# the built-in rtol of each family of identity rows in the suite
_IDENTITY_RTOL = {"reilly": 1e-8, "bochner": 1e-10, "chain": 1e-8}


@pytest.mark.parametrize("n", [2, 8, 40, 100, 300, 455, 1000, 1047, 2000,
                               5000])
def test_identity_rows_fail_with_rhs_doubled(n):
    # every identity row (Reilly, Bochner, chain flux) passes, and fails
    # re-judged at its own rtol with its rhs doubled: no absolute floor
    # lets a wrong side through where both sides are far below 1
    rows = [(rtol, r) for kind, rtol in _IDENTITY_RTOL.items()
            for r in radial.ORACLES[kind](n) if r.identity]
    assert len(rows) == 11 and all(r.passed for _, r in rows)
    passing = [r.name for rtol, r in rows
               if radial.judge(True, r.name, r.lhs, 2.0 * r.rhs, rtol).passed]
    assert passing == []


@pytest.mark.parametrize("n", [455, 1000, 1047, 2000, 5000])
def test_no_row_passes_as_zero_against_zero(n):
    # Vol(S^n) is 0 in doubles from n = 455 on; no row carries it, so
    # every side of every row stays a real number
    rows = [r for suite in radial.ORACLES.values() for r in suite(n)]
    assert len(rows) == 24 and all(r.passed for r in rows)
    assert [r.name for r in rows if r.lhs == 0.0 and r.rhs == 0.0] == []


@pytest.mark.parametrize("n,r0,r1", [(2, 0.3, 1.2), (3, 0.5, 1.0),
                                     (4, 0.6, 1.2), (5, 0.3, 1.2),
                                     (8, 0.3, 1.2), (12, 0.3, 1.2)])
def test_bochner_residual(n, r0, r1):
    rep = radial.verify_bochner_radial(n, r0, r1)
    assert rep.passed and rep.identity and rep.name == f"annulus({r0},{r1})"
    assert -rep.slack / (1.0 + abs(rep.lhs)) <= 1e-13
    assert r0 <= rep.extras["r"] <= r1


def test_bochner_closed_forms_match_finite_differences():
    # independent reference at n = 2: 7-point differences of g = sin^-4
    # against the closed-form g', g'' and the Laplacian the check reports
    n = 2
    rep = radial.verify_bochner_radial(n, 0.3, 1.2)
    r = np.append(np.linspace(0.3, 1.2, 101), rep.extras["r"])
    d1, d2 = radial._fd_derivatives(
        lambda x: np.sin(x) ** (-2.0 * n), r, 2e-3)
    s, c = np.sin(r), np.cos(r)
    np.testing.assert_allclose(d1, -2.0 * n * c * s ** (-2.0 * n - 1.0),
                               rtol=1e-9)
    np.testing.assert_allclose(
        d2, 2.0 * n * s ** (-2.0 * n)
        + 2.0 * n * (2.0 * n + 1.0) * c ** 2 * s ** (-2.0 * n - 2.0),
        rtol=1e-9)
    # the report is in units of g
    assert (d2[-1] + n * (c[-1] / s[-1]) * d1[-1]) * s[-1] ** (2.0 * n) \
        == pytest.approx(rep.lhs, rel=1e-9)


@pytest.mark.parametrize("n,r0,r1", [(2, 0.3, 1.2), (8, 0.3, 1.2),
                                     (64, 0.3, 1.2), (300, 0.3, 1.2),
                                     (64, 1e-4, 1.0)])
def test_bochner_finite_at_large_n(n, r0, r1):
    # both sides in units of g = sin^-2n r: no overflow where g itself
    # overflows (n = 300 at r = 0.3), and no numpy warning on the way
    with np.errstate(all="raise"):
        rep = radial.verify_bochner_radial(n, r0, r1)
    assert rep.passed and math.isfinite(rep.lhs)


def test_bochner_domain_checks():
    with pytest.raises(ValueError):
        radial.verify_bochner_radial(2, 1.2, 0.3)


# ---------------------------------------------------------------------------

def test_reilly_cos_closed_form():
    # f = cos r: both sides equal n(n+1) int cos^2 sin^2 per unit
    # Area(boundary sphere) = Vol(S^2) sin^2 1
    rep = radial.verify_reilly_radial(2, 1.0, PROFILES["cos"])
    exact = 6.0 * (0.125 - math.sin(4.0) / 32.0) / math.sin(1.0) ** 2
    assert rep.lhs == pytest.approx(exact, rel=1e-10)
    assert rep.passed
    assert -rep.slack <= 1e-8 * (1.0 + abs(rep.lhs))


def test_reilly_constant_profile_trivial():
    const = radial.RadialProfile(
        "const", lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        lambda r: np.zeros_like(np.asarray(r, dtype=float)))
    rep = radial.verify_reilly_radial(2, 0.8, const)
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("radius", [0.5, 1.0, 1.4])
@pytest.mark.parametrize("n", [2, 3])
def test_reilly_profile_grid(profile, radius, n):
    rep = radial.verify_reilly_radial(n, radius, PROFILES[profile])
    assert rep.passed, f"{rep.name}: gap {-rep.slack} > tol {rep.tol}"


def test_reilly_gap_tracks_quadrature_tolerance(monkeypatch):
    gaps = []
    for tol in (1e-4, 1e-6, 1e-8):
        monkeypatch.setattr(radial, "_QUAD_TOL", tol)
        gaps.append(-radial.verify_reilly_radial(2, 1.3,
                                                 PROFILES["gauss"]).slack)
    floor = 1e-12 * (1 + gaps[-1])
    assert gaps[1] <= gaps[0] + floor
    assert gaps[2] <= gaps[1] + floor


def test_reilly_rejects_bad_profile():
    bad = radial.RadialProfile("sin", np.cos,
                               lambda r: -np.sin(r))   # f'(0) = 1 != 0
    with pytest.raises(ValueError, match="f'"):
        radial.verify_reilly_radial(2, 1.0, bad)


# ---------------------------------------------------------------------------

def test_interior_gradient_holds():
    [rep] = radial.verify_interior_gradient_radial(2, 0.3, 1.3, (0.1,))
    assert rep.passed and not rep.identity
    assert rep.extras["ratio"] < 1.0


def test_interior_gradient_extreme_t():
    t = (1.3 - 0.3) / 4.0 * 0.999
    [rep] = radial.verify_interior_gradient_radial(2, 0.3, 1.3, (t,))
    assert rep.passed


@pytest.mark.parametrize("n", [289, 300, 400])
def test_interior_gradient_finite_where_grad_squared_overflows(n):
    # sin^-2n r overflows a double on (0.3, 1.3) from n = 289 on; the
    # integrand per unit sin^-n r0, (sin r0 / sin r)^n <= 1, does not, and
    # its integrals are positive, with the Hessian side n (n + 1) cot^2 r
    # times it (a RuntimeWarning fails the test)
    rows = radial.verify_interior_gradient_radial(n, 0.3, 1.3, (0.1, 0.2))
    for row in rows:
        assert row.passed and 0.0 < row.lhs < row.rhs < math.inf
    # the rhs scales as t^-2 around one Hessian integral
    assert rows[0].rhs == pytest.approx(4.0 * rows[1].rhs, rel=1e-14)


def test_interior_gradient_guards():
    with pytest.raises(ValueError):
        radial.verify_interior_gradient_radial(2, 0.3, 1.3, (0.1, 0.3))


# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
def test_hemisphere_extension_against_hypergeometric(n):
    ext = radial.solve_hemisphere_extension(n)
    theta = np.linspace(1e-3, math.pi / 2.0, 700)
    assert np.abs(ext.jet(theta)[0] - hyp_extension(n, theta)).max() <= 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hemisphere_extension_invariants(n):
    ext = radial.solve_hemisphere_extension(n)
    grid = np.linspace(0.01, math.pi / 2.0, 500)
    assert ext.residual(grid).max() <= 1e-8
    f, fp, _ = ext.jet(grid)
    assert (f > 0).all()
    assert (fp > 0).all()
    assert ext.jet(math.pi / 2.0)[0] == pytest.approx(1.0, rel=1e-12)
    assert ext.boundary_derivative > 0           # strict flux at the equator
    assert ext.boundary_derivative == pytest.approx(
        BOUNDARY_DERIVATIVE[n], rel=1e-10)
    # regular branch: F ~ c * theta at the pole
    fp_pole = ext.jet(1e-7)[1]
    assert ext.jet(1e-6)[0] / 1e-6 == pytest.approx(fp_pole, rel=1e-4)
    # at the pole itself F, F' and F'' are exact, without a warning: F is
    # odd, so F''(0) = 0, and F'' -> 0 as theta -> 0
    f0, fp0, fpp0 = ext.jet(0.0)
    assert f0 == 0.0 and fp0 == pytest.approx(fp_pole, rel=1e-12)
    assert fpp0 == 0.0 and abs(ext.jet(1e-6)[2]) < 1e-4
    f, fp, fpp = ext.jet(np.array([0.0, -0.0, 0.3]))
    assert fpp[:2].tolist() == [0.0, 0.0] and fpp[2] == ext.jet(0.3)[2]


@pytest.mark.parametrize("n", [2, 3, 8, 64])
def test_hemisphere_jet_finite_down_to_subnormal_theta(n):
    # cot = cos / sin overflows below |theta| ~ 1e-308, while F'' tends to
    # 0 like theta: jet stays finite, odd and warning-free there
    # (RuntimeWarning is an error in this suite)
    ext = radial.solve_hemisphere_extension(n)
    rate = ext.jet(1e-6)[2] / 1e-6
    for theta in (1e-300, 1e-308, 1e-310):
        for sign in (1.0, -1.0):
            f, fp, fpp = ext.jet(sign * theta)
            assert f / (sign * theta) == pytest.approx(fp, rel=1e-9)
            assert fpp / (sign * theta) == pytest.approx(rate, rel=1e-6)
    f, fp, fpp = ext.jet(np.array([5e-324, -5e-324]))
    assert np.isfinite([f, fp, fpp]).all() and (np.abs(fpp) <= 1e-323).all()
    # from |theta| = 1e-300 on, F'' is the cot form of the G equation
    th = np.array([1e-300, -1e-300, 1e-299, 1e-200, 1e-8, 0.3, math.pi / 2.0,
                   radial._THETA_MAX])
    g, gp = ext._g_pair(th)
    s, c = np.sin(th), np.cos(th)
    gpp = (n + 1.0) * g - (n + 2.0) * (c / s) * gp
    cot_form = ext._scale * (-s * g + 2.0 * c * gp + s * gpp)
    assert [x.hex() for x in ext.jet(th)[2]] == [x.hex() for x in cot_form]


def test_hemisphere_extension_rejects_theta_past_series_range():
    ext = radial.solve_hemisphere_extension(2)
    with pytest.raises(ValueError, match="series"):
        ext.jet(2.5)
    with pytest.raises(ValueError, match="series"):
        ext.jet(np.array([1.0, -2.5]))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_chain_report(n):
    rows = radial.verify_choiwang_chain_hemisphere(n)
    assert all(row.passed for row in rows)
    flux, reilly, gap, trace = rows
    assert [row.identity for row in rows] == [True, False, False, False]
    # the chain's quantities are sides of its rows
    boundary_flux, grad_energy = flux.lhs, flux.rhs
    hess_energy, surface_gradient = gap.lhs, trace.rhs
    assert reilly.rhs == -hess_energy
    assert gap.rhs == (2.0 * (n - n / 2.0)) * grad_energy   # lambda1 = n
    # flux identity is the divergence theorem: gap at quadrature scale
    assert -flux.slack <= 1e-8 * (1.0 + boundary_flux)
    assert boundary_flux == pytest.approx(BOUNDARY_DERIVATIVE[n], rel=1e-10)
    # on the hemisphere the Hessian energy equals n * gradient energy,
    # making both inequalities tight
    assert hess_energy == pytest.approx(n * grad_energy, rel=1e-9)
    assert abs(reilly.slack) <= 1e-8 * (1 + hess_energy)
    assert abs(gap.slack) <= 1e-8 * (1 + hess_energy)
    # the dropped term is strictly positive
    assert gap.extras["dropped_term"] == hess_energy > 0.5
    # trace inequality has real slack; its sharp form is an identity here
    assert trace.slack > 0.1
    assert abs(surface_gradient - trace.extras["sharp_rhs"]) \
        <= 1e-8 * (1 + surface_gradient)


def test_chain_trace_slack_closed_form():
    # surface gradient = F'(pi/2)^2 + n and grad energy = F'(pi/2):
    # slack of the sqrt(2n) inequality is (F' - sqrt(n/2))^2 + n - n/2...
    flux, *_, trace = radial.verify_choiwang_chain_hemisphere(2)
    fp = flux.lhs
    expected = fp * fp + 2.0 - 2.0 * fp
    assert trace.slack == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------------------------

def test_collar_inequality_cos_profile():
    [rep] = radial.verify_collar_trace_hemisphere(2, 0.3, (0.5,),
                                                  PROFILES["cos"])
    assert rep.passed and not rep.identity
    assert rep.extras["h_max"] == pytest.approx(2.0 * math.tan(0.3), rel=1e-14)
    # closed-form left side per unit equator area: v'(pi/2)^2 = 1
    assert rep.lhs == pytest.approx(1.0, rel=1e-12)


def test_collar_inequality_constant_trivial():
    const = radial.RadialProfile(
        "const", lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        lambda r: np.zeros_like(np.asarray(r, dtype=float)))
    [rep] = radial.verify_collar_trace_hemisphere(2, 0.2, (1.0,), const)
    assert rep.lhs == 0.0
    assert rep.rhs == 0.0
    assert rep.passed


@pytest.mark.parametrize("beta", [0.1, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_collar_inequality_beta_sweep(beta, n):
    [rep] = radial.verify_collar_trace_hemisphere(n, 0.2, (beta,),
                                                  PROFILES["cos"])
    assert rep.passed


def test_collar_inequality_guards():
    with pytest.raises(ValueError):
        radial.verify_collar_trace_hemisphere(2, 2.0, (0.5,), PROFILES["cos"])
    with pytest.raises(ValueError):
        radial.verify_collar_trace_hemisphere(2, 0.3, (0.5, -1.0),
                                              PROFILES["cos"])


# ---------------------------------------------------------------------------
# each Gauss-Kronrod rule and each hemisphere series evaluation happens once

def _radial_integrals(monkeypatch, run):
    """(integrand, a, b, tol) of every integral that run() takes."""
    calls = []

    def record(f, a, b, tol, relative=False):
        assert relative
        calls.append((f, a, b, tol))
        return integrate(f, a, b, tol, relative=relative)

    with monkeypatch.context() as patch:
        patch.setattr(radial, "integrate", record)
        run()
    return calls


@pytest.mark.parametrize("n", [2, 8])
def test_relative_tolerance_meets_running_target(monkeypatch, n):
    # relative=True stops where the error estimate is within tol of the
    # magnitude of the value it returns
    calls = _radial_integrals(monkeypatch, lambda: (
        radial.verify_reilly_radial(n, 1.4, PROFILES["gauss"]),
        radial.verify_collar_trace_hemisphere(n, 0.3, (0.5,), PROFILES["cos"]),
        radial.verify_choiwang_chain_hemisphere(n)))
    assert len(calls) == 6
    for f, a, b, tol in calls:
        val, err = integrate(f, a, b, tol, relative=True)
        assert err <= tol * abs(val)


def _integral_key(f, a, b):
    """What an integral computes: the integrand's code, the n, t and
    profile it closes over, and the interval."""
    cells = dict(zip(f.__code__.co_freevars,
                     (cell.cell_contents for cell in f.__closure__ or ())))
    return (f.__qualname__,
            *(cells.get(name) for name in ("n", "t", "profile")), a, b)


def test_verify_oracles_rules_each_interval_once(monkeypatch, capsys):
    integrals = []  # _integral_key of each integrate call
    ruled = []      # (integrand, a, b, _g_pair calls while ruling it)
    series = [0]
    rule, g_pair = quadrature._rule, radial.HemisphereExtension._g_pair

    def counted_integrate(f, a, b, *args, **kwargs):
        integrals.append(_integral_key(f, a, b))
        return integrate(f, a, b, *args, **kwargs)

    def counted_rule(f, a, b):
        before = series[0]
        out = rule(f, a, b)
        ruled.append((f, a, b, series[0] - before))
        return out

    def counted_g_pair(self, theta):
        series[0] += 1
        return g_pair(self, theta)

    monkeypatch.setattr(radial, "integrate", counted_integrate)
    monkeypatch.setattr(quadrature, "_rule", counted_rule)
    monkeypatch.setattr(radial.HemisphereExtension, "_g_pair", counted_g_pair)
    assert cli.main(["verify-oracles", "--dims", "2,3,4"]) == 0
    assert "72/72 checks passed" in capsys.readouterr().out
    # no integral is taken twice, and none rules an interval twice
    assert len(set(integrals)) == len(integrals)
    keys = [(f, a, b) for f, a, b, _ in ruled]
    assert len(set(keys)) == len(keys)
    # the chain's grad and hess integrands share the series evaluation of
    # each node set (n, a, b): one _g_pair call per distinct set
    chain = {}
    for f, a, b, count in ruled:
        if f.__qualname__.startswith("verify_choiwang_chain_hemisphere."):
            node_set = (_integral_key(f, a, b)[1], a, b)
            chain[node_set] = chain.get(node_set, 0) + count
    assert len(chain) > 6 and set(chain.values()) == {1}


@pytest.mark.parametrize("n", range(2, 9))
def test_shared_oracle_rows_equal_one_report_calls(n):
    # a sweep takes each band and Hessian integral once for all its rows;
    # every row equals the row of a one-element sweep, bit for bit
    def bits(report):
        return (report.name, report.lhs.hex(), report.rhs.hex(),
                {k: v.hex() for k, v in report.extras.items()})

    collar = radial.ORACLES["collar"](n)
    assert [bits(r) for r in collar] == [
        bits(row) for t in (0.2, 0.3) for beta in (0.1, 0.5, 1.0, 2.0)
        for row in radial.verify_collar_trace_hemisphere(n, t, (beta,),
                                                         PROFILES["cos"])]
    interior = radial.ORACLES["interior"](n)
    assert [bits(r) for r in interior] == [
        bits(row) for t in (0.1, 0.2)
        for row in radial.verify_interior_gradient_radial(n, 0.3, 1.3, (t,))]
    assert collar[0].extras is not collar[1].extras
