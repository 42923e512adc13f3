"""Radial reductions of volumetric integral identities on round spheres.

On rotationally symmetric configurations (geodesic balls, annuli and the
hemisphere over an equatorial S^n inside S^(n+1)) the integral identities
relating Hessian, gradient and boundary data reduce to 1D quadrature:

* dv = Vol(S^n) sin(r)^n dr against the polar radius,
* Laplacian of a radial g:   g'' + n cot(r) g',
* squared Hessian of radial g:   g''^2 + n (g' cot r)^2.

Each identity is homogeneous in dv, so each row is judged in the units
of its own boundary sphere and Vol(S^n), 0 in doubles from n = 455 on,
never appears: a Reilly row per unit Area(dB_R) = Vol(S^n) sin^n R, an
interior row per unit Vol(S^n) sin^-n r0, a collar row per unit
equator area Vol(S^n).

The hemisphere case additionally separates a degree-1 equatorial
eigenfunction, leaving the radial factor ODE
F'' + n cot(t) F' - (n / sin^2 t) F = 0 with the regular branch F ~ t.

Every `verify_*` function computes both sides of its identities or
inequalities independently (by quadrature, or pointwise from closed-form
derivatives for the Bochner identity) and returns `OracleReport` rows,
each judged by `judge`, the one pass rule of them all, at a relative
threshold.  `ORACLES` is the suite that `sphere-spectra verify-oracles`
prints.  It takes each distinct integral once: the interior function
takes its sweep of t and the collar function its sweep of beta, so the
rows of a sweep share the integrals that do not depend on the swept
parameter, and the chain's two integrals share the series evaluation
of each node set.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import _check_dim
from .quadrature import integrate

__all__ = [
    "RadialProfile", "PROFILES", "OracleReport", "HemisphereExtension",
    "ORACLES", "judge",
    "verify_bochner_radial", "verify_reilly_radial",
    "verify_interior_gradient_radial", "solve_hemisphere_extension",
    "verify_choiwang_chain_hemisphere", "verify_collar_trace_hemisphere",
]


@dataclass(frozen=True)
class RadialProfile:
    """C^2 radial function, given by its closed-form first and second
    derivatives."""
    name: str
    fp: callable
    fpp: callable


PROFILES = {
    "cos": RadialProfile("cos", lambda r: -np.sin(r), lambda r: -np.cos(r)),
    "r2": RadialProfile("r2", lambda r: 2.0 * r,
                        lambda r: 2.0 * np.ones_like(np.asarray(r, dtype=float))),
    "r4": RadialProfile("r4", lambda r: 4.0 * r ** 3, lambda r: 12.0 * r ** 2),
    "gauss": RadialProfile("gauss", lambda r: -2.0 * r * np.exp(-r ** 2),
                           lambda r: (4.0 * r ** 2 - 2.0) * np.exp(-r ** 2)),
    "lorentz": RadialProfile(
        "lorentz", lambda r: -2.0 * r / (1.0 + r ** 2) ** 2,
        lambda r: (6.0 * r ** 2 - 2.0) / (1.0 + r ** 2) ** 3),
    "sin2": RadialProfile("sin2", lambda r: np.sin(2.0 * r),
                          lambda r: 2.0 * np.cos(2.0 * r)),
}


@dataclass(frozen=True)
class OracleReport:
    """One oracle row: the identity lhs = rhs, or the inequality lhs <= rhs.

    slack is rhs - lhs for an inequality and -|lhs - rhs| for an identity,
    so that every row passes on the same test, slack >= -tol.
    """
    name: str
    identity: bool
    lhs: float
    rhs: float
    slack: float
    tol: float
    passed: bool
    extras: dict = field(default_factory=dict)


def judge(identity, name, lhs, rhs, rtol, extras=None):
    """The one pass rule of every oracle, at relative tolerance rtol, with
    no absolute floor: an identity passes when |lhs - rhs| <= rtol |lhs|,
    an inequality lhs <= rhs when rhs - lhs >= -rtol |rhs| and the term
    its proof drops, extras["dropped_term"] if any, is > 0."""
    extras = extras or {}
    if identity:
        slack = -abs(lhs - rhs)
        tol = rtol * abs(lhs)
    else:
        slack = rhs - lhs
        tol = rtol * abs(rhs)
    passed = slack >= -tol and extras.get("dropped_term", 1.0) > 0.0
    return OracleReport(name, identity, lhs, rhs, slack, tol, passed, extras)


# relative quadrature tolerance (`integrate(..., relative=True)`) of every
# oracle integral
_QUAD_TOL = 1e-10
# pass threshold of the hemisphere chain (the rtol of `judge`)
_CHAIN_TOL = 1e-8
# grid of the pointwise Bochner identity
_BOCHNER_GRID_POINTS = 10**4
# largest |theta| the hemisphere series serves: the equator plus room for
# the residual stencil of half-width 3 * _RESIDUAL_FD_STEP around it
_THETA_MAX = math.pi / 2.0 + 0.05
_RESIDUAL_FD_STEP = 4e-3


# 7-point central finite-difference stencils, order h^6
_D1 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
_D2 = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0


def _fd_derivatives(func, x, h):
    """(f', f'') on grid x by 7-point central differences with step h."""
    offsets = np.arange(-3, 4)
    table = func(x[:, None] + h * offsets[None, :])
    d1 = (table @ _D1) / h
    d2 = (table @ _D2) / h ** 2
    return d1, d2


def verify_bochner_radial(n, r0, r1):
    """Pointwise harmonic-gradient identity
    Delta |grad v|^2 = 2 |Hess v|^2 + 2 n |grad v|^2 on an annulus.

    v is the radial harmonic (v' = sin^-n), so g = |grad v|^2 = sin^-2n r.
    Both sides are judged in units of g, which overflows for large n:
    g'/g = -2n cot r and g''/g = 2n + 2n(2n+1) cot^2 r in closed form,
    the left side is the radial Laplacian (g'' + n cot r g') / g, and the
    right side is built from v'^2 / g = 1 and v''/v' = -n cot r, so
    agreement cross-checks the radial reduction formulas, the Ricci term
    2n |grad v|^2 included.

    Returns the identity row, at rtol 1e-10, of the grid point with the
    largest |lhs - rhs| / |lhs|: it passes exactly when every point of
    the grid does, at any rtol.
    """
    n = _check_dim(n)
    if not (0.0 < r0 < r1 < math.pi):
        raise ValueError("need 0 < r0 < r1 < pi")
    r = np.linspace(r0, r1, _BOCHNER_GRID_POINTS)
    cot = np.cos(r) / np.sin(r)
    g1 = -2.0 * n * cot                                    # g' / g
    g2 = 2.0 * n + 2.0 * n * (2.0 * n + 1.0) * cot ** 2    # g'' / g
    lhs = g2 + n * cot * g1
    vpp = -n * cot                                         # v'' / v'
    hess2 = vpp ** 2 + n * cot ** 2                        # |Hess v|^2 / g
    rhs = 2.0 * hess2 + 2.0 * n                            # v'^2 / g = 1
    i = int(np.argmax(np.abs(lhs - rhs) / np.abs(lhs)))
    return judge(True, f"annulus({r0},{r1})", float(lhs[i]),
                 float(rhs[i]), 1e-10, {"r": float(r[i])})


def verify_reilly_radial(n, radius, profile):
    """Both sides of the integral Bochner (Reilly) identity on a geodesic
    ball of the given radius, for a radial profile with f'(0) = 0.

    LHS: integral of (Delta f)^2 - |Hess f|^2.
    RHS: Ricci term n * integral of f'^2, plus the boundary term
    n cot(radius) f'(radius)^2.  Both sides are per unit Area(boundary
    sphere) = Vol(S^n) sin^n(radius), so dv = (sin r / sin radius)^n dr.
    (The boundary
    mean curvature enters through the divergence-form convention
    H = -Delta(distance), under which the ball boundary has H = +n cot R
    toward the center; the sign is fixed by the identity itself.)

    Returns an identity row; pass tolerance 1e-8 |LHS|.
    """
    n = _check_dim(n)
    if not (0.0 < radius < math.pi / 2.0):
        raise ValueError("ball radius must lie in (0, pi/2)")
    if abs(float(profile.fp(1e-8))) > 1e-6:
        raise ValueError(f"profile {profile.name} has f'(0) != 0")
    sin_radius = math.sin(radius)

    def lhs_integrand(r):
        s, c = np.sin(r), np.cos(r)
        fp, fpp = profile.fp(r), profile.fpp(r)
        lap = fpp + n * (c / s) * fp
        hess2 = fpp ** 2 + n * (fp * c / s) ** 2
        return (lap ** 2 - hess2) * (s / sin_radius) ** n

    def ricci_integrand(r):
        return n * profile.fp(r) ** 2 * (np.sin(r) / sin_radius) ** n

    lhs, _ = integrate(lhs_integrand, 0.0, radius, _QUAD_TOL, relative=True)
    ricci, _ = integrate(ricci_integrand, 0.0, radius, _QUAD_TOL,
                         relative=True)
    boundary = n * (math.cos(radius) / sin_radius) \
        * float(profile.fp(radius)) ** 2
    return judge(True, f"reilly[{profile.name},n={n},R={radius:g}]",
                 lhs, ricci + boundary, 1e-8,
                 {"ricci": ricci, "boundary": boundary})


def verify_interior_gradient_radial(n, r0, r1, ts):
    """Interior gradient bound for the radial harmonic on an annulus, one
    inequality row per t of ts:

        int_{shrunk annulus} |grad v|^2
            <= t^-2/(n-1) * int_{annulus} |Hess v|^2

    where the shrunk annulus retreats 2t from both boundary spheres.
    Both sides are per unit Vol(S^n) sin^-n r0, the integral of
    |grad v|^2 over the inner boundary sphere.  Requires 2t < (r1 - r0)/2.
    The Hessian integral over (r0, r1) does not depend on t and is taken
    once for all rows.
    """
    n = _check_dim(n)
    if not (0.0 < r0 < r1 < math.pi):
        raise ValueError("need 0 < r0 < r1 < pi")
    if not all(0.0 < 2.0 * t < (r1 - r0) / 2.0 for t in ts):
        raise ValueError("need 0 < 2t < (r1 - r0)/2")
    sin_r0 = math.sin(r0)

    # v' = sin^-n r, so |grad v|^2 sin^n r per unit sin^-n r0 is
    # (sin r0 / sin r)^n, at most 1 for r0 <= r <= pi - r0
    def grad_integrand(r):
        return (sin_r0 / np.sin(r)) ** n

    # v'' = -n cot(r) v', so |Hess v|^2 = v''^2 + n (v' cot r)^2
    # = n (n + 1) cot^2(r) v'^2
    def hess_integrand(r):
        return n * (n + 1) * (np.cos(r) / np.sin(r)) ** 2 * grad_integrand(r)

    hess, _ = integrate(hess_integrand, r0, r1, _QUAD_TOL, relative=True)
    rows = []
    for t in ts:
        lhs, _ = integrate(grad_integrand, r0 + 2.0 * t, r1 - 2.0 * t,
                           _QUAD_TOL, relative=True)
        rhs = hess / ((n - 1) * t ** 2)
        rows.append(judge(
            False, f"interior-gradient[n={n},({r0:g},{r1:g}),t={t:g}]",
            lhs, rhs, 1e-10, {"ratio": lhs / rhs if rhs > 0 else math.inf}))
    return rows


# ---------------------------------------------------------------------------
# hemisphere: harmonic extension of a degree-1 equatorial eigenfunction

@dataclass(frozen=True)
class HemisphereExtension:
    """Radial factor of the harmonic extension, normalized to F(pi/2) = 1.

    F solves F'' + n cot(t) F' - (n / sin^2 t) F = 0 on (0, pi/2] with the
    regular behavior F ~ c t at the pole (indicial exponents 1 and -n).
    Internally the even regular factor G = F / sin(t) is used
    (G'' + (n+2) cot(t) G' - (n+1) G = 0, G(0) finite), evaluated from its
    Gauss series G = 2F1(n+1, 1; (n+3)/2; z) in z = sin^2(t/2), whose terms
    are all positive.  Working with G keeps evaluation errors near the
    pole from being amplified by the 1/sin^2 coefficient of the F
    equation.  F is odd.  F, F' and F'' are read through `jet`, one
    series evaluation for all three; it accepts arrays with |t| <=
    _THETA_MAX and raises ValueError beyond it.
    """
    n: int
    _coeffs: np.ndarray  # series G = sum c_m z^m, z = sin^2(theta/2)
    _scale: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "_scale",
                           1.0 / float(self._g_pair(math.pi / 2.0)[0]))

    def _g_pair(self, theta):
        """(G, dG/dtheta) from the regular series in z = sin^2(theta/2)."""
        theta = np.asarray(theta, dtype=float)
        if (np.abs(theta) > _THETA_MAX).any():
            raise ValueError(f"|theta| beyond {_THETA_MAX:.4f}, the range "
                             f"of the hemisphere series")
        z = np.sin(0.5 * theta) ** 2
        powers = z[..., None] ** np.arange(len(self._coeffs))
        g = powers @ self._coeffs
        dg_dz = powers[..., :-1] @ (self._coeffs[1:]
                                    * np.arange(1, len(self._coeffs)))
        return g, dg_dz * 0.5 * np.sin(theta)

    def jet(self, theta):
        """(F, F', F'') from one series evaluation: F = sin G, F'' = -sin G
        + 2 cos G' + sin G'' with G'' from the G equation.  Below |sin| =
        1e-300, where cot overflows, the term cot G' of G'' is taken as
        cos (G' / sin), finite since G' ~ sin G''(0), and as 0 at the pole,
        where sin = G' = 0 and so F''(0) = 0."""
        theta = np.asarray(theta, dtype=float)
        g, gp = self._g_pair(theta)
        s, c = np.sin(theta), np.cos(theta)
        wide = np.abs(s) >= 1e-300
        cot = np.divide(c, s, out=np.zeros(np.shape(s)), where=wide)
        slope = np.divide(gp, s, out=np.zeros(np.shape(s)), where=s != 0.0)
        gpp = (self.n + 1.0) * g - np.where(
            wide, (self.n + 2.0) * cot * gp, (self.n + 2.0) * c * slope)
        return tuple(out if out.ndim else float(out) for out in (
            self._scale * s * g, self._scale * (c * g + s * gp),
            self._scale * (-s * g + 2.0 * c * gp + s * gpp)))

    @property
    def boundary_derivative(self):
        """Outward normal derivative F'(pi/2) at the equator (positive)."""
        return self.jet(math.pi / 2.0)[1]

    def residual(self, theta_grid):
        """Plug-back ODE residual with F'' from finite differences of F.

        An independent check that the series solves the F equation; the
        stencil stays inside the series range on the whole grid
        [0.01, pi/2].
        """
        th = np.asarray(theta_grid, dtype=float)
        _, d2 = _fd_derivatives(lambda x: self.jet(x)[0], th,
                                _RESIDUAL_FD_STEP)
        s, c = np.sin(th), np.cos(th)
        f, fp, _ = self.jet(th)
        return np.abs(d2 + self.n * (c / s) * fp - (self.n / s ** 2) * f)


def solve_hemisphere_extension(n):
    """Radial factor of the hemisphere harmonic extension, F(pi/2) = 1.

    Substituting z = sin^2(t/2) into the G equation gives the recurrence
    c_{m+1} = c_m (m + n + 1) / (m + (n + 3)/2), c_0 = 1.  Terms are added
    until c_m z^m < 2^-60 at the largest z served, z = sin^2(_THETA_MAX/2)
    ~ 0.525: 69 to 73 terms for n = 2..4, 130 at n = 64.  The term ratio
    tends to z, so the dropped tail is about one more term.
    """
    n = _check_dim(n)
    z_max = math.sin(0.5 * _THETA_MAX) ** 2
    coeffs = [1.0]
    while coeffs[-1] * z_max ** (len(coeffs) - 1) >= 2.0 ** -60:
        m = len(coeffs) - 1
        coeffs.append(coeffs[m] * (m + n + 1.0) / (m + (n + 3.0) / 2.0))
    return HemisphereExtension(n=n, _coeffs=np.array(coeffs))


def verify_choiwang_chain_hemisphere(n):
    """Evaluate the whole boundary-flux chain on the hemisphere instance.

    With the equator as the separating surface, the first eigenvalue is
    exactly n and the extension is u = F(theta) Y for a unit-norm
    degree-1 eigenfunction Y, so every volumetric integral reduces to 1D.
    Returns four rows, and every quantity of the chain is one of their
    sides:

    * flux identity, int_{equator} u_nu u (lhs) = int |grad u|^2 (rhs);
    * Reilly boundary inequality, n grad - 2 lambda1 flux <= -int |Hess u|^2;
    * eigen-gap inequality, int |Hess u|^2 (lhs) <= 2 (lambda1 - n/2) grad,
      whose dropped term is the Hessian energy;
    * boundary trace inequality, sqrt(2n) grad <= int_{equator} |grad u|^2
      (rhs, the ambient surface gradient), with the sharp right side
      lambda1 + grad^2 in extras["sharp_rhs"].

    The identity must hold to 1e-8 |lhs|; the three inequalities must
    hold with slack >= -1e-8 |rhs|.  On this instance the Hessian energy
    equals n times the gradient energy exactly, so the first two
    inequalities are tight (slack ~ 0) and the sharp trace bound is an
    identity.
    """
    n = _check_dim(n)
    ext = solve_hemisphere_extension(n)
    lam1 = float(n)
    # both integrals start on [0, pi/2] and split the same halves: each
    # node set gets one series evaluation, keyed by the nodes' bytes
    jets = {}

    def jet(th):
        key = th.tobytes()
        if key not in jets:
            jets[key] = (np.sin(th), np.cos(th), *ext.jet(th))
        return jets[key]

    def grad_integrand(th):
        s, _, f, fp, _ = jet(th)
        return (fp ** 2 + n * f ** 2 / s ** 2) * s ** n

    def hess_integrand(th):
        s, c, f, fp, fpp = jet(th)
        mixed = (2.0 * n / s ** 2) * (fp - (c / s) * f) ** 2
        fiber = n * ((f - c * s * fp) / s ** 2) ** 2
        return (fpp ** 2 + mixed + fiber) * s ** n

    grad_energy, hess_energy = (
        integrate(f, 0.0, math.pi / 2.0, _QUAD_TOL, relative=True)[0]
        for f in (grad_integrand, hess_integrand))
    boundary_derivative = ext.boundary_derivative   # one series evaluation
    flux = boundary_derivative * 1.0   # F(pi/2) = 1, ||Y||_2 = 1
    surface_gradient = boundary_derivative ** 2 + n

    return [
        judge(True, f"flux-identity[n={n}]", flux, grad_energy, _CHAIN_TOL),
        judge(False, f"reilly-boundary[n={n}]",
              n * grad_energy - 2.0 * lam1 * flux, -hess_energy, _CHAIN_TOL),
        judge(False, f"eigen-gap[n={n}]", hess_energy,
              2.0 * (lam1 - n / 2.0) * grad_energy, _CHAIN_TOL,
              {"dropped_term": hess_energy}),
        judge(False, f"boundary-trace[n={n}]",
              math.sqrt(2.0 * n) * grad_energy, surface_gradient, _CHAIN_TOL,
              {"sharp_rhs": lam1 + grad_energy ** 2})]


def verify_collar_trace_hemisphere(n, t, betas, profile):
    """Boundary-gradient collar inequality on the hemisphere, one row per
    beta of betas:

        int_{equator} |grad v|^2  <=  int_{offset sphere} |grad v|^2
            + (H_max + beta) int_collar |grad v|^2
            + (1/beta) int_collar |Hess v|^2

    for a polar-radial C^2 profile v.  The collar is the band of width t
    inside the equator, and H_max = n tan(t) is the exact maximal mean
    curvature of the offset spheres over the collar (the equator is
    totally geodesic, so the generic curvature-chain bound degenerates
    and the exact value is used instead).  Both sides are per unit
    equator area Vol(S^n), so the lhs is f'(pi/2)^2.  The two band
    integrals do not depend on beta and are taken once for all rows.
    """
    n = _check_dim(n)
    if not (0.0 < t < math.pi / 2.0):
        raise ValueError("need 0 < t < pi/2")
    if not all(beta > 0 for beta in betas):
        raise ValueError("beta must be positive")
    half_pi = math.pi / 2.0
    lhs = float(profile.fp(half_pi)) ** 2
    offset_term = math.cos(t) ** n * float(profile.fp(half_pi - t)) ** 2

    def grad_integrand(th):
        return profile.fp(th) ** 2 * np.sin(th) ** n

    def hess_integrand(th):
        s, c = np.sin(th), np.cos(th)
        fp, fpp = profile.fp(th), profile.fpp(th)
        return (fpp ** 2 + n * (fp * c / s) ** 2) * s ** n

    collar_grad, collar_hess = (
        integrate(f, half_pi - t, half_pi, _QUAD_TOL, relative=True)[0]
        for f in (grad_integrand, hess_integrand))
    h_max = n * math.tan(t)
    extras = {"offset_term": offset_term, "h_max": h_max,
              "collar_grad": collar_grad, "collar_hess": collar_hess}
    return [judge(False,
                  f"collar-trace[{profile.name},n={n},t={t:g},beta={beta:g}]",
                  lhs, offset_term + (h_max + beta) * collar_grad
                  + collar_hess / beta, 1e-10, dict(extras))
            for beta in betas]


# ---------------------------------------------------------------------------
# the suite: each kind maps n to its rows, in print order.  The CLI prints
# 3 of the 6 Reilly profiles; the acceptance tests add the others.

ORACLES = {
    "reilly": lambda n: [verify_reilly_radial(n, radius, PROFILES[name])
                         for name in ("cos", "r2", "gauss")
                         for radius in (0.5, 1.0, 1.4)],
    "bochner": lambda n: [verify_bochner_radial(n, 0.3, 1.2)],
    "interior": lambda n: verify_interior_gradient_radial(n, 0.3, 1.3,
                                                          (0.1, 0.2)),
    "chain": lambda n: verify_choiwang_chain_hemisphere(n),
    "collar": lambda n: [row for t in (0.2, 0.3)
                         for row in verify_collar_trace_hemisphere(
                             n, t, (0.1, 0.5, 1.0, 2.0), PROFILES["cos"])],
}
