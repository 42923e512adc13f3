"""Explicit dimensional constants and the curvature-dependent eigenvalue bound.

Everything here is a pure function of the surface dimension n (the ambient
sphere is S^(n+1)), an upper bound `lam` for the pointwise norm of the
second fundamental form, and two free slack parameters (eps, beta).
The headline quantity is::

    lambda_1  >=  n/2 + a_n / (lam**6 + b_n)

for a closed embedded minimal hypersurface, with a_n, b_n explicit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import _check_dim, _power, offset_mean_curvature_bound
from .quadrature import integrate

__all__ = [
    "ParameterChain", "BoundConstants",
    "default_slack", "arctan_cubed_factor", "compute_bound_constants",
    "bound_branch", "eigenvalue_lower_bound", "build_parameter_chain",
    "tube_integral", "tube_integral_floor", "volume_upper_bound",
    "VolumeBound", "sphere_volume",
]


def sphere_volume(d):
    """Volume (d-dimensional measure) of the unit sphere S^d.

    From d = 343 on, Gamma((d + 1)/2) overflows a double although the
    volume does not (Vol(S^343) ~ 5e-224); there it is taken in log
    space, to a relative error of about 1e-13 while the volume is a
    normal double; it underflows to 0 from d = 455 on.
    """
    if d < 0:
        raise ValueError("dimension must be >= 0")
    try:
        return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)
    except OverflowError:
        return 2.0 * math.exp((d + 1) / 2.0 * math.log(math.pi)
                              - math.lgamma((d + 1) / 2.0))


def default_slack(n):
    """Default (eps, beta) = (sqrt(n)/3, sqrt(n)/20) used for the headline constants."""
    n = _check_dim(n)
    r = math.sqrt(n)
    return r / 3.0, r / 20.0


def arctan_cubed_factor(n):
    """n^(3/2) * arctan(1/(3 sqrt(n)))**3.

    Dimensionless factor common to a_n and b_n; increases monotonically
    from ~0.03508 at n=2 toward the limit 1/27.
    """
    n = _check_dim(n)
    return n ** 1.5 * math.atan(1.0 / (3.0 * math.sqrt(n))) ** 3


@dataclass(frozen=True)
class BoundConstants:
    """Constants of the eigenvalue bound and of the mean-convex volume bound."""
    n: int
    a_n: float      # numerator of the eigenvalue-bound improvement
    b_n: float      # additive curvature offset in its denominator
    c_n: float      # crude volume-bound constant, valid for lam >= 1/4

    @property
    def a_floor(self):
        """Guaranteed lower bound (n-1) n^2 / 32000 for a_n."""
        return (self.n - 1) * self.n ** 2 / 32000.0

    @property
    def b_ceiling(self):
        """Guaranteed upper bound 5 n^2 / 216 for b_n."""
        return 5.0 * self.n ** 2 / 216.0


def compute_bound_constants(n):
    """Evaluate a_n, b_n, c_n for dimension n.

    a_n = 3 (n-1) n^(7/2) / 3200 * arctan(1/(3 sqrt(n)))**3
    b_n = 5 n^(7/2) / 8      * arctan(1/(3 sqrt(n)))**3
    c_n = (25/3) (5/4)^(n-2)
    """
    n = _check_dim(n)
    at3 = math.atan(1.0 / (3.0 * math.sqrt(n))) ** 3
    a_n = 3.0 * (n - 1) * n ** 3.5 / 3200.0 * at3
    b_n = 5.0 * n ** 3.5 / 8.0 * at3
    c_n = 25.0 / 3.0 * 1.25 ** (n - 2)
    return BoundConstants(n=n, a_n=a_n, b_n=b_n, c_n=c_n)


def bound_branch(n, lam):
    """Branch of the eigenvalue bound: "totally-geodesic" for lam < sqrt(n),
    else "generic"."""
    return "totally-geodesic" if lam < math.sqrt(n) else "generic"


def eigenvalue_lower_bound(n, lam):
    """Lower bound for the first nonzero Laplace eigenvalue of a closed
    embedded minimal hypersurface in S^(n+1) with max ||A|| <= lam.

    For lam < sqrt(n) the surface is forced to be a totally geodesic
    n-sphere and the exact value n is returned; otherwise
    n/2 + a_n / (lam**6 + b_n).
    """
    n = _check_dim(n)
    if not 0 <= lam < math.inf:
        raise ValueError(f"curvature bound lam must be finite and "
                         f"nonnegative, got {lam}")
    if bound_branch(n, lam) == "totally-geodesic":
        return float(n)
    c = compute_bound_constants(n)
    return n / 2.0 + c.a_n / (_power(lam, 6) + c.b_n)


@dataclass(frozen=True)
class ParameterChain:
    """Derived scalars of the slack-parameter chain.

    eps_tilde bounds the mean curvature of offsets up to distance d_eps;
    gamma is the slack left in the boundary-gradient trace inequality
    (the chain is unusable when gamma <= 0); delta, t_collar and d_eps
    are the collar widths entering the averaged estimates.
    """
    n: int
    lam: float
    eps: float
    beta: float
    eps_tilde: float
    gamma: float
    delta: float        # n * arctan(eps/n)
    t_collar: float     # delta / (2 lam^2)
    d_eps: float        # arctan(eps / lam^2)

    @property
    def valid(self):
        """False when the chain degenerates (gamma <= 0)."""
        return self.gamma > 0.0


def build_parameter_chain(n, lam, eps=None, beta=None):
    """Evaluate the full slack-parameter chain for (n, lam, eps, beta).

    Defaults to eps = sqrt(n)/3, beta = sqrt(n)/20.  Requires
    0 < eps <= lam/2.  A chain with gamma <= 0 is returned flagged
    invalid rather than rejected, so callers can map the usable region.
    """
    n = _check_dim(n)
    if not 0 < lam < math.inf:
        raise ValueError(f"lam must be finite and positive, got {lam}")
    d_eps_default, d_beta_default = default_slack(n)
    if eps is None:
        eps = d_eps_default
    if beta is None:
        beta = d_beta_default
    eps_tilde = offset_mean_curvature_bound(n, lam, eps)
    if not 0 < beta < math.inf:
        raise ValueError(f"beta must be finite and positive, got {beta}")
    gamma = math.sqrt(2.0 * n) - eps_tilde - beta
    delta = n * math.atan(eps / n)
    t_collar = delta / (2.0 * _power(lam, 2))
    d_eps = math.atan(eps / _power(lam, 2))
    return ParameterChain(n=n, lam=lam, eps=eps, beta=beta,
                          eps_tilde=eps_tilde, gamma=gamma, delta=delta,
                          t_collar=t_collar, d_eps=d_eps)


def tube_integral(n, lam):
    """I(lam) = integral of cos(t)^n (1 - lam tan t)^n over [0, arctan(1/lam)].

    The reciprocal of twice this value converts Vol(S^(n+1)) into the
    volume bound for mean-convex hypersurfaces with max ||A|| <= lam.
    """
    n = _check_dim(n)
    if not 0 < lam < math.inf:
        raise ValueError(f"lam must be finite and positive, got {lam}")
    upper = math.atan(1.0 / lam)

    def integrand(t):
        return np.cos(t) ** n * (1.0 - lam * np.tan(t)) ** n

    value, _ = integrate(integrand, 0.0, upper)
    return value


def tube_integral_floor(n, lam):
    """Crude floor (5/54) (9/10)^(2n) / lam for the tube integral, lam >= 1/4."""
    n = _check_dim(n)
    if not 0.25 <= lam < math.inf:
        raise ValueError(f"floor only valid for finite lam >= 1/4, got {lam}")
    return 5.0 / 54.0 * 0.9 ** (2 * n) / lam


@dataclass(frozen=True)
class VolumeBound:
    """Sharp and crude volume bounds for mean-convex hypersurfaces."""
    n: int
    lam: float
    tube: float           # value of the tube integral I(lam)
    sphere_vol: float     # Vol(S^(n+1))
    sharp: float          # Vol(S^(n+1)) / (2 I(lam))
    crude: float | None   # c_n * lam * Vol(S^(n+1)), None when lam < 1/4


def volume_upper_bound(n, lam):
    """Volume bound Vol(S^(n+1)) / (2 I(lam)) for closed embedded
    mean-convex hypersurfaces in S^(n+1) with max ||A|| <= lam.

    For lam >= 1/4 the cruder bound c_n * lam * Vol(S^(n+1)) is also
    reported; the sharp bound never exceeds it there.
    """
    n = _check_dim(n)
    tube = tube_integral(n, lam)
    vol = sphere_volume(n + 1)
    sharp = vol / (2.0 * tube)
    crude = None
    if lam >= 0.25:
        crude = compute_bound_constants(n).c_n * lam * vol
        if sharp > crude * (1.0 + 1e-12):
            raise AssertionError(
                f"sharp volume bound {sharp} exceeds crude bound {crude}")
    return VolumeBound(n=n, lam=lam, tube=tube, sphere_vol=vol,
                       sharp=sharp, crude=crude)
