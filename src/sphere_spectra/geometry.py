"""Pointwise geometry of parallel (offset) hypersurfaces in round spheres.

Conventions used throughout the package:

* points of S^(n+1) are unit vectors in R^(n+2);
* a surface normal X at p is a unit vector tangent to the sphere
  (X . p = 0) and normal to the surface;
* principal curvatures are taken with respect to the shape operator
  S(V) = -D_V X, so a geodesic sphere of radius r carries kappa = cot(r)
  with respect to its center-pointing normal.  Each mesh generator
  documents its normal choice.

Offsetting by a signed distance t moves p to cos(t) p + sin(t) X and
transports curvatures by the tangent-addition rule
kappa -> (kappa + tan t) / (1 - kappa tan t).  One rule sets how far:
below the focal distance arctan(1/|kappa|) of a curvature, pi/2 for
kappa = 0 (`embeddedness_horizon`, refused by `check_below_horizon`).
"""

import math

import numpy as np

from .quadrature import integrate

__all__ = [
    "HorizonError", "check_below_horizon", "kappa_max", "tangent_addition",
    "curvature_transport", "embeddedness_horizon", "offset_mean_curvature",
    "offset_mean_curvature_bound", "tube_volume",
]


class HorizonError(ValueError):
    """Offset distance at or beyond the curvature singularity.

    `critical_t` is the signed distance at which the first principal
    curvature blows up.
    """

    def __init__(self, message, critical_t):
        super().__init__(message)
        self.critical_t = critical_t


# ---------------------------------------------------------------------------
# principal-curvature helpers (kappas are plain 1D float arrays)

def kappa_max(kappas):
    """Largest absolute principal curvature."""
    return float(np.max(np.abs(np.asarray(kappas, dtype=float))))


def tangent_addition(kappa, t):
    """(kappa + tan t) / (1 - kappa tan t) for a scalar or an array kappa;
    unchecked: callers refuse t beyond the horizon first."""
    tt = math.tan(t)
    return (kappa + tt) / (1.0 - kappa * tt)


def curvature_transport(kappa, t):
    """Principal curvature tan(arctan(kappa) + t) of the offset at signed
    distance t.  Raises HorizonError unless |t| is below the focal
    distance on t's side: arctan(1/|kappa|) if kappa curves toward t
    (kappa t > 0), else pi/2.
    """
    check_below_horizon(
        t, embeddedness_horizon([kappa]) if kappa * t > 0 else math.pi / 2.0)
    return tangent_addition(kappa, t)


def embeddedness_horizon(kappas):
    """Focal distance arctan(1 / max_i |kappa_i|) of a curvature set, the
    guaranteed smooth-offset range; pi/2 if all kappas are zero (a great
    sphere's normal geodesics meet at its poles).  Never infinite."""
    km = kappa_max(kappas)
    return math.atan(1.0 / km) if km else math.pi / 2.0


def check_below_horizon(t, horizon):
    """Raise HorizonError unless |t| < horizon, critical_t signed as t:
    the one refusal of every offset, `mesh.offset_mesh`'s too."""
    if abs(t) >= horizon:
        raise HorizonError(
            f"|t|={abs(t)} is not below the embeddedness horizon {horizon}",
            critical_t=math.copysign(horizon, t))


def offset_mean_curvature(kappas, t):
    """Mean curvature of the offset at distance t: sum of transported kappas.

    Requires |t| below the embeddedness horizon of the curvature set.
    For a minimal set this equals sum (1 + kappa^2) tan t / (1 - kappa tan t).
    """
    kappas = np.asarray(kappas, dtype=float)
    check_below_horizon(t, embeddedness_horizon(kappas))
    return float(sum(tangent_addition(kappas, t)))


def _check_dim(n):
    if not float(n).is_integer() or n < 2:
        raise ValueError(f"dimension n must be an integer >= 2, got {n!r}")
    return int(n)


def _power(x, k):
    """x ** k, or inf where it overflows: the bounds take their limits."""
    try:
        return x ** k
    except OverflowError:
        return math.inf


def offset_mean_curvature_bound(n, lam, eps):
    """Upper bound lam*eps/(lam-eps) * (n/lam^2 + 1) for the offset mean
    curvature of any minimal curvature set with ||A|| <= lam, valid for
    offsets up to d_eps = arctan(eps/lam^2).  Requires 0 < eps <= lam/2.
    """
    n = _check_dim(n)
    if not 0 < lam < math.inf:
        raise ValueError(f"lam must be finite and positive, got {lam}")
    if not (0 < eps <= lam / 2.0):
        raise ValueError(f"need 0 < eps <= lam/2, got eps={eps}, lam={lam}")
    bound = lam * eps / (lam - eps) * (n / _power(lam, 2) + 1.0)
    if bound == math.inf:
        # lam * eps overflowed; eps <= lam/2 keeps this form finite
        bound = eps / (1.0 - eps / lam) * (n / _power(lam, 2) + 1.0)
    return bound


def tube_volume(entries, r, side=+1):
    """Volume swept by offsets out to distance r on one side of a surface.

    `entries` is a sequence of (weight, kappas) pairs: quadrature weights
    (areas) with the principal curvatures at the sample.  side=+1 sweeps
    along the stored normal direction (factors 1 - kappa tan t), side=-1
    the opposite side (factors 1 + kappa tan t).  r must not exceed the
    embeddedness horizon of any entry, and every entry must carry the
    same number n of curvatures.

    The per-entry inner integral is prod(cos t -/+ kappa_i sin t), which
    is cos(t)^n * prod(1 -/+ kappa_i tan t); identical curvature rows
    are integrated once.  Summation order is fixed and compensated, so
    the result is evaluation-order independent.
    """
    if side not in (+1, -1):
        raise ValueError("side must be +1 or -1")
    if r < 0:
        raise ValueError("sweep distance r must be nonnegative")
    if r == 0 or not entries:
        return 0.0
    weights = []
    kap_rows = []
    for w, kap in entries:
        if w < 0:
            raise ValueError("weights must be nonnegative")
        weights.append(float(w))
        kap_rows.append(np.asarray(kap, dtype=float))
    if len({len(kap) for kap in kap_rows}) > 1:
        raise ValueError("curvature rows differ in length")
    horizon = min(embeddedness_horizon(kap) for kap in kap_rows)
    if r > horizon * (1.0 + 1e-14):
        raise ValueError(
            f"sweep distance r={r} exceeds the embeddedness horizon {horizon}")

    cache = {}
    per_entry = []
    for kap in kap_rows:
        key = tuple(np.round(kap, 14))
        if key not in cache:
            signed = -float(side) * kap

            def integrand(t, signed=signed):
                t = np.asarray(t, dtype=float)
                ct, st = np.cos(t), np.sin(t)
                prod = np.ones_like(t)
                for s in signed:
                    prod = prod * (ct + s * st)
                return prod

            cache[key], _ = integrate(integrand, 0.0, r)
        per_entry.append(cache[key])
    return math.fsum(w * v for w, v in zip(weights, per_entry))
