"""The volumetric integral identities, reduced to 1D on the hemisphere.

The eigenvalue bound rests on integral identities for a harmonic
function u on the region bounded by the surface: the integral Bochner
(Reilly) identity, the boundary-flux identity, and collar trace
estimates.  On rotationally symmetric configurations all of them reduce
to one-dimensional quadrature, which makes them verifiable to ~1e-10.

The star instance is the hemisphere over the equator: the harmonic
extension of a first eigenfunction separates into F(theta) Y(omega), F
solving a singular radial ODE.  There the chain's two inequalities are
exactly tight - the Hessian energy equals n times the Dirichlet energy -
which pins down precisely what the bound's extra term recovers.
"""

import math

import numpy as np

from sphere_spectra import (
    PROFILES, solve_hemisphere_extension, verify_bochner_radial,
    verify_choiwang_chain_hemisphere, verify_interior_gradient_radial,
    verify_collar_trace_hemisphere, verify_reilly_radial,
)

print("integral Bochner (Reilly) identity on geodesic balls, gap per profile:")
for pname in ("cos", "r2", "gauss"):
    rep = verify_reilly_radial(2, 1.0, PROFILES[pname])
    print(f"  profile {pname:7s}: lhs = {rep.lhs:12.6f}  "
          f"gap = {-rep.slack:.2e}")

print("\npointwise Bochner identity for the radial harmonic on (0.3, 1.2):")
for n in (2, 3, 4, 8):
    rep = verify_bochner_radial(n, 0.3, 1.2)
    print(f"  n = {n}: largest gap {-rep.slack:.2e} (tol {rep.tol:.1e}) at "
          f"r = {rep.extras['r']:.4f}: {'pass' if rep.passed else 'FAIL'}")

print("\ninterior gradient bound on a shrunk annulus (ratio lhs/rhs):")
for t, rep in zip((0.1, 0.2),
                  verify_interior_gradient_radial(2, 0.3, 1.3, (0.1, 0.2))):
    print(f"  t = {t}: ratio = {rep.extras['ratio']:.5f}  (must stay <= 1)")

print("\nhemisphere harmonic extension of a first eigenfunction:")
for n in (2, 3, 4):
    ext = solve_hemisphere_extension(n)
    grid = np.linspace(0.01, math.pi / 2.0, 300)
    print(f"  n = {n}: boundary flux F'(pi/2) = {ext.boundary_derivative:.10f}"
          f", series plug-back residual <= {ext.residual(grid).max():.1e}")

print("\nthe full chain on the hemisphere (lambda1 = n exactly):")
for n in (2, 3, 4):
    flux, _, gap, trace = verify_choiwang_chain_hemisphere(n)
    hess_energy, grad_energy = gap.lhs, flux.rhs
    print(f"  n = {n}:")
    print(f"    flux identity gap        {-flux.slack:.2e}")
    print(f"    Hessian vs n x Dirichlet "
          f"{abs(hess_energy - n * grad_energy):.2e}"
          f"   (tight: the dropped term is {hess_energy:.6f} > 0)")
    print(f"    trace inequality slack   {trace.slack:.6f}")

print("\ncollar trace estimate with the exact offset mean curvature n tan t:")
betas = (0.1, 0.5, 1.0, 2.0)
for beta, rep in zip(betas, verify_collar_trace_hemisphere(
        2, 0.2, betas, PROFILES["cos"])):
    print(f"  beta = {beta:4.1f}: lhs = {rep.lhs:8.4f} <= rhs = {rep.rhs:8.4f}")
