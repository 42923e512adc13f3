"""Spectral geometry of closed surfaces embedded in round spheres.

Core capabilities:

* explicit dimensional constants and the curvature-dependent lower bound
  for the first Laplace eigenvalue of minimal hypersurfaces
  (:mod:`sphere_spectra.constants`),
* exact pointwise geometry of parallel (offset) hypersurfaces
  (:mod:`sphere_spectra.geometry`),
* triangulated surfaces in S^3 with discrete curvature and cotangent
  Laplacians (:mod:`sphere_spectra.mesh`, :mod:`sphere_spectra.generators`),
* a deflated sparse eigensolver for the smallest nonzero eigenvalue
  (:mod:`sphere_spectra.spectral`),
* exact self-intersection tests through stereographic projection
  (:mod:`sphere_spectra.intersect`),
* 1D radial reductions of the volumetric integral identities
  (:mod:`sphere_spectra.radial`),
* composed verification reports and a CLI (:mod:`sphere_spectra.report`,
  ``sphere-spectra``).
"""

from .constants import (
    BoundConstants, ParameterChain, VolumeBound,
    arctan_cubed_factor, build_parameter_chain, compute_bound_constants,
    default_slack, eigenvalue_lower_bound, sphere_volume,
    tube_integral, tube_integral_floor, volume_upper_bound,
)
from .generators import (
    combine_meshes, gen_clifford_torus, gen_flat_torus, gen_geodesic_sphere,
    rotate_mesh,
)
from .geometry import (
    HorizonError, curvature_transport, embeddedness_horizon,
    kappa_max, offset_mean_curvature, offset_mean_curvature_bound,
    tube_volume,
)
from .intersect import PoleSelectionError, self_intersection_test
from .mesh import (
    DiscreteGeometry, LaplacePair, MeshError, MeshQualityError,
    SphericalTriMesh, assemble_laplacian, discrete_shape_operator,
    offset_mesh, vertex_areas,
)
from .quadrature import QuadratureError, integrate
from .radial import (
    HemisphereExtension, OracleReport, PROFILES, RadialProfile,
    solve_hemisphere_extension, verify_bochner_radial,
    verify_choiwang_chain_hemisphere, verify_interior_gradient_radial,
    verify_collar_trace_hemisphere, verify_reilly_radial,
)
from .report import compute_verdicts, verify_surface
from .s3off import read_s3off, write_s3off
from .spectral import (
    ConvergenceError, EigenResult, rayleigh_quotient, smallest_nonzero_eig,
)

__version__ = "0.1.0"
