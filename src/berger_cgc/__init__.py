"""Rotationally invariant constant-Gauss-curvature surfaces in Berger spheres.

Library layout:

* :mod:`berger_cgc.geometry` -- the surface-of-revolution embedding, ambient
  metric and Hopf fibration on (..., 4) point arrays, curvature thresholds
  k0 (existence) and kp (sectional-curvature bound).
* :mod:`berger_cgc.phase` -- the conserved-energy function on the phase
  rectangle, its critical structure, level-curve tracing and the contours
  of a phase portrait.
* :mod:`berger_cgc.profile` -- the profile-curve ODE system, integration
  with energy monitoring, symmetry transforms, constant solutions.
* :mod:`berger_cgc.sphere` -- sphere construction/classification: radii,
  embeddedness, profiles, meshes.
* :mod:`berger_cgc.cli` -- the ``berger-cgc`` command-line tool.
"""

from .errors import (
    AccuracyError,
    BracketError,
    CriticalPointError,
    DomainError,
    EmbeddednessBoundaryError,
    NoSphereError,
    SingularityError,
)
from .geometry import (
    AmbientPoint,
    BergerParams,
    embedding,
    hopf_project,
    make_params,
    metric,
    sectional_curvature,
)
from .phase import (
    LevelCurve,
    contours,
    energy_gradient,
    energy_values,
    interior_critical_points,
    level_one_connects,
    sphere_exists,
    trace_level_curve,
)
from .profile import (
    Trajectory,
    apply_symmetry,
    axis_seed,
    clifford_solution,
    frobenius_residual,
    fundamental_form,
    integrate,
    rhs,
)
from .sphere import (
    SphereSolution,
    SurfaceMesh,
    build_mesh,
    build_sphere,
    build_torus_mesh,
    embeddedness_boundary,
    horizontal_radius,
    is_embedded,
    sin2_horizontal_radius,
    vertical_radius,
)

__version__ = "0.1.0"
