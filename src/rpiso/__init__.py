"""Isoperimetric profiles of real projective spaces.

Computes the candidate isoperimetric profile of RP^(n+1) as the lower
envelope of tube perimeter-volume curves over totally geodesic cores
RP^k, verifies the successive handoff of optimal core dimensions, checks
spectral stability of the Clifford tube boundaries against the
closed-form latitude interval, and evaluates Willmore tube energies
against the balanced minimal Clifford area.
"""

from .clifford import (
    CliffordShape,
    CurvatureData,
    area_rp,
    area_sphere,
    curvature,
    parallel_jacobian,
    quadratic_roots,
)
from .profile import (
    CrossingNotFound,
    ProfilePoint,
    Space,
    TubeFamily,
    profile_at,
    profile_curve,
    radius_for_volume,
    successive_check,
    total_volume,
    transition_volumes,
    tube_perimeter,
    tube_volume,
)
from .specfn import (
    QuadratureError,
    cossin_integral,
    cossin_integral_closed,
    log_gamma,
    reg_inc_beta,
    sphere_area,
    trigamma,
)
from .spectrum import (
    EigenMode,
    StabilityReport,
    first_even_eigenvalue,
    laplace_eigenvalue,
    stability_interval,
    stability_margin,
    stability_report,
)
from .willmore import (
    WillmoreReport,
    clifford_area_f,
    energy_minimum,
    logf_second_derivative,
    tube_willmore_energy,
    verify_area_chain,
    width_candidate,
    willmore_report,
)

__version__ = "0.1.0"

__all__ = [
    "CliffordShape",
    "CurvatureData",
    "CrossingNotFound",
    "EigenMode",
    "ProfilePoint",
    "QuadratureError",
    "Space",
    "StabilityReport",
    "TubeFamily",
    "WillmoreReport",
    "area_rp",
    "area_sphere",
    "clifford_area_f",
    "cossin_integral",
    "cossin_integral_closed",
    "curvature",
    "energy_minimum",
    "first_even_eigenvalue",
    "laplace_eigenvalue",
    "log_gamma",
    "logf_second_derivative",
    "parallel_jacobian",
    "profile_at",
    "profile_curve",
    "quadratic_roots",
    "radius_for_volume",
    "reg_inc_beta",
    "sphere_area",
    "stability_interval",
    "stability_margin",
    "stability_report",
    "successive_check",
    "total_volume",
    "transition_volumes",
    "trigamma",
    "tube_perimeter",
    "tube_volume",
    "tube_willmore_energy",
    "verify_area_chain",
    "width_candidate",
    "willmore_report",
    "__version__",
]
