"""Robin torsion energies: Steklov series, shape derivatives, planar bounds.

The package solves the saddle problem Delta u + 1 = 0 with boundary
condition du/dn = alpha u, expands its energy in Steklov eigenfunctions,
differentiates the energy along domain perturbations, and checks the
planar optimality statements (disc maximality in the low-alpha window,
the parallel-lines torsion bound, the crossover threshold) against an
independent finite-element oracle.
"""
from .errors import SolverError
from .geometry import (
    DEFAULT_BOUNDARY_NODES,
    Domain,
    PerturbationField,
    TrigPoly,
    ball_mode_degrees,
    ball_mode_multiplicity,
    ball_trace_values,
    boundary_grid,
    check_volume_preserving,
    domain_from_dict,
    domain_to_dict,
    ellipse_domain,
    ellipse_perturbation,
    interior_integral,
    mean_curvature,
    random_perturbation,
    random_star_domain,
    surface_area,
    surface_components,
    surface_defect,
    trig_interp,
    unit_ball_volume,
    unit_sphere_area,
    volume,
)
from .layerpot import StarLayerOperator
from .oracle import fem_dirichlet_T, fem_robin_energy, steklov_residual
from .planar_optimality import (
    corollary_disc_max,
    g,
    low_alpha,
    pw_upper_bound,
    theorem_J_check,
    threshold_alpha,
)
from .robin_energy import (
    ENERGY_COLUMNS,
    alpha0,
    energy_direct,
    energy_series,
    energy_series_grid,
    energy_split_variational,
    j_functional,
    pole_scan,
    series_pack,
    solve_robin,
)
from .shape_calculus import (
    classify_sign,
    finite_difference_check,
    first_variation_general,
    j_variations,
    modal_coefficient,
    normal_speed_family,
    overdetermined_residual,
    second_variation_ball,
    solve_u_prime,
    surface_second_variation,
)
from .steklov import (
    STATUS_FAMILY,
    STATUS_NO_SOLUTION,
    STATUS_UNIQUE,
    HarmonicExpansion,
    annulus_radial_eigenvalue,
    expand_harmonic,
    spectrum_annulus,
    spectrum_ball,
    spectrum_star2d,
    tol_res,
)
from .torsion import (
    flux_coefficients,
    gauss_identity_residual,
    rigidity,
    solve_torsion,
)

__version__ = "0.1.0"

__all__ = [
    "SolverError",
    "DEFAULT_BOUNDARY_NODES", "Domain", "PerturbationField", "TrigPoly",
    "ball_mode_degrees", "ball_mode_multiplicity", "ball_trace_values",
    "boundary_grid", "check_volume_preserving", "domain_from_dict",
    "domain_to_dict", "ellipse_domain",
    "ellipse_perturbation", "interior_integral", "mean_curvature",
    "random_perturbation", "random_star_domain", "surface_area",
    "surface_components", "surface_defect", "trig_interp",
    "unit_ball_volume", "unit_sphere_area", "volume",
    "StarLayerOperator",
    "fem_dirichlet_T", "fem_robin_energy", "steklov_residual",
    "corollary_disc_max", "g", "low_alpha", "pw_upper_bound",
    "theorem_J_check", "threshold_alpha",
    "ENERGY_COLUMNS", "alpha0", "energy_direct", "energy_series",
    "energy_series_grid", "energy_split_variational", "j_functional",
    "pole_scan", "series_pack", "solve_robin",
    "classify_sign", "finite_difference_check", "first_variation_general",
    "j_variations", "modal_coefficient", "normal_speed_family",
    "overdetermined_residual", "second_variation_ball", "solve_u_prime",
    "surface_second_variation",
    "STATUS_FAMILY", "STATUS_NO_SOLUTION", "STATUS_UNIQUE",
    "HarmonicExpansion", "annulus_radial_eigenvalue", "expand_harmonic",
    "spectrum_annulus", "spectrum_ball", "spectrum_star2d", "tol_res",
    "flux_coefficients", "gauss_identity_residual", "rigidity",
    "solve_torsion",
    "__version__",
]
