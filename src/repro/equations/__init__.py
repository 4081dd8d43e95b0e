"""The 3-D (visco)elastic wave equations: materials, Jacobians, flux solvers."""

from .anelastic import (
    RelaxationSpectrum,
    anelastic_jacobians,
    anelastic_lame_parameters,
    anelastic_star_matrices,
    coupling_matrices,
    fit_constant_q,
    n_anelastic_vars,
    quality_factor_of_spectrum,
)
from .elastic import (
    N_ELASTIC_VARS,
    STRESS_INDICES,
    VELOCITY_INDICES,
    elastic_jacobians,
    elastic_star_matrices,
    wave_speeds,
)
from .material import ElasticMaterial, MaterialTable, ViscoelasticMaterial
from .riemann import (
    FLUX_KINDS,
    anelastic_normal_jacobian,
    elastic_normal_jacobian,
    elastic_rotation_matrix,
    elastic_upwind_split,
    free_surface_ghost_operator,
    godunov_flux_matrices,
    rusanov_flux_matrices,
    stress_rotation_matrix,
    tangent_vectors,
)

__all__ = [
    "ElasticMaterial",
    "ViscoelasticMaterial",
    "MaterialTable",
    "N_ELASTIC_VARS",
    "STRESS_INDICES",
    "VELOCITY_INDICES",
    "elastic_jacobians",
    "elastic_star_matrices",
    "wave_speeds",
    "RelaxationSpectrum",
    "fit_constant_q",
    "quality_factor_of_spectrum",
    "anelastic_lame_parameters",
    "coupling_matrices",
    "anelastic_jacobians",
    "anelastic_star_matrices",
    "n_anelastic_vars",
    "FLUX_KINDS",
    "tangent_vectors",
    "stress_rotation_matrix",
    "elastic_rotation_matrix",
    "elastic_normal_jacobian",
    "anelastic_normal_jacobian",
    "elastic_upwind_split",
    "rusanov_flux_matrices",
    "godunov_flux_matrices",
    "free_surface_ghost_operator",
]
