"""Projection bodies, covariograms and mean bodies of convex polytopes.

A numpy/scipy library for computing measure-weighted projection bodies,
covariograms, radial and spectral mean bodies, and isotropic surface-area
positions of convex bodies in dimensions 2-4, together with a verification
suite for the Zhang/Petty family of affine isoperimetric inequalities under
general measures.
"""

from .numerics import (BoxSampler, ConfigurationError, DomainError,
                       EvaluationError, PrecisionError, QuadratureFailure,
                       QuadratureResult, RandomStream, SphereGrid,
                       SphereSampler, ball_volume, gaussian_cdf,
                       gaussian_quantile, integrate_1d, monte_carlo,
                       sphere_directions, sphere_surface)
from .bodies import (Ball, DegeneracyError, LinearMap, PolarDomainError,
                     Polytope, StarBody, apply_linear, build_polytope,
                     cross_polytope, cube, difference_body,
                     generalized_radial, intersect_translate, minkowski_sum,
                     polar, polar_volume_from_support, radial, radial_many,
                     random_polytope, regular_polygon, standard_simplex,
                     star_body_of, star_volume, support, support_many, volume)
from .measures import (ConcavityFamily, Density, boundary_measure,
                       compose_linear, custom_density, exp_norm,
                       exp_norm_mass_of_scaled, facet_weights,
                       gaussian, gaussian_ball_mass,
                       gaussian_phi_inverse_family, lebesgue, log_family,
                       measure_body, power_family, radial_power, total_mass)
from .covariogram import (CovariogramQuery, RayPieces, brightness_derivative,
                          covariogram_exact, mu_covariogram, ray_pieces,
                          translated_average)
from .projection import (OffsetVector, Zonoid, ball_projection_body,
                         brightness_residual, halfspace_integral_identity,
                         offset_vector, projection_zonoid, shifted_zonoid,
                         transform_law_residual, zonoid_polar_volume)
from .meanbodies import (MeanBodyResult, c_np, inclusion_chain_report,
                         radial_mean_body, spectral_mean_body)
from .report import Report, RunConfig, Witness
from .inequalities import (INEQUALITY_IDS, berwald_1d_check,
                           ehrhard_bound_value, gaussian_sharpness_sweep,
                           pe_sweep, verify)
from .isotropic import (IsotropyCertificate, SLnPoint, I_functional,
                        ball_zonoid_volume_bound, isotropic_sandwich_check,
                        isotropic_volume_sandwich, isotropy_residual,
                        minimize_I, reverse_isoperimetric)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
