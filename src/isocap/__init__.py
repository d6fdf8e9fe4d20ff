"""Capacity, asymmetry, and isocapacitary deficit computations for
star-shaped domains in R^3, with spectral stability checks."""

from .asymmetry import alpha, alpha_R, annulus_lower_bound, fraenkel, symdiff_volume
from .capacity import WosConfig, cap_ball, cap_spheroid, cap_wos, capacity, deficit
from .domains import (CompositeDomain, FamilySpec, StarDomain, ball,
                      barycenter, diameter, ellipsoid, generate_family,
                      load_domain, nearly_spherical_from_phi, save_domain,
                      truncate_rescale, volume)
from .errors import ConfigError, GeometryError, SolverError
from .sphere import HarmonicCoeffs, build_quadrature, expand, synthesize
from .stability import (ball_profile, dtn, h_half_norm, project_barycenter,
                        second_variation, spectrum_table, taylor_check)

__version__ = "0.1.0"
