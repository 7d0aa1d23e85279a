"""Numerical laboratory for geodesic flows on model manifolds: dynamical
entropy bounds from curvature extremes, growth-rate estimators, and
topological obstructions to Einstein metrics of non-negative curvature."""

__version__ = "0.1.0"

from .bounds import (checked_bound, closed_form_bounds, curvature_entropy_bound,
                     expansion_defect_constants, first_order_expansion,
                     first_order_residual, grossman_counting_rate,
                     manning_entropy_bound, nonpositive_entropy_bound)
from .entropy import (EntropyEstimate, GrowthSeries, counting_series,
                      entropy_lower_from_radius, mane_series, slope,
                      sphere_arc_count, sphere_counting_oracle)
from .errors import (DeltaTooLargeError, EstimatorError, GeoflowError,
                     IntegrationError, ProfileValidationError)
from .geodesics import expansion, propagate
from .manifolds import (CurvatureSpectrum, ManifoldModel, TangentState,
                        chart_metric, ellipsoid, flat_torus, hyperbolic,
                        parse_manifold, sphere, sphere_product)
from .topology import (BettiProfile, ObstructionReport, babenko_inv_r_lower,
                       babenko_max_b2, betti_p_bound, certify,
                       connected_radius_upper, dim4_gauss_bonnet_checks,
                       felix_thomas_r_upper, gromov_log10_c,
                       homology_dim_bound, homology_dim_from_entropy,
                       homology_dim_from_radius, neg_log_r_upper,
                       poincare_roots, reciprocity_defect)

__all__ = [name for name in dir() if not name.startswith("_")]
