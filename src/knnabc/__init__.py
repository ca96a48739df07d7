"""Likelihood-free inference with nearest-neighbor acceptance.

The package simulates an iid reference table of (parameter, summary)
pairs, accepts the rows whose summaries fall nearest an observed summary
(by count k or by tolerance epsilon), and estimates the posterior density
by kernel-smoothing the accepted parameters.  A validation harness checks
the accepted set's conditional law, moment consistency, MISE convergence
rates, and nearest-neighbor distance-moment bounds against analytic
conjugate posteriors.
"""

__version__ = "0.1.0"

from .core import (AcceptedSet, ReferenceTable, abc_knn, abc_tolerance,
                   generate_table, percentile_to_k, sample_restricted, simulate_knn)
from .estimators import (DensityEstimate, KernelSpec, estimate_density, make_kernel,
                         posterior_functional, unit_ball_volume)
from .models import Model, PosteriorOracle, get_model, model_ids
from .tuning import (Schedule, TheoreticalQuantities, distance_moment_bound,
                     mise_prediction, mise_rate_quantities, resolve_schedule,
                     schedule)
from .validate import (MiseReport, RateReport, bound_check, conditional_law_test,
                       mise_estimate, moment_consistency, prop1_calibration,
                       rate_experiment)

__all__ = [
    "AcceptedSet", "DensityEstimate", "KernelSpec", "MiseReport", "Model",
    "PosteriorOracle", "RateReport", "ReferenceTable", "Schedule",
    "TheoreticalQuantities", "__version__", "abc_knn", "abc_tolerance",
    "bound_check", "conditional_law_test", "distance_moment_bound",
    "estimate_density", "generate_table", "get_model", "make_kernel",
    "mise_estimate", "mise_prediction", "mise_rate_quantities", "model_ids",
    "moment_consistency", "percentile_to_k", "posterior_functional",
    "prop1_calibration", "rate_experiment", "resolve_schedule",
    "sample_restricted", "schedule", "simulate_knn", "unit_ball_volume",
]
