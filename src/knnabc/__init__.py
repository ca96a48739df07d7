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

import importlib.util
import sys

import numpy


def _defer_numpy_submodules():
    """Register numpy.f2py, numpy.testing and numpy.ma as lazy modules.

    scipy.special's array-API shim runs ``from numpy import *``, and
    numpy's ``__all__`` names these submodules, so the star-import would
    execute them although neither knnabc nor scipy.special uses them.
    knnabc loads only scipy.special's compiled ufuncs (``rng``), so the
    star-import runs only in a process that loads ``scipy.stats``
    (``validate._ks_pvalues``).  There the deferral still pays:
    ``import knnabc.validate; import scipy.stats`` took 0.70 s and
    91.5 MB with it, 0.79 s and 99.2 MB without (2 vCPUs, median of 9).
    A lazy module is bound unexecuted and loads on its first attribute
    access.  Python 3.11's LazyLoader is not thread-safe on that first
    access; no knnabc worker thread touches these modules.
    """
    for name in ("numpy.f2py", "numpy.testing", "numpy.ma"):
        if name in sys.modules:
            continue
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        setattr(numpy, name.rpartition(".")[2], module)


# before any module of the package imports scipy
_defer_numpy_submodules()

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
