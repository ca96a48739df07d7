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

import importlib
import importlib.util
import sys

import numpy


def _defer_numpy_submodules():
    """Register numpy.f2py, numpy.testing and numpy.ma as lazy modules.

    scipy.special's array-API shim runs ``from numpy import *``, and
    numpy's ``__all__`` names these submodules, so the star-import would
    execute them although neither knnabc nor scipy.special uses them.
    knnabc starts with scipy.special's compiled ufuncs alone (``rng``), so
    the star-import runs only where the scipy.special package loads: in
    ``validate._ks_pvalues``, whose ``scipy.stats._ksstats`` imports it,
    and in any process that loads ``scipy.stats``.  There the deferral
    pays: ``import knnabc.validate`` and a first ``_ks_pvalues`` call took
    0.22 s and 50.6 MB with it, 0.31 s and 60.5 MB without;
    ``import knnabc.validate; import scipy.stats`` took 0.69 s and
    91.4 MB with it, 0.77 s and 99.3 MB without (2 vCPUs, median of 9).
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

# The public names, each loaded with its module on first access (PEP 562),
# so that a process loads only the modules it uses: ``abc sample`` never
# loads ``tuning`` or ``validate``.
_EXPORTS = {
    "core": ("AcceptedSet", "ReferenceTable", "abc_knn", "abc_tolerance", "generate_table",
             "percentile_to_k", "sample_restricted", "simulate_knn"),
    "estimators": ("DensityEstimate", "KernelSpec", "estimate_density", "make_kernel",
                   "posterior_functional", "unit_ball_volume"),
    "models": ("Model", "PosteriorOracle", "get_model", "model_ids"),
    "tuning": ("Schedule", "TheoreticalQuantities", "distance_moment_bound",
               "mise_prediction", "mise_rate_quantities", "resolve_schedule", "schedule"),
    "validate": ("MiseReport", "RateReport", "bound_check", "conditional_law_test",
                 "mise_estimate", "moment_consistency", "prop1_calibration",
                 "rate_experiment"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["__version__", *_OWNER])


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
