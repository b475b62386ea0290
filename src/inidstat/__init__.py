"""Exact order statistics of independent, non-identically distributed,
non-negative random variables.

The package computes the law of the k-th smallest (or largest) of n
independent components exactly through the Poisson binomial bridge, inverts
it for medians and quantiles, certifies the odds-doubling regularity
condition on deterministic grids, and checks the resulting median sandwich
and tail bounds with exact probabilities.
"""

from .dist import (
    Atomic,
    Distribution,
    Exponential,
    HalfGaussian,
    MixtureCdf,
    ParetoPower,
    PiecewiseLinearCdf,
    Uniform01,
)
from .ostat import (
    OrderStatModel,
    averaged_quantile,
    kmin_cdf,
    kmin_median,
    kmin_quantile,
    kmin_strict_cdf,
)
from .pbin import brute_force_tail, chebyshev_bound_gap, pmf, tail_at_least
from .regularity import (
    DEFAULT_GRID,
    GridSpec,
    GrowthLemmaReport,
    MinKResult,
    RegularityCertificate,
    RegularityPreconditionError,
    check_condition,
    check_lemma_growth,
    check_measure_form,
    check_weak_condition,
    find_min_K,
)
from .bounds import (
    TailBoundRow,
    TheoremReport,
    default_lower_t_grid,
    default_upper_t_grid,
    lower_tail_bound,
    upper_tail_bound,
    verify_lower_tail,
    verify_theorem,
    verify_upper_tail,
)
from .mc import SimResult, simulate_median

__version__ = "0.1.0"

__all__ = [
    "Atomic",
    "Distribution",
    "Exponential",
    "HalfGaussian",
    "MixtureCdf",
    "ParetoPower",
    "PiecewiseLinearCdf",
    "Uniform01",
    "OrderStatModel",
    "averaged_quantile",
    "kmin_cdf",
    "kmin_median",
    "kmin_quantile",
    "kmin_strict_cdf",
    "brute_force_tail",
    "chebyshev_bound_gap",
    "pmf",
    "tail_at_least",
    "DEFAULT_GRID",
    "GridSpec",
    "GrowthLemmaReport",
    "MinKResult",
    "RegularityCertificate",
    "RegularityPreconditionError",
    "check_condition",
    "check_lemma_growth",
    "check_measure_form",
    "check_weak_condition",
    "find_min_K",
    "TailBoundRow",
    "TheoremReport",
    "default_lower_t_grid",
    "default_upper_t_grid",
    "lower_tail_bound",
    "upper_tail_bound",
    "verify_lower_tail",
    "verify_theorem",
    "verify_upper_tail",
    "SimResult",
    "simulate_median",
    "__version__",
]
