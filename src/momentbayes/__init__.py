"""Multinomial Bayes updating under a linear moment constraint.

Combines observed count data with a target value for the posterior
expectation of a linear outcome statistic, solved through a single
exponential multiplier on the simplex.  Includes a tilted-frequency
comparator and quadrature / Monte Carlo verification oracles.
"""

__version__ = "0.1.0"

from . import errors
from .comparator import (
    ComparisonReport,
    TiltedEmpirical,
    compare,
    empirical_frequencies,
    solve_tilt,
)
from .model import (
    CountData,
    OutcomeModel,
    PriorSpec,
    Problem,
    SimplexPoint,
    bayes_posterior_mean,
    log_unnormalized_density,
    make_problem,
)
from .normalization import Evaluation, evaluate
from .oracle import (
    MonteCarloMoments,
    OracleEstimate,
    kummer_m_log,
    montecarlo_moments,
    quadrature_zeta,
)
from .solver import (
    MEPosterior,
    SolveDiagnostics,
    SweepPoint,
    full_update,
    solve_beta,
    solve_beta_detailed,
    sweep,
)

__all__ = [
    "CountData",
    "ComparisonReport",
    "Evaluation",
    "MEPosterior",
    "MonteCarloMoments",
    "OracleEstimate",
    "OutcomeModel",
    "PriorSpec",
    "Problem",
    "SimplexPoint",
    "SolveDiagnostics",
    "SweepPoint",
    "TiltedEmpirical",
    "bayes_posterior_mean",
    "compare",
    "empirical_frequencies",
    "errors",
    "evaluate",
    "full_update",
    "kummer_m_log",
    "log_unnormalized_density",
    "make_problem",
    "montecarlo_moments",
    "quadrature_zeta",
    "solve_beta",
    "solve_beta_detailed",
    "solve_tilt",
    "sweep",
]
