"""GLM Bayesian inference via GAMP and an SLM + scalar-module decomposition.

Provides sum-product (MMSE) and max-sum (MAP) GAMP, an expectation-propagation
coupled modular solver (exact Gaussian linear step + scalar output module),
and a numerical verification harness for the equivalence identities that
connect the two.
"""

from .gaussian import GaussianBelief, ExtrinsicMessage, PosteriorStats, combine, ep_extrinsic
from .channels import Mode, AwgnChannel, ProbitChannel, PoissonChannel, LogisticChannel, posterior_mmse, posterior_map, g_out_with_stats, awgn_g_out
from .priors import GaussianPrior, BernoulliGaussianPrior, LaplacePrior
from .slm import LinearModel, SlmResult, slm_solve
from .engine import ProblemInstance, SolverConfig, IterationTrace, run_gamp, run_modular

__all__ = [
    "GaussianBelief", "ExtrinsicMessage", "PosteriorStats",
    "combine", "ep_extrinsic",
    "Mode", "AwgnChannel", "ProbitChannel", "PoissonChannel", "LogisticChannel",
    "posterior_mmse", "posterior_map", "g_out_with_stats", "awgn_g_out",
    "GaussianPrior", "BernoulliGaussianPrior", "LaplacePrior",
    "LinearModel", "SlmResult", "slm_solve",
    "ProblemInstance", "SolverConfig", "IterationTrace", "run_gamp", "run_modular",
]

__version__ = "0.1.0"
