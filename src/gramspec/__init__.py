"""gramspec: limiting spectra of Gram matrices built from stationary rows.

The package solves the self-consistent Stieltjes-transform equation for the
limiting eigenvalue distribution of sample covariance matrices whose rows
are independent copies of a stationary (possibly long-memory) sequence,
inverts it to a density, and validates the result against seeded
Monte-Carlo simulation with its own symmetric eigensolver.
"""

from .errors import (ConfigError, DomainError, EigenNonConvergence,
                     GramspecError, HerglotzLoss, MemoryBudgetError,
                     NonConvergence, QuadratureError,
                     TailToleranceUnreachable, UniquenessError)
from .spectral import (LinearFilter, SpectralDensity, ar1_density,
                       constant_density, covariance_from_density,
                       covariance_sequence, density_from_spec,
                       eval_density, filter_from_density,
                       fractional_density, h_pushforward, ma1_density,
                       regularity_profile, tabulated_density,
                       truncate_density)
from .ensemble import (DataMatrix, EnsembleConfig, InnovationLaw,
                       gaussian_law, generate, generate_gaussian_rows,
                       generate_linear_rows,
                       generate_stationary_lower_triangle,
                       generate_toeplitz_gaussian_rows, law_from_spec,
                       martingale_sign_law, rademacher_law,
                       read_datamatrix, row_rng, student_t_law,
                       toeplitz_matrix, uniform_law, write_datamatrix)
from .matrixops import (Esd, SymMatrix, esd_cdf, gram,
                        gram_stieltjes_identity, stieltjes_empirical,
                        symmetric_eigenvalues, symmetric_from_lower,
                        symmetrize_gram)
from .metrics import (StepCdf, kolmogorov_distance, levy_distance,
                      levy_gram_bound, lindeberg_statistic,
                      stieltjes_diff_bound)
from .limit import (LimitDistribution, LimitPoint, SolverSettings,
                    TruncationLadder, companion, companion_inverse,
                    default_x_grid, invert_to_distribution,
                    solve_limit_H, solve_limit_density, truncation_ladder)
from ._kernels import backend_name, warm_up

__version__ = "1.0.0"

__all__ = [
    "ConfigError", "DomainError", "EigenNonConvergence", "GramspecError",
    "HerglotzLoss", "MemoryBudgetError", "NonConvergence", "QuadratureError",
    "TailToleranceUnreachable", "UniquenessError",
    "LinearFilter", "SpectralDensity", "ar1_density", "constant_density",
    "covariance_from_density", "covariance_sequence", "density_from_spec",
    "eval_density", "filter_from_density", "fractional_density",
    "h_pushforward", "ma1_density", "regularity_profile",
    "tabulated_density", "truncate_density",
    "DataMatrix", "EnsembleConfig", "InnovationLaw", "gaussian_law",
    "generate", "generate_gaussian_rows", "generate_linear_rows",
    "generate_stationary_lower_triangle", "generate_toeplitz_gaussian_rows",
    "law_from_spec", "martingale_sign_law", "rademacher_law",
    "read_datamatrix", "row_rng", "student_t_law", "toeplitz_matrix",
    "uniform_law", "write_datamatrix",
    "Esd", "SymMatrix", "esd_cdf", "gram", "gram_stieltjes_identity",
    "stieltjes_empirical", "symmetric_eigenvalues", "symmetric_from_lower",
    "symmetrize_gram",
    "StepCdf", "kolmogorov_distance", "levy_distance", "levy_gram_bound",
    "lindeberg_statistic", "stieltjes_diff_bound",
    "LimitDistribution", "LimitPoint", "SolverSettings", "TruncationLadder",
    "companion", "companion_inverse", "default_x_grid",
    "invert_to_distribution", "solve_limit_H", "solve_limit_density",
    "truncation_ladder",
    "backend_name", "warm_up",
    "__version__",
]
