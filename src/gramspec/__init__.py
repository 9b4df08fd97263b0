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
                       filter_from_density, fractional_density,
                       h_pushforward, ma1_density, tabulated_density,
                       truncate_density)
from .ensemble import (DataMatrix, InnovationLaw, gaussian_law,
                       generate_gaussian_rows, generate_linear_rows,
                       generate_stationary_lower_triangle,
                       generate_toeplitz_gaussian_rows, law_from_spec,
                       rademacher_law, read_datamatrix, row_rng,
                       toeplitz_matrix, write_datamatrix)
from .matrixops import (Esd, SymMatrix, gram, gram_eigenvalues,
                        gram_stieltjes_identity, stieltjes_empirical,
                        symmetric_eigenvalues, symmetric_from_lower,
                        symmetrize_gram)
from .metrics import (StepCdf, kolmogorov_distance, levy_distance,
                      levy_gram_bound, stieltjes_diff_bound)
from .limit import (LimitDistribution, LimitPoint, SolverSettings,
                    TruncationLadder, companion_inverse,
                    default_x_grid, invert_to_distribution,
                    solve_limit_density, truncation_ladder)
from ._kernels import backend_name, warm_up

__version__ = "1.0.0"

__all__ = [
    "ConfigError", "DomainError", "EigenNonConvergence", "GramspecError",
    "HerglotzLoss", "MemoryBudgetError", "NonConvergence", "QuadratureError",
    "TailToleranceUnreachable", "UniquenessError",
    "LinearFilter", "SpectralDensity", "ar1_density", "constant_density",
    "covariance_from_density", "covariance_sequence", "density_from_spec",
    "filter_from_density", "fractional_density",
    "h_pushforward", "ma1_density", "tabulated_density", "truncate_density",
    "DataMatrix", "InnovationLaw", "gaussian_law",
    "generate_gaussian_rows", "generate_linear_rows",
    "generate_stationary_lower_triangle", "generate_toeplitz_gaussian_rows",
    "law_from_spec", "rademacher_law", "read_datamatrix", "row_rng",
    "toeplitz_matrix", "write_datamatrix",
    "Esd", "SymMatrix", "gram", "gram_eigenvalues",
    "gram_stieltjes_identity",
    "stieltjes_empirical", "symmetric_eigenvalues", "symmetric_from_lower",
    "symmetrize_gram",
    "StepCdf", "kolmogorov_distance", "levy_distance", "levy_gram_bound",
    "stieltjes_diff_bound",
    "LimitDistribution", "LimitPoint", "SolverSettings", "TruncationLadder",
    "companion_inverse", "default_x_grid",
    "invert_to_distribution", "solve_limit_density",
    "truncation_ladder",
    "backend_name", "warm_up",
    "__version__",
]
