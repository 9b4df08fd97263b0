"""Exception taxonomy shared across the package."""


class GramspecError(Exception):
    """Base class for all package-specific errors."""


class DomainError(GramspecError, ValueError):
    """An argument lies outside the documented domain of an operation."""


class QuadratureError(GramspecError, RuntimeError):
    """Adaptive quadrature failed to reach tolerance within its evaluation cap."""


class TailToleranceUnreachable(GramspecError, RuntimeError):
    """Filter truncation length needed for the requested tail mass exceeds the hard cap."""


class NonConvergence(GramspecError, RuntimeError):
    """The Newton solve hit its iteration cap before meeting the residual tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class HerglotzLoss(GramspecError, RuntimeError):
    """Iterate's imaginary part collapsed; solution left the Herglotz class."""


class UniquenessError(GramspecError, RuntimeError):
    """Dual-start probe produced two distinct fixed points."""


class EigenNonConvergence(GramspecError, RuntimeError):
    """An eigenvalue iteration of _kernels.tridiagonal_eigenvalues exceeded
    its cap: the QL sweeps (_SWEEPS_PER_ROW per row of the matrix), or the
    steps of one secular equation root in divide and conquer
    (_SECULAR_MAXIT).

    ``index`` is the eigenvalue position that failed to converge; the
    message names the cap that was hit.
    """

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class MemoryBudgetError(GramspecError, RuntimeError):
    """Requested generation exceeds the configured in-memory budget."""


class ConfigError(GramspecError, ValueError):
    """Config validation failed; ``messages`` lists every violation found."""

    def __init__(self, messages: list[str]):
        super().__init__("; ".join(messages))
        self.messages = list(messages)
