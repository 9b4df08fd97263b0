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
    """The Newton solve exhausted max_iter without meeting the residual tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class HerglotzLoss(GramspecError, RuntimeError):
    """Iterate's imaginary part collapsed; solution left the Herglotz class."""


class UniquenessError(GramspecError, RuntimeError):
    """Dual-start probe produced two distinct fixed points."""


class EigenNonConvergence(GramspecError, RuntimeError):
    """An eigenvalue iteration exceeded its cap: the QL sweeps, or a
    secular equation root in divide and conquer.

    ``index`` is the eigenvalue position that failed to converge.
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


class ExtrapolationWarning(UserWarning):
    """Successive vertical-line estimates disagreed by more than 10 percent."""
