"""Exception hierarchy shared by all rvlab modules.

The CLI maps these onto process exit codes: configuration and gate
violations exit with 2, numerical failures with 3, tolerance failures
(which are reported, not raised) with 1.
"""


class RvlabError(Exception):
    """Base class for all rvlab errors."""


class DomainError(RvlabError, ValueError):
    """An argument violates a mathematical precondition (e.g. t < 0)."""


class ConfigError(RvlabError, ValueError):
    """Invalid experiment configuration (unknown key, bad range, ...)."""


class GateError(ConfigError):
    """A parameter gate such as ``2 d H^2 > 1`` rejected the request."""


class NumericalError(RvlabError, RuntimeError):
    """A numerical routine failed beyond its tolerance."""


class EmbeddingError(NumericalError):
    """Circulant embedding produced an eigenvalue below tolerance."""

    def __init__(self, message: str, min_eigenvalue: float):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue

    def __reduce__(self):  # a pool worker's error reaches the parent pickled
        return type(self), (self.args[0], self.min_eigenvalue)


class FactorizationError(NumericalError):
    """Covariance matrix could not be Cholesky-factorized."""


class QuadratureError(NumericalError):
    """Adaptive quadrature did not converge to the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved

    def __reduce__(self):
        return type(self), (self.args[0], self.achieved)


class DegenerateInputError(RvlabError, ValueError):
    """Input is statistically degenerate (e.g. all moments are zero)."""
