"""Exception types shared across the package."""


class PreconditionError(ValueError):
    """A check or solve was invoked on data that violates its precondition."""


class LinearSolveError(RuntimeError):
    """The sparse LU factorization failed, or its solve missed the residual
    tolerance (or was not finite)."""


class ConfigError(ValueError):
    """A run configuration is malformed or internally inconsistent."""


class NonConvergenceError(RuntimeError):
    """The Newton solve ended without reaching its residual tolerance."""
