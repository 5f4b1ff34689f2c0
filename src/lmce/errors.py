"""Exception types shared across the package."""


class PreconditionError(ValueError):
    """A check or solve was invoked on data that violates its precondition."""


class LinearSolveError(RuntimeError):
    """A preconditioned BiCGSTAB solve missed its residual bound (or its
    residual was not finite)."""


class ConfigError(ValueError):
    """A run configuration is malformed or internally inconsistent."""


class NonConvergenceError(RuntimeError):
    """The Newton solve ended without reaching its residual tolerance."""
