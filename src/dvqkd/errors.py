"""Exception types shared across the package."""


class ParameterDomainError(ValueError):
    """A parameter lies outside its physical domain."""


class UndefinedRateError(ValueError):
    """A rate is requested for a configuration with zero accepted events."""


class BoundaryDomainError(ValueError):
    """A witness boundary is queried outside the region where it is defined."""


class InfeasibleError(RuntimeError):
    """A root-finding problem has no solution in its admissible bracket."""
