"""Exception types shared across the solver modules."""


class FieldError(ValueError):
    """Field data is invalid (wrong shape, non-finite entries)."""


class GridMismatchError(ValueError):
    """Operands live on different grids."""


class StepRejectedError(RuntimeError):
    """A time step was rejected (CFL violation or non-finite field)."""


class ConfigError(ValueError):
    """A simulation configuration failed validation."""
