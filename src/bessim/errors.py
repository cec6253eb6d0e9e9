"""Exception types shared across the package."""


class BessimError(Exception):
    """Base class for all package errors."""


class DomainError(BessimError, ValueError):
    """An input is outside the documented domain of an operation.

    Carries the offending field name when the input is a named parameter.
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message)


class ConfigError(BessimError, ValueError):
    """A configuration value violates an invariant. Carries the field name."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.reason = message
        super().__init__(f"{field}: {message}")


class InfeasiblePowerError(BessimError):
    """Demanded power exceeds what the battery circuit can deliver."""


class NoCapacityError(BessimError):
    """Every cluster is blocked by a SoC bound for the requested direction."""


class EmptyPlanError(BessimError):
    """Reference levels produce no charge or discharge intervals."""


class IngestionError(BessimError, ValueError):
    """A load-profile file failed validation. Carries the offending row."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
