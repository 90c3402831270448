"""Exception types shared across the package."""


class RffnetError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(RffnetError, ValueError):
    """Operands have incompatible or unexpected dimensions."""


class ParameterError(RffnetError, ValueError):
    """An argument is outside its valid range."""


class DataError(RffnetError, ValueError):
    """Dataset contents violate a contract (bad labels, empty data, ...)."""


class ParseError(RffnetError, ValueError):
    """A data file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NumericError(RffnetError, ArithmeticError):
    """A numeric invariant was violated (NaN/Inf where finite values are required)."""
