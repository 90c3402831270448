"""Exception types shared across the package: one class per exit code of the command line."""


class RffnetError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(RffnetError, ValueError):
    """An argument is outside its valid range (exit 1)."""


class DataError(RffnetError, ValueError):
    """Data read from a file violates its format or a contract: a malformed line,
    bad labels, empty data, a width that does not match (exit 2)."""


class NumericError(RffnetError, ArithmeticError):
    """A numeric invariant was violated: NaN/Inf where finite values are required (exit 3)."""
