"""Exception types raised across the package."""


class RRSeriesError(Exception):
    """Base class for all package-specific errors."""


class NonUnitConstantTerm(RRSeriesError):
    """Inversion requested on a series whose constant term is not +1 or -1."""


class ResidueOutOfRange(RRSeriesError):
    """Dissection residue j does not satisfy 0 <= j < t."""


class InvalidModulus(RRSeriesError):
    """Modulus other than an int >= 2 passed to a reduction mod m."""


class InvalidTheta(RRSeriesError):
    """Theta specification with both exponents zero (r = s = 0)."""


class SpecOutOfRange(RRSeriesError):
    """Parameters of a named-series specification violate its bounds."""


class ParseError(RRSeriesError):
    """Syntax error in the identity DSL.

    Carries ``line`` and ``column`` (1-based) of the offending position
    when known.
    """

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class UnknownSymbol(ParseError):
    """Identifier in an expression that names no known atom or function."""


class ManifestError(RRSeriesError):
    """Malformed record in a manifest file.

    Carries the offending ``line_number`` and, when available, the
    record ``name``.
    """

    def __init__(self, message, line_number=None, name=None):
        prefix = []
        if name is not None:
            prefix.append(f"record {name!r}")
        if line_number is not None:
            prefix.append(f"line {line_number}")
        if prefix:
            message = f"{', '.join(prefix)}: {message}"
        super().__init__(message)
        self.line_number = line_number
        self.name = name


class EvaluationError(RRSeriesError):
    """Expression evaluation failed; message includes the subexpression path."""


class BudgetExceeded(EvaluationError):
    """Evaluation would pass the declared order or exponent budget."""
