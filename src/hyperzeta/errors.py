"""Exception hierarchy shared across the package."""


class HyperzetaError(Exception):
    """Base class for all errors raised by hyperzeta."""


class DivisionByZeroSeries(HyperzetaError):
    """Division by a series that normalizes to zero."""


class DomainError(HyperzetaError):
    """Operand outside the domain of a series or scalar operation."""


class PrecisionUnreachable(HyperzetaError):
    """A tail bound cannot meet the requested target error."""


class InvalidParameter(HyperzetaError):
    """A parameter violates a documented precondition."""


class NodeBudgetExceeded(HyperzetaError):
    """Quadrature refinement failed to converge within budget."""


class PolesTooClose(HyperzetaError):
    """A pole of the integrand approaches the contour."""


class ConvergenceTooSlow(HyperzetaError):
    """Direct summation cannot reach the target within budget."""


class TooCloseToInteger(HyperzetaError):
    """Generic-s contour evaluation requested too close to an integer."""


class FitUnstable(HyperzetaError):
    """Successive Richardson extrapolants disagree beyond tolerance."""
