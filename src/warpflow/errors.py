"""Exception taxonomy shared across the package."""


class WarpflowError(Exception):
    """Base class for all package errors."""


class DegeneratePoint(WarpflowError):
    """A point too close to the singular locus of a projection (e.g. sphere center)."""


class InvalidShapeParameters(WarpflowError):
    """Domain shape parameters are inconsistent (e.g. annulus with r_in >= r_out)."""


class NonPositiveCoefficient(WarpflowError):
    """A diffusion coefficient failed the positivity requirement."""


class SolverFailure(WarpflowError):
    """A linear solve missed its tolerance, or a step produced a non-finite state."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class StepRejected(WarpflowError):
    """Internal control flow: a trial step moved a node too far and must be retried."""


class InsufficientSeries(WarpflowError):
    """A diagnostic needs more recorded frames than the report contains."""


class ConfigParseError(WarpflowError):
    """A scenario config file could not be parsed."""

    def __init__(self, message, path=None, line=None):
        super().__init__(message)
        self.path = path
        self.line = line
