"""Exception taxonomy shared across the package."""


class WarpflowError(Exception):
    """Base class for all package errors."""


class ConfigParseError(WarpflowError):
    """A config is refused: unparsed, out of range, or its run directory unmakeable."""


class InvalidShapeParameters(ConfigParseError):
    """Domain shape parameters are inconsistent (e.g. annulus with r_in >= r_out)."""


class DegeneratePoint(WarpflowError):
    """A point too close to the singular locus of a projection (e.g. sphere center)."""


class NonPositiveCoefficient(WarpflowError):
    """A diffusion coefficient failed the positivity requirement."""


class SolverFailure(WarpflowError):
    """A linear solve missed its tolerance, or a step produced a non-finite state."""


class StepRejected(WarpflowError):
    """Internal control flow: a trial step moved a node too far and must be retried."""


class InsufficientSeries(WarpflowError):
    """A diagnostic needs more recorded frames than the report contains."""
