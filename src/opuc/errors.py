"""Exception types shared across the package."""


class OpucError(Exception):
    """Base class for all library errors."""


class UnsupportedWeightError(OpucError):
    """Operation not available for this weight kind (e.g. moment-only weights)."""


class PoleError(OpucError):
    """Evaluation requested at a singular point of the weight or a map."""


class ParameterRangeError(OpucError, ValueError):
    """A parameter lies outside the range an algorithm supports."""


class NearBoundaryError(OpucError):
    """Off-circle evaluation requested too close to the unit circle."""


class AccuracyError(OpucError):
    """Quadrature failed to converge to the requested tolerance."""

    def __init__(self, message, residual=None, nodes=None):
        super().__init__(message)
        self.residual = residual
        self.nodes = nodes


class DegenerateMeasureError(OpucError):
    """A recursion coefficient left the open unit disk (invalid measure)."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index
