"""Exception hierarchy shared across the package."""


class MorseflowError(Exception):
    """Base class for all errors raised by morseflow."""


class ExpressionSyntaxError(MorseflowError):
    """Raised when an expression string cannot be parsed.

    `position` is the 1-based character offset of the offending token.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvaluationError(MorseflowError):
    """Raised on singular operations (division by zero, sqrt out of domain)."""

    def __init__(self, message, subexpression=None):
        if subexpression is not None:
            message = f"{message} in subexpression '{subexpression}'"
        super().__init__(message)
        self.subexpression = subexpression


class GeometryError(MorseflowError):
    """Base class for manifold representation problems."""


class RankDeficiencyError(GeometryError):
    """Constraint Jacobian lost full rank at the queried point."""


class RetractionError(GeometryError):
    """Newton projection back onto the manifold failed."""


class NotCriticalError(MorseflowError):
    """A point claimed critical fails the projected-gradient test, or f
    is not finite there: a critical point needs a finite f."""


class TooFewCriticalPointsError(MorseflowError):
    """Separation radius is undefined for fewer than two critical points.

    Carries the manifold-wide gradient floor measured before raising.
    """

    def __init__(self, message, manifold_floor=None):
        super().__init__(message)
        self.manifold_floor = manifold_floor


class FlowError(MorseflowError):
    """Trajectory integration failed."""


class NotConvergedError(FlowError):
    """An operation required a trajectory that captured at a critical point."""


class StalledTrajectoryError(FlowError):
    """A trajectory stalled away from every registered critical point.

    This signals an unregistered critical point; re-run the critical point
    search with more starts before building graphs on this scenario.
    """


class NonMorseError(MorseflowError):
    """The scenario has a degenerate critical point; certification refused."""


class DisconnectedGraphError(MorseflowError):
    """The connection graph is not connected, so a global conclusion fails."""


class ConfigError(MorseflowError):
    """Scenario/config file problem, with line and column when available."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column else "")
            message = f"{message} ({where})"
        super().__init__(message)
        self.line = line
        self.column = column


class UnknownScenarioError(MorseflowError):
    """Catalog lookup miss; message lists the available names."""
