"""Exception types shared across the package."""


class GridPursuitError(Exception):
    """Base class for all package errors."""


class GraphFormatError(GridPursuitError, ValueError):
    """A graph description string does not match the grammar."""


class InvalidVertexError(GridPursuitError, ValueError):
    """Coordinates do not name a vertex of the graph."""


class RuleViolation(GridPursuitError, ValueError):
    """A move breaks the game rules.

    ``cop_index`` identifies the offending cop when a joint cop move is
    rejected; it is None for robber moves.
    """

    def __init__(self, message, cop_index=None):
        super().__init__(message)
        self.cop_index = cop_index


class StrategyFault(GridPursuitError, RuntimeError):
    """A strategy produced an illegal move or failed internally.

    Kept distinct from game outcomes so tests can assert strategies are
    fault-free.
    """

    def __init__(self, message, side=None):
        super().__init__(message)
        self.side = side


class ConfigurationError(GridPursuitError, ValueError):
    """A strategy or command was asked to run outside its preconditions."""


def require(cond, msg):
    """Raise ConfigurationError(msg) unless cond holds."""
    if not cond:
        raise ConfigurationError(msg)


class ResourceLimitError(GridPursuitError, RuntimeError):
    """A computation would exceed its configured size cap."""

    def __init__(self, message, estimate=None, cap=None):
        super().__init__(message)
        self.estimate = estimate
        self.cap = cap


class TraceFormatError(GridPursuitError, ValueError):
    """A trace is not well-formed JSON lines: a line is not JSON, or the
    header or an event lacks a field or has one of the wrong type."""


class ReplayError(GridPursuitError, RuntimeError):
    """A recorded trace does not reproduce under the engine: an illegal or
    divergent move, a header that disagrees with the events, or a missing
    final event."""
