"""Exception hierarchy shared across the toolkit, and the default budgets
its resource errors enforce.

Parse failures and resource-budget failures are kept on separate branches so
the command-line layer can map them to distinct exit codes.
"""

from __future__ import annotations

#: Default state budget of a BFS ball.
MAX_STATES = 2_000_000
#: Default cap on the number of geodesic words an enumeration may return.
GEODESIC_CAP = 100_000
#: Default cap on the number of words a move orbit may reach.
ORBIT_CAP = 100_000
#: Budget on the lattice points of a rendered drawing's grid (about 500 x 500).
MAX_GRID_POINTS = 250_000


class CkgeoError(Exception):
    """Base class for all toolkit-specific errors."""


class ParseError(CkgeoError, ValueError):
    """Malformed word or element text.

    ``position`` is the character offset at which scanning failed, when known.
    """

    def __init__(self, message: str, *, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ResourceError(CkgeoError, RuntimeError):
    """A configurable budget (state count, enumeration cap, ...) was exceeded."""


class BallBudgetError(ResourceError):
    """Ball construction hit its state budget before reaching the radius."""

    def __init__(self, message: str, *, states: int, levels_completed: int) -> None:
        super().__init__(message)
        self.states = states
        self.levels_completed = levels_completed


class GeodesicCapError(ResourceError):
    """Geodesic enumeration exceeded its word cap."""


class OrbitCapError(ResourceError):
    """Move-orbit exploration exceeded its size cap."""
