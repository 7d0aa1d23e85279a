"""Exception taxonomy shared across the package."""


class GeoflowError(Exception):
    """Base class for all package-specific failures."""


class IntegrationError(GeoflowError):
    """Trajectory integration failed.

    ``last_state`` is (chart ids, x, v), one row per failed trajectory, taken
    when each failed: where it ran out of charts ("charts"), where it left
    its chart's reach ("reach"), or where it was found non-finite.  A run of
    the Jacobi system alone has no trajectory state, so it carries no
    ``last_state``.
    """

    def __init__(self, message, last_state=None):
        super().__init__(message)
        self.last_state = last_state


class EstimatorError(GeoflowError):
    """Too many per-sample failures inside a Monte Carlo estimator."""

    def __init__(self, message, failure_census=None):
        super().__init__(message)
        self.failure_census = failure_census or {}


class DeltaTooLargeError(GeoflowError, ValueError):
    """A short-time expansion was requested beyond its validity range."""


class ProfileValidationError(GeoflowError, ValueError):
    """A Betti profile violates one of its structural invariants."""
