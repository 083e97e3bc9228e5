"""Semantic exception hierarchy.

Contract violations (bad shapes, malformed files, out-of-range flags) raise
plain ValueError; the classes here mark *mathematical* degeneracies that
callers may legitimately want to catch and skip.
"""


class PrivacyModelError(Exception):
    """Base class for all semantic errors raised by this package."""


class DegenerateVariable(PrivacyModelError):
    """A variable has zero variance (or zero sensitivity) where a
    normalization by it is required."""


class SingularConditioning(PrivacyModelError):
    """The covariance block being inverted during Gaussian conditioning is
    singular (or numerically indefinite)."""


class InfeasibleCorrelation(PrivacyModelError):
    """The requested correlation level cannot be realized by a valid
    (positive semidefinite / properly normalized) model."""


class SearchSpaceExceeded(PrivacyModelError):
    """The exact search would enumerate more states than the configured cap
    allows; pass force=True (or --force) to override."""
