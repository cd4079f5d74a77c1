"""Exception hierarchy for the toolkit.

Callers distinguish two failure families: data errors (malformed or
invariant-violating inputs) and numerical errors (a covariance that cannot
be inverted). The command line maps ``DataError`` to exit code 1 and
``NumericalError`` to exit code 2.
"""


class T2TError(Exception):
    """Base class for all toolkit errors."""


class DataError(T2TError):
    """Invalid input: parse failures, broken invariants, bad references."""


class ParseError(DataError):
    """A file does not conform to its documented format."""


class ValidationError(DataError):
    """A record or value violates a documented invariant."""


class BindingError(DataError):
    """Detections and feature rows cannot be joined one-to-one."""


class UndefinedMetricError(DataError):
    """A metric is undefined for the given inputs (e.g. no ground truth)."""


class NumericalError(T2TError):
    """Numerical failure during model fitting or evaluation."""


class SingularCovarianceError(NumericalError):
    """The regularized covariance is singular; a positive epsilon is needed."""
