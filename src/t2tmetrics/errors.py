"""Exception hierarchy for the toolkit.

Callers distinguish two failure families: data errors (malformed or
invariant-violating inputs) and numerical errors (a covariance that cannot
be inverted). The command line maps ``DataError`` to exit code 1 and
``NumericalError`` to exit code 2; a ``RegimeError`` gets 2 when any of its
regimes failed numerically, and 1 otherwise.
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


class RegimeError(T2TError):
    """At least one score regime failed; successful regimes are preserved.

    Attributes:
        results: regime name -> AP_t2t for the regimes that succeeded.
        failures: regime name -> the exception that stopped that regime.
    """

    def __init__(self, results: dict[str, float], failures: dict[str, T2TError]):
        self.results = results
        self.failures = failures
        detail = "; ".join(f"{name}: {exc}" for name, exc in failures.items())
        super().__init__(f"{len(failures)} regime(s) failed: {detail}")
