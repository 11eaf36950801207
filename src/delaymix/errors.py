"""Exception types shared across the package."""

from __future__ import annotations


class DelayMixError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(DelayMixError, ValueError):
    """An operand has a dimension that does not fit its companions."""


class WindowLengthError(DelayMixError, ValueError):
    """A data window is too short for the requested lag structure."""


class EmptyTensorError(DelayMixError, ValueError):
    """Operation requires a tensor with at least one accumulated sample."""


class RankError(DelayMixError, ValueError):
    """Requested decomposition or realization rank is infeasible."""


class DataError(DelayMixError, ValueError):
    """Input data contains non-finite or otherwise unusable values."""


class ConvergenceError(DelayMixError, RuntimeError):
    """Iterative solve failed; carries the last factor estimate."""

    def __init__(self, message: str, factors=None):
        super().__init__(message)
        self.factors = factors


class HorizonError(DelayMixError, ValueError):
    """Markov sequence too short for the requested Hankel size."""


class DegenerateSequenceError(DelayMixError, ValueError):
    """Markov sequence carries no realizable dynamics (all zero)."""


class EmptyDatabaseError(DelayMixError, ValueError):
    """No usable model is available for selection or realization."""


class NumericalError(DelayMixError, ArithmeticError):
    """Non-finite values appeared during a recursion."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class ConditioningError(DelayMixError, ArithmeticError):
    """A filter's innovation variance was not positive, or its map cancelled
    past what float64 holds."""


class ConfigError(DelayMixError, ValueError):
    """A configuration value or argument failed validation; lists every
    violation found."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ColdStartError(DelayMixError, RuntimeError):
    """First update saw degenerate data and no model can be formed."""


class ScenarioError(DelayMixError, ValueError):
    """Scenario specification is unusable (e.g. unstable regime); carries
    the ScenarioSpec field at fault, and the entry of regimes or schedule,
    when known."""

    def __init__(self, message: str, field: str | None = None, index: int | None = None):
        super().__init__(message)
        self.field = field
        self.index = index


class EngineStageError(DelayMixError, RuntimeError):
    """An error propagated out of a named engine sub-stage."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"{stage}: {cause}")


class ParseError(DelayMixError, ValueError):
    """Malformed input file; carries row/column when known."""

    def __init__(self, message: str, row: int | None = None, column: str | int | None = None):
        where = []
        if row is not None:
            where.append(f"row {row}")
        if column is not None:
            where.append(f"column {column}")
        if where:
            message = f"{message} ({', '.join(where)})"
        super().__init__(message)
        self.row = row
        self.column = column


class MappingError(DelayMixError, ValueError):
    """Column mapping is missing, overlapping, or refers to unknown columns."""
