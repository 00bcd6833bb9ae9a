"""Exception hierarchy. Every condition a caller can act on gets its own class."""

import numbers


class FairauditError(Exception):
    """Base class for all errors raised by this package."""


# -- dataset loading / schema --------------------------------------------

class MissingColumn(FairauditError):
    """Schema names a column that is absent from the CSV header."""


class RoleViolation(FairauditError):
    """Column roles are inconsistent (duplicates, missing, or wrong kind)."""


class ParseError(FairauditError):
    """A cell could not be parsed; carries the CSV line and column name."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column!r})" if column else ")")
        super().__init__(message + where)


class EmptyData(FairauditError):
    """No data rows after loading (or all rows were dropped)."""


class NumericConditioning(FairauditError):
    """Exact stratification was asked for a numeric column; use soft conditioning."""


# -- tables ----------------------------------------------------------------

class SameVariable(FairauditError):
    """Row and column variable of a contingency table refer to the same column."""


class EmptyTable(FairauditError):
    """Table has zero total count and no smoothing; nothing to normalize."""


class AllStrataDropped(FairauditError):
    """Every stratum fell below the minimum size; exact conditioning is unsupported here."""


# -- measures ---------------------------------------------------------------

class DegenerateTable(FairauditError):
    """Fewer than two non-empty rows or columns; independence is vacuous."""


class MissingClass(FairauditError):
    """A sensitive-attribute category has zero marginal probability."""


# -- criteria / soft conditioning --------------------------------------------

class ContinuousConditioning(FairauditError):
    """Exact evaluation of a feature-conditioned criterion needs all-categorical features."""


class EmptySelection(FairauditError):
    """A column or criterion selection is empty."""


class NoFeatures(FairauditError):
    """The dataset has no feature columns to build a neighbor index over."""


class GroupCriterion(FairauditError):
    """Soft evaluation only applies to feature-conditioned (individual) criteria."""


class AllIndeterminate(FairauditError):
    """Every record's neighborhood was too small after stratification."""


# -- lipschitz ---------------------------------------------------------------

class DegenerateInput(FairauditError):
    """Fewer than two points, or a numeric column whose range has no finite span."""


class NotAProbabilityVector(FairauditError):
    """Total-variation distance needs non-negative vectors summing to one."""


# -- scenarios ----------------------------------------------------------------

class UnknownScenario(FairauditError):
    """Scenario name is not in the registry."""


class InvalidParams(FairauditError):
    """A parameter value is outside its legal range."""


def is_real(value) -> bool:
    """A real number that is not a bool: True must not pass as 1."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_integral(value) -> bool:
    """An integer that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)
