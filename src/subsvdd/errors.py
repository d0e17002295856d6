"""Exception hierarchy shared by all subsvdd modules.

Three broad families: usage/shape problems, data/file problems, and numerical
failures. The CLI maps them onto exit codes (see cli.py).
"""


class SubsvddError(Exception):
    """Base class for every error raised by this package."""


# --- shape / argument problems -------------------------------------------

class DimensionMismatch(SubsvddError):
    pass


# --- numerical failures ---------------------------------------------------

class NumericalError(SubsvddError):
    pass


class RankDeficient(NumericalError):
    """Matrix rows are numerically dependent; carries the offending row ids."""

    def __init__(self, message, rows=()):
        super().__init__(message)
        self.rows = tuple(rows)


class NotSymmetric(NumericalError):
    pass


class NonFinite(NumericalError):
    """An array handed to a numerical routine holds NaN or Inf."""


class InfeasibleC(NumericalError):
    """C < 1/N makes the constraints sum(alpha)=1, alpha <= C infeasible."""


class NotConverged(NumericalError):
    pass


class NoSupportVectors(NumericalError):
    pass


class DegenerateSubspace(NumericalError):
    pass


class ZeroKernel(NumericalError):
    pass


class NoPositives(NumericalError):
    pass


class NoNegatives(NumericalError):
    pass


# --- data / file problems -------------------------------------------------

class DataError(SubsvddError):
    pass


class ParseError(DataError):
    pass


class RaggedRows(DataError):
    pass


class EmptyFile(DataError):
    pass


class UnknownClass(DataError):
    pass


class TooFewSamples(DataError):
    pass


class SchemaError(DataError):
    pass


class VersionError(DataError):
    pass


class InvariantViolation(DataError):
    pass
