"""Exception types raised across the package.

Every error that callers are expected to handle has a dedicated class so
that CLI code can map validation problems and runtime failures to distinct
exit codes without string matching.
"""


class ConformalTSError(Exception):
    """Base class for all package-specific errors."""


class SeriesTooShort(ConformalTSError, ValueError):
    """Series has too few observations for the requested framing or split."""


class InvalidTau(ConformalTSError, ValueError):
    """Quantile level outside the open interval (0, 1)."""


class NonFiniteLoss(ConformalTSError, ArithmeticError):
    """Training loss became NaN or infinite (divergent optimization)."""


class DimensionMismatch(ConformalTSError, ValueError):
    """Input vector length does not match what the model expects."""


class InvalidInterval(ConformalTSError, ValueError):
    """Interval bounds are inverted or non-finite."""


class EmptyScoreSet(ConformalTSError, ValueError):
    """A conformity-score collection is empty where at least one is required."""


class AllRowsInBag(ConformalTSError, ValueError):
    """Every training row appears in every bootstrap bag, so no row has an
    out-of-bag prediction."""


class LengthMismatch(ConformalTSError, ValueError):
    """Paired sequences have different lengths."""


class EmptyInput(ConformalTSError, ValueError):
    """A metric or aggregate was asked to summarize zero items."""


class ZeroRange(ConformalTSError, ValueError):
    """Normalization by the realized value range is impossible because the
    range is zero, or so small that the widths divided by it overflow."""


class NonPositiveMean(ConformalTSError, ArithmeticError):
    """The synthetic process produced a non-positive conditional mean, which
    cannot serve as a noise scale."""


class ParseError(ConformalTSError, ValueError):
    """A CSV cell or config line could not be parsed.

    Carries 1-based ``row`` and ``col`` locations when they are known.
    """

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        loc = ""
        if row is not None:
            loc = f" (row {row}" + (f", col {col})" if col is not None else ")")
        super().__init__(message + loc)
        self.row = row
        self.col = col


class MissingValue(ParseError):
    """A required CSV cell is blank, or a long-layout time index is skipped."""


class EmptyFile(ConformalTSError, ValueError):
    """Input file contains no data rows."""


class ConfigError(ConformalTSError, ValueError):
    """Invalid experiment configuration; a rule on one setting adds its keyword to ``args``."""

    def __str__(self):
        return self.args[0]
