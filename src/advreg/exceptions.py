"""Error and warning types shared across the package."""


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class NotPositiveDefinite(ValueError):
    """Cholesky factorization hit a non-positive (or negligible) pivot."""


class SingularDesign(ValueError):
    """Design matrix has (numerically) dependent columns."""


class NoConvergence(RuntimeError):
    """An iterative kernel exhausted its iteration budget."""


class NonFinite(ArithmeticError):
    """A computation produced NaN or infinity."""


class ParseError(ValueError):
    """A CSV cell failed to parse as a finite real.

    Carries 1-based ``row`` (the file line its record starts on, header =
    line 1) and ``col``.
    """

    def __init__(self, row, col, message):
        super().__init__(f"row {row}, column {col}: {message}")
        self.row = row
        self.col = col


class MissingLabelColumn(ValueError):
    """Requested label column is not in the header."""


class EmptyFile(ValueError):
    """CSV file has no header or no data rows."""


class TooFewRows(ValueError):
    """A dataset or split ended up with too few rows to be usable."""


class MaskOutOfRange(IndexError):
    """A target mask references a row outside the label vector."""


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


# raised only by the tests' oracles; perfbench/run.py counts both on every run
class MaxItersExceeded(Warning):
    """Iterative solver stopped at its iteration cap; result is best iterate."""


class MaxSweepsExceeded(Warning):
    """Coordinate descent stopped at its sweep cap; result is best iterate."""
