"""Exception hierarchy shared across the package.

Every error carries a short machine-parsable ``code`` used by the CLI to emit
single-line diagnostics of the form ``ERROR <CODE>: message``.
"""


class TdtiError(Exception):
    code = "ERROR"


class UsageError(TdtiError):
    """API or CLI misuse (bad call order, unknown flag, bad argument)."""

    code = "USAGE"


class ConfigError(TdtiError):
    """Inconsistent or invalid configuration values."""

    code = "CONFIG"


class ShapeError(TdtiError):
    """Dimension mismatch between tensors/layers/embeddings."""

    code = "SHAPE"


class FormatError(TdtiError):
    """Malformed file content (bad magic, width mismatch, non-finite values)."""

    code = "FORMAT"


class MissingColumnError(FormatError):
    """A required column is absent from a tabular input."""

    code = "MISSING_COLUMN"


class DataError(TdtiError):
    """Semantically invalid data (empty classes, empty partitions, ...)."""

    code = "DATA"
