"""Exception hierarchy shared across the package."""


class PrunecastError(Exception):
    """Base class for all package errors."""


class ShapeError(PrunecastError):
    """Operand shapes are incompatible for the requested operation."""


class TapeError(PrunecastError):
    """Gradient-tape misuse: backward twice, non-scalar loss, detached node."""


class ParseError(PrunecastError):
    """Malformed input file; carries a line number when one is known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConfigError(PrunecastError):
    """Invalid configuration; message lists every violation found."""


class CheckpointError(PrunecastError):
    """Base class for checkpoint I/O failures."""


class CheckpointFormatError(CheckpointError):
    """File does not start with the checkpoint magic."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint magic found but written by an unsupported format version."""


class CheckpointTruncatedError(CheckpointError):
    """File ends before the declared payload/trailer."""


class CheckpointChecksumError(CheckpointError):
    """Trailing CRC32 does not match the file contents."""


class TrainingDivergedError(PrunecastError):
    """Loss became NaN/Inf during training; message carries diagnostics."""


class PruneDivergedError(PrunecastError):
    """A channel importance score became NaN/Inf during progressive pruning."""
