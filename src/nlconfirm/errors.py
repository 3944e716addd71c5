"""Exception hierarchy.

Three branches map onto the CLI exit codes: configuration problems (2),
data/format problems (3) and numerical failures (4).
"""


class DetectorError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(DetectorError):
    """Invalid configuration (unknown feature set, bad parameter value, ...)."""


class DataError(DetectorError):
    """Malformed or insufficient input data."""


class NumericalError(DetectorError):
    """A numerical procedure failed or was handed degenerate input."""


# --- corpus -----------------------------------------------------------------

class UnsupportedFormat(DataError):
    """Audio file is not mono 16-bit PCM WAV at the expected sample rate."""


class CorruptFile(DataError):
    """Audio file is truncated or structurally broken."""


class ParseError(DataError):
    """Manifest row could not be parsed."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class RangeError(DataError):
    """Segment bounds fall outside the audio they reference."""


class SegmentTooShort(DataError):
    """Segment shorter than the minimum required context."""


class NoConfirmations(DataError):
    """No speaker in the corpus has a confirmation segment."""


class SplitImpossible(DataError):
    """Cannot populate both sides of a speaker-disjoint split."""


# --- dsp --------------------------------------------------------------------

class LengthMismatch(DataError):
    """Two sequences that must have equal length do not."""


class DegenerateFrame(NumericalError):
    """Frame has no energy; analysis is undefined."""


class NumericalFailure(NumericalError):
    """Iterative numerical routine missed its residual tolerance."""


# --- learn ------------------------------------------------------------------

class TooFewSamples(DataError):
    """Not enough rows to estimate statistics."""


class DegenerateCovariance(NumericalError):
    """Covariance carries no variance at all."""


class SingleClass(DataError):
    """Training data contains only one class."""


class ConvergenceFailure(NumericalError):
    """Optimizer hit its iteration cap before reaching tolerance."""


class DimensionMismatch(DataError):
    """Vector dimension does not match the model."""


class VersionMismatch(DataError):
    """Model file has an unknown magic number or format version."""


class CorruptModel(DataError):
    """Model file is truncated or internally inconsistent."""


# --- eval -------------------------------------------------------------------

class MissingClass(DataError):
    """An evaluation input lacks one of the two classes."""
