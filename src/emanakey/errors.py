"""Exception hierarchy shared across the package."""


class EmanakeyError(Exception):
    """Base class for all package errors."""


class UnknownKeyError(EmanakeyError):
    """Key label or index not in the 70-key target set."""


class MalformedStreamError(EmanakeyError):
    """Bit stream violates the stuffing invariant (run of seven ones)."""


class FramingError(EmanakeyError):
    """SE0 symbol encountered inside a packet payload."""


class SampleRateError(EmanakeyError):
    """Sample rate too low for the requested operation."""


class EmptySeriesError(EmanakeyError):
    """Edge extraction found no peaks at all."""


class DegenerateTraceError(EmanakeyError):
    """Trace has no usable amplitude (all zero)."""


class NoSignalError(EmanakeyError):
    """Too few peaks to attempt classification; not a low-confidence guess."""


class ConfigError(EmanakeyError):
    """Detector setting out of range for the references it runs against."""


class UnknownPresetError(EmanakeyError):
    """Channel preset name not found."""


class TraceIOError(EmanakeyError):
    """Base class for serialization errors."""


class FileFormatError(TraceIOError):
    """Magic number or structural layout is wrong."""


class FileVersionError(TraceIOError):
    """Recognized format but unsupported version."""


class TruncatedFileError(TraceIOError):
    """File ends before the declared payload does."""


class CsvParseError(TraceIOError):
    """Non-numeric row in a waveform CSV; carries the line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(message)
        self.line_number = line_number
