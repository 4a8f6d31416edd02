"""Exception hierarchy for the repro toolkit.

Every exception the public API raises deliberately derives from
:class:`ReproError`, so callers can catch toolkit failures without
swallowing programming errors.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "LocationError",
    "AllocationError",
    "CatalogError",
    "BackendError",
    "ParseError",
    "QuarantineOverflowError",
    "ColumnTypeError",
    "DatasetError",
    "FitError",
    "FaultError",
    "JournalError",
    "StreamError",
    "CheckpointError",
]


class ReproError(Exception):
    """Base class for all toolkit errors."""


class LocationError(ReproError):
    """An invalid BG/Q location code or component path."""


class AllocationError(ReproError):
    """A partition request the machine cannot satisfy."""


class CatalogError(ReproError):
    """An unknown RAS message ID or malformed catalog entry."""


class BackendError(ReproError):
    """An unknown trace backend name or a malformed backend definition."""


class ParseError(ReproError, ValueError):
    """A log line or file that does not match the expected schema.

    Also a :class:`ValueError`, so generic callers that treat malformed
    input as a value problem keep working.
    """


class QuarantineOverflowError(ParseError):
    """Lenient parsing quarantined more rows than ``max_bad_rows`` allows.

    Distinct from :class:`ParseError` so resilient loaders can degrade a
    structurally broken source yet still abort when the data is mostly
    garbage.
    """


class ColumnTypeError(ReproError, TypeError):
    """A column whose values cannot be serialized losslessly.

    Raised at *write* time — e.g. an object-dtype column holding
    non-string values headed for a columnar arena, which stores
    strings only (anything else would silently round-trip through
    ``str()``).  Also a :class:`TypeError`, because the problem is the
    value's type, not its content.
    """


class DatasetError(ReproError):
    """A cross-log inconsistency or missing dataset component."""


class FitError(ReproError):
    """A distribution fit that cannot be computed for the given sample."""


class FaultError(ReproError):
    """An invalid fault-injection plan (unknown fault, bad target)."""


class JournalError(ReproError):
    """A run journal that is missing, malformed, or does not match the
    dataset it is being resumed against."""


class StreamError(ReproError):
    """A streaming-ingestion failure the tailer cannot absorb.

    Transient I/O problems are retried and rotation/truncation are
    handled in-band; this class covers the rest — misconfiguration,
    an unreadable feed directory, or a pipeline invariant violation.
    """


class CheckpointError(StreamError):
    """A stream checkpoint that is missing, corrupt, or from a
    different feed/schema than the pipeline being resumed."""
