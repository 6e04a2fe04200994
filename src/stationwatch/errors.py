"""Exception types shared across the package.

Everything raised on purpose derives from StationError so callers (and the
CLI) can separate expected failures from genuine bugs. Domain errors on
plain numeric arguments use the stdlib ValueError instead.
"""

from __future__ import annotations


class StationError(Exception):
    """Base class for all stationwatch errors."""


class StreamFormatError(StationError):
    """Tensor stream file is malformed: bad magic, header, or frame layout."""


class UnsupportedVersionError(StreamFormatError):
    """Tensor stream declares a format version this reader does not know."""


class StreamTruncatedError(StreamFormatError):
    """Tensor stream ended mid-frame."""

    def __init__(self, frame_index: int, message: str):
        super().__init__(message)
        self.frame_index = frame_index


class GeometryError(StationError):
    """Tensor shapes disagree with the declared stream geometry."""


class DecodeError(StationError):
    """Head output holds values that cannot be decoded (non-finite cells or boxes)."""


class ScenarioError(StationError):
    """Scenario description is unusable: bad waypoints or out-of-frame boxes."""


class EncodingCollisionError(ScenarioError):
    """Two scenario objects landed on the same grid cell of the same level."""

    def __init__(self, frame_index: int, stride: int, cell: tuple[int, int], message: str):
        super().__init__(message)
        self.frame_index = frame_index
        self.stride = stride
        self.cell = cell


class ConfigError(StationError):
    """Pipeline configuration violates the schema or the zone rules."""


class FrameError(StationError):
    """A single frame could not be processed; the run may continue."""

    def __init__(self, frame_index: int, message: str):
        super().__init__(message)
        self.frame_index = frame_index


class SinkWriteError(StationError):
    """An output sink failed; carries the summary of work done so far."""

    def __init__(self, message: str, partial_summary):
        super().__init__(message)
        self.partial_summary = partial_summary


class AlignmentError(StationError):
    """Prediction and ground-truth streams do not cover the same frames."""


class InsufficientSamplesError(StationError):
    """Too few measured frames to compute latency statistics."""
