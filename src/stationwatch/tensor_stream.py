"""Raw detector-output recording: file format and replay backends.

A stream file carries the per-stride head tensors for a sequence of frames
so the full monitoring pipeline can run against recorded or synthesized
detector output with no accelerator attached. The playback backend replays
such a file as if a runtime were producing tensors live; a real runtime
would implement the same port.

File layout, all integers little-endian u32, all floats little-endian f32:

    magic "YXT1" | version | num_classes | image_width | image_height
    | stride0 | stride1 | stride2 | frame_count
    then per frame:
    frame_index | 3 x (grid_h | grid_w | channels | grid_h*grid_w*channels floats)

Tensor payloads are channels-last (grid_h, grid_w, channels), row-major.
"""

from __future__ import annotations

import struct
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence

import numpy as np

from .errors import (
    GeometryError,
    StreamFormatError,
    StreamTruncatedError,
    UnsupportedVersionError,
)

MAGIC = b"YXT1"
STREAM_VERSION = 1

_HEADER = struct.Struct("<4s8I")
_U32 = struct.Struct("<I")
_FRAME_META = struct.Struct("<3I")


@dataclass(frozen=True)
class TensorStreamHeader:
    """Geometry contract every frame in a stream must satisfy."""

    num_classes: int
    image_width: int
    image_height: int
    strides: tuple[int, int, int]
    frame_count: int
    version: int = STREAM_VERSION

    def __post_init__(self):
        object.__setattr__(self, "strides", tuple(int(s) for s in self.strides))
        self.validate()

    def validate(self) -> None:
        if self.num_classes < 1:
            raise StreamFormatError(f"num_classes must be >= 1, got {self.num_classes}")
        if self.image_width < 1 or self.image_height < 1:
            raise StreamFormatError(
                f"image dimensions must be positive, got {self.image_width}x{self.image_height}"
            )
        if len(self.strides) != 3:
            raise StreamFormatError(f"expected exactly 3 strides, got {len(self.strides)}")
        if not (0 < self.strides[0] < self.strides[1] < self.strides[2]):
            raise StreamFormatError(f"strides must be strictly increasing, got {self.strides}")
        for s in self.strides:
            if self.image_width % s or self.image_height % s:
                raise StreamFormatError(
                    f"stride {s} does not divide image {self.image_width}x{self.image_height}"
                )
        if self.frame_count < 0:
            raise StreamFormatError(f"frame_count must be >= 0, got {self.frame_count}")

    @property
    def channels(self) -> int:
        # 4 box terms + objectness + one logit per class
        return 5 + self.num_classes

    def grid_shape(self, level: int) -> tuple[int, int]:
        s = self.strides[level]
        return self.image_height // s, self.image_width // s

    def pack(self) -> bytes:
        return _HEADER.pack(
            MAGIC,
            self.version,
            self.num_classes,
            self.image_width,
            self.image_height,
            *self.strides,
            self.frame_count,
        )


@dataclass(frozen=True)
class RawTensorSet:
    """One frame's worth of head output: one tensor per stride level."""

    frame_index: int
    outputs: tuple[np.ndarray, ...]
    image_width: int
    image_height: int

    def __post_init__(self):
        outputs = tuple(np.asarray(o, dtype=np.float32) for o in self.outputs)
        object.__setattr__(self, "outputs", outputs)
        if len(outputs) != 3:
            raise GeometryError(f"expected 3 output tensors, got {len(outputs)}")
        channels = {o.shape[2] if o.ndim == 3 else -1 for o in outputs}
        if len(channels) != 1 or -1 in channels:
            raise GeometryError(
                f"outputs must all be rank-3 with a shared channel count, got shapes "
                f"{[o.shape for o in outputs]}"
            )
        if outputs[0].shape[2] < 6:
            raise GeometryError(
                f"need at least 6 channels (4 box + objectness + 1 class), got {outputs[0].shape[2]}"
            )

    def conforms_to(self, header: TensorStreamHeader) -> None:
        """Raise GeometryError unless every tensor matches the header grids."""
        for level, out in enumerate(self.outputs):
            expected = header.grid_shape(level) + (header.channels,)
            if out.shape != expected:
                raise GeometryError(
                    f"frame {self.frame_index} level {level} (stride {header.strides[level]}): "
                    f"expected shape {expected}, got {out.shape}"
                )
        if (self.image_width, self.image_height) != (header.image_width, header.image_height):
            raise GeometryError(
                f"frame {self.frame_index} declares image "
                f"{self.image_width}x{self.image_height}, header says "
                f"{header.image_width}x{header.image_height}"
            )


def write_tensor_stream(
    path: str | Path, header: TensorStreamHeader, frames: Sequence[RawTensorSet]
) -> int:
    """Write a stream file and return the number of frames written.

    All frames are validated against the header before the first byte goes
    out, so a failed call never leaves a partial file behind.
    """
    frames = list(frames)
    if len(frames) != header.frame_count:
        raise StreamFormatError(
            f"header declares {header.frame_count} frames but {len(frames)} were supplied"
        )
    for position, frame in enumerate(frames):
        if frame.frame_index != position:
            raise StreamFormatError(
                f"frame at position {position} carries index {frame.frame_index}; "
                "stream frames must be indexed 0,1,2,..."
            )
        frame.conforms_to(header)

    with open(path, "wb") as fh:
        fh.write(header.pack())
        for frame in frames:
            fh.write(_U32.pack(frame.frame_index))
            for out in frame.outputs:
                grid_h, grid_w, channels = out.shape
                fh.write(_FRAME_META.pack(grid_h, grid_w, channels))
                fh.write(np.ascontiguousarray(out, dtype="<f4").tobytes())
    return len(frames)


def _read_exact(fh: BinaryIO, count: int, frame_index: int) -> bytes:
    buf = fh.read(count)
    if len(buf) != count:
        raise StreamTruncatedError(
            frame_index,
            f"stream truncated inside frame {frame_index}: wanted {count} bytes, got {len(buf)}",
        )
    return buf


def read_header(path: str | Path) -> TensorStreamHeader:
    """Parse and validate just the stream header."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
    if len(raw) < 4:
        raise StreamFormatError(f"file too short to hold a stream header ({len(raw)} bytes)")
    if raw[:4] != MAGIC:
        raise StreamFormatError(f"bad magic: expected {MAGIC!r}, found {raw[:4]!r}")
    if len(raw) < _HEADER.size:
        raise StreamFormatError(f"truncated header: {len(raw)} of {_HEADER.size} bytes present")
    _, version, num_classes, width, height, s0, s1, s2, frame_count = _HEADER.unpack(raw)
    if version != STREAM_VERSION:
        raise UnsupportedVersionError(
            f"stream version {version} not supported (reader handles {STREAM_VERSION})"
        )
    return TensorStreamHeader(
        num_classes=num_classes,
        image_width=width,
        image_height=height,
        strides=(s0, s1, s2),
        frame_count=frame_count,
        version=version,
    )


def read_tensor_stream(
    path: str | Path,
) -> tuple[TensorStreamHeader, Iterator[RawTensorSet]]:
    """Open a stream file; returns its header and a lazy frame iterator.

    The header is parsed and validated before any frame is touched. Frames
    are yielded in stored order; each one is checked against the header
    geometry as it is read.
    """
    header = read_header(path)

    def frames() -> Iterator[RawTensorSet]:
        with open(path, "rb") as fh:
            fh.seek(_HEADER.size)
            for expected_index in range(header.frame_count):
                (frame_index,) = _U32.unpack(_read_exact(fh, _U32.size, expected_index))
                if frame_index != expected_index:
                    raise StreamFormatError(
                        f"frame at position {expected_index} carries index {frame_index}"
                    )
                outputs = []
                for level in range(3):
                    meta = _read_exact(fh, _FRAME_META.size, expected_index)
                    grid_h, grid_w, channels = _FRAME_META.unpack(meta)
                    expected_shape = header.grid_shape(level) + (header.channels,)
                    if (grid_h, grid_w, channels) != expected_shape:
                        raise GeometryError(
                            f"frame {frame_index} level {level}: stored shape "
                            f"({grid_h}, {grid_w}, {channels}) does not match header "
                            f"{expected_shape}"
                        )
                    payload = _read_exact(fh, grid_h * grid_w * channels * 4, expected_index)
                    arr = np.frombuffer(payload, dtype="<f4").reshape(grid_h, grid_w, channels)
                    outputs.append(arr.copy())
                yield RawTensorSet(
                    frame_index=frame_index,
                    outputs=tuple(outputs),
                    image_width=header.image_width,
                    image_height=header.image_height,
                )

    return header, frames()


class InferenceBackend(ABC):
    """Port every tensor producer implements.

    next_frame() returns the next RawTensorSet or None at end of stream;
    end of stream is a normal outcome, not an error. Implementations must
    yield frames indexed 0,1,2,... matching their declared header.
    """

    descriptor: str = "backend"

    @property
    @abstractmethod
    def header(self) -> TensorStreamHeader: ...

    @abstractmethod
    def next_frame(self) -> RawTensorSet | None: ...

    def __iter__(self) -> Iterator[RawTensorSet]:
        while (frame := self.next_frame()) is not None:
            yield frame


class PlaybackBackend(InferenceBackend):
    """Replays a recorded stream file, optionally looped and paced.

    Looping renumbers frames so indices keep increasing: a 3-frame file
    played with loop_count=2 yields indices 0..5. Each instance opens its
    own handles, so distinct instances over one file may run in parallel.
    """

    def __init__(self, path: str | Path, loop_count: int = 1, simulated_delay_ms: float = 0.0):
        if loop_count < 1:
            raise ValueError(f"loop_count must be >= 1, got {loop_count}")
        if simulated_delay_ms < 0:
            raise ValueError(f"simulated_delay_ms must be >= 0, got {simulated_delay_ms}")
        self._path = Path(path)
        self._loop_count = loop_count
        self._delay_s = simulated_delay_ms / 1000.0
        self._header = read_header(self._path)
        self.descriptor = f"playback:{self._path.name}"
        self._frames = self._generate()

    @property
    def header(self) -> TensorStreamHeader:
        return self._header

    def _generate(self) -> Iterator[RawTensorSet]:
        per_loop = self._header.frame_count
        for loop in range(self._loop_count):
            _, frames = read_tensor_stream(self._path)
            for frame in frames:
                if self._delay_s > 0:
                    time.sleep(self._delay_s)
                if loop == 0:
                    yield frame
                else:
                    yield RawTensorSet(
                        frame_index=loop * per_loop + frame.frame_index,
                        outputs=frame.outputs,
                        image_width=frame.image_width,
                        image_height=frame.image_height,
                    )

    def next_frame(self) -> RawTensorSet | None:
        return next(self._frames, None)


class SequenceBackend(InferenceBackend):
    """Serves frames already held in memory; used by tests and the simulator."""

    def __init__(self, header: TensorStreamHeader, frames: Sequence[RawTensorSet],
                 descriptor: str = "sequence"):
        for position, frame in enumerate(frames):
            if frame.frame_index != position:
                raise StreamFormatError(
                    f"frame at position {position} carries index {frame.frame_index}"
                )
            frame.conforms_to(header)
        self._header = header
        self._frames = iter(list(frames))
        self.descriptor = descriptor

    @property
    def header(self) -> TensorStreamHeader:
        return self._header

    def next_frame(self) -> RawTensorSet | None:
        return next(self._frames, None)
