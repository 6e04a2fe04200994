from __future__ import annotations

import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stationwatch import (
    GeometryError,
    PlaybackBackend,
    RawTensorSet,
    SequenceBackend,
    StreamFormatError,
    StreamTruncatedError,
    TensorStreamHeader,
    UnsupportedVersionError,
    read_tensor_stream,
    write_tensor_stream,
)
from stationwatch.tensor_stream import MAGIC, STREAM_VERSION, read_header

HEADER_SIZE = struct.calcsize("<4s8I")


def small_header(frame_count: int, num_classes: int = 1) -> TensorStreamHeader:
    return TensorStreamHeader(
        num_classes=num_classes,
        image_width=64,
        image_height=64,
        strides=(8, 16, 32),
        frame_count=frame_count,
    )


def random_frames(header: TensorStreamHeader, seed: int = 7) -> list[RawTensorSet]:
    rng = np.random.default_rng(seed)
    frames = []
    for index in range(header.frame_count):
        outputs = tuple(
            rng.normal(size=header.grid_shape(level) + (header.channels,)).astype(np.float32)
            for level in range(3)
        )
        frames.append(
            RawTensorSet(index, outputs, header.image_width, header.image_height)
        )
    return frames


def frame_size_bytes(header: TensorStreamHeader) -> int:
    total = 4  # frame index
    for level in range(3):
        grid_h, grid_w = header.grid_shape(level)
        total += 12 + grid_h * grid_w * header.channels * 4
    return total


def test_round_trip_is_bitwise_exact(tmp_path):
    header = small_header(3, num_classes=4)
    frames = random_frames(header)
    path = tmp_path / "stream.yxt"

    written = write_tensor_stream(path, header, frames)
    assert written == 3

    read_back_header, reader = read_tensor_stream(path)
    assert read_back_header == header
    read_frames = list(reader)
    assert len(read_frames) == 3
    for original, restored in zip(frames, read_frames):
        assert restored.frame_index == original.frame_index
        assert restored.image_width == original.image_width
        assert restored.image_height == original.image_height
        for a, b in zip(original.outputs, restored.outputs):
            assert b.dtype == np.float32
            assert np.array_equal(a, b)


def test_header_is_36_bytes_and_starts_with_magic():
    header = small_header(0)
    packed = header.pack()
    assert len(packed) == HEADER_SIZE == 36
    assert packed[:4] == MAGIC


def test_empty_stream_round_trips(tmp_path):
    header = small_header(0)
    path = tmp_path / "empty.yxt"
    assert write_tensor_stream(path, header, []) == 0
    restored, reader = read_tensor_stream(path)
    assert restored.frame_count == 0
    assert list(reader) == []


def test_bad_magic_names_the_found_bytes(tmp_path):
    path = tmp_path / "bogus.yxt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(StreamFormatError, match="NOPE"):
        read_header(path)


def test_file_shorter_than_magic_is_rejected(tmp_path):
    path = tmp_path / "stub.yxt"
    path.write_bytes(b"YX")
    with pytest.raises(StreamFormatError, match="too short"):
        read_header(path)


def test_truncated_header_is_rejected(tmp_path):
    path = tmp_path / "half-header.yxt"
    path.write_bytes(small_header(0).pack()[:20])
    with pytest.raises(StreamFormatError, match="truncated header"):
        read_header(path)


def test_unsupported_version_is_named(tmp_path):
    header = small_header(0)
    raw = bytearray(header.pack())
    struct.pack_into("<I", raw, 4, STREAM_VERSION + 1)
    path = tmp_path / "future.yxt"
    path.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedVersionError, match=str(STREAM_VERSION + 1)):
        read_header(path)


def test_truncation_mid_frame_reports_the_frame_index(tmp_path):
    header = small_header(2)
    frames = random_frames(header)
    path = tmp_path / "cut.yxt"
    write_tensor_stream(path, header, frames)

    data = path.read_bytes()
    per_frame = frame_size_bytes(header)
    assert len(data) == HEADER_SIZE + 2 * per_frame
    path.write_bytes(data[: HEADER_SIZE + per_frame + 100])

    _, reader = read_tensor_stream(path)
    first = next(reader)
    assert np.array_equal(first.outputs[0], frames[0].outputs[0])
    with pytest.raises(StreamTruncatedError) as excinfo:
        next(reader)
    assert excinfo.value.frame_index == 1


def test_truncation_at_a_frame_boundary_still_reports_the_frame(tmp_path):
    header = small_header(2)
    path = tmp_path / "boundary.yxt"
    write_tensor_stream(path, header, random_frames(header))
    data = path.read_bytes()
    path.write_bytes(data[: HEADER_SIZE + frame_size_bytes(header)])

    _, reader = read_tensor_stream(path)
    next(reader)
    with pytest.raises(StreamTruncatedError) as excinfo:
        next(reader)
    assert excinfo.value.frame_index == 1


def test_corrupted_stored_grid_shape_is_a_geometry_error(tmp_path):
    header = small_header(1)
    path = tmp_path / "warped.yxt"
    write_tensor_stream(path, header, random_frames(header))
    raw = bytearray(path.read_bytes())
    # First frame meta u32 (grid_h of level 0) sits right after the index.
    struct.pack_into("<I", raw, HEADER_SIZE + 4, 99)
    path.write_bytes(bytes(raw))

    _, reader = read_tensor_stream(path)
    with pytest.raises(GeometryError, match="does not match header"):
        next(reader)


def test_corrupted_frame_index_is_rejected(tmp_path):
    header = small_header(1)
    path = tmp_path / "misnumbered.yxt"
    write_tensor_stream(path, header, random_frames(header))
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, HEADER_SIZE, 7)
    path.write_bytes(bytes(raw))

    _, reader = read_tensor_stream(path)
    with pytest.raises(StreamFormatError, match="carries index 7"):
        next(reader)


def test_write_rejects_frame_count_mismatch_without_creating_the_file(tmp_path):
    header = small_header(2)
    frames = random_frames(small_header(1))
    path = tmp_path / "never.yxt"
    with pytest.raises(StreamFormatError, match="declares 2 frames"):
        write_tensor_stream(path, header, frames)
    assert not path.exists()


def test_write_rejects_nonsequential_indices_without_creating_the_file(tmp_path):
    header = small_header(2)
    frames = random_frames(header)
    skewed = [frames[0], RawTensorSet(5, frames[1].outputs, 64, 64)]
    path = tmp_path / "never.yxt"
    with pytest.raises(StreamFormatError, match="position 1 carries index 5"):
        write_tensor_stream(path, header, skewed)
    assert not path.exists()


def test_write_rejects_nonconforming_frames_without_creating_the_file(tmp_path):
    header = small_header(1, num_classes=2)
    wrong = random_frames(small_header(1, num_classes=1))
    path = tmp_path / "never.yxt"
    with pytest.raises(GeometryError):
        write_tensor_stream(path, header, wrong)
    assert not path.exists()


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(num_classes=0), "num_classes"),
        (dict(image_width=0), "dimensions"),
        (dict(strides=(16, 8, 32)), "strictly increasing"),
        (dict(strides=(8, 16, 48)), "does not divide"),
        (dict(frame_count=-1), "frame_count"),
    ],
)
def test_header_validation_rejects_bad_fields(kwargs, message):
    base = dict(num_classes=1, image_width=64, image_height=64,
                strides=(8, 16, 32), frame_count=0)
    base.update(kwargs)
    with pytest.raises(StreamFormatError, match=message):
        TensorStreamHeader(**base)


def test_tensor_set_needs_three_rank3_outputs_with_shared_channels():
    good = np.zeros((8, 8, 6), dtype=np.float32)
    with pytest.raises(GeometryError, match="expected 3"):
        RawTensorSet(0, (good, good), 64, 64)
    with pytest.raises(GeometryError, match="shared channel"):
        RawTensorSet(0, (good, good, np.zeros((4, 4, 7), dtype=np.float32)), 64, 64)
    with pytest.raises(GeometryError, match="at least 6"):
        RawTensorSet(0, tuple(np.zeros((4, 4, 5), dtype=np.float32) for _ in range(3)), 64, 64)


def test_tensor_set_conformance_names_the_offending_level():
    header = small_header(1)
    frame = random_frames(small_header(1))[0]
    taller = TensorStreamHeader(
        num_classes=1, image_width=64, image_height=128,
        strides=(8, 16, 32), frame_count=1,
    )
    with pytest.raises(GeometryError, match="level 0"):
        frame.conforms_to(taller)


def test_playback_iterates_all_frames_in_order(tmp_path):
    header = small_header(4)
    frames = random_frames(header)
    path = tmp_path / "play.yxt"
    write_tensor_stream(path, header, frames)

    backend = PlaybackBackend(path)
    assert backend.header == header
    assert "play.yxt" in backend.descriptor
    seen = list(backend)
    assert [f.frame_index for f in seen] == [0, 1, 2, 3]
    assert backend.next_frame() is None
    assert backend.next_frame() is None  # exhausted stays exhausted


def test_playback_loop_renumbers_frames(tmp_path):
    header = small_header(3)
    frames = random_frames(header)
    path = tmp_path / "loop.yxt"
    write_tensor_stream(path, header, frames)

    backend = PlaybackBackend(path, loop_count=2)
    seen = list(backend)
    assert [f.frame_index for f in seen] == [0, 1, 2, 3, 4, 5]
    for repeat, original in zip(seen[3:], frames):
        assert np.array_equal(repeat.outputs[1], original.outputs[1])


def test_playback_simulated_delay_paces_frames(tmp_path):
    header = small_header(3)
    path = tmp_path / "paced.yxt"
    write_tensor_stream(path, header, random_frames(header))

    backend = PlaybackBackend(path, simulated_delay_ms=20.0)
    start = time.perf_counter()
    assert len(list(backend)) == 3
    elapsed = time.perf_counter() - start
    assert elapsed >= 0.055  # 3 frames x 20 ms, minus scheduler slack


def test_playback_rejects_bad_knobs(tmp_path):
    header = small_header(1)
    path = tmp_path / "knobs.yxt"
    write_tensor_stream(path, header, random_frames(header))
    with pytest.raises(ValueError, match="loop_count"):
        PlaybackBackend(path, loop_count=0)
    with pytest.raises(ValueError, match="simulated_delay_ms"):
        PlaybackBackend(path, simulated_delay_ms=-1.0)


def test_two_playback_instances_do_not_interfere(tmp_path):
    header = small_header(2)
    path = tmp_path / "shared.yxt"
    write_tensor_stream(path, header, random_frames(header))

    first = PlaybackBackend(path)
    second = PlaybackBackend(path)
    assert first.next_frame().frame_index == 0
    assert second.next_frame().frame_index == 0
    assert first.next_frame().frame_index == 1


def test_sequence_backend_enforces_sequential_indices():
    header = small_header(2)
    frames = random_frames(header)
    SequenceBackend(header, frames)  # well-formed is fine
    bad = [frames[0], RawTensorSet(3, frames[1].outputs, 64, 64)]
    with pytest.raises(StreamFormatError, match="position 1 carries index 3"):
        SequenceBackend(header, bad)


@settings(max_examples=25, deadline=None)
@given(
    num_classes=st.integers(min_value=1, max_value=8),
    width_cells=st.integers(min_value=1, max_value=4),
    height_cells=st.integers(min_value=1, max_value=4),
    frame_count=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_round_trip_property_over_random_geometries(
    tmp_path_factory, num_classes, width_cells, height_cells, frame_count, seed
):
    header = TensorStreamHeader(
        num_classes=num_classes,
        image_width=32 * width_cells,
        image_height=32 * height_cells,
        strides=(8, 16, 32),
        frame_count=frame_count,
    )
    frames = random_frames(header, seed=seed)
    path = tmp_path_factory.mktemp("prop") / "stream.yxt"
    write_tensor_stream(path, header, frames)
    restored_header, reader = read_tensor_stream(path)
    restored = list(reader)
    assert restored_header == header
    assert len(restored) == frame_count
    for a, b in zip(frames, restored):
        assert all(np.array_equal(x, y) for x, y in zip(a.outputs, b.outputs))
