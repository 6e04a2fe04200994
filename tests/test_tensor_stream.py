from __future__ import annotations

import struct

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

    reader = PlaybackBackend(path)
    read_back_header = reader.header
    assert read_back_header == header
    read_frames = list(iter(reader.next_frame, None))
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
    reader = PlaybackBackend(path)
    restored = reader.header
    assert restored.frame_count == 0
    assert reader.next_frame() is None


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

    reader = iter(PlaybackBackend(path).next_frame, None)
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

    reader = iter(PlaybackBackend(path).next_frame, None)
    next(reader)
    with pytest.raises(StreamTruncatedError) as excinfo:
        next(reader)
    assert excinfo.value.frame_index == 1


def test_corrupted_stored_grid_shape_is_a_stream_format_error(tmp_path):
    header = small_header(1)
    path = tmp_path / "warped.yxt"
    write_tensor_stream(path, header, random_frames(header))
    raw = bytearray(path.read_bytes())
    # First frame meta u32 (grid_h of level 0) sits right after the index.
    struct.pack_into("<I", raw, HEADER_SIZE + 4, 99)
    path.write_bytes(bytes(raw))

    reader = iter(PlaybackBackend(path).next_frame, None)
    with pytest.raises(StreamFormatError, match="does not match header"):
        next(reader)


def test_payload_larger_than_the_file_is_truncation_not_an_allocation(tmp_path):
    # 200,000,000 classes on a 32x32 image: the first level alone declares a
    # 12.8 GB payload, in a file of 116 bytes.
    header = TensorStreamHeader(
        num_classes=200_000_000, image_width=32, image_height=32,
        strides=(8, 16, 32), frame_count=1,
    )
    raw = header.pack() + struct.pack("<4I", 0, 4, 4, header.channels) + bytes(64)
    assert len(raw) == 116
    path = tmp_path / "huge.yxt"
    path.write_bytes(raw)

    reader = iter(PlaybackBackend(path).next_frame, None)
    with pytest.raises(StreamTruncatedError, match="frame 0") as excinfo:
        next(reader)
    assert excinfo.value.frame_index == 0


def test_corrupted_frame_index_is_rejected(tmp_path):
    header = small_header(1)
    path = tmp_path / "misnumbered.yxt"
    write_tensor_stream(path, header, random_frames(header))
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, HEADER_SIZE, 7)
    path.write_bytes(bytes(raw))

    reader = iter(PlaybackBackend(path).next_frame, None)
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
        (dict(strides=(8, 16)), "exactly 3 strides"),
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
    frame = random_frames(small_header(1))[0]
    taller = TensorStreamHeader(
        num_classes=1, image_width=64, image_height=128,
        strides=(8, 16, 32), frame_count=1,
    )
    with pytest.raises(GeometryError, match="level 0"):
        SequenceBackend(taller, [frame])


def test_tensor_set_conformance_refuses_another_image_size():
    frame = random_frames(small_header(1))[0]
    wider = RawTensorSet(0, frame.outputs, 72, 64)  # the header's grids, another image size
    with pytest.raises(GeometryError, match="declares image 72x64, header says 64x64"):
        SequenceBackend(small_header(1), [wider])


def test_playback_iterates_all_frames_in_order(tmp_path):
    header = small_header(4)
    frames = random_frames(header)
    path = tmp_path / "play.yxt"
    write_tensor_stream(path, header, frames)

    backend = PlaybackBackend(path)
    assert backend.header == header
    assert "play.yxt" in backend.descriptor
    seen = list(iter(backend.next_frame, None))
    assert [f.frame_index for f in seen] == [0, 1, 2, 3]
    assert backend.next_frame() is None
    assert backend.next_frame() is None  # exhausted stays exhausted


def test_playback_loop_renumbers_frames(tmp_path):
    header = small_header(3)
    frames = random_frames(header)
    path = tmp_path / "loop.yxt"
    write_tensor_stream(path, header, frames)

    backend = PlaybackBackend(path, loop_count=2)
    seen = list(iter(backend.next_frame, None))
    assert [f.frame_index for f in seen] == [0, 1, 2, 3, 4, 5]
    for repeat, original in zip(seen[3:], frames):
        assert np.array_equal(repeat.outputs[1], original.outputs[1])


def test_playback_frames_are_writable_and_share_no_memory(tmp_path):
    header = small_header(2)
    frames = random_frames(header)
    path = tmp_path / "own.yxt"
    write_tensor_stream(path, header, frames)

    first, second, first_again, _ = iter(PlaybackBackend(path, loop_count=2).next_frame, None)
    for out in first.outputs:
        out[...] = np.nan
    for replayed, original in ((second, frames[1]), (first_again, frames[0])):
        for a, b in zip(replayed.outputs, original.outputs):
            assert np.array_equal(a, b)


def test_playback_rejects_bad_knobs(tmp_path):
    header = small_header(1)
    path = tmp_path / "knobs.yxt"
    write_tensor_stream(path, header, random_frames(header))
    with pytest.raises(ValueError, match="loop_count"):
        PlaybackBackend(path, loop_count=0)


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
    reader = PlaybackBackend(path)
    restored_header = reader.header
    restored = list(iter(reader.next_frame, None))
    assert restored_header == header
    assert len(restored) == frame_count
    for a, b in zip(frames, restored):
        assert all(np.array_equal(x, y) for x, y in zip(a.outputs, b.outputs))


u32s = st.one_of(
    st.sampled_from([0, 1, 2, 3, 8, 16, 32, 64, 200_000_000, 2**31, 2**32 - 1]),
    st.integers(min_value=0, max_value=2**32 - 1),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_damaged_stream_gives_frames_or_a_stream_format_error(tmp_path_factory, data):
    header = TensorStreamHeader(
        num_classes=data.draw(st.integers(1, 3)),
        image_width=32 * data.draw(st.integers(1, 2)),
        image_height=32,
        strides=(8, 16, 32),
        frame_count=data.draw(st.integers(0, 2)),
    )
    path = tmp_path_factory.mktemp("damaged") / "stream.yxt"
    write_tensor_stream(path, header, random_frames(header))
    raw = bytearray(path.read_bytes())
    overwrites = st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255))
    for offset, value in data.draw(st.lists(overwrites, max_size=4)):
        raw[offset] = value
    # Header fields after the magic: version, num_classes, width, height,
    # three strides, frame_count.
    for field_index in data.draw(st.lists(st.integers(1, 8), max_size=3)):
        struct.pack_into("<I", raw, 4 * field_index, data.draw(u32s))
    path.write_bytes(bytes(raw[: data.draw(st.integers(0, len(raw)))]))

    try:
        reader = PlaybackBackend(path)
        restored_header = reader.header
        restored = list(iter(reader.next_frame, None))
    except StreamFormatError:
        return
    assert len(restored) == restored_header.frame_count
