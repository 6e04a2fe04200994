from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stationwatch import (
    BoundingBox,
    DecodeConfig,
    DecodeError,
    Detections,
    GeometryError,
    RawTensorSet,
    decode_all,
    iou_matrix,
    nms,
)
from stationwatch.postprocess import (
    _NMS_BLOCK,
    _NMS_CHUNK,
    _candidate_pairs,
    _objectness_cutoff,
    _sigmoid,
    box_from_json,
    detections_from_record,
    detections_to_record,
    round6,
)

from reference import (
    Det,
    box_area,
    box_center,
    brute_force_nms,
    cell_sigmoid,
    from_batch,
    per_cell_decode_all,
    row_by_row_nms,
    scalar_iou,
    to_batch,
)


def blank_grid(grid_h: int, grid_w: int, channels: int = 6) -> np.ndarray:
    grid = np.zeros((grid_h, grid_w, channels), dtype=np.float32)
    grid[..., 4:] = -20.0
    return grid


def sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def one_live_level(grid: np.ndarray, stride: int, conf_threshold: float):
    """A frame whose finest level, at `stride`, is `grid`, and its config.

    The two coarser levels, at 2 and 4 times the stride, are blank, so the
    grid's sides must be multiples of 4.
    """
    grid_h, grid_w, channels = grid.shape
    coarser = (blank_grid(grid_h // 2, grid_w // 2, channels),
               blank_grid(grid_h // 4, grid_w // 4, channels))
    frame = RawTensorSet(0, (grid, *coarser), grid_w * stride, grid_h * stride)
    config = DecodeConfig(strides=(stride, 2 * stride, 4 * stride), conf_threshold=conf_threshold)
    return frame, config


# --- decode_all on one live level ---------------------------------------------

def test_decode_origin_cell_with_saturated_logits():
    grid = blank_grid(4, 4)
    grid[0, 0] = [0.0, 0.0, 0.0, 0.0, 20.0, 20.0]
    dets = from_batch(decode_all(*one_live_level(grid, 8, 0.3)))

    assert len(dets) == 1
    det = dets[0]
    # center (0,0), size exp(0)*8 = 8: the box straddles the origin and is
    # clipped to the image.
    assert (det.box.x1, det.box.y1, det.box.x2, det.box.y2) == (0.0, 0.0, 4.0, 4.0)
    assert det.class_id == 0
    assert det.score == pytest.approx(1.0, abs=1e-8)


def test_decode_matches_scalar_arithmetic():
    grid = blank_grid(8, 8)
    gy, gx = 2, 3
    grid[gy, gx] = [0.5, 0.5, math.log(2.0), math.log(2.0), 0.0, 0.0]
    dets = from_batch(decode_all(*one_live_level(grid, 16, 0.2)))

    assert len(dets) == 1
    det = dets[0]
    cx = (gx + 0.5) * 16  # 56
    cy = (gy + 0.5) * 16  # 40
    size = 2.0 * 16       # 32
    assert box_center(det.box) == (cx, cy)
    assert det.box.x2 - det.box.x1 == pytest.approx(size, rel=1e-7)
    assert det.box.y2 - det.box.y1 == pytest.approx(size, rel=1e-7)
    assert det.score == pytest.approx(sigmoid(0.0) * sigmoid(0.0))  # 0.25


def test_confidence_threshold_is_inclusive():
    # All-zero logits score exactly sigmoid(0)^2 = 0.25 in every live cell.
    grid = np.zeros((4, 4, 6), dtype=np.float32)
    assert from_batch(decode_all(*one_live_level(grid, 8, 0.3))) == []
    kept = from_batch(decode_all(*one_live_level(grid, 8, 0.25)))
    assert len(kept) == 16
    assert all(d.score == 0.25 for d in kept)


def test_decode_output_is_row_major_over_cells():
    grid = blank_grid(4, 4)
    strong = [0.5, 0.5, 0.0, 0.0, 20.0, 20.0]
    grid[1, 0] = strong
    grid[0, 2] = strong
    grid[1, 2] = strong
    dets = from_batch(decode_all(*one_live_level(grid, 8, 0.3)))
    centers = [box_center(d.box) for d in dets]
    # (gy, gx) order: (0,2), (1,0), (1,2)
    assert centers == [(20.0, 4.0), (4.0, 12.0), (20.0, 12.0)]


def test_class_argmax_breaks_ties_toward_the_lowest_id():
    grid = blank_grid(4, 4, channels=8)
    grid[0, 0] = [0.0, 0.0, 0.0, 0.0, 20.0, 3.0, 5.0, 5.0]
    dets = from_batch(decode_all(*one_live_level(grid, 8, 0.1)))
    assert len(dets) == 1
    assert dets[0].class_id == 1  # classes 1 and 2 tie at logit 5


def test_non_finite_cell_is_reported_with_its_coordinates():
    grid = blank_grid(4, 4)
    grid[1, 2, 3] = np.nan
    with pytest.raises(DecodeError, match=r"\(gx=2, gy=1\), channel 3"):
        decode_all(*one_live_level(grid, 8, 0.3))
    grid = blank_grid(4, 4)
    grid[3, 0, 4] = np.inf
    with pytest.raises(DecodeError, match=r"\(gx=0, gy=3\), channel 4"):
        decode_all(*one_live_level(grid, 8, 0.3))


def test_decode_is_deterministic():
    rng = np.random.default_rng(11)
    grid = rng.normal(size=(8, 8, 7)).astype(np.float32)
    frame, config = one_live_level(grid, 8, 0.1)
    assert from_batch(decode_all(frame, config)) == from_batch(decode_all(frame, config))


def test_raising_the_threshold_keeps_a_subsequence():
    rng = np.random.default_rng(23)
    for _ in range(20):
        grid = rng.normal(scale=2.0, size=(8, 8, 8)).astype(np.float32)
        loose = from_batch(decode_all(*one_live_level(grid, 8, 0.05)))
        tight = from_batch(decode_all(*one_live_level(grid, 8, 0.4)))
        it = iter(loose)
        assert all(det in it for det in tight)  # order-preserving subset


def test_live_cell_whose_size_overflows_is_a_decode_error():
    grid = blank_grid(4, 4)
    grid[2, 3] = [0.0, 0.0, 1000.0, 0.0, 20.0, 20.0]
    with pytest.raises(DecodeError, match=r"box at cell \(gx=3, gy=2\) overflows"):
        decode_all(*one_live_level(grid, 8, 0.3))
    # exp(708) is finite, but times the stride it is not.
    grid[2, 3, 2] = 0.0
    grid[2, 3, 3] = 708.0
    with pytest.raises(DecodeError, match=r"\(gx=3, gy=2\)"):
        decode_all(*one_live_level(grid, 8, 0.3))


def test_size_terms_of_cells_below_the_threshold_are_never_evaluated():
    grid = blank_grid(4, 4)
    grid[2, 3] = [0.0, 0.0, 1000.0, 1000.0, -20.0, 20.0]
    assert len(decode_all(*one_live_level(grid, 8, 0.3))) == 0


# --- batch decode against the per-cell decode ---------------------------------

def assert_same_detections(got, want):
    """Equal field by field, and printed the same in a record."""
    assert got == want
    assert detections_to_record(0, to_batch(got)) == detections_to_record(
        0, to_batch(want)
    )


conf_thresholds = st.one_of(
    st.sampled_from([0.0, 1.0, 0.25, 0.3, 0.5]),
    st.floats(min_value=0.0, max_value=1.0),
)
logits = st.floats(min_value=-40.0, max_value=40.0, width=32)


@st.composite
def head_grids(draw, conf_threshold, grid_h, grid_w, channels):
    """A float32 head tensor, some objectness logits right at the cut-off."""
    values = draw(st.lists(logits, min_size=grid_h * grid_w * channels,
                           max_size=grid_h * grid_w * channels))
    grid = np.array(values, dtype=np.float32).reshape(grid_h, grid_w, channels)
    if 0.0 < conf_threshold < 1.0:
        edge = np.float32(math.log(conf_threshold) - math.log1p(-conf_threshold))
        for gy, gx in draw(st.lists(st.tuples(st.integers(0, grid_h - 1),
                                              st.integers(0, grid_w - 1)), max_size=4)):
            steps = draw(st.integers(min_value=-2, max_value=2))
            grid[gy, gx, 4] = edge + steps * np.spacing(edge)
            grid[gy, gx, 5:] = draw(st.sampled_from([40.0, 30.0]))
    return grid


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    conf_threshold=conf_thresholds,
    strides=st.sampled_from([(8, 16, 32), (1, 2, 4), (2, 3, 6)]),
    sides=st.sampled_from([(1, 1), (1, 2), (2, 1)]),
)
def test_batch_decode_all_equals_the_per_cell_decode(data, conf_threshold, strides, sides):
    # Each image side is 1 or 2 coarsest strides, so images are square or
    # not. Box terms are either logits of up to +-40 or offsets and sizes
    # that push boxes just past every image edge, so clipping is exercised.
    offsets = st.floats(min_value=-4.0, max_value=4.0, width=32)
    wide_box_terms = data.draw(st.booleans())
    channels = data.draw(st.integers(6, 9))
    height, width = (n * strides[2] for n in sides)
    outputs = []
    for stride in strides:
        grid_h, grid_w = height // stride, width // stride
        grid = data.draw(head_grids(conf_threshold, grid_h, grid_w, channels))
        if not wide_box_terms:
            size = grid_h * grid_w * 4
            grid[..., :4] = np.array(
                data.draw(st.lists(offsets, min_size=size, max_size=size)), dtype=np.float32
            ).reshape(grid_h, grid_w, 4)
        outputs.append(grid)
    frame = RawTensorSet(5, tuple(outputs), width, height)
    config = DecodeConfig(strides=strides, conf_threshold=conf_threshold)
    assert_same_detections(
        from_batch(decode_all(frame, config)), per_cell_decode_all(frame, config)
    )


def test_sigmoid_equals_the_two_branch_sigmoid_bit_for_bit():
    # Random bit patterns (a NaN made 0: decode refuses a non-finite cell
    # first) plus zeros, subnormals, the exp underflow edge, the float64
    # extremes and the infinities.
    x = np.random.default_rng(0).integers(0, 2**64, 400_000, dtype=np.uint64).view(np.float64)
    x[np.isnan(x)] = 0.0
    edges = [0.0, 5e-324, 2.2e-308, 36.7, 709.8, 745.0, 746.0, 1.8e308, math.inf]
    x = np.concatenate([x, edges, np.negative(edges)]).reshape(2, -1)
    with np.errstate(over="ignore"):  # the reference's exp(x) for x past ~709.8
        expected = cell_sigmoid(x)
    assert np.array_equal(_sigmoid(x).view(np.uint64), expected.view(np.uint64))


def test_objectness_cutoff_at_the_ends_of_the_threshold_range():
    assert _objectness_cutoff(0.0) == -math.inf
    # At 1.0 only a saturated sigmoid passes; a float64 sigmoid reaches 1.0
    # from a logit of about 36.7, so the cut-off must stay finite below it.
    cutoff = _objectness_cutoff(1.0)
    assert 30.0 < cutoff < 36.0
    assert cell_sigmoid(np.array([cutoff]))[0] < 1.0


def test_threshold_zero_keeps_every_cell_and_one_keeps_saturated_cells():
    grid = blank_grid(4, 4)
    grid[..., 4] = -40.0
    grid[1, 2] = [0.25, 0.5, 0.0, 0.0, 40.0, 40.0]
    every_cell = from_batch(decode_all(*one_live_level(grid, 8, 0.0)))
    assert_same_detections(every_cell, per_cell_decode_all(*one_live_level(grid, 8, 0.0)))
    assert len(every_cell) == 16 + 4 + 1  # the live level and both blank ones
    saturated = from_batch(decode_all(*one_live_level(grid, 8, 1.0)))
    assert_same_detections(saturated, per_cell_decode_all(*one_live_level(grid, 8, 1.0)))
    assert [d.score for d in saturated] == [1.0]


# --- decode_all -------------------------------------------------------------

def frame_with_levels(width: int = 64, height: int = 64, channels: int = 6) -> list[np.ndarray]:
    return [blank_grid(height // s, width // s, channels) for s in (8, 16, 32)]


def test_decode_all_concatenates_levels_in_stride_order():
    outputs = frame_with_levels()
    outputs[0][0, 0] = [0.0, 0.0, 0.0, 0.0, 20.0, 20.0]
    outputs[2][1, 1] = [0.5, 0.5, 0.0, 0.0, 20.0, 20.0]
    frame = RawTensorSet(0, tuple(outputs), 64, 64)
    dets = from_batch(decode_all(frame, DecodeConfig()))
    assert len(dets) == 2
    # stride-8 hit first, then the stride-32 one at center (48, 48).
    assert box_center(dets[1].box) == (48.0, 48.0)


def test_decode_all_clips_boxes_to_the_image():
    outputs = frame_with_levels()
    outputs[0][0, 0] = [0.0, 0.0, 0.0, 0.0, 20.0, 20.0]
    frame = RawTensorSet(0, tuple(outputs), 64, 64)
    det = from_batch(decode_all(frame, DecodeConfig()))[0]
    assert (det.box.x1, det.box.y1) == (0.0, 0.0)  # raw corner was (-4, -4)
    assert (det.box.x2, det.box.y2) == (4.0, 4.0)


def test_decode_all_rejects_grid_stride_mismatch():
    outputs = frame_with_levels()
    outputs[1] = blank_grid(3, 4)  # stride 16 over 64x64 must be 4x4
    frame = RawTensorSet(0, tuple(outputs), 64, 64)
    with pytest.raises(GeometryError, match="level 1"):
        decode_all(frame, DecodeConfig())


def test_decode_all_prefixes_errors_with_frame_and_level():
    outputs = frame_with_levels()
    outputs[1][0, 0, 2] = np.nan
    frame = RawTensorSet(3, tuple(outputs), 64, 64)
    with pytest.raises(DecodeError, match="frame 3, level 1"):
        decode_all(frame, DecodeConfig())


def test_decode_all_names_the_level_of_an_overflowing_box():
    outputs = frame_with_levels()
    outputs[0][0, 0] = [0.0, 0.0, 0.0, 0.0, 20.0, 20.0]
    outputs[2][1, 1] = [0.0, 0.0, 1000.0, 0.0, 20.0, 20.0]
    frame = RawTensorSet(3, tuple(outputs), 64, 64)
    with pytest.raises(DecodeError) as excinfo:
        decode_all(frame, DecodeConfig())
    assert str(excinfo.value) == (
        "frame 3, level 2: box at cell (gx=1, gy=1) overflows: "
        "(tx, ty, tw, th) = (0.0, 0.0, 1000.0, 0.0)"
    )


# A 128x64 image at strides (8, 16, 32): grids of 16x8, 8x4 and 4x2 cells,
# each wider than high and at least two rows deep.
WIDE_W, WIDE_H = 128, 64


def test_decode_all_addresses_cells_by_flat_index_on_a_non_square_frame():
    # Live on every level: flat index 0, w - 1, w and the last cell, each
    # with its own offsets, sizes and class logits, so a cell read from the
    # wrong row, column or level decodes to another box.
    rng = np.random.default_rng(6432)
    outputs = frame_with_levels(WIDE_W, WIDE_H, channels=8)
    for grid in outputs:
        grid_h, grid_w = grid.shape[:2]
        for index in (0, grid_w - 1, grid_w, grid_h * grid_w - 1):
            cell = grid.reshape(-1, 8)[index]
            cell[:4] = rng.uniform(-0.5, 1.5, 4)
            cell[4] = 20.0
            cell[5:] = rng.uniform(0.0, 6.0, 3)
    frame = RawTensorSet(2, tuple(outputs), WIDE_W, WIDE_H)
    decoded = decode_all(frame, DecodeConfig())
    assert len(decoded) == 12
    assert_same_detections(from_batch(decoded), per_cell_decode_all(frame, DecodeConfig()))


@pytest.mark.parametrize("live", [(), ((2, 0, 3), (2, 1, 0))], ids=["all_dead", "coarsest_only"])
def test_decode_all_gives_typed_arrays_for_any_number_of_rows(live):
    outputs = frame_with_levels(WIDE_W, WIDE_H)
    for level, gy, gx in live:
        outputs[level][gy, gx] = [0.5, 0.5, 0.0, 0.0, 20.0, 20.0]
    frame = RawTensorSet(0, tuple(outputs), WIDE_W, WIDE_H)
    decoded = decode_all(frame, DecodeConfig())
    assert decoded.boxes.shape == (len(live), 4) and decoded.boxes.dtype == np.float64
    assert decoded.scores.shape == (len(live),) and decoded.scores.dtype == np.float64
    assert decoded.class_ids.shape == (len(live),) and decoded.class_ids.dtype == np.int64
    assert_same_detections(from_batch(decoded), per_cell_decode_all(frame, DecodeConfig()))


def test_an_overflow_after_rows_of_finer_levels_names_its_own_level_and_cell():
    outputs = frame_with_levels(WIDE_W, WIDE_H)
    for gy, gx in ((0, 0), (3, 9), (7, 15)):
        outputs[0][gy, gx] = [0.5, 0.5, 0.0, 0.0, 20.0, 20.0]
    outputs[1][2, 5] = [0.5, 0.5, 0.0, 0.0, 20.0, 20.0]
    outputs[2][0, 2] = [0.5, 0.5, 1.0, 1.0, 20.0, 20.0]
    outputs[2][1, 3] = [0.25, 0.5, 0.0, 800.0, 20.0, 20.0]
    frame = RawTensorSet(6, tuple(outputs), WIDE_W, WIDE_H)
    with pytest.raises(DecodeError) as excinfo:
        decode_all(frame, DecodeConfig())
    assert str(excinfo.value) == (
        "frame 6, level 2: box at cell (gx=3, gy=1) overflows: "
        "(tx, ty, tw, th) = (0.25, 0.5, 0.0, 800.0)"
    )


def test_a_non_finite_last_channel_of_the_last_cell_is_named():
    outputs = frame_with_levels(WIDE_W, WIDE_H, channels=8)
    outputs[0][0, 0] = [0.5, 0.5, 0.0, 0.0, 20.0, 20.0, 0.0, 0.0]
    outputs[1][-1, -1, -1] = np.nan
    frame = RawTensorSet(4, tuple(outputs), WIDE_W, WIDE_H)
    with pytest.raises(DecodeError) as excinfo:
        decode_all(frame, DecodeConfig())
    assert str(excinfo.value) == "frame 4, level 1: non-finite value at cell (gx=7, gy=3), channel 7"


# --- IoU --------------------------------------------------------------------

def rows(*boxes: BoundingBox) -> np.ndarray:
    return np.array(boxes, dtype=np.float64).reshape(-1, 4)


def test_iou_known_values():
    a = BoundingBox(0, 0, 2, 2)
    others = rows(
        a,
        BoundingBox(5, 5, 7, 7),
        BoundingBox(2, 0, 4, 2),  # touching edges, zero area
        BoundingBox(1, 1, 3, 3),
    )
    assert iou_matrix(rows(a), others).tolist() == [[1.0, 0.0, 0.0, 1.0 / 7.0]]
    assert iou_matrix(rows(), others).shape == (0, 4)
    assert iou_matrix(others, rows()).shape == (4, 0)


def test_iou_of_degenerate_boxes_is_zero():
    point = rows(BoundingBox(1, 1, 1, 1))
    assert iou_matrix(point, point).tolist() == [[0.0]]


coordinate = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def boxes(draw):
    xs = sorted((draw(coordinate), draw(coordinate)))
    ys = sorted((draw(coordinate), draw(coordinate)))
    return BoundingBox(xs[0], ys[0], xs[1], ys[1])


@settings(max_examples=200)
@given(a=st.lists(boxes(), max_size=4), b=st.lists(boxes(), max_size=4))
def test_iou_is_symmetric_and_bounded(a, b):
    forward = iou_matrix(rows(*a), rows(*b))
    assert np.array_equal(forward, iou_matrix(rows(*b), rows(*a)).T)
    assert ((0.0 <= forward) & (forward <= 1.0)).all()
    # Entry (i, j) is the scalar IoU of a[i] and b[j], to the last bit.
    assert forward.tolist() == [[scalar_iou(x, y) for y in b] for x in a]


@settings(max_examples=100)
@given(a=boxes())
def test_iou_of_a_box_with_itself_is_one_or_zero(a):
    value = iou_matrix(rows(a), rows(a))[0, 0]
    assert value == (1.0 if box_area(a) > 0 else 0.0)


# --- NMS --------------------------------------------------------------------

def test_nms_suppresses_within_a_class_only():
    a = Det(BoundingBox(0, 0, 10, 10), 0.9, 0)
    b = Det(BoundingBox(1, 1, 11, 11), 0.8, 0)   # IoU with a ~ 0.68
    c = Det(BoundingBox(1, 1, 11, 11), 0.8, 1)   # same box, other class
    assert from_batch(nms(to_batch([a, b, c]), 0.45)) == [a, c]


def test_nms_keeps_overlap_exactly_at_the_threshold():
    # IoU of these two is exactly 0.5: inter 2, union 4.
    a = Det(BoundingBox(0, 0, 3, 1), 0.9, 0)
    b = Det(BoundingBox(1, 0, 4, 1), 0.8, 0)
    assert scalar_iou(a.box, b.box) == 0.5
    assert from_batch(nms(to_batch([a, b]), 0.5)) == [a, b]  # strictly-greater rule
    assert from_batch(nms(to_batch([a, b]), 0.49)) == [a]


def test_nms_tie_breaks_by_class_then_input_position():
    box = BoundingBox(0, 0, 10, 10)
    first = Det(box, 0.8, 0)
    second = Det(box, 0.8, 0)
    assert from_batch(nms(to_batch([first, second]), 0.45)) == [first]

    lower_class = Det(BoundingBox(50, 50, 60, 60), 0.8, 1)
    higher_class = Det(BoundingBox(50, 50, 60, 60), 0.8, 2)
    kept = from_batch(nms(to_batch([higher_class, lower_class]), 0.45))
    assert kept == [lower_class, higher_class]  # class 1 visited first


def test_nms_empty_input_and_threshold_validation():
    assert from_batch(nms(to_batch([]), 0.45)) == []
    with pytest.raises(ValueError, match="iou_threshold"):
        nms(to_batch([]), 1.5)


det_strategy = st.builds(
    Det,
    box=st.builds(
        lambda x, y, w, h: BoundingBox(x, y, x + w, y + h),
        st.floats(0, 40), st.floats(0, 40),
        st.floats(0.5, 20), st.floats(0.5, 20),
    ),
    score=st.floats(min_value=0.01, max_value=1.0),
    class_id=st.integers(min_value=0, max_value=2),
)


@settings(max_examples=150, deadline=None)
@given(dets=st.lists(det_strategy, max_size=12), threshold=st.sampled_from([0.3, 0.45, 0.6]))
def test_nms_properties(dets, threshold):
    kept = from_batch(nms(to_batch(dets), threshold))
    assert kept == brute_force_nms(dets, threshold)
    # Soundness: no kept same-class pair overlaps beyond the threshold.
    for i, a in enumerate(kept):
        for b in kept[i + 1:]:
            if a.class_id == b.class_id:
                assert scalar_iou(a.box, b.box) <= threshold
    # Completeness: every input is kept or blamed on a kept same-class box.
    for det in dets:
        if det not in kept:
            assert any(
                k.class_id == det.class_id and scalar_iou(k.box, det.box) > threshold
                for k in kept
            )


# Boxes on a small integer grid: duplicates, zero-area boxes and IoUs of
# exactly 1/3, 1/2 and 1 come up often, and so do tied scores.
grid_boxes = st.builds(
    lambda x, y, w, h: BoundingBox(x, y, x + w, y + h),
    st.integers(0, 6), st.integers(0, 6), st.integers(0, 4), st.integers(0, 4),
)


@st.composite
def tied_detections(draw):
    classes = draw(st.integers(min_value=1, max_value=3))
    return draw(st.lists(
        st.builds(
            Det,
            box=grid_boxes,
            score=st.sampled_from([0.25, 0.5, 0.75, 1.0]),
            class_id=st.integers(min_value=0, max_value=classes - 1),
        ),
        max_size=16,
    ))


@settings(max_examples=400, deadline=None)
@given(dets=tied_detections(), threshold=st.sampled_from([0.0, 1 / 3, 0.45, 0.5, 1.0]))
@example(
    dets=[Det(BoundingBox(0, 0, 3, 1), 0.5, 0), Det(BoundingBox(1, 0, 4, 1), 0.5, 0)],
    threshold=0.5,
)
def test_batch_nms_equals_brute_force_on_ties_duplicates_and_degenerate_boxes(dets, threshold):
    kept = from_batch(nms(to_batch(dets), threshold))
    assert kept == brute_force_nms(dets, threshold)


def test_nms_on_a_fully_live_frame_is_greedy_in_bounded_memory(full_frame):
    frame = full_frame(np.random.default_rng(8400))
    threshold = 0.45
    tracemalloc.start()
    try:
        candidates = decode_all(frame, DecodeConfig())
        kept = nms(candidates, threshold)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(candidates) == 8400
    # An 8400 x 8400 float64 IoU matrix alone would take 564 MB.
    assert peak < 64 * 2**20

    # Greedy characterisation: walking the candidates in visit order, each
    # one is kept exactly when no kept candidate of its class before it
    # overlaps it with IoU above the threshold.
    boxes = candidates.boxes
    order = np.lexsort((candidates.class_ids, -candidates.scores))
    kept_boxes = np.empty((len(kept), 4))
    kept_classes = np.empty(len(kept), dtype=np.int64)
    count = 0
    for row in order:
        box, class_id = boxes[row], candidates.class_ids[row]
        prior = kept_boxes[:count][kept_classes[:count] == class_id]
        touching = prior[
            (np.minimum(prior[:, 2], box[2]) > np.maximum(prior[:, 0], box[0]))
            & (np.minimum(prior[:, 3], box[3]) > np.maximum(prior[:, 1], box[1]))
        ]
        blocked = bool((iou_matrix(touching, box[None]) > threshold).any())
        is_kept = (
            count < len(kept)
            and np.array_equal(kept.boxes[count], candidates.boxes[row])
            and kept.scores[count] == candidates.scores[row]
            and kept.class_ids[count] == class_id
        )
        assert is_kept == (not blocked), f"candidate {row}"
        if is_kept:
            kept_boxes[count], kept_classes[count] = box, class_id
            count += 1
    assert count == len(kept)


def assert_same_batch(actual, expected):
    for name in ("boxes", "scores", "class_ids"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def test_nms_equals_the_row_by_row_nms_on_batches_of_several_blocks():
    # Integer-grid boxes, tied scores and 3 classes; small grids make the
    # boxes pile up, large ones keep most of them, and 1,000-3,500 boxes
    # span up to four blocks of the visit order.
    rng = np.random.default_rng(1024)
    for trial in range(30):
        count = int(rng.integers(1000, 3501))
        span = int(rng.integers(8, 200))
        corners = rng.integers(0, span, (count, 2))
        sizes = rng.integers(0, 12, (count, 2))
        batch = Detections(
            np.hstack([corners, corners + sizes]).astype(np.float64),
            rng.choice([0.25, 0.5, 0.75, 1.0], count),
            rng.integers(0, 3, count),
        )
        threshold = (0.0, 1 / 3, 0.5, 1.0)[trial % 4]
        assert_same_batch(nms(batch, threshold), row_by_row_nms(batch, threshold))


def piled_boxes(rng, count, span, size):
    """`count` integer-grid boxes with corners in [0, span) and sides in [0, size)."""
    corners = rng.integers(0, span, (count, 2))
    return np.hstack([corners, corners + rng.integers(0, size, (count, 2))]).astype(np.float64)


def assert_nms_equals_both_references(batch, threshold):
    kept = nms(batch, threshold)
    assert from_batch(kept) == brute_force_nms(from_batch(batch), threshold)
    assert_same_batch(kept, row_by_row_nms(batch, threshold))


# A block of 91 rows has 4,095 pairs and takes every one of them; 92 rows
# have 4,186, more than one chunk, and go through the sweep.
@pytest.mark.parametrize("count", [91, 92])
@pytest.mark.parametrize("threshold", [1 / 3, 0.5])
def test_nms_on_either_side_of_the_every_pair_block_size(count, threshold):
    rng = np.random.default_rng(count)
    batch = Detections(
        piled_boxes(rng, count, 8, 10),
        rng.choice([0.25, 0.5, 0.75, 1.0], count),
        rng.integers(0, 2, count),
    )
    assert_nms_equals_both_references(batch, threshold)


def test_nms_on_a_small_second_block_left_after_suppression_by_the_first():
    # 1,024 boxes scored 0.75-1.0 fill the first block of the visit order.
    # Of the 50 scored 0.25-0.5 that follow, half lie on first-block boxes
    # of their class and half pile up far from them, among themselves.
    rng = np.random.default_rng(1074)
    first = piled_boxes(rng, 1024, 300, 40)
    classes = rng.integers(0, 2, 1024 + 50)
    echo = rng.choice(1024, 25, replace=False)
    classes[1024:1049] = classes[echo]
    batch = Detections(
        np.vstack([first, first[echo] + 1.0, piled_boxes(rng, 25, 8, 10) + 400.0]),
        np.concatenate([rng.choice([0.75, 1.0], 1024), rng.choice([0.25, 0.5], 50)]),
        classes,
    )
    assert_nms_equals_both_references(batch, 0.45)


def full_width_frame(rng, height_logit):
    """A fully live 640x640 frame of two classes whose boxes all span the image width.

    Each cell's width term is so large that its box clips to x = 0..640;
    `height_logit(stride)` is its height term.
    """
    outputs = []
    for stride in (8, 16, 32):
        side = 640 // stride
        grid = np.empty((side, side, 7), dtype=np.float32)
        grid[..., 0:2] = rng.uniform(0.0, 1.0, (side, side, 2))
        grid[..., 2] = 10.0
        grid[..., 3] = height_logit(stride)
        grid[..., 4] = 20.0
        grid[..., 5:] = rng.uniform(0.0, 4.0, (side, side, 2))
        outputs.append(grid)
    return RawTensorSet(0, tuple(outputs), 640, 640)


@pytest.mark.parametrize(
    "height_logit, threshold",
    [
        (lambda stride: 10.0, 0.45),  # every box clips to the whole image
        (lambda stride: math.log(1 / stride), 0.0),  # strips one pixel high
    ],
    ids=["whole_image", "one_pixel_strips"],
)
def test_nms_on_a_hostile_frame_stays_in_bounded_memory(height_logit, threshold):
    frame = full_width_frame(np.random.default_rng(640), height_logit)
    tracemalloc.start()
    try:
        candidates = decode_all(frame, DecodeConfig())
        kept = nms(candidates, threshold)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(candidates) == 8400
    assert (candidates.boxes[:, [0, 2]] == [0.0, 640.0]).all()
    assert peak < 64 * 2**20
    assert_same_batch(kept, row_by_row_nms(candidates, threshold))


def test_a_block_of_one_pixel_strips_sweeps_on_y():
    # Every strip spans the image width, so every pair overlaps on x: a
    # sweep on x would give all 523,776 pairs of one block, and the sweep
    # on y gives 1,637.
    frame = full_width_frame(np.random.default_rng(640), lambda stride: math.log(1 / stride))
    candidates = decode_all(frame, DecodeConfig())
    order = np.lexsort((candidates.class_ids, -candidates.scores))
    x1, y1, x2, y2 = candidates.boxes[order].T
    chunks = _candidate_pairs(((x1, x2), (y1, y2)), np.arange(_NMS_BLOCK))
    assert sum(len(first) for first, _ in chunks) < _NMS_CHUNK


def test_detections_take_selects_rows():
    dets = [
        Det(BoundingBox(1.5, 2.25, 10.0, 20.125), 0.8125, 0),
        Det(BoundingBox(0.0, 0.0, 5.0, 5.0), 0.5, 6),
    ]
    batch = to_batch(dets)
    assert len(batch) == 2
    assert batch.boxes.shape == (2, 4)
    assert from_batch(batch.take(np.array([1]))) == dets[1:]
    assert from_batch(batch.take(np.array([False, True]))) == dets[1:]
    assert len(batch.take(np.array([], dtype=np.intp))) == 0


# --- validation and records ---------------------------------------------------

def test_bounding_box_validation():
    with pytest.raises(ValueError, match=r"box corners out of order: \(5.0, 0.0, 1.0, 2.0\)"):
        box_from_json([5, 0, 1, 2])
    with pytest.raises(ValueError, match="box coordinate y1 is not finite"):
        box_from_json([0, math.nan, 1, math.inf])
    with pytest.raises(TypeError, match="missing 2 required positional arguments"):
        box_from_json([1.0, 2.0])
    assert box_from_json([0, 1, 0, 2.5]) == BoundingBox(0.0, 1.0, 0.0, 2.5)


def test_decode_config_validation():
    with pytest.raises(ValueError, match="strides"):
        DecodeConfig(strides=(32, 16, 8))
    with pytest.raises(ValueError, match="strides"):
        DecodeConfig(strides=(0, 8, 16))
    with pytest.raises(ValueError, match="conf_threshold"):
        DecodeConfig(conf_threshold=1.5)
    with pytest.raises(ValueError, match="differ"):
        DecodeConfig(person_class_id=3, train_class_id=3)
    with pytest.raises(ValueError, match="class ids must be >= 0"):
        DecodeConfig(person_class_id=-1)


def test_detection_records_round_trip():
    dets = [
        Det(BoundingBox(1.5, 2.25, 10.0, 20.125), 0.8125, 0),
        Det(BoundingBox(0.0, 0.0, 5.0, 5.0), 0.5, 6),
    ]
    record = detections_to_record(42, to_batch(dets))
    assert record["frame"] == 42
    frame_index, restored = detections_from_record(record)
    assert frame_index == 42
    assert from_batch(restored) == dets  # all values exact at 6 decimals
    assert (restored.boxes.dtype, restored.scores.dtype, restored.class_ids.dtype) == (
        np.float64, np.float64, np.int64
    )


def test_a_record_class_written_as_a_whole_float_reads_as_its_integer():
    entry = {"box": [0, 0, 1, 1], "score": 1, "class": 6.0}
    _, restored = detections_from_record({"frame": 3, "detections": [entry]})
    assert restored.class_ids.tolist() == [6]


# --- six-decimal rounding -------------------------------------------------------

def scalar_round6(values: np.ndarray) -> np.ndarray:
    rounded = [round(v, 6) for v in values.ravel().tolist()]
    return np.array(rounded, dtype=np.float64).reshape(values.shape)


# (i + 0.5) / 1e6 for a whole i: times 1e6 it lands on, or an ulp or two from, a tie
near_ties = st.integers(-10**12, 10**12).map(lambda i: (i + 0.5) / 1e6)
ROUND6_EDGE = 2.0**50 / 1e6


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.sampled_from([(0,), (n,), (n, 4)])).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.floats() | near_ties)))
@example(np.array([1 / 128]))
@example(np.array([79.9999995, 327.5658395, 0.8008755]))
@example(np.array([np.nextafter(ROUND6_EDGE, 0.0), ROUND6_EDGE, np.nextafter(ROUND6_EDGE, np.inf)]))
@example(np.array([[2.0**53, 0.0, -0.0, -1e-7], [5e-324, 1.7976931348623157e308, 1.5, 0.25]]))
@example(np.array([math.nan, math.inf, -math.inf]))
def test_round6_is_bitwise_round_to_six_decimals(values):
    got = round6(values)
    assert got.shape == values.shape and got.dtype == np.float64
    assert got.tobytes() == scalar_round6(values).tobytes()


@st.composite
def record_batches(draw):
    """A batch of 0 to 300 rows with corners in [0, 640] and scores in [0, 1], some near ties."""
    n = draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(0.0, 640.0, (n, 5))
    values[:, 4] /= 640.0
    ties = rng.random((n, 5)) < draw(st.sampled_from([0.0, 0.01, 0.5]))
    values[ties] = (np.floor(values[ties] * 1e6) + 0.5) / 1e6
    boxes = np.sort(values[:, :4].reshape(n, 2, 2), axis=1).reshape(n, 4)
    return Detections(boxes, values[:, 4], rng.integers(0, 8, n))


@settings(max_examples=100, deadline=None)
@given(record_batches(), st.integers(0, 2**31))
def test_a_record_prints_as_the_scalar_rounding_of_each_value(batch, frame_index):
    scalar = {
        "frame": frame_index,
        "detections": [
            {"box": [round(v, 6) for v in box], "score": round(score, 6), "class": class_id}
            for box, score, class_id in zip(
                batch.boxes.tolist(), batch.scores.tolist(), batch.class_ids.tolist()
            )
        ],
    }
    assert json.dumps(detections_to_record(frame_index, batch)) == json.dumps(scalar)
