from __future__ import annotations

import csv
import io
import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stationwatch import (
    AlignmentError,
    BoundingBox,
    ConfigError,
    EvalResult,
    GroundTruthFrame,
    GroundTruthObject,
    InsufficientSamplesError,
    LatencyStats,
    SequenceBackend,
    TensorStreamHeader,
    compute_efficiency,
    default_config,
    evaluate_run,
    match_detections,
    measure_latency,
    percentile_nearest_rank,
    process_frame,
    write_bench_csv,
)
from stationwatch.bench import BENCH_CSV_HEADER, BenchRecord

from reference import Det, box_area, greedy_match, to_batch

PERSON = 0
UNIT = BoundingBox(10.0, 10.0, 30.0, 50.0)
FAR = BoundingBox(200.0, 10.0, 220.0, 50.0)


def gt_frame(index: int, *boxes: BoundingBox, class_id: int = PERSON) -> GroundTruthFrame:
    return GroundTruthFrame(
        index, tuple(GroundTruthObject(class_id, box, i) for i, box in enumerate(boxes))
    )


# --- percentile ---------------------------------------------------------------

def test_nearest_rank_percentiles_on_one_to_hundred():
    samples = list(range(1, 101))
    assert percentile_nearest_rank(samples, 95) == 95
    assert percentile_nearest_rank(samples, 50) == 50
    assert percentile_nearest_rank(samples, 1) == 1
    assert percentile_nearest_rank(samples, 100) == 100
    assert percentile_nearest_rank(samples, 99.5) == 100  # ceil(99.5) = 100th


def test_nearest_rank_is_order_independent():
    rng = random.Random(3)
    samples = list(range(1, 101))
    rng.shuffle(samples)
    assert percentile_nearest_rank(samples, 95) == 95


def test_nearest_rank_small_samples():
    assert percentile_nearest_rank([5.0], 50) == 5.0
    assert percentile_nearest_rank([10.0, 20.0], 50) == 10.0  # ceil(1.0) = 1st
    assert percentile_nearest_rank([10.0, 20.0], 51) == 20.0  # ceil(1.02) = 2nd


def test_nearest_rank_domain_errors():
    with pytest.raises(InsufficientSamplesError):
        percentile_nearest_rank([], 50)
    with pytest.raises(ValueError, match="percentile"):
        percentile_nearest_rank([1.0], 0)
    with pytest.raises(ValueError, match="percentile"):
        percentile_nearest_rank([1.0], 101)


def test_latency_stats_from_samples():
    stats = LatencyStats.from_samples([30.0, 10.0, 20.0])
    assert stats.mean_ms == 20.0
    assert stats.p50_ms == 20.0
    assert stats.min_ms == 10.0
    assert stats.max_ms == 30.0
    assert stats.sample_count == 3
    assert list(stats.to_record()) == [
        "mean_ms", "p50_ms", "p95_ms", "p99_ms", "min_ms", "max_ms", "sample_count",
    ]
    with pytest.raises(InsufficientSamplesError):
        LatencyStats.from_samples([])


# --- matching ---------------------------------------------------------------------

def test_exact_hit_is_a_true_positive():
    preds = to_batch([Det(UNIT, 0.9, PERSON)])
    assert match_detections(preds, gt_frame(0, UNIT), 0.5, PERSON) == (1, 0, 0)


def test_poor_overlap_is_both_fp_and_fn():
    preds = to_batch([Det(FAR, 0.9, PERSON)])
    assert match_detections(preds, gt_frame(0, UNIT), 0.5, PERSON) == (0, 1, 1)


def test_iou_exactly_at_threshold_matches():
    preds = to_batch([Det(BoundingBox(0, 0, 3, 1), 0.9, PERSON)])
    gt = gt_frame(0, BoundingBox(1, 0, 4, 1))  # IoU exactly 0.5
    assert match_detections(preds, gt, 0.5, PERSON) == (1, 0, 0)
    assert match_detections(preds, gt, 0.51, PERSON) == (0, 1, 1)


def test_a_ground_truth_box_can_only_be_claimed_once():
    preds = to_batch([Det(UNIT, 0.9, PERSON), Det(UNIT, 0.8, PERSON)])
    assert match_detections(preds, gt_frame(0, UNIT), 0.5, PERSON) == (1, 1, 0)


def test_each_prediction_takes_its_highest_iou_ground_truth():
    near = BoundingBox(10.0, 10.0, 30.0, 46.0)   # IoU 0.9 with UNIT
    off = BoundingBox(10.0, 18.0, 30.0, 58.0)    # IoU 2/3 with UNIT
    pred = Det(UNIT, 0.9, PERSON)
    tp, fp, fn = match_detections(to_batch([pred]), gt_frame(0, near, off), 0.5, PERSON)
    assert (tp, fp, fn) == (1, 0, 1)
    # The claimed box is the nearer one: a second identical pred can still
    # match `off` because `near` is taken.
    second = Det(off, 0.5, PERSON)
    preds = to_batch([pred, second])
    assert match_detections(preds, gt_frame(0, near, off), 0.5, PERSON) == (2, 0, 0)


def test_other_classes_are_invisible_to_the_match():
    preds = to_batch([Det(UNIT, 0.9, 3)])
    gt = gt_frame(0, UNIT, class_id=3)
    assert match_detections(preds, gt, 0.5, PERSON) == (0, 0, 0)
    assert match_detections(preds, gt, 0.5, 3) == (1, 0, 0)


def test_match_threshold_validation():
    with pytest.raises(ValueError, match="iou_threshold"):
        match_detections(to_batch([]), gt_frame(0), 0.0, PERSON)
    # Checked before the shortcut for a run that predicted nothing.
    for threshold in (0.0, 5.0, math.nan):
        with pytest.raises(ValueError, match="iou_threshold"):
            evaluate_run([], [gt_frame(0, UNIT)], iou_threshold=threshold)
        with pytest.raises(ValueError, match="iou_threshold"):
            evaluate_run([], [], iou_threshold=threshold)


# Boxes on a small integer grid: zero-area boxes and IoUs of exactly 1/3,
# 1/2 and 1 come up often. Predictions also copy or shift a ground-truth
# box by one step, so ties in IoU and competition for one box are common,
# and scores tie too.
grid_boxes = st.builds(
    lambda x, y, w, h: BoundingBox(x, y, x + w, y + h),
    st.integers(0, 4), st.integers(0, 4), st.integers(0, 3), st.integers(0, 3),
)
classes = st.integers(min_value=0, max_value=2)


def shifted(box: BoundingBox, dx: int, dy: int) -> BoundingBox:
    return BoundingBox(box.x1 + dx, box.y1 + dy, box.x2 + dx, box.y2 + dy)


@st.composite
def matching_frames(draw):
    """(predictions as Det records, ground-truth objects), 0-7 of each."""
    gts = draw(st.lists(st.builds(GroundTruthObject, classes, grid_boxes, st.just(0)),
                        max_size=7))
    boxes = grid_boxes
    if gts:
        steps = st.integers(-1, 1)
        near = st.builds(shifted, st.sampled_from([obj.box for obj in gts]), steps, steps)
        boxes = st.one_of(grid_boxes, near)
    scores = st.sampled_from([0.25, 0.5, 1.0])
    preds = draw(st.lists(st.builds(Det, boxes, scores, classes), max_size=7))
    return preds, gts


# X and Y are ground truth; MIDDLE overlaps each with IoU exactly 1/3.
X, Y, MIDDLE = BoundingBox(0, 0, 2, 2), BoundingBox(2, 0, 4, 2), BoundingBox(1, 0, 3, 2)
X_AND_Y = [GroundTruthObject(PERSON, X, 0), GroundTruthObject(PERSON, Y, 1)]


@settings(max_examples=1000, deadline=None)
@given(frame=matching_frames(), threshold=st.sampled_from([1e-9, 1 / 3, 0.5, 1.0]),
       class_id=classes)
# Visit order decides the count: MIDDLE first claims X, so the exact copy
# of X finds nothing left (tp 1); the other way round both match (tp 2).
@example(frame=([Det(MIDDLE, 0.5, PERSON), Det(X, 1.0, PERSON)], X_AND_Y),
         threshold=1 / 3, class_id=PERSON)
@example(frame=([Det(MIDDLE, 0.5, PERSON), Det(X, 0.5, PERSON)], X_AND_Y),
         threshold=1 / 3, class_id=PERSON)
# The tie between X and Y goes to X, the lower index, which leaves Y for
# its exact copy.
@example(frame=([Det(MIDDLE, 1.0, PERSON), Det(Y, 0.5, PERSON)], X_AND_Y),
         threshold=1 / 3, class_id=PERSON)
def test_match_detections_equals_the_scalar_greedy_loop(frame, threshold, class_id):
    preds, gts = frame
    truth = GroundTruthFrame(0, tuple(gts))
    assert match_detections(to_batch(preds), truth, threshold, class_id) == greedy_match(
        preds, truth, threshold, class_id
    )


def optimal_tp(preds, gts, threshold):
    """Brute-force best-possible matching via permutation search."""
    best = 0
    indices = range(len(gts))
    for assignment in itertools.permutations(indices, min(len(preds), len(gts))):
        tp = 0
        for pred, j in zip(preds, assignment):
            a, b = pred.box, gts[j].box
            iw = max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1))
            ih = max(0.0, min(a.y2, b.y2) - max(a.y1, b.y1))
            inter = iw * ih
            union = box_area(a) + box_area(b) - inter
            if union > 0 and inter / union >= threshold:
                tp += 1
        best = max(best, tp)
    return best


def test_greedy_matching_never_beats_the_optimal_assignment():
    rng = random.Random(77)
    for _ in range(150):
        def random_box():
            x1, y1 = rng.uniform(0, 40), rng.uniform(0, 40)
            return BoundingBox(x1, y1, x1 + rng.uniform(5, 25), y1 + rng.uniform(5, 25))

        preds = [Det(random_box(), rng.uniform(0.1, 1.0), PERSON) for _ in range(rng.randint(0, 4))]
        gts = [GroundTruthObject(PERSON, random_box(), i) for i in range(rng.randint(0, 4))]
        frame = GroundTruthFrame(0, tuple(gts))
        tp, fp, fn = match_detections(to_batch(preds), frame, 0.5, PERSON)
        assert tp + fp == len(preds)
        assert tp + fn == len(gts)
        assert tp <= optimal_tp(preds, gts, 0.5)


# --- evaluate_run -------------------------------------------------------------------

def planted_fixture():
    predictions = []
    ground_truth = []
    for frame in range(7):
        predictions.append((frame, to_batch([Det(UNIT, 0.9, PERSON)])))
        ground_truth.append(gt_frame(frame, UNIT))
    predictions.append((7, to_batch([Det(UNIT, 0.8, PERSON), Det(FAR, 0.7, PERSON)])))
    ground_truth.append(gt_frame(7))
    predictions.append((8, to_batch([])))
    ground_truth.append(gt_frame(8, UNIT))
    predictions.append((9, to_batch([])))
    ground_truth.append(gt_frame(9))
    return predictions, ground_truth


def test_mismatched_stream_lengths_are_an_alignment_error():
    predictions, ground_truth = planted_fixture()
    with pytest.raises(AlignmentError, match="10 frames, ground truth 9"):
        evaluate_run(predictions, ground_truth[:-1])


def test_mismatched_frame_indices_are_an_alignment_error():
    predictions = [(0, to_batch([])), (2, to_batch([]))]
    ground_truth = [gt_frame(0), gt_frame(1)]
    with pytest.raises(AlignmentError, match="predictions at 2, ground truth at 1"):
        evaluate_run(predictions, ground_truth)


def test_empty_prediction_stream_scores_zero_instead_of_failing():
    ground_truth = [gt_frame(i, UNIT) for i in range(5)]
    result = evaluate_run([], ground_truth, class_id=PERSON)
    assert (result.tp, result.fp, result.fn) == (0, 0, 5)
    assert result.accuracy == 0.0


def test_empty_everything_scores_zero():
    result = evaluate_run([], [])
    assert (result.tp, result.fp, result.fn) == (0, 0, 0)
    assert result.accuracy == 0.0
    assert result.precision == 0.0
    assert result.recall == 0.0


def test_eval_result_record_fields():
    record = EvalResult.from_counts(7, 2, 1, 0.5).to_record()
    assert list(record.items()) == [  # in this order, as `evaluate` prints them
        ("tp", 7), ("fp", 2), ("fn", 1), ("iou_threshold", 0.5),
        ("accuracy", 0.7), ("precision", 7 / 9), ("recall", 7 / 8),
    ]


# --- efficiency ------------------------------------------------------------------------

def test_efficiency_unit_case_and_domain_errors():
    assert compute_efficiency(100.0, 1.0, 1.0) == 100.0
    with pytest.raises(ValueError, match="latency_ms"):
        compute_efficiency(50.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="power_w"):
        compute_efficiency(50.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="accuracy_pct"):
        compute_efficiency(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match=r"accuracy_pct must lie in \[0, 100\], got 100.5"):
        compute_efficiency(100.5, 1.0, 1.0)
    with pytest.raises(ValueError, match="accuracy_pct"):
        compute_efficiency(math.nan, 1.0, 1.0)


# --- measure_latency ---------------------------------------------------------------------

def tiny_header(frame_count: int) -> TensorStreamHeader:
    return TensorStreamHeader(
        num_classes=8, image_width=320, image_height=320,
        strides=(8, 16, 32), frame_count=frame_count,
    )


def dyadic_timeline(steps: int) -> list[float]:
    # Increment k/1024 s at step k: sample k is exactly 125k/128 ms.
    timeline = [0.0]
    for k in range(1, steps + 1):
        timeline.append(timeline[-1] + k / 1024.0)
    return timeline


def test_fake_clock_samples_are_reported_exactly(background_frame):
    header = tiny_header(5)
    backend = SequenceBackend(header, [background_frame(header, i) for i in range(5)])
    stats, records, _ = measure_latency(
        backend, default_config(), warmup_frames=0, clock=iter(dyadic_timeline(5)).__next__
    )
    expected = [125.0 * k / 128 for k in range(1, 6)]
    assert [r.end_to_end_ms for r in records] == expected
    assert stats.p50_ms == expected[2]
    assert stats.min_ms == expected[0]
    assert stats.max_ms == expected[4]
    assert stats.sample_count == 5


def test_warmup_frames_are_run_but_not_measured(background_frame):
    header = tiny_header(5)
    backend = SequenceBackend(header, [background_frame(header, i) for i in range(5)])
    stats, records, _ = measure_latency(
        backend, default_config(), warmup_frames=2, clock=iter(dyadic_timeline(5)).__next__
    )
    assert [r.frame_index for r in records] == [2, 3, 4]
    assert stats.sample_count == 3
    assert stats.min_ms == 125.0 * 3 / 128  # the first two samples are gone


def test_warmup_swallowing_the_whole_stream_is_an_error(background_frame):
    header = tiny_header(2)
    backend = SequenceBackend(header, [background_frame(header, i) for i in range(2)])
    with pytest.raises(InsufficientSamplesError, match="2 warmup"):
        measure_latency(backend, default_config(), warmup_frames=2)
    with pytest.raises(ValueError, match="warmup_frames"):
        measure_latency(backend, default_config(), warmup_frames=-1)


def test_real_clock_records_line_up_with_stage_latencies(background_frame):
    header = tiny_header(4)
    backend = SequenceBackend(header, [background_frame(header, i) for i in range(4)])
    stats, records, _ = measure_latency(backend, default_config())
    assert len(records) == 4
    for record in records:
        assert record.end_to_end_ms >= max(record.stages.values()) >= 0.0
    assert stats.max_ms >= stats.p50_ms >= stats.min_ms >= 0.0


def test_error_records_are_not_samples(background_frame):
    header = tiny_header(5)
    frames = [background_frame(header, i) for i in range(5)]
    frames[2].outputs[0][0, 0, 0] = math.nan
    stats, records, summary = measure_latency(
        SequenceBackend(header, frames), default_config(),
        clock=iter(dyadic_timeline(5)).__next__,
    )
    # The clock is still read on the error record, so the corrupt frame's
    # time (sample 3) is charged to no frame.
    assert [r.frame_index for r in records] == [0, 1, 3, 4]
    assert [r.end_to_end_ms for r in records] == [125.0 * k / 128 for k in (1, 2, 4, 5)]
    assert stats.sample_count == 4
    assert summary.to_record() == {"frames": 4, "alerts": 0, "errors": 1}


def test_warmup_counts_processed_frames_only(background_frame):
    header = tiny_header(4)
    frames = [background_frame(header, i) for i in range(4)]
    frames[0].outputs[1][0, 0, 4] = math.nan
    _, records, summary = measure_latency(
        SequenceBackend(header, frames), default_config(), warmup_frames=1
    )
    assert [r.frame_index for r in records] == [2, 3]
    assert summary.error_count == 1


def test_each_measured_frame_carries_its_own_four_stage_times(monkeypatch, background_frame):
    returned: dict[int, dict] = {}

    def recording_process_frame(frame, config, fsm):
        record, stage_ms = process_frame(frame, config, fsm)
        returned[frame.frame_index] = stage_ms
        return record, stage_ms

    monkeypatch.setattr("stationwatch.pipeline.process_frame", recording_process_frame)
    header = tiny_header(5)
    frames = [background_frame(header, i) for i in range(5)]
    frames[2].outputs[0][0, 0, 0] = math.nan
    _, records, _ = measure_latency(SequenceBackend(header, frames), default_config())
    assert sorted(returned) == [r.frame_index for r in records] == [0, 1, 3, 4]
    for record in records:
        assert record.stages is returned[record.frame_index]
        assert set(record.stages) == {"decode", "nms", "fsm", "geometry"}


def test_measure_latency_rejects_a_config_that_does_not_fit_the_stream(background_frame):
    narrow = TensorStreamHeader(
        num_classes=2, image_width=320, image_height=320,
        strides=(8, 16, 32), frame_count=1,
    )
    backend = SequenceBackend(narrow, [background_frame(narrow, 0)])
    with pytest.raises(ConfigError, match="train class id 6"):
        measure_latency(backend, default_config())


# --- reports ---------------------------------------------------------------------------------

def test_bench_csv_round_trips_through_the_csv_module(tmp_path, background_frame):
    header = tiny_header(3)
    backend = SequenceBackend(header, [background_frame(header, i) for i in range(3)])
    _, records, _ = measure_latency(
        backend, default_config(), clock=iter(dyadic_timeline(3)).__next__
    )
    path = tmp_path / "bench.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_bench_csv(fh, records)

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(BENCH_CSV_HEADER)
    assert len(rows) == 4
    assert [int(row[0]) for row in rows[1:]] == [0, 1, 2]
    # Values are written at fixed 6-decimal precision.
    for row, expected in zip(rows[1:], [125.0 / 128, 250.0 / 128, 375.0 / 128]):
        assert float(row[1]) == pytest.approx(expected, abs=1e-6)


def csv_text(value: float) -> str:
    stages = dict.fromkeys(("decode", "nms", "fsm", "geometry"), value)
    fh = io.StringIO(newline="")
    write_bench_csv(fh, [BenchRecord(0, value, stages)])
    return fh.getvalue()


@settings(max_examples=1000, deadline=None)
@given(value=st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False))
def test_bench_csv_does_not_depend_on_rounding_stage_times_first(value):
    assert csv_text(value) == csv_text(round(value, 6))
