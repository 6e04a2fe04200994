"""Accuracy, latency, and power-efficiency measurement.

Accuracy here is detection accuracy in the Jaccard sense,
TP / (TP + FP + FN), over greedy IoU matching per frame. The composite
figure of merit for a deployment is

    efficiency = accuracy_percent / (latency_ms * power_watts)

so a platform scoring 61.661% at 54.174 ms and 9.1 W rates ~0.125 while
70.791% at 20.878 ms and 10.737 W rates ~0.316: higher means more correct
detections per joule-millisecond. Latency percentiles use the
nearest-rank definition, so every reported figure is an actual sample.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import asdict, dataclass
from typing import IO, Callable, Iterable, Sequence

import numpy as np

from .errors import AlignmentError, InsufficientSamplesError
from .pipeline import PipelineConfig, RunSummary, run_pipeline
from .postprocess import Detections, iou_matrix
from .scenario import GroundTruthFrame
from .tensor_stream import InferenceBackend

BENCH_CSV_HEADER = ("frame", "end_to_end_ms", "decode_ms", "nms_ms", "geometry_ms", "fsm_ms")


@dataclass(frozen=True)
class EvalResult:
    """Detection counts and the rates derived from them."""

    tp: int
    fp: int
    fn: int
    iou_threshold: float
    accuracy: float
    precision: float
    recall: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int, iou_threshold: float) -> "EvalResult":
        denominator = tp + fp + fn
        accuracy = tp / denominator if denominator else 0.0
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        return cls(tp, fp, fn, iou_threshold, accuracy, precision, recall)

    def to_record(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class LatencyStats:
    """Summary over per-frame end-to-end latencies, in milliseconds."""

    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    min_ms: float
    max_ms: float
    sample_count: int

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencyStats":
        if not samples:
            raise InsufficientSamplesError("no latency samples to summarize")
        ordered = sorted(samples)
        return cls(
            mean_ms=sum(ordered) / len(ordered),
            p50_ms=percentile_nearest_rank(ordered, 50),
            p95_ms=percentile_nearest_rank(ordered, 95),
            p99_ms=percentile_nearest_rank(ordered, 99),
            min_ms=ordered[0],
            max_ms=ordered[-1],
            sample_count=len(ordered),
        )

    def to_record(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BenchRecord:
    """Timing of one measured frame.

    `stages` is the frame's stage times in ms as run_pipeline's stage sink
    got them, keyed "decode", "nms", "fsm" and "geometry", unrounded.
    """

    frame_index: int
    end_to_end_ms: float
    stages: dict[str, float]


def percentile_nearest_rank(samples: Sequence[float], percentile: float) -> float:
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest sample."""
    if not samples:
        raise InsufficientSamplesError("no samples for percentile")
    if not 0 < percentile <= 100:
        raise ValueError(f"percentile must lie in (0, 100], got {percentile}")
    ordered = sorted(samples)
    rank = math.ceil(percentile / 100.0 * len(ordered))
    return ordered[rank - 1]


def _check_iou_threshold(iou_threshold: float) -> None:
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must lie in (0, 1], got {iou_threshold}")


def match_detections(
    predictions: Detections,
    ground_truth: GroundTruthFrame,
    iou_threshold: float,
    class_id: int,
) -> tuple[int, int, int]:
    """Greedy per-frame matching for one class; returns (tp, fp, fn).

    Predictions are visited by descending score, ties in row order; each
    takes the unmatched ground-truth box of the same class with the highest
    IoU, the lowest index on ties, provided that IoU reaches the threshold.
    Unmatched predictions are false positives, unmatched ground truth false
    negatives.
    """
    _check_iou_threshold(iou_threshold)
    gt_boxes = np.array(
        [obj.box.as_list() for obj in ground_truth.objects if obj.class_id == class_id],
        dtype=np.float64,
    ).reshape(-1, 4)
    rows = np.flatnonzero(predictions.class_ids == class_id)
    rows = rows[np.argsort(-predictions.scores[rows], kind="stable")]
    overlap = iou_matrix(predictions.boxes[rows], gt_boxes)
    tp = 0
    if len(gt_boxes):
        for row in overlap:
            j = int(np.argmax(row))
            if row[j] >= iou_threshold:
                overlap[:, j] = -1.0  # claimed: below any IoU from now on
                tp += 1
    return tp, len(rows) - tp, len(gt_boxes) - tp


def evaluate_run(
    predictions: Iterable[tuple[int, Detections]],
    ground_truth: Iterable[GroundTruthFrame],
    iou_threshold: float = 0.5,
    class_id: int = 0,
) -> EvalResult:
    """Aggregate matching over aligned frame streams.

    Both streams must cover the same frame indices in the same order. One
    degenerate case is tolerated: a completely empty prediction stream
    counts every ground-truth object as missed instead of failing, so
    evaluating a run that produced nothing still yields accuracy 0.
    """
    _check_iou_threshold(iou_threshold)
    if class_id < 0:
        raise ValueError(f"class_id must be a whole number >= 0, got {class_id}")
    pred_list = list(predictions)
    gt_list = list(ground_truth)
    tp = fp = fn = 0

    if not pred_list and gt_list:
        for gt in gt_list:
            fn += sum(1 for obj in gt.objects if obj.class_id == class_id)
        return EvalResult.from_counts(tp, fp, fn, iou_threshold)

    if len(pred_list) != len(gt_list):
        raise AlignmentError(
            f"prediction stream has {len(pred_list)} frames, ground truth {len(gt_list)}"
        )
    for (pred_index, dets), gt in zip(pred_list, gt_list):
        if pred_index != gt.frame_index:
            raise AlignmentError(
                f"frame mismatch: predictions at {pred_index}, ground truth at {gt.frame_index}"
            )
        frame_tp, frame_fp, frame_fn = match_detections(dets, gt, iou_threshold, class_id)
        tp += frame_tp
        fp += frame_fp
        fn += frame_fn
    return EvalResult.from_counts(tp, fp, fn, iou_threshold)


def check_efficiency_input(name: str, value: float, label: str | None = None) -> None:
    """Raise ValueError unless compute_efficiency takes `value` as its `name`.

    Every input must be finite; accuracy_pct lies in [0, 100], latency_ms
    and power_w > 0. The message names `label` (a command-line flag), else
    `name`.
    """
    if name == "accuracy_pct":
        rule, ok = "lie in [0, 100]", 0 <= value <= 100
    else:
        rule, ok = "be > 0", value > 0
    if not (math.isfinite(value) and ok):
        raise ValueError(f"{label or name} must {rule}, got {value}")


def compute_efficiency(accuracy_pct: float, latency_ms: float, power_w: float) -> float:
    """Accuracy percent per (millisecond x watt); higher is better."""
    check_efficiency_input("accuracy_pct", accuracy_pct)
    check_efficiency_input("latency_ms", latency_ms)
    check_efficiency_input("power_w", power_w)
    return accuracy_pct / (latency_ms * power_w)


def measure_latency(
    backend: InferenceBackend,
    config: PipelineConfig,
    warmup_frames: int = 0,
    clock: Callable[[], float] = time.perf_counter,
) -> tuple[LatencyStats | None, list[BenchRecord], RunSummary]:
    """Time full frame cycles of run_pipeline over a backend's stream.

    The frames go through run_pipeline itself, so a corrupt frame is
    skipped and a stream that ends early ends the run, both counted in the
    returned RunSummary. One sample runs from the previous result record
    to this frame's: acquiring the frame, with any pacing the source
    imposes, then process_frame and building the frame's records. The
    clock is read once at the start and once per result record, n+1 reads
    for n records, so tests can inject a fake clock with a known sample
    sequence. Error records and the first warmup_frames processed frames
    are not samples. Each record's stage times are the ones run_pipeline's
    stage sink got for the same frame, which it gets just before the
    frame's result record. When skipped frames leave no sample the
    stats are None; with no sample and no skipped frame there is nothing
    to blame but the warmup, and InsufficientSamplesError is raised.
    """
    if warmup_frames < 0:
        raise ValueError(f"warmup_frames must be >= 0, got {warmup_frames}")
    records: list[BenchRecord] = []
    processed = 0
    stage_ms: dict[str, float] = {}
    previous = clock()

    def keep_stages(stages: dict[str, float]) -> None:
        nonlocal stage_ms
        stage_ms = stages

    def time_record(record: dict) -> None:
        nonlocal previous, processed
        now = clock()
        elapsed_ms = (now - previous) * 1000.0
        previous = now
        if "error" in record:
            return
        processed += 1
        if processed > warmup_frames:
            records.append(BenchRecord(record["frame"], elapsed_ms, stage_ms))

    summary = run_pipeline(backend, config, result_sink=time_record, stage_sink=keep_stages)
    if records:
        stats = LatencyStats.from_samples([record.end_to_end_ms for record in records])
        return stats, records, summary
    if summary.error_count:
        return None, records, summary
    raise InsufficientSamplesError(
        f"need at least one measured frame after {warmup_frames} warmup frames, "
        f"{processed} frames processed"
    )


def write_bench_csv(fh: IO[str], records: Sequence[BenchRecord]) -> None:
    """Write the bench CSV to `fh`, a text handle opened with newline=""."""
    writer = csv.writer(fh)
    writer.writerow(BENCH_CSV_HEADER)
    for record in records:
        stages = record.stages
        writer.writerow(
            [
                record.frame_index,
                f"{record.end_to_end_ms:.6f}",
                f"{stages['decode']:.6f}",
                f"{stages['nms']:.6f}",
                f"{stages['geometry']:.6f}",
                f"{stages['fsm']:.6f}",
            ]
        )
