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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .errors import AlignmentError, InsufficientSamplesError
from .pipeline import PipelineConfig, RunSummary, StageLatencies, run_pipeline
from .postprocess import Detection, iou
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
        return {
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "iou_threshold": self.iou_threshold,
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
        }


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
        return {
            "mean_ms": self.mean_ms,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "min_ms": self.min_ms,
            "max_ms": self.max_ms,
            "sample_count": self.sample_count,
        }


@dataclass(frozen=True)
class BenchRecord:
    """Timing of one measured frame."""

    frame_index: int
    end_to_end_ms: float
    stages: StageLatencies


def percentile_nearest_rank(samples: Sequence[float], percentile: float) -> float:
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest sample."""
    if not samples:
        raise InsufficientSamplesError("no samples for percentile")
    if not 0 < percentile <= 100:
        raise ValueError(f"percentile must lie in (0, 100], got {percentile}")
    ordered = sorted(samples)
    rank = math.ceil(percentile / 100.0 * len(ordered))
    return ordered[rank - 1]


def match_detections(
    predictions: Sequence[Detection],
    ground_truth: GroundTruthFrame | Sequence,
    iou_threshold: float,
    class_id: int,
) -> tuple[int, int, int]:
    """Greedy per-frame matching for one class; returns (tp, fp, fn).

    Predictions are visited by descending score; each takes the unmatched
    ground-truth box of the same class with the highest IoU, provided that
    IoU reaches the threshold. Unmatched predictions are false positives,
    unmatched ground truth false negatives.
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must lie in (0, 1], got {iou_threshold}")
    gt_objects = ground_truth.objects if isinstance(ground_truth, GroundTruthFrame) else ground_truth
    gt_boxes = [obj.box for obj in gt_objects if obj.class_id == class_id]
    preds = sorted(
        (d for d in predictions if d.class_id == class_id),
        key=lambda d: -d.score,
    )

    unmatched = set(range(len(gt_boxes)))
    tp = 0
    for pred in preds:
        best_j = -1
        best_iou = 0.0
        for j in sorted(unmatched):
            overlap = iou(pred.box, gt_boxes[j])
            if overlap > best_iou:
                best_iou = overlap
                best_j = j
        if best_j >= 0 and best_iou >= iou_threshold:
            unmatched.remove(best_j)
            tp += 1
    fp = len(preds) - tp
    fn = len(unmatched)
    return tp, fp, fn


def evaluate_run(
    predictions: Iterable[tuple[int, Sequence[Detection]]],
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


def compute_efficiency(accuracy_pct: float, latency_ms: float, power_w: float) -> float:
    """Accuracy percent per (millisecond x watt); higher is better."""
    if not math.isfinite(accuracy_pct) or accuracy_pct < 0:
        raise ValueError(f"accuracy_pct must be >= 0, got {accuracy_pct}")
    if not math.isfinite(latency_ms) or latency_ms <= 0:
        raise ValueError(f"latency_ms must be > 0, got {latency_ms}")
    if not math.isfinite(power_w) or power_w <= 0:
        raise ValueError(f"power_w must be > 0, got {power_w}")
    return accuracy_pct / (latency_ms * power_w)


def measure_latency(
    backend: InferenceBackend,
    config: PipelineConfig,
    warmup_frames: int = 0,
    clock: Callable[[], float] = time.perf_counter,
) -> tuple[LatencyStats, list[BenchRecord], RunSummary]:
    """Time full frame cycles of run_pipeline over a backend's stream.

    The frames go through run_pipeline itself, so a corrupt frame is
    skipped and a stream that ends early ends the run, both counted in the
    returned RunSummary. One sample runs from the previous result record
    to this frame's: acquiring the frame, with any pacing the source
    imposes, then process_frame and building the frame's records. The
    clock is read once at the start and once per result record, n+1 reads
    for n records, so tests can inject a fake clock with a known sample
    sequence. Error records and the first warmup_frames processed frames
    are not samples. Stage latencies are the result record's, rounded to 6
    decimals as in the bench CSV.
    """
    if warmup_frames < 0:
        raise ValueError(f"warmup_frames must be >= 0, got {warmup_frames}")
    samples: list[float] = []
    records: list[BenchRecord] = []
    processed = 0
    previous = clock()

    def time_record(record: dict) -> None:
        nonlocal previous, processed
        now = clock()
        elapsed_ms = (now - previous) * 1000.0
        previous = now
        if "error" in record:
            return
        processed += 1
        if processed > warmup_frames:
            latency = record["latency_ms"]
            samples.append(elapsed_ms)
            records.append(
                BenchRecord(
                    frame_index=record["frame"],
                    end_to_end_ms=elapsed_ms,
                    stages=StageLatencies(
                        decode_ms=latency["decode"],
                        nms_ms=latency["nms"],
                        geometry_ms=latency["geometry"],
                        fsm_ms=latency["fsm"],
                    ),
                )
            )

    summary = run_pipeline(backend, config, result_sink=time_record)
    if not samples:
        raise InsufficientSamplesError(
            f"need at least one measured frame after {warmup_frames} warmup frames, "
            f"{processed} frames processed"
        )
    return LatencyStats.from_samples(samples), records, summary


def write_bench_csv(path: str | Path, records: Sequence[BenchRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BENCH_CSV_HEADER)
        for record in records:
            stages = record.stages
            writer.writerow(
                [
                    record.frame_index,
                    f"{record.end_to_end_ms:.6f}",
                    f"{stages.decode_ms:.6f}",
                    f"{stages.nms_ms:.6f}",
                    f"{stages.geometry_ms:.6f}",
                    f"{stages.fsm_ms:.6f}",
                ]
            )


def bench_summary(
    stats: LatencyStats,
    power_w: float,
    eval_result: EvalResult | None = None,
    accuracy_pct: float | None = None,
    latency_ms: float | None = None,
) -> dict:
    """Assemble the bench report; efficiency needs an accuracy figure.

    accuracy_pct and latency_ms override the measured values so a run can
    be scored with externally supplied numbers; without an accuracy from
    either source the efficiency is reported as null.
    """
    if accuracy_pct is None and eval_result is not None:
        accuracy_pct = eval_result.accuracy * 100.0
    effective_latency = latency_ms if latency_ms is not None else stats.mean_ms
    efficiency = None
    if accuracy_pct is not None:
        efficiency = compute_efficiency(accuracy_pct, effective_latency, power_w)
    return {
        "accuracy": eval_result.accuracy if eval_result else None,
        "precision": eval_result.precision if eval_result else None,
        "recall": eval_result.recall if eval_result else None,
        "accuracy_pct": accuracy_pct,
        "latency": stats.to_record(),
        "latency_ms": effective_latency,
        "power_w": power_w,
        "efficiency": efficiency,
    }
