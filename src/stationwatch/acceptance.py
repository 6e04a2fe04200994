"""Executable acceptance checks behind the `verify` command.

Each check pits a production code path against an independent reference:
suppression against a pairwise matrix reimplementation, decoding against
the encoder it must invert, the state machine against its declared
transition set, alert timing against hand-derived crossing arithmetic.
The checks are deterministic (fixed seeds) and run hardware-free.

A criterion is one `(name, check)` row of ALL_CHECKS, and its number is
its position there. A check takes no arguments: it returns its PASS
detail, or raises CheckFailed with its FAIL detail. `run_all` alone turns
those outcomes into CheckResults.

Check 2 is the oddball: the published hardware figures (latencies and
wattages of specific accelerator boards) cannot be reproduced without the
boards, so that check documents the substitution: the arithmetic on the
published figures is verified (check 1) and all behavioral claims are
verified synthetically (checks 3-9).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bench import compute_efficiency, evaluate_run, measure_latency, percentile_nearest_rank
from .errors import EncodingCollisionError
from .geometry import CameraModel, estimate_height, estimate_height_axial
from .pipeline import SEVERITY, default_config, run_pipeline
from .postprocess import BoundingBox, DecodeConfig, Detections, decode_all, iou_matrix, nms
from .scenario import (SCENE_NUM_CLASSES, GroundTruthFrame, GroundTruthObject,
                       builtin_scenarios, encode_objects_to_tensors, encode_scenario)
from .tensor_stream import RawTensorSet, SequenceBackend, TensorStreamHeader
from .train_fsm import FsmConfig, TrainState, step_fsm


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    passed: bool
    detail: str


class CheckFailed(Exception):
    """Raised by a check with its FAIL detail as the message."""


# --- criterion 1: efficiency arithmetic on the published figures ----------

def check_efficiency_figures() -> str:
    cases = [
        (61.661, 54.174, 9.1, 0.125),
        (70.791, 20.878, 10.737, 0.316),
    ]
    for accuracy_pct, latency_ms, power_w, expected in cases:
        got = compute_efficiency(accuracy_pct, latency_ms, power_w)
        if abs(got - expected) > 0.001:
            raise CheckFailed(
                f"{accuracy_pct}/({latency_ms}*{power_w}) = {got:.6f}, expected "
                f"{expected} +/- 0.001"
            )
    return "both published deployment rows reproduce to within 0.001"


# --- criterion 2: hardware comparison is out of reach ---------------------

def check_hardware_substitution() -> str:
    # Board latencies and wattages need the physical boards. The arithmetic
    # over the published figures is covered by check 1 and every behavioral
    # property is covered synthetically by checks 3-9; nothing to execute.
    return "not reproducible without accelerator hardware; substituted by checks 1 and 3-9"


# --- criterion 3: NMS against a pairwise-matrix reference -----------------

def _reference_nms(detections: Detections, threshold: float) -> Detections:
    """Matrix-based reimplementation of class-aware greedy suppression."""
    x1, y1, x2, y2 = detections.boxes.T
    areas = (x2 - x1) * (y2 - y1)
    ix1 = np.maximum(x1[:, None], x1[None, :])
    iy1 = np.maximum(y1[:, None], y1[None, :])
    ix2 = np.minimum(x2[:, None], x2[None, :])
    iy2 = np.minimum(y2[:, None], y2[None, :])
    inter = np.clip(ix2 - ix1, 0.0, None) * np.clip(iy2 - iy1, 0.0, None)
    union = areas[:, None] + areas[None, :] - inter
    with np.errstate(invalid="ignore", divide="ignore"):
        matrix = np.where(union > 0.0, inter / union, 0.0)

    scores = detections.scores.tolist()
    class_ids = detections.class_ids.tolist()
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], class_ids[i], i))
    kept: list[int] = []
    for i in order:
        if all(class_ids[j] != class_ids[i] or matrix[i, j] <= threshold for j in kept):
            kept.append(i)
    return detections.take(np.array(kept, dtype=np.intp))


def check_nms_reference() -> str:
    instances, rng = 1000, np.random.default_rng(20240915)
    thresholds = (0.3, 0.45, 0.6)
    for instance in range(instances):
        count = int(rng.integers(0, 21))
        boxes, scores, class_ids = [], [], []
        for _ in range(count):
            xs = np.sort(rng.uniform(0, 100, size=2))
            ys = np.sort(rng.uniform(0, 100, size=2))
            boxes.append((xs[0], ys[0], xs[1] + 1.0, ys[1] + 1.0))
            scores.append(rng.uniform(0.01, 1.0))
            class_ids.append(rng.integers(0, 3))
        detections = Detections(
            np.array(boxes, dtype=np.float64).reshape(-1, 4),
            np.array(scores, dtype=np.float64),
            np.array(class_ids, dtype=np.int64),
        )
        threshold = thresholds[instance % len(thresholds)]
        got = nms(detections, threshold)
        want = _reference_nms(detections, threshold)
        if not (
            np.array_equal(got.boxes, want.boxes)
            and np.array_equal(got.scores, want.scores)
            and np.array_equal(got.class_ids, want.class_ids)
        ):
            raise CheckFailed(
                f"instance {instance} (n={count}, thr={threshold}): kept "
                f"{len(got)} vs reference {len(want)}"
            )
    return f"{instances} random instances match the pairwise reference exactly"


# --- criterion 4: encode/decode round trip ---------------------------------

def check_roundtrip() -> str:
    frames, rng = 100, random.Random(771)
    config = DecodeConfig()
    canvases = [(320, 320), (256, 192), (128, 128)]

    for frame_index in range(frames):
        width, height = canvases[frame_index % len(canvases)]
        objects: list[GroundTruthObject] = []
        scores: list[float] = []
        for actor in range(rng.randint(1, 6)):
            for _ in range(50):
                w = rng.uniform(10, min(120, width - 2))
                h = rng.uniform(10, min(120, height - 2))
                cx = rng.uniform(w / 2, width - w / 2)
                cy = rng.uniform(h / 2, height - h / 2)
                box = BoundingBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
                # The encoder places the box; its class and score come once it has a cell.
                trial = GroundTruthFrame(0, (*objects, GroundTruthObject(0, box, actor)))
                try:
                    encode_objects_to_tensors(trial, config, width, height, SCENE_NUM_CLASSES)
                except EncodingCollisionError:
                    continue
                objects.append(GroundTruthObject(rng.randint(0, SCENE_NUM_CLASSES - 1), box, actor))
                scores.append(rng.uniform(0.35, 0.99))
                break
            else:
                raise CheckFailed(f"frame {frame_index}: could not place a collision-free box")

        gt = GroundTruthFrame(frame_index=0, objects=tuple(objects))
        tensors = encode_objects_to_tensors(gt, config, width, height, SCENE_NUM_CLASSES,
                                            actor_scores=scores)
        decoded = decode_all(tensors, config)

        if len(decoded) != len(objects):
            raise CheckFailed(
                f"frame {frame_index}: {len(objects)} objects in, {len(decoded)} "
                f"detections out at conf {config.conf_threshold}"
            )
        # Column k: each decoded row's IoU with object k; a claimed row drops to -1.
        overlaps = iou_matrix(decoded.boxes, np.array([obj.box.as_list() for obj in objects]))
        for k, (obj, score) in enumerate(zip(objects, scores)):
            best = int(np.argmax(overlaps[:, k]))
            overlap = overlaps[best, k]
            best_class, best_score = int(decoded.class_ids[best]), float(decoded.scores[best])
            if overlap < 0.99:
                raise CheckFailed(f"frame {frame_index}: best IoU {overlap:.4f} < 0.99")
            if best_class != obj.class_id:
                raise CheckFailed(f"frame {frame_index}: class {best_class} != {obj.class_id}")
            if abs(best_score - score) > 1e-5:
                raise CheckFailed(
                    f"frame {frame_index}: score {best_score:.7f} vs requested {score:.7f}"
                )
            overlaps[best] = -1.0
    return (
        f"{frames} random frames: all objects recovered with IoU >= 0.99, "
        "score error <= 1e-5, no spurious detections"
    )


# --- criterion 5: FSM transition closure -----------------------------------

_ALLOWED_TRANSITIONS = {
    (TrainState.OFF, TrainState.OFF),
    (TrainState.OFF, TrainState.IN),
    (TrainState.IN, TrainState.IN),
    (TrainState.IN, TrainState.ON),
    (TrainState.IN, TrainState.OUT),
    (TrainState.ON, TrainState.ON),
    (TrainState.ON, TrainState.OUT),
    (TrainState.OUT, TrainState.OUT),
    (TrainState.OUT, TrainState.OFF),
}


def _random_observation(rng: random.Random) -> tuple[bool, float]:
    """(present, displacement_px) of one frame."""
    if rng.random() < 0.55:
        return True, abs(rng.gauss(0.0, 3.0))
    return False, 0.0


def check_fsm_closure() -> str:
    traces, rng = 10_000, random.Random(4242)
    config = FsmConfig()
    for trace in range(traces):
        state, count = TrainState.OFF, 0
        for step in range(rng.randint(10, 60)):
            new_state, count = step_fsm(state, *_random_observation(rng), count, config)
            if (state, new_state) not in _ALLOWED_TRANSITIONS:
                raise CheckFailed(
                    f"trace {trace} step {step}: illegal transition "
                    f"{state.value} -> {new_state.value}"
                )
            state = new_state

    # Canonical approach-stop-depart trace must walk the full cycle in order.
    moving, still, absent = (True, 8.0), (True, 0.0), (False, 0.0)
    trace_obs = [absent] * 3 + [moving] * 6 + [still] * 6 + [moving] * 2 + [absent] * 6
    visited = [TrainState.OFF]
    state, count = TrainState.OFF, 0
    for present, displacement in trace_obs:
        state, count = step_fsm(state, present, displacement, count, config)
        if state is not visited[-1]:
            visited.append(state)
    expected = [TrainState.OFF, TrainState.IN, TrainState.ON, TrainState.OUT, TrainState.OFF]
    if visited != expected:
        raise CheckFailed(f"canonical trace visited {[s.value for s in visited]}")
    return (
        f"{traces} random traces stay within the declared transition set; "
        "canonical trace walks OFF,IN,ON,OUT,OFF"
    )


# --- criterion 6: the two height formulations agree ------------------------

def check_height_forms() -> str:
    cases, rng = 500, random.Random(99)
    for case in range(cases):
        height = rng.uniform(0.5, 10.0)
        ground_hit = rng.uniform(0.5, 50.0)
        head_dist = ground_hit * rng.random()
        # Same physical configuration read along the optical axis: the axis
        # ground distance plays ground_hit's role. Scaling both by a power
        # of two keeps the ratio bit-exact.
        scale = 2.0 ** rng.randint(-4, 4)
        camera = CameraModel(height_m=height, z0_m=ground_hit * scale)
        h_ray = estimate_height(
            CameraModel(height_m=height, z0_m=1.0), ground_hit, head_dist
        )
        h_axial = estimate_height_axial(camera, head_dist * scale)
        tolerance = 1e-12 * max(1.0, abs(h_ray))
        if abs(h_ray - h_axial) > tolerance:
            raise CheckFailed(f"case {case}: ray form {h_ray!r} vs axial form {h_axial!r}")
        if not (0.0 <= h_ray <= height):
            raise CheckFailed(f"case {case}: estimate {h_ray} outside [0, {height}]")
    spot = estimate_height(CameraModel(height_m=3.0, z0_m=1.0), 3.0, 1.5)
    if spot != 1.5:
        raise CheckFailed(f"spot check: {spot!r} != 1.5")
    return (
        f"{cases} matched configurations agree within 1e-12 relative; "
        "spot value 1.5 exact"
    )


# --- criterion 7: end-to-end alert timing on the built-in scenes -----------

def _expected_crossing_frames() -> list[int]:
    # Independent arithmetic over the published waypoints: the passenger's
    # ground point is cy + 20 (40 px tall box); it descends from y=180 at
    # frame 0 to y=100 at frame 32, then climbs back to y=180 by frame 48.
    # The yellow strip spans y in [100, 130], boundary included.
    frames = []
    for frame in range(150):
        if frame <= 32:
            foot_y = 180.0 - 2.5 * frame
        elif frame <= 48:
            foot_y = 100.0 + 5.0 * (frame - 32)
        else:
            foot_y = 180.0
        if 100.0 <= foot_y <= 130.0:
            frames.append(frame)
    return frames


def _run_scenario(name: str) -> list[dict]:
    config = default_config()
    scenes = builtin_scenarios()
    gt_frames, tensors = encode_scenario(scenes[name], config.decode)
    header = TensorStreamHeader(
        num_classes=SCENE_NUM_CLASSES,
        image_width=scenes[name].image_width,
        image_height=scenes[name].image_height,
        strides=config.decode.strides,
        frame_count=len(tensors),
    )
    backend = SequenceBackend(header, tensors)
    alerts: list[dict] = []
    run_pipeline(backend, config, alert_sink=alerts.append)
    return alerts


def check_end_to_end_alerts() -> str:
    expected = _expected_crossing_frames()
    if not expected or expected != list(range(expected[0], expected[-1] + 1)):
        raise CheckFailed(f"internal: expected interval not contiguous: {expected}")

    alerts = _run_scenario("crossing_during_approach")
    critical = sorted(a["frame"] for a in alerts if a["severity"] == SEVERITY[TrainState.IN])
    others = [a for a in alerts if a["severity"] != SEVERITY[TrainState.IN]]
    if others:
        raise CheckFailed(f"{len(others)} non-critical alerts raised during the crossing scene")
    low, high = expected[0], expected[-1]
    if not critical:
        raise CheckFailed("no CRITICAL alerts raised")
    if critical[0] < low - 1 or critical[-1] > high + 1:
        raise CheckFailed(
            f"critical alerts span [{critical[0]}, {critical[-1]}], expected "
            f"[{low}, {high}] +/- 1"
        )
    missing = [f for f in range(low + 1, high) if f not in set(critical)]
    if missing:
        raise CheckFailed(f"frames {missing} inside the crossing interval raised no CRITICAL alert")

    empty_alerts = _run_scenario("empty_platform")
    if empty_alerts:
        raise CheckFailed(f"empty platform scene raised {len(empty_alerts)} alerts")
    crowd_alerts = _run_scenario("crowd_safe")
    if crowd_alerts:
        raise CheckFailed(f"crowd scene raised {len(crowd_alerts)} alerts without a crossing")
    return (
        f"CRITICAL alerts land on frames [{critical[0]}, {critical[-1]}] against the "
        f"derived crossing interval [{low}, {high}]; quiet scenes raise none"
    )


# --- criterion 8: evaluation arithmetic on a planted fixture ----------------

def check_evaluation_arithmetic() -> str:
    person = 0
    box = BoundingBox(10.0, 10.0, 30.0, 50.0)
    offset_box = BoundingBox(200.0, 10.0, 220.0, 50.0)

    def persons(*scored_boxes: tuple[BoundingBox, float]) -> Detections:
        return Detections(
            np.array([b.as_list() for b, _ in scored_boxes], dtype=np.float64).reshape(-1, 4),
            np.array([score for _, score in scored_boxes], dtype=np.float64),
            np.full(len(scored_boxes), person, dtype=np.int64),
        )

    predictions: list[tuple[int, Detections]] = []
    ground_truth: list[GroundTruthFrame] = []

    for frame in range(7):  # 7 clean hits
        predictions.append((frame, persons((box, 0.9))))
        ground_truth.append(GroundTruthFrame(frame, (GroundTruthObject(person, box, 0),)))
    predictions.append(  # 2 false positives on an empty frame
        (7, persons((box, 0.8), (offset_box, 0.7)))
    )
    ground_truth.append(GroundTruthFrame(7, ()))
    predictions.append((8, persons()))  # 1 miss
    ground_truth.append(GroundTruthFrame(8, (GroundTruthObject(person, box, 0),)))
    predictions.append((9, persons()))
    ground_truth.append(GroundTruthFrame(9, ()))

    result = evaluate_run(predictions, ground_truth, iou_threshold=0.5, class_id=person)
    expected = (7, 2, 1, 0.7, 7 / 9, 7 / 8)
    got = (result.tp, result.fp, result.fn, result.accuracy, result.precision, result.recall)
    if got != expected:
        raise CheckFailed(f"planted 7TP/2FP/1FN fixture gave {got}, expected {expected}")
    return "7TP/2FP/1FN fixture: accuracy 0.7, precision 7/9, recall 7/8, all exact"


# --- criterion 9: latency harness sanity ------------------------------------

def _background(frames: int, source: type[SequenceBackend] = SequenceBackend) -> SequenceBackend:
    # The scene's classes, so the default config's train class (6) fits the source.
    header = TensorStreamHeader(
        num_classes=SCENE_NUM_CLASSES, image_width=64, image_height=64, strides=(8, 16, 32),
        frame_count=frames,
    )
    return source(header, [
        encode_objects_to_tensors(GroundTruthFrame(index, ()), DecodeConfig(), 64, 64,
                                  SCENE_NUM_CLASSES)
        for index in range(frames)
    ])


class _PacedBackend(SequenceBackend):
    """Serves each frame 20 ms after it is asked for, like a camera would."""

    def next_frame(self) -> RawTensorSet | None:
        time.sleep(0.020)
        return super().next_frame()


def check_latency_harness() -> str:
    # Nearest-rank definition, exact on integer samples.
    if percentile_nearest_rank(list(range(1, 101)), 95) != 95:
        raise CheckFailed("nearest-rank p95 of 1..100 != 95")

    # Scripted clock through the harness itself, kept bit-exact by using
    # dyadic timestamps: timeline[k] = (1+2+...+k)/1024 s, so sample k is
    # exactly 125k/128 ms and every statistic is computable by hand.
    timeline = [0.0]
    for k in range(1, 101):
        timeline.append(timeline[-1] + k / 1024.0)

    stats, _, _ = measure_latency(
        _background(100), default_config(),
        warmup_frames=0, clock=iter(timeline).__next__,
    )
    expected_p50 = 125.0 * 50 / 128
    expected_p95 = 125.0 * 95 / 128
    expected_max = 125.0 * 100 / 128
    if (stats.p50_ms, stats.p95_ms, stats.max_ms) != (
        expected_p50, expected_p95, expected_max
    ):
        raise CheckFailed(
            f"scripted dyadic run: p50={stats.p50_ms!r} (want {expected_p50!r}), "
            f"p95={stats.p95_ms!r} (want {expected_p95!r})"
        )

    const_stats, _, _ = measure_latency(
        _background(3), default_config(), warmup_frames=0,
        clock=iter([0.0, 0.010, 0.020, 0.030]).__next__,
    )
    if not (
        math.isclose(const_stats.mean_ms, 10.0, rel_tol=1e-9)
        and math.isclose(const_stats.p50_ms, 10.0, rel_tol=1e-9)
        and math.isclose(const_stats.min_ms, const_stats.max_ms, rel_tol=1e-9)
    ):
        raise CheckFailed(
            f"constant 10 ms run: mean={const_stats.mean_ms}, p50={const_stats.p50_ms}"
        )

    paced_stats, paced_records, _ = measure_latency(
        _background(12, _PacedBackend),
        default_config(),
        warmup_frames=2,
    )
    if not 20.0 <= paced_stats.p50_ms <= 40.0:
        raise CheckFailed(
            f"20 ms paced source measured p50 {paced_stats.p50_ms:.3f} ms, "
            "expected within [20, 40]"
        )
    if any(r.end_to_end_ms < max(r.stages.values()) for r in paced_records):
        raise CheckFailed("a frame's end-to-end time undercut one of its stage times")
    return (
        f"nearest-rank percentiles exact on scripted clocks; 20 ms paced source "
        f"measured p50 {paced_stats.p50_ms:.2f} ms"
    )


# Criterion N is row N: (name, check), in criterion order.
ALL_CHECKS: tuple[tuple[str, Callable[[], str]], ...] = (
    ("efficiency-figures", check_efficiency_figures),
    ("hardware-comparison", check_hardware_substitution),
    ("nms-vs-reference", check_nms_reference),
    ("encode-decode-roundtrip", check_roundtrip),
    ("fsm-closure", check_fsm_closure),
    ("height-forms-agree", check_height_forms),
    ("end-to-end-alerts", check_end_to_end_alerts),
    ("evaluation-arithmetic", check_evaluation_arithmetic),
    ("latency-harness", check_latency_harness),
)


def run_all() -> list[CheckResult]:
    """Run every acceptance check in criterion order.

    A CheckFailed becomes a failed result; any other exception propagates.
    """
    results = []
    for criterion, (name, check) in enumerate(ALL_CHECKS, start=1):
        try:
            results.append(CheckResult(criterion, name, True, check()))
        except CheckFailed as failure:
            results.append(CheckResult(criterion, name, False, str(failure)))
    return results
