"""Slow, plainly correct references for the frame path, shared by the tests.

Each reference is written for obviousness, not speed: the per-cell decode
scores every cell and builds one `Det` record per kept cell, the NMS scans
every kept pair explicitly, `row_by_row_nms` tests one kept row at a
time against every alive candidate, `greedy_match` computes one scalar IoU per
pair, `reference_clip` clips a polygon to a box with one closure per side,
`reference_area` is a shoelace of its own, `reference_polygon_is_simple`
tests every pair of non-adjacent edges, `ReferenceTrainMachine` keeps the
train state machine's two counts by name and measures zone overlap with
`reference_clip` and `reference_area`, and `reference_frame_records`
chains decode and NMS with a train state machine, a hand-written ground
point and its own severity grading into the records the pipeline should
emit for one frame. On the simulator's side, `reference_generate`
interpolates one (frame, actor) at a time and `reference_encode_objects`
writes one object at a time, as the simulator did before it rendered in
arrays.
"""

from __future__ import annotations

import bisect
import math
from collections import namedtuple

import numpy as np

from stationwatch import (BoundingBox, Detections, EncodingCollisionError, GroundTruthFrame,
                          GroundTruthObject, RawTensorSet, ScenarioError, TrainState, ZoneKind,
                          point_in_polygon)

# One detection as a plain record: a BoundingBox, a score and a class id.
Det = namedtuple("Det", "box score class_id")


def to_batch(dets):
    """The `Detections` batch holding `dets`, one row each, in order."""
    return Detections(
        np.array([d.box for d in dets], dtype=np.float64).reshape(-1, 4),
        np.array([d.score for d in dets], dtype=np.float64),
        np.array([d.class_id for d in dets], dtype=np.int64),
    )


def box_area(box):
    """(x2 - x1) * (y2 - y1) of a BoundingBox."""
    return (box.x2 - box.x1) * (box.y2 - box.y1)


def box_center(box):
    """The (x, y) midpoint of a BoundingBox's corners."""
    return (box.x1 + box.x2) / 2.0, (box.y1 + box.y2) / 2.0


def from_batch(batch):
    """One `Det` per row of a `Detections` batch, in row order."""
    return [
        Det(BoundingBox(*box), score, class_id)
        for box, score, class_id in zip(
            batch.boxes.tolist(), batch.scores.tolist(), batch.class_ids.tolist()
        )
    ]


def cell_sigmoid(x):
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def per_cell_decode_head(tensor, stride, conf_threshold):
    """Oracle: the decode as it was before candidates were batched.

    Scores every cell of the tensor, then builds one Det per cell
    that reaches the threshold, in row-major order.
    """
    arr = np.asarray(tensor).astype(np.float64)
    obj = cell_sigmoid(arr[..., 4])
    class_logits = arr[..., 5:]
    class_ids = np.argmax(class_logits, axis=-1)
    scores = obj * cell_sigmoid(np.max(class_logits, axis=-1))
    keep_rows, keep_cols = np.nonzero(scores >= conf_threshold)
    detections = []
    for gy, gx in zip(keep_rows, keep_cols):
        tx, ty, tw, th = arr[gy, gx, 0:4]
        cx = (gx + tx) * stride
        cy = (gy + ty) * stride
        w = math.exp(tw) * stride
        h = math.exp(th) * stride
        box = BoundingBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
        if not all(math.isfinite(v) for v in box):
            raise ValueError(f"box at cell (gx={gx}, gy={gy}) is not finite: {box}")
        detections.append(
            Det(
                box=box,
                score=float(scores[gy, gx]),
                class_id=int(class_ids[gy, gx]),
            )
        )
    return detections


def per_cell_decode_all(frame, config):
    width, height = frame.image_width, frame.image_height
    return [
        Det(
            BoundingBox(
                min(max(det.box.x1, 0.0), width),
                min(max(det.box.y1, 0.0), height),
                min(max(det.box.x2, 0.0), width),
                min(max(det.box.y2, 0.0), height),
            ),
            det.score,
            det.class_id,
        )
        for tensor, stride in zip(frame.outputs, config.strides)
        for det in per_cell_decode_head(tensor, stride, config.conf_threshold)
    ]


def brute_force_nms(dets, threshold):
    """Independent reference: explicit visit order, explicit pair scan."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, dets[i].class_id, i))
    kept = []
    for i in order:
        ok = True
        for j in kept:
            if dets[j].class_id != dets[i].class_id:
                continue
            a, b = dets[j].box, dets[i].box
            iw = max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1))
            ih = max(0.0, min(a.y2, b.y2) - max(a.y1, b.y1))
            inter = iw * ih
            union = box_area(a) + box_area(b) - inter
            overlap = inter / union if union > 0 else 0.0
            if overlap > threshold:
                ok = False
                break
        if ok:
            kept.append(i)
    return [dets[i] for i in kept]


def row_by_row_nms(detections, iou_threshold):
    """The batch NMS as it was before pairs were found in bulk, on a `Detections` batch.

    One kept row at a time: the head of the alive candidates, in visit
    order, is kept and every alive same-class candidate whose IoU with it,
    by the arithmetic of `iou_matrix`, is above the threshold is dropped.
    """
    order = np.lexsort((detections.class_ids, -detections.scores))
    # Rows: x1, y1, x2, y2, area, class id, input row; columns: the
    # candidates still alive, in visit order.
    live = np.empty((7, len(order)))
    live[:4] = detections.boxes[order].T
    live[4] = (live[2] - live[0]) * (live[3] - live[1])
    live[5] = detections.class_ids[order]
    live[6] = order
    kept = []
    with np.errstate(divide="ignore", invalid="ignore"):
        while live.shape[1]:
            head, rest = live[:, 0], live[:, 1:]
            kept.append(head[6])
            lo = np.maximum(head[:2, None], rest[:2])
            hi = np.minimum(head[2:4, None], rest[2:4])
            iw, ih = np.maximum(hi - lo, 0.0)
            inter = iw * ih
            overlap = inter / (head[4] + rest[4] - inter)
            suppressed = (overlap > iou_threshold) & (rest[5] == head[5])
            live = rest[:, ~suppressed] if suppressed.any() else rest
    return detections.take(np.array(kept, dtype=np.intp))


def scalar_iou(a, b):
    """Intersection area over union area of two BoundingBoxes; 0 when the union is empty."""
    ix1 = max(a.x1, b.x1)
    iy1 = max(a.y1, b.y1)
    ix2 = min(a.x2, b.x2)
    iy2 = min(a.y2, b.y2)
    inter = max(0.0, ix2 - ix1) * max(0.0, iy2 - iy1)
    union = box_area(a) + box_area(b) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def greedy_match(predictions, ground_truth, iou_threshold, class_id):
    """(tp, fp, fn) of one frame by the matching loop, one scalar IoU per pair.

    Predictions are `Det` records, visited by descending score; each takes
    the unmatched ground-truth box of its class with the highest IoU, the
    lowest index on ties, if that IoU reaches the threshold.
    """
    gt_boxes = [obj.box for obj in ground_truth.objects if obj.class_id == class_id]
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
            overlap = scalar_iou(pred.box, gt_boxes[j])
            if overlap > best_iou:
                best_iou = overlap
                best_j = j
        if best_j >= 0 and best_iou >= iou_threshold:
            unmatched.remove(best_j)
            tp += 1
    return tp, len(preds) - tp, len(unmatched)


def reference_clip(vertices, box):
    """Sutherland-Hodgman clip of a polygon against an (x1, y1, x2, y2) box.

    One half-plane pass per side of the box, each side given as a membership
    test and an intersection closure of its own.
    """
    x1, y1, x2, y2 = box

    def clip_half_plane(points, inside, intersect):
        out = []
        n = len(points)
        for i in range(n):
            cur = points[i]
            prev = points[i - 1]
            cur_in = inside(cur)
            prev_in = inside(prev)
            if cur_in:
                if not prev_in:
                    out.append(intersect(prev, cur))
                out.append(cur)
            elif prev_in:
                out.append(intersect(prev, cur))
        return out

    def x_cut(bound):
        def intersect(p, q):
            t = (bound - p[0]) / (q[0] - p[0])
            return (bound, p[1] + t * (q[1] - p[1]))
        return intersect

    def y_cut(bound):
        def intersect(p, q):
            t = (bound - p[1]) / (q[1] - p[1])
            return (p[0] + t * (q[0] - p[0]), bound)
        return intersect

    points = list(vertices)
    for inside, intersect in (
        (lambda p: p[0] >= x1, x_cut(x1)),
        (lambda p: p[0] <= x2, x_cut(x2)),
        (lambda p: p[1] >= y1, y_cut(y1)),
        (lambda p: p[1] <= y2, y_cut(y2)),
    ):
        points = clip_half_plane(points, inside, intersect)
        if not points:
            return []
    return points


def reference_area(vertices):
    """Shoelace area of a polygon, 0 for fewer than three vertices."""
    if len(vertices) < 3:
        return 0.0
    twice = sum(x1 * y2 - x2 * y1
                for (x1, y1), (x2, y2) in zip(vertices, vertices[1:] + vertices[:1]))
    return abs(twice) / 2.0


def _reference_cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _reference_segments_meet(p1, p2, p3, p4):
    """True when segments p1p2 and p3p4 share any point."""
    d1 = _reference_cross(p3, p4, p1)
    d2 = _reference_cross(p3, p4, p2)
    d3 = _reference_cross(p1, p2, p3)
    d4 = _reference_cross(p1, p2, p4)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0 \
            and d3 != 0 and d4 != 0:
        return True

    def on(a, b, p):
        return (
            _reference_cross(a, b, p) == 0
            and min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
        )

    return on(p3, p4, p1) or on(p3, p4, p2) or on(p1, p2, p3) or on(p1, p2, p4)


def reference_polygon_is_simple(vertices):
    """True when no two edges of the polygon meet, other than neighbours."""
    n = len(vertices)
    edges = [(vertices[i], vertices[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            if _reference_segments_meet(*edges[i], *edges[j]):
                return False
    return True


class ReferenceTrainMachine:
    """The train state machine as the `train_fsm` module docstring's table reads.

    It keeps the two confirmation counts by name, consecutive stationary
    frames and consecutive absent frames, zeroes both on every state change,
    and keeps its own last train centre. A train is present when any box
    overlaps the zone or has its bottom centre in it; the first box of the
    largest area gives the centre.
    """

    def __init__(self, config):
        self.config = config
        self.state = TrainState.OFF
        self.stationary_frames = 0
        self.absent_frames = 0
        self.centroid = None

    def observe_and_step(self, trains, risk_zone):
        """(before, after, centre) of one frame's train boxes, as `TrainStateMachine`'s."""
        present = False
        for x1, y1, x2, y2 in trains:
            if (reference_area(reference_clip(risk_zone.polygon, (x1, y1, x2, y2))) > 0.0
                    or point_in_polygon((x1 + x2) / 2.0, y2, risk_zone.polygon)):
                present = True
        centroid = None
        if present:
            largest = None
            for x1, y1, x2, y2 in trains:
                area = (x2 - x1) * (y2 - y1)
                if largest is None or area > largest:
                    largest = area
                    centroid = ((x1 + x2) / 2.0, (y1 + y2) / 2.0)
        if centroid is None or self.centroid is None:
            moved = 0.0
        else:
            moved = math.hypot(centroid[0] - self.centroid[0], centroid[1] - self.centroid[1])
        still = moved < self.config.stationary_eps_px
        confirm = self.config.confirm_frames

        before = self.state
        after = before
        if before is TrainState.OFF:
            if present:
                after = TrainState.IN                       # OFF -> IN: train present
        elif before is TrainState.IN:
            if not present:
                after = TrainState.OUT                      # IN -> OUT: pass-through
            elif still:
                self.stationary_frames += 1
                if self.stationary_frames >= confirm:
                    after = TrainState.ON                   # IN -> ON: stop confirmed
            else:
                self.stationary_frames = 0
        elif before is TrainState.ON:
            if not present or not still:
                after = TrainState.OUT                      # ON -> OUT: moves or absent
        elif before is TrainState.OUT:
            if present:
                self.absent_frames = 0
            else:
                self.absent_frames += 1
                if self.absent_frames >= confirm:
                    after = TrainState.OFF                  # OUT -> OFF: gone confirmed
        if after is not before:
            self.stationary_frames = 0
            self.absent_frames = 0
        self.state = after
        self.centroid = centroid
        return before, after, centroid


class Rejected(Exception):
    """The reference cannot decode the frame, so the pipeline must skip it."""


# The pipeline module docstring's grading: what the train is doing on the
# frame decides the severity of every alert of that frame.
REFERENCE_SEVERITY = {"IN": "CRITICAL", "ON": "WARNING", "OUT": "WARNING", "OFF": "CAUTION"}


def _printed(value):
    return round(float(value), 6)


def reference_frame_records(frame, config, fsm):
    """The result record and alert records of one frame.

    Raises Rejected when a head value is not finite or a kept cell's box
    does not fit in a float; `fsm` is then left as it was. Otherwise `fsm`,
    a train state machine such as `ReferenceTrainMachine`, advances on the
    frame's train rows, as the pipeline's machine does.
    """
    for tensor in frame.outputs:
        if not np.isfinite(tensor).all():
            raise Rejected("non-finite head value")
    try:
        candidates = per_cell_decode_all(frame, config.decode)
    except (OverflowError, ValueError) as exc:  # math.exp, or a non-finite corner
        raise Rejected(str(exc)) from exc
    kept = brute_force_nms(candidates, config.decode.nms_iou_threshold)

    trains = [list(d.box) for d in kept if d.class_id == config.decode.train_class_id]
    _, state, _ = fsm.observe_and_step(trains, config.risk_zone)

    alerts = []
    for det in kept:
        if det.class_id != config.decode.person_class_id:
            continue
        foot_x, foot_y = (det.box.x1 + det.box.x2) / 2.0, det.box.y2
        for zone in config.zones:
            if zone.kind is ZoneKind.DANGER and point_in_polygon(foot_x, foot_y, zone.polygon):
                alerts.append({
                    "frame": frame.frame_index,
                    "zone": zone.name,
                    "state": state.value,
                    "severity": REFERENCE_SEVERITY[state.value],
                    "box": [_printed(v) for v in det.box],
                    "score": _printed(det.score),
                })
    result = {
        "frame": frame.frame_index,
        "detections": [
            {
                "box": [_printed(v) for v in det.box],
                "score": _printed(det.score),
                "class": det.class_id,
            }
            for det in kept
        ],
        "state": state.value,
        "alerts": alerts,
    }
    return result, alerts


def _reference_interpolate(actor, frame):
    frames = [wp.frame for wp in actor.waypoints]
    if frame < frames[0] or frame > frames[-1]:
        return None
    i = bisect.bisect_right(frames, frame) - 1
    a = actor.waypoints[i]
    if a.frame == frame:
        return a.cx, a.cy, a.w, a.h
    b = actor.waypoints[i + 1]
    t = (frame - a.frame) / (b.frame - a.frame)
    return (
        a.cx + t * (b.cx - a.cx),
        a.cy + t * (b.cy - a.cy),
        a.w + t * (b.w - a.w),
        a.h + t * (b.h - a.h),
    )


def reference_generate(spec):
    """The scenario's ground truth, one (frame, actor) at a time."""
    frames = []
    for frame in range(spec.duration_frames):
        objects = []
        for actor_id, actor in enumerate(spec.actors):
            state = _reference_interpolate(actor, frame)
            if state is None:
                continue
            cx, cy, w, h = state
            x1, y1, x2, y2 = cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2
            if not (
                0 <= x1
                and 0 <= y1
                and x2 <= spec.image_width
                and y2 <= spec.image_height
                and all(math.isfinite(v) for v in (x1, y1, x2, y2))
            ):
                raise ScenarioError(
                    f"actor {actor_id} leaves the image at frame {frame}: "
                    f"box ({x1:.1f}, {y1:.1f}, {x2:.1f}, {y2:.1f})"
                )
            box = BoundingBox(x1, y1, x2, y2)
            objects.append(GroundTruthObject(class_id=actor.class_id, box=box, actor_id=actor_id))
        frames.append(GroundTruthFrame(frame_index=frame, objects=tuple(objects)))
    return frames


def _reference_logit(p):
    p = min(max(p, 1e-9), 1.0 - 1e-9)
    return math.log(p / (1.0 - p))


def _reference_pick_level(w, h, strides):
    scale = math.sqrt(w * h)
    costs = [abs(math.log(scale / (4.0 * s))) for s in strides]
    return costs.index(min(costs))


def reference_encode_objects(frame, config, image_width, image_height, num_classes,
                             actor_scores=None):
    """The frame's head tensors, written one object at a time.

    An object's size is refused as zero when its width, height or area is
    not positive, or when its width or height divided by its level's
    stride is 0. Its box is refused when its centre or any of the five
    values it writes (tx, ty, tw, th and the logit) is not finite as a
    float32. Two objects collide when they map to the same (level, cell),
    whatever was written there.
    """
    if num_classes < 1:
        raise ScenarioError(f"num_classes must be >= 1, got {num_classes}")
    for stride in config.strides:
        if image_width % stride or image_height % stride:
            raise ScenarioError(
                f"stride {stride} does not divide image {image_width}x{image_height}"
            )
    if actor_scores is not None and len(actor_scores) != len(frame.objects):
        raise ScenarioError(
            f"actor_scores has {len(actor_scores)} entries for {len(frame.objects)} objects"
        )

    channels = 5 + num_classes
    outputs = []
    for stride in config.strides:
        grid = np.zeros((image_height // stride, image_width // stride, channels), dtype=np.float32)
        grid[..., 4:] = -20.0
        outputs.append(grid)

    taken = set()
    for position, obj in enumerate(frame.objects):
        if obj.class_id >= num_classes:
            raise ScenarioError(
                f"object class {obj.class_id} does not fit in {num_classes} classes"
            )
        w, h = obj.box.x2 - obj.box.x1, obj.box.y2 - obj.box.y1
        if w <= 0 or h <= 0 or w * h <= 0:
            raise ScenarioError(
                f"frame {frame.frame_index}: zero-size box cannot be encoded"
            )
        level = _reference_pick_level(w, h, config.strides)
        stride = config.strides[level]
        if w / stride == 0 or h / stride == 0:
            raise ScenarioError(
                f"frame {frame.frame_index}: zero-size box cannot be encoded"
            )
        score = 0.9 if actor_scores is None else actor_scores[position]
        if not 0.0 < score <= 1.0:
            raise ScenarioError(f"score must lie in (0, 1], got {score}")
        cx, cy = box_center(obj.box)
        fits = math.isfinite(cx) and math.isfinite(cy)
        if fits:
            grid = outputs[level]
            gx = min(max(int(cx // stride), 0), grid.shape[1] - 1)
            gy = min(max(int(cy // stride), 0), grid.shape[0] - 1)
            logit = _reference_logit(math.sqrt(score))
            with np.errstate(over="ignore"):  # a value too large for float32 becomes inf
                values = np.array([cx / stride - gx, cy / stride - gy, math.log(w / stride),
                                   math.log(h / stride), logit], dtype=np.float32)
            fits = bool(np.isfinite(values).all())
        if not fits:
            x1, y1, x2, y2 = map(float, obj.box)
            raise ScenarioError(f"frame {frame.frame_index}: box ({x1}, {y1}, {x2}, {y2}) "
                                "does not fit the float32 head tensors")
        if (level, gy, gx) in taken:
            raise EncodingCollisionError(
                frame.frame_index,
                stride,
                (gx, gy),
                f"frame {frame.frame_index}: two objects map to stride-{stride} "
                f"cell (gx={gx}, gy={gy})",
            )
        taken.add((level, gy, gx))
        grid[gy, gx, :5] = values
        grid[gy, gx, 5 + obj.class_id] = logit

    return RawTensorSet(
        frame_index=frame.frame_index,
        outputs=tuple(outputs),
        image_width=image_width,
        image_height=image_height,
    )
