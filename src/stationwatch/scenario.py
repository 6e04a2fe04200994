"""Synthetic scenario generation: scripted scenes rendered as head tensors.

An actor is a class id plus waypoints; between waypoints its box is
linearly interpolated, outside its waypoint span it is absent. Rendering a
frame writes each object into the grid cell of the stride level whose
receptive scale best matches the box, producing tensors the decoder maps
back to the same boxes and scores. That inverse relationship is what makes
end-to-end behavior testable without a detector in the loop.

The built-in scenarios play out on a fixed 320x320 station scene:

    y=20..100   track (RISK zone)        - where trains run
    y=100..130  yellow strip (DANGER)    - past the safety line
    y=130..240  platform (MONITOR)       - where passengers wait

Coordinates are pixels, y grows downward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import EncodingCollisionError, ScenarioError
from .postprocess import (BoundingBox, DecodeConfig, box_from_json, known_keys, reading,
                          real_number, round6, whole_number)
from .tensor_stream import RawTensorSet

_BACKGROUND_LOGIT = -20.0  # sigmoid(-20) ~ 2e-9: dead cell at any sane threshold
_SCORE_CLAMP = 1e-9        # keeps logit(sqrt(score)) finite for score = 1.0

SCENE_WIDTH = 320
SCENE_HEIGHT = 320
SCENE_NUM_CLASSES = 8  # leading COCO ids: person=0 ... train=6, truck=7
MAX_SCENARIO_BYTES = 2**30  # the tensors of one encoded scenario, all held in memory at once

TRACK_POLYGON = ((0.0, 20.0), (320.0, 20.0), (320.0, 100.0), (0.0, 100.0))
YELLOW_LINE_POLYGON = ((0.0, 100.0), (320.0, 100.0), (320.0, 130.0), (0.0, 130.0))
PLATFORM_POLYGON = ((0.0, 130.0), (320.0, 130.0), (320.0, 240.0), (0.0, 240.0))

PERSON_CLASS = 0
TRAIN_CLASS = 6

# What `_object_rules` finds first wrong with an object, in the encoder's check order.
_SIZE, _SCORE = 1, 2


@dataclass(frozen=True)
class Waypoint:
    """Box centre and size an actor passes through at a given frame."""

    frame: int
    cx: float
    cy: float
    w: float
    h: float


@dataclass(frozen=True)
class Actor:
    """One scripted object; absent outside its waypoint span."""

    class_id: int
    waypoints: tuple[Waypoint, ...]
    score_level: float = 0.9

    def __post_init__(self):
        object.__setattr__(self, "waypoints", tuple(self.waypoints))
        if self.class_id < 0:
            raise ScenarioError(f"class_id must be >= 0, got {self.class_id}")
        if not 0.0 < self.score_level <= 1.0:
            raise ScenarioError(f"score_level must lie in (0, 1], got {self.score_level}")
        if not self.waypoints:
            raise ScenarioError("actor needs at least one waypoint")
        frames = [wp.frame for wp in self.waypoints]
        if any(b <= a for a, b in zip(frames, frames[1:])):
            raise ScenarioError(f"waypoints must be sorted by strictly increasing frame: {frames}")
        if frames[0] < 0:  # spec files read frames as whole numbers: keep every spec loadable
            raise ScenarioError(f"waypoint frames must be >= 0, got {frames[0]}")
        for wp in self.waypoints:
            if wp.w <= 0 or wp.h <= 0:
                raise ScenarioError(f"waypoint at frame {wp.frame} has non-positive size")


@dataclass(frozen=True)
class ScenarioSpec:
    """A full scripted scene."""

    duration_frames: int
    image_width: int
    image_height: int
    actors: tuple[Actor, ...]

    def __post_init__(self):
        object.__setattr__(self, "actors", tuple(self.actors))
        if self.duration_frames < 1:
            raise ScenarioError(f"duration_frames must be >= 1, got {self.duration_frames}")
        if self.image_width < 1 or self.image_height < 1:
            raise ScenarioError("image dimensions must be positive")


class GroundTruthObject(NamedTuple):
    class_id: int
    box: BoundingBox
    actor_id: int


@dataclass(frozen=True)
class GroundTruthFrame:
    frame_index: int
    objects: tuple[GroundTruthObject, ...]


def _tracks(spec: ScenarioSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (frame, actor) box of the scenario, in one array pass.

    Rows run frame by frame, in actor order within a frame. Returns the
    number of rows in each frame, each row's actor id and its corners as
    an (n, 4) float64 array of (x1, y1, x2, y2). Between waypoints a and b
    a row is a + t * (b - a) with t = (f - a.frame) / (b.frame - a.frame),
    the correctly rounded quotient while both frame counts stay below
    2**53; a frame that is a waypoint copies it. The first row with a
    corner that is not finite or outside the image raises ScenarioError.
    """
    duration = spec.duration_frames
    spans, ends = [], []  # per segment: (actor, first frame, frames, b.frame - a.frame); a and b
    for actor_id, actor in enumerate(spec.actors):
        waypoints = actor.waypoints
        for a, b in zip(waypoints, waypoints[1:] + waypoints[-1:]):
            if a.frame >= duration:
                break
            stop = b.frame if b is not a else a.frame + 1
            spans.append((actor_id, a.frame, min(stop, duration) - a.frame, b.frame - a.frame or 1))
            ends.append((a.cx, a.cy, a.w, a.h, b.cx, b.cy, b.w, b.h))
    actor_of, first, length, step = np.array(spans, dtype=np.int64).reshape(-1, 4).T
    ends = np.array(ends, dtype=np.float64).reshape(-1, 8)

    segment = np.repeat(np.arange(len(length)), length)
    offset = np.arange(len(segment)) - np.repeat(np.cumsum(length) - length, length)
    order = np.argsort(first[segment] + offset, kind="stable")  # frame-major, then actor order
    segment, offset = segment[order], offset[order]
    frame, actor_ids = first[segment] + offset, actor_of[segment]
    a, b = ends[segment, :4], ends[segment, 4:]
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats: inf and nan, no warning
        t = (offset / step[segment])[:, None]
        cx, cy, w, h = np.where(offset[:, None] == 0, a, a + t * (b - a)).T
        corners = np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=1)

    x1, y1, x2, y2 = corners.T
    bad = (~np.isfinite(corners).all(axis=1) | (x1 < 0) | (y1 < 0)
           | (x2 > spec.image_width) | (y2 > spec.image_height))
    if bad.any():
        row = int(bad.argmax())
        x1, y1, x2, y2 = corners[row].tolist()
        raise ScenarioError(
            f"actor {actor_ids[row]} leaves the image at frame {frame[row]}: "
            f"box ({x1:.1f}, {y1:.1f}, {x2:.1f}, {y2:.1f})"
        )
    return np.bincount(frame, minlength=duration), actor_ids, corners


def _ground_truth(spec: ScenarioSpec, counts: np.ndarray, actor_ids: np.ndarray,
                  corners: np.ndarray) -> list[GroundTruthFrame]:
    classes = [actor.class_id for actor in spec.actors]
    objects = [
        GroundTruthObject(classes[actor_id], BoundingBox(x1, y1, x2, y2), actor_id)
        for actor_id, x1, y1, x2, y2 in zip(actor_ids.tolist(), *corners.T.tolist())
    ]
    stops = np.cumsum(counts).tolist()
    return [
        GroundTruthFrame(index, tuple(objects[stop - count:stop]))
        for index, (count, stop) in enumerate(zip(counts.tolist(), stops))
    ]


def generate_scenario(spec: ScenarioSpec) -> list[GroundTruthFrame]:
    """Render a scenario into per-frame ground truth boxes.

    Pure function of its input; the same scenario always yields the same
    frames. Raises ScenarioError when an interpolated box is not finite or
    leaves the image.
    """
    return _ground_truth(spec, *_tracks(spec))


def _score_logit(score: float) -> float:
    """logit(sqrt(score)), with sqrt(score) clamped so that a score of 1.0 stays finite."""
    p = min(max(math.sqrt(score), _SCORE_CLAMP), 1.0 - _SCORE_CLAMP)
    return math.log(p / (1.0 - p))


def _object_rules(strides: Sequence[int], w: float, h: float, score: float) -> tuple:
    """The scalar rules of one object of size (w, h) and score `score`.

    Returns (refusal, level, tw, th, logit): the level whose stride puts
    the box scale closest to 4 cells, the first on a tie, and log(w /
    stride) and log(h / stride) at it. `refusal` is the first rule broken:
    _SIZE (zero, or vanishing at the stride), _SCORE, or 0; after a
    refusal the fields read 0.
    """
    fine, middle, coarse = strides
    try:  # a domain error: the size is zero or vanishes at the stride
        scale = math.sqrt(w * h)
        costs = (abs(math.log(scale / (4.0 * fine))), abs(math.log(scale / (4.0 * middle))),
                 abs(math.log(scale / (4.0 * coarse))))
        level = costs.index(min(costs))
        tw, th = math.log(w / strides[level]), math.log(h / strides[level])
    except ValueError:
        return _SIZE, 0, 0.0, 0.0, 0.0
    if not 0.0 < score <= 1.0:
        return _SCORE, 0, 0.0, 0.0, 0.0
    return 0, level, tw, th, _score_logit(score)


def _place(frame_indices: Sequence[int], counts: Sequence[int], boxes: np.ndarray,
           class_ids: Sequence[int], scores: Sequence[float], strides: Sequence[int],
           layout: np.ndarray, num_classes: int):
    """Where `_encode` writes each object, and what.

    Row i of `layout` describes level i: (cols, rows, its first row in
    `_encode`'s cell buffer, stride). Returns each
    object's row in that buffer, its class channel and its five values
    (tx, ty, tw, th, logit) as float32. A function of its own so that its
    per-object temporaries are freed before `_encode` allocates the
    tensors, which keeps the peak memory of a scene at the tensors plus
    its ground truth.
    """
    frame_of = np.repeat(np.arange(len(frame_indices)), counts)
    classes = np.asarray(class_ids)
    with np.errstate(over="ignore"):  # an infinite width or height is refused below
        size = boxes[:, 2:] - boxes[:, :2]  # (w, h)
    # The scalar rules run once per distinct (w, h, score), in plain floats.
    keys = list(zip(*size.T.tolist(), np.asarray(scores, dtype=np.float64).tolist()))
    rules = {key: _object_rules(strides, *key) for key in set(keys)}
    table = np.array([rules[key] for key in keys], dtype=np.float64).reshape(-1, 5)
    refusal, level = table[:, 0], table[:, 1].astype(np.int64)
    grid = layout[level]
    stride = grid[:, 3:]
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan are refused below
        centre = (boxes[:, :2] + boxes[:, 2:]) / 2.0  # (cx, cy)
        # A centre that is not finite gives a garbage cell; its values are not finite.
        cell_xy = np.minimum(np.maximum(np.floor_divide(centre, stride), 0), grid[:, :2] - 1)
        cell_xy = cell_xy.astype(np.int64)  # (gx, gy)
        values = np.concatenate([centre / stride - cell_xy, table[:, 2:]], axis=1)
        values = values.astype(np.float32)
    unwritable = ~np.isfinite(values).all(axis=1)
    gx, gy = cell_xy.T
    cell = grid[:, 2] + (frame_of * grid[:, 1] + gy) * grid[:, 0] + gx
    order = cell.argsort(kind="stable")
    taken = np.zeros(len(cell), dtype=bool)
    taken[order[1:]] = cell[order[1:]] == cell[order[:-1]]

    failed = (classes >= num_classes) | (refusal != 0) | unwritable | taken
    if failed.any():
        k = int(failed.argmax())
        index = frame_indices[frame_of[k]]
        if class_ids[k] >= num_classes:
            raise ScenarioError(
                f"object class {class_ids[k]} does not fit in {num_classes} classes"
            )
        if refusal[k] == _SIZE:
            raise ScenarioError(f"frame {index}: zero-size box cannot be encoded")
        if refusal[k] == _SCORE:
            raise ScenarioError(f"score must lie in (0, 1], got {scores[k]}")
        if unwritable[k]:
            x1, y1, x2, y2 = boxes[k].tolist()
            raise ScenarioError(
                f"frame {index}: box ({x1}, {y1}, {x2}, {y2}) does not fit the float32 "
                "head tensors"
            )
        s, x, y = int(stride[k, 0]), int(gx[k]), int(gy[k])
        raise EncodingCollisionError(index, s, (x, y), f"frame {index}: two objects map to "
                                     f"stride-{s} cell (gx={x}, gy={y})")

    return cell, 5 + classes.astype(np.int64), values


def _encode(frame_indices: Sequence[int], counts: Sequence[int], boxes: np.ndarray,
            class_ids: Sequence[int], scores: Sequence[float], config: DecodeConfig,
            image_width: int, image_height: int, num_classes: int) -> list[RawTensorSet]:
    """Head tensors of a run of frames, every object written in one array pass.

    `counts[i]` objects belong to the frame `frame_indices[i]`; `boxes`
    ((n, 4) corners), `class_ids` and `scores` hold every object, frame by
    frame. The scalar rules (`_object_rules`) run once per distinct
    (w, h, score); the rest is elementwise IEEE arithmetic equal to
    writing one object at a time. The first object, in frame and object
    order, that fails a check raises its first failing check: class, size
    (zero, or vanishing at the level's stride), score, values (the five
    float32 values written must be finite), then cell collision.
    """
    if num_classes < 1:
        raise ScenarioError(f"num_classes must be >= 1, got {num_classes}")
    for stride in config.strides:
        if image_width % stride or image_height % stride:
            raise ScenarioError(
                f"stride {stride} does not divide image {image_width}x{image_height}"
            )
    if len(scores) != len(boxes):
        raise ScenarioError(f"actor_scores has {len(scores)} entries for {len(boxes)} objects")

    # One buffer of cells holds every level of every frame, level by level;
    # each level's tensors are a (frames, rows, cols, channels) view of it.
    frames, channels = len(frame_indices), 5 + num_classes
    layout, first = [], 0
    for stride in config.strides:
        rows, cols = image_height // stride, image_width // stride
        layout.append((cols, rows, first, stride))
        first += frames * rows * cols
    cell, channel, values = _place(frame_indices, counts, boxes, class_ids, scores,
                                   config.strides, np.array(layout), num_classes)
    cells = np.empty((first, channels), dtype=np.float32)
    # The widest grid row of background cells; each level is filled a grid
    # row at a time, one contiguous copy per row.
    row = np.empty((layout[0][0], channels), dtype=np.float32)
    row[:, :4] = 0.0
    row[:, 4:] = _BACKGROUND_LOGIT
    levels = []
    for cols, rows, first, _ in layout:
        level = cells[first:first + frames * rows * cols].reshape(frames, rows, cols, channels)
        level[...] = row[:cols]
        levels.append(level)
    cells[cell, :5] = values
    cells[cell, channel] = values[:, 4]
    return [
        RawTensorSet(index, tuple(level[f] for level in levels), image_width, image_height)
        for f, index in enumerate(frame_indices)
    ]


def encode_objects_to_tensors(
    frame: GroundTruthFrame,
    config: DecodeConfig,
    image_width: int,
    image_height: int,
    num_classes: int,
    actor_scores: Sequence[float] | None = None,
) -> RawTensorSet:
    """Render ground truth objects into decodable head tensors.

    Each object is written into exactly one cell: the stride level whose
    scale best matches the box, at the cell containing the box centre.
    Objectness and the object's class logit are both set to
    logit(sqrt(score)), so the decoder's fused score reproduces the
    requested score; all other cells stay at background logits. The
    first object that fails a check raises ScenarioError for the first
    it fails: class, size (zero, or vanishing at its stride), score,
    values (each of the five float32 values written, tx, ty, tw, th and
    the logit, must be finite), then cell: two objects mapping to the same
    (level, cell) raise EncodingCollisionError, whatever the first wrote.

    Per-object scores come from actor_scores (indexed by position in
    frame.objects); without it every object scores 0.9.
    """
    objects = frame.objects
    boxes = np.array([o.box for o in objects], dtype=np.float64).reshape(-1, 4)
    scores = [0.9] * len(objects) if actor_scores is None else actor_scores
    return _encode([frame.frame_index], [len(objects)], boxes, [o.class_id for o in objects],
                   scores, config, image_width, image_height, num_classes)[0]


def _train_cycle(enter: int, stop: int, depart: int, gone: int,
                 cx_from: float, cx_hold: float, cx_to: float) -> Actor:
    """A train that rolls in, holds, and pulls out along the track."""
    return Actor(
        class_id=TRAIN_CLASS,
        score_level=0.95,
        waypoints=(
            Waypoint(enter, cx_from, 60.0, 60.0, 60.0),
            Waypoint(stop, cx_hold, 60.0, 60.0, 60.0),
            Waypoint(depart, cx_hold, 60.0, 60.0, 60.0),
            Waypoint(gone, cx_to, 60.0, 60.0, 60.0),
        ),
    )


def builtin_scenarios() -> dict[str, ScenarioSpec]:
    """Named ready-to-run scenes on the default station layout.

    empty_platform: a full train cycle with nobody on the platform.
    crossing_during_approach: one passenger steps over the yellow strip
        (ground point inside y=100..130 during frames 20..38) while the
        train is still approaching.
    crowd_safe: several passengers moving on the platform, none past the
        yellow line, plus a non-stopping train pass-through.
    """
    train = _train_cycle(enter=10, stop=40, depart=100, gone=130,
                         cx_from=50.0, cx_hold=170.0, cx_to=290.0)

    # Ground point y2 = cy + 20 for the 18x40 passenger box. Descending at
    # 2.5 px/frame from y2=180, the yellow strip [100, 130] is occupied from
    # frame 20; climbing back at 5 px/frame it is left after frame 38.
    crossing_person = Actor(
        class_id=PERSON_CLASS,
        score_level=0.9,
        waypoints=(
            Waypoint(0, 160.0, 160.0, 18.0, 40.0),
            Waypoint(32, 160.0, 80.0, 18.0, 40.0),
            Waypoint(48, 160.0, 160.0, 18.0, 40.0),
            Waypoint(80, 200.0, 160.0, 18.0, 40.0),
        ),
    )

    crowd = (
        Actor(PERSON_CLASS, (Waypoint(0, 40.0, 140.0, 18.0, 40.0),
                             Waypoint(119, 280.0, 140.0, 18.0, 40.0)), 0.88),
        Actor(PERSON_CLASS, (Waypoint(0, 280.0, 190.0, 18.0, 40.0),
                             Waypoint(119, 40.0, 190.0, 18.0, 40.0)), 0.84),
        Actor(PERSON_CLASS, (Waypoint(10, 160.0, 170.0, 18.0, 40.0),
                             Waypoint(60, 100.0, 170.0, 18.0, 40.0),
                             Waypoint(110, 160.0, 170.0, 18.0, 40.0)), 0.8),
        Actor(PERSON_CLASS, (Waypoint(0, 240.0, 205.0, 18.0, 40.0),
                             Waypoint(119, 240.0, 205.0, 18.0, 40.0)), 0.92),
        Actor(TRAIN_CLASS, (Waypoint(20, 50.0, 60.0, 60.0, 60.0),
                            Waypoint(100, 290.0, 60.0, 60.0, 60.0)), 0.95),
    )

    return {
        "empty_platform": ScenarioSpec(
            duration_frames=150,
            image_width=SCENE_WIDTH,
            image_height=SCENE_HEIGHT,
            actors=(train,),
        ),
        "crossing_during_approach": ScenarioSpec(
            duration_frames=150,
            image_width=SCENE_WIDTH,
            image_height=SCENE_HEIGHT,
            actors=(train, crossing_person),
        ),
        "crowd_safe": ScenarioSpec(
            duration_frames=120,
            image_width=SCENE_WIDTH,
            image_height=SCENE_HEIGHT,
            actors=crowd,
        ),
    }


def encode_scenario(
    spec: ScenarioSpec, config: DecodeConfig, num_classes: int = SCENE_NUM_CLASSES
) -> tuple[list[GroundTruthFrame], list[RawTensorSet]]:
    """Generate ground truth and render every frame to tensors.

    A scenario whose tensors would take more than MAX_SCENARIO_BYTES is
    refused with ScenarioError before any frame is generated.
    """
    cells = sum((spec.image_height // s) * (spec.image_width // s) for s in config.strides)
    size = spec.duration_frames * cells * (5 + num_classes) * 4
    if size > MAX_SCENARIO_BYTES:
        raise ScenarioError(
            f"{spec.duration_frames} frames at {spec.image_width}x{spec.image_height} need "
            f"{size} bytes of tensors, more than MAX_SCENARIO_BYTES ({MAX_SCENARIO_BYTES})"
        )
    counts, actor_ids, corners = _tracks(spec)
    gt_frames = _ground_truth(spec, counts, actor_ids, corners)
    classes = np.array([actor.class_id for actor in spec.actors])
    scores = np.array([actor.score_level for actor in spec.actors], dtype=np.float64)
    tensor_frames = _encode(range(spec.duration_frames), counts, corners, classes[actor_ids],
                            scores[actor_ids], config, spec.image_width, spec.image_height,
                            num_classes)
    return gt_frames, tensor_frames


def scenario_to_json(spec: ScenarioSpec) -> dict:
    return {
        "duration_frames": spec.duration_frames,
        "image_width": spec.image_width,
        "image_height": spec.image_height,
        "actors": [
            {
                "class_id": actor.class_id,
                "score_level": actor.score_level,
                "waypoints": [[wp.frame, wp.cx, wp.cy, wp.w, wp.h] for wp in actor.waypoints],
            }
            for actor in spec.actors
        ],
    }


def scenario_from_json(data: dict) -> ScenarioSpec:
    """Inverse of scenario_to_json, for a spec that comes from outside.

    Frames, image sizes and class ids read through whole_number, the other
    fields only from JSON numbers. A key no field reads is refused by name,
    except the "seed" of older spec files, which is ignored.
    """
    with reading(ScenarioError, "scenario description"):
        known_keys(data, ("duration_frames", "image_width", "image_height", "actors", "seed"),
                   "scenario")
        actors = []
        for entry in data["actors"]:
            known_keys(entry, ("class_id", "score_level", "waypoints"), "actor")
            waypoints = tuple(
                Waypoint(whole_number(f, "waypoint frame"),
                         *(real_number(v, "waypoint centre or size") for v in (cx, cy, w, h)))
                for f, cx, cy, w, h in entry["waypoints"]
            )
            actors.append(Actor(
                class_id=whole_number(entry["class_id"], "class_id"),
                score_level=real_number(entry.get("score_level", 0.9), "score_level"),
                waypoints=waypoints,
            ))
        return ScenarioSpec(
            duration_frames=whole_number(data["duration_frames"], "duration_frames"),
            image_width=whole_number(data["image_width"], "image_width"),
            image_height=whole_number(data["image_height"], "image_height"),
            actors=actors,
        )


def _frame_to_json(gt: GroundTruthFrame) -> dict:
    corners = np.array([obj.box for obj in gt.objects], dtype=np.float64)
    objects = []
    for obj, box in zip(gt.objects, round6(corners.reshape(-1, 4)).tolist()):
        entry = {"class": obj.class_id, "box": box}
        if obj.actor_id >= 0:  # -1, no actor, is written as no "actor" key
            entry["actor"] = obj.actor_id
        objects.append(entry)
    return {"frame": gt.frame_index, "objects": objects}


def ground_truth_to_json(frames: Sequence[GroundTruthFrame]) -> dict:
    return {"frames": [_frame_to_json(gt) for gt in frames]}


def ground_truth_from_json(data: dict) -> list[GroundTruthFrame]:
    with reading(ScenarioError, "ground truth"):
        return [
            GroundTruthFrame(
                frame_index=whole_number(entry["frame"], "frame"),
                objects=tuple(
                    GroundTruthObject(
                        class_id=whole_number(obj["class"], "class"),
                        box=box_from_json(obj["box"]),
                        actor_id=whole_number(obj["actor"], "actor") if "actor" in obj else -1,
                    )
                    for obj in entry["objects"]
                ),
            )
            for entry in data["frames"]
        ]
