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

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

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


@dataclass(frozen=True)
class GroundTruthObject:
    class_id: int
    box: BoundingBox
    actor_id: int


@dataclass(frozen=True)
class GroundTruthFrame:
    frame_index: int
    objects: tuple[GroundTruthObject, ...]


def _interpolate(actor: Actor, frame: int) -> tuple[float, float, float, float] | None:
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


def generate_scenario(spec: ScenarioSpec) -> list[GroundTruthFrame]:
    """Render a scenario into per-frame ground truth boxes.

    Pure function of its input; the same scenario always yields the same
    frames. Raises ScenarioError when an interpolated box leaves the image.
    """
    frames: list[GroundTruthFrame] = []
    for frame in range(spec.duration_frames):
        objects: list[GroundTruthObject] = []
        for actor_id, actor in enumerate(spec.actors):
            state = _interpolate(actor, frame)
            if state is None:
                continue
            cx, cy, w, h = state
            box = BoundingBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
            if (
                box.x1 < 0
                or box.y1 < 0
                or box.x2 > spec.image_width
                or box.y2 > spec.image_height
            ):
                raise ScenarioError(
                    f"actor {actor_id} leaves the image at frame {frame}: "
                    f"box ({box.x1:.1f}, {box.y1:.1f}, {box.x2:.1f}, {box.y2:.1f})"
                )
            objects.append(GroundTruthObject(class_id=actor.class_id, box=box, actor_id=actor_id))
        frames.append(GroundTruthFrame(frame_index=frame, objects=tuple(objects)))
    return frames


def _logit(p: float) -> float:
    p = min(max(p, _SCORE_CLAMP), 1.0 - _SCORE_CLAMP)
    return math.log(p / (1.0 - p))


def _pick_level(w: float, h: float, strides: Sequence[int]) -> int:
    # Best level is where the box scale sits closest to 4 cells.
    scale = math.sqrt(w * h)
    costs = [abs(math.log(scale / (4.0 * s))) for s in strides]
    return costs.index(min(costs))


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
    requested score; all other cells stay at background logits. Two
    objects mapping to the same (level, cell) cannot be represented and
    raise EncodingCollisionError.

    Per-object scores come from actor_scores (indexed by position in
    frame.objects); without it every object scores 0.9.
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
        grid[..., 4:] = _BACKGROUND_LOGIT
        outputs.append(grid)

    for position, obj in enumerate(frame.objects):
        if obj.class_id >= num_classes:
            raise ScenarioError(
                f"object class {obj.class_id} does not fit in {num_classes} classes"
            )
        w, h = obj.box.width, obj.box.height
        if w <= 0 or h <= 0:
            raise ScenarioError(
                f"frame {frame.frame_index}: zero-size box cannot be encoded"
            )
        score = 0.9 if actor_scores is None else actor_scores[position]
        if not 0.0 < score <= 1.0:
            raise ScenarioError(f"score must lie in (0, 1], got {score}")

        level = _pick_level(w, h, config.strides)
        stride = config.strides[level]
        grid = outputs[level]
        cx, cy = obj.box.center()
        gx = min(max(int(cx // stride), 0), grid.shape[1] - 1)
        gy = min(max(int(cy // stride), 0), grid.shape[0] - 1)
        if grid[gy, gx, 4] != _BACKGROUND_LOGIT:
            raise EncodingCollisionError(
                frame.frame_index,
                stride,
                (gx, gy),
                f"frame {frame.frame_index}: two objects map to stride-{stride} "
                f"cell (gx={gx}, gy={gy})",
            )
        logit = _logit(math.sqrt(score))
        grid[gy, gx, 0] = cx / stride - gx
        grid[gy, gx, 1] = cy / stride - gy
        grid[gy, gx, 2] = math.log(w / stride)
        grid[gy, gx, 3] = math.log(h / stride)
        grid[gy, gx, 4] = logit
        grid[gy, gx, 5 + obj.class_id] = logit

    return RawTensorSet(
        frame_index=frame.frame_index,
        outputs=tuple(outputs),
        image_width=image_width,
        image_height=image_height,
    )


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
    gt_frames = generate_scenario(spec)
    tensor_frames = []
    for gt in gt_frames:
        scores = [spec.actors[obj.actor_id].score_level for obj in gt.objects]
        tensor_frames.append(
            encode_objects_to_tensors(
                gt, config, spec.image_width, spec.image_height, num_classes,
                actor_scores=scores,
            )
        )
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
    corners = np.array([obj.box.as_list() for obj in gt.objects], dtype=np.float64)
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
