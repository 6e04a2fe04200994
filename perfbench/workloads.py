"""Seeded benchmark workloads, rendered into the `.yxt` stream format.

Each workload is a pure function of its seed: the same seed gives the same
tensors, ground truth and config. The monitor under test only ever sees
the rendered stream and a `PipelineConfig`; the ground truth and the
rendering counts stay on the benchmark's side.

    scenes  the three built-in 320x320 scenes back to back (seed picks the
            order). Sparse: 1-5 objects per frame, so decode dominates.
    dense   640x640 frames with 56 clusters of 9 overlapping live cells each
            (~10% train class). NMS keeps about one candidate in seven and
            dominates the frame.
    crowd   a 640x640 `ScenarioSpec` with 150 walking persons in lanes that
            never share a grid cell, ~15% of them on the yellow strip, plus a
            train running OFF -> IN -> ON -> OUT -> OFF. NMS keeps nearly
            every candidate; zone tests and alerts do real work.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from stationwatch import (
    Actor,
    CameraModel,
    DecodeConfig,
    FsmConfig,
    GroundTruthFrame,
    GroundTruthObject,
    PipelineConfig,
    RawTensorSet,
    ScenarioSpec,
    TensorStreamHeader,
    Waypoint,
    Zone,
    builtin_scenarios,
    default_config,
    encode_objects_to_tensors,
    encode_scenario,
)
from stationwatch.postprocess import BoundingBox

NAMES = ("scenes", "dense", "crowd")

NUM_CLASSES = 8
PERSON = 0
TRAIN = 6

WIDE = 640  # dense and crowd frame size; the station layout scales by WIDE / 320

DENSE_FRAMES = 64
DENSE_PERSONS = 50           # 56 clusters x 9 cells = 504 live cells per frame
DENSE_TRAINS = 6
# Clusters with one neighbour shifted far enough to survive NMS, so NMS
# keeps 56 + 17 of 504 candidates. Fixed counts keep every frame's work,
# and person accuracy (50 / (50 + 15)), the same for every seed.
DENSE_PERSON_OUTLIERS = 15
DENSE_TRAIN_OUTLIERS = 2
DENSE_BLOCK = 4              # clusters sit in distinct 4x4-cell blocks of the stride-8 grid

CROWD_FRAMES = 100
# (stride-16 cell row, persons) per lane; row 11 puts the ground point on
# the yellow strip (y 200..260 at 640), the others on the platform.
CROWD_LANES = ((11, 22), (15, 19), (17, 19), (19, 18), (21, 18), (23, 18), (25, 18), (27, 18))
CROWD_LANE_SPACING = {11: 26.0}  # px between neighbours; default below
CROWD_DEFAULT_SPACING = 30.0


@dataclass(frozen=True)
class Workload:
    """One rendered pass of a workload; the benchmark replays it looped."""

    header: TensorStreamHeader
    frames: list[RawTensorSet]
    ground_truth: list[GroundTruthFrame]
    live_cells: int        # above-threshold cells rendered in one pass
    objects_encoded: int   # objects the scenario encoder wrote in one pass
    encode_s: float        # time spent inside the scenario encoder


def _scaled_zones(scale: float) -> tuple[Zone, ...]:
    return tuple(
        Zone(z.name, z.kind, tuple((x * scale, y * scale) for x, y in z.polygon))
        for z in default_config().zones
    )


def config_for(name: str) -> PipelineConfig:
    """The monitor config a workload is replayed with."""
    if name == "scenes":
        return default_config()
    if name in ("dense", "crowd"):
        return PipelineConfig(
            decode=DecodeConfig(),
            zones=_scaled_zones(WIDE / 320),
            camera=CameraModel(height_m=3.0, z0_m=12.0),
            fsm=FsmConfig(),
        )
    raise ValueError(f"unknown workload {name!r} (known: {', '.join(NAMES)})")


def _header(width: int, frames: int) -> TensorStreamHeader:
    return TensorStreamHeader(
        num_classes=NUM_CLASSES,
        image_width=width,
        image_height=width,
        strides=DecodeConfig().strides,
        frame_count=frames,
    )


def _renumbered(frame: RawTensorSet, index: int) -> RawTensorSet:
    return RawTensorSet(index, frame.outputs, frame.image_width, frame.image_height)


def render_scenes(seed: int) -> Workload:
    specs = builtin_scenarios()
    order = sorted(specs)
    np.random.default_rng(seed).shuffle(order)
    decode = config_for("scenes").decode
    frames: list[RawTensorSet] = []
    truth: list[GroundTruthFrame] = []
    encode_s = 0.0
    for name in order:
        t0 = time.perf_counter()
        gt, tensors = encode_scenario(specs[name], decode, NUM_CLASSES)
        encode_s += time.perf_counter() - t0
        for g, t in zip(gt, tensors):
            truth.append(GroundTruthFrame(len(frames), g.objects))
            frames.append(_renumbered(t, len(frames)))
    objects = sum(len(g.objects) for g in truth)
    width = specs[order[0]].image_width
    header = _header(width, len(frames))
    return Workload(header, frames, truth, objects, objects, encode_s)


def _logit_of_fused(score: float) -> float:
    # Objectness and class logit both carry sqrt(score), so the decoder's
    # fused score sigmoid(obj) * sigmoid(cls) reproduces `score`.
    p = math.sqrt(score)
    return math.log(p / (1.0 - p))


def render_dense(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    decode = config_for("dense").decode
    stride = decode.strides[0]
    grid = WIDE // stride
    blocks = grid // DENSE_BLOCK
    # Border blocks are skipped so every box, outliers included, stays inside the image.
    inner = [(bx, by) for by in range(1, blocks - 1) for bx in range(1, blocks - 1)]
    neighbours = [(dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if (dx, dy) != (0, 0)]
    frames: list[RawTensorSet] = []
    truth: list[GroundTruthFrame] = []
    encode_s = 0.0
    live = 0
    clusters = DENSE_PERSONS + DENSE_TRAINS
    for index in range(DENSE_FRAMES):
        picks = rng.choice(len(inner), size=clusters, replace=False)
        trains = set(rng.choice(clusters, size=DENSE_TRAINS, replace=False).tolist())
        persons = [k for k in range(clusters) if k not in trains]
        outliers = set(rng.choice(persons, size=DENSE_PERSON_OUTLIERS, replace=False).tolist())
        outliers |= set(
            rng.choice(sorted(trains), size=DENSE_TRAIN_OUTLIERS, replace=False).tolist()
        )
        objects = []
        scores = []
        cells = []
        for k, pick in enumerate(picks):
            bx, by = inner[pick]
            gx = bx * DENSE_BLOCK + int(rng.integers(1, 3))
            gy = by * DENSE_BLOCK + int(rng.integers(1, 3))
            is_train = k in trains
            if is_train:
                w = h = float(rng.uniform(30.0, 44.0))
            else:
                w, h = float(rng.uniform(14.0, 22.0)), float(rng.uniform(30.0, 46.0))
            cx = (gx + rng.uniform(0.2, 0.8)) * stride
            cy = (gy + rng.uniform(0.2, 0.8)) * stride
            box = BoundingBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
            objects.append(GroundTruthObject(TRAIN if is_train else PERSON, box, k))
            scores.append(float(rng.uniform(0.85, 0.95)))
            cells.append((gx, gy, cx, cy, w, h))
        gt = GroundTruthFrame(index, tuple(objects))
        t0 = time.perf_counter()
        frame = encode_objects_to_tensors(
            gt, decode, WIDE, WIDE, NUM_CLASSES, actor_scores=scores
        )
        encode_s += time.perf_counter() - t0
        level = frame.outputs[0]
        for k, (obj, score, (gx, gy, cx, cy, w, h)) in enumerate(zip(objects, scores, cells)):
            outlier = rng.integers(0, 8) if k in outliers else -1
            for n, (dx, dy) in enumerate(neighbours):
                if n == outlier:
                    # Shifted by most of its width: IoU with the core ~0.25, so it survives.
                    ncx = cx + rng.choice((-1.0, 1.0)) * 0.6 * w
                    ncy, nw, nh = cy, w, h
                else:
                    ncx = cx + rng.normal(0.0, 0.04) * w
                    ncy = cy + rng.normal(0.0, 0.04) * h
                    nw = w * math.exp(rng.normal(0.0, 0.05))
                    nh = h * math.exp(rng.normal(0.0, 0.05))
                cell = level[gy + dy, gx + dx]
                logit = _logit_of_fused(float(rng.uniform(0.4, score - 0.05)))
                cell[0] = ncx / stride - (gx + dx)
                cell[1] = ncy / stride - (gy + dy)
                cell[2] = math.log(nw / stride)
                cell[3] = math.log(nh / stride)
                cell[4] = logit
                cell[5 + obj.class_id] = logit
        live += len(objects) * (1 + len(neighbours))
        frames.append(frame)
        truth.append(gt)
    header = _header(WIDE, DENSE_FRAMES)
    return Workload(header, frames, truth, live, clusters * DENSE_FRAMES, encode_s)


def crowd_spec(seed: int) -> ScenarioSpec:
    """150 persons walking in lanes plus one full train cycle, at 640x640.

    Persons in a lane share one velocity, so a lane moves as a rigid row
    whose members stay >= 22 px apart: never the same stride-16 cell and
    IoU <= 0.3 within the lane. Lanes sit two cell rows apart, so no two
    persons ever collide on a cell; boxes of neighbouring lanes overlap
    enough to be suppressed only when they line up, which keeps the NMS
    keep ratio near, not at, 1.
    """
    rng = np.random.default_rng(seed)
    last = CROWD_FRAMES - 1
    half = last // 2
    actors = []
    for lane, (row, count) in enumerate(CROWD_LANES):
        spacing = CROWD_LANE_SPACING.get(row, CROWD_DEFAULT_SPACING)
        span = (count - 1) * spacing + 40.0 + 4.0  # widest box plus jitter
        room = WIDE - span
        travel = room * float(rng.uniform(0.5, 0.9))
        direction = 1.0 if lane % 2 == 0 else -1.0
        start = 22.0 + (0.0 if direction > 0 else travel) + float(rng.uniform(0.0, room - travel))
        for k in range(count):
            w = float(rng.uniform(32.0, 40.0))
            h = float(rng.uniform(72.0, 88.0))
            x0 = start + k * spacing + float(rng.uniform(-2.0, 2.0))
            cy = row * 16 + float(rng.uniform(6.0, 10.0))
            x1 = x0 + direction * travel
            actors.append(
                Actor(
                    PERSON,
                    (
                        Waypoint(0, x0, cy, w, h),
                        Waypoint(half, x1, cy, w, h),
                        Waypoint(last, x0, cy, w, h),
                    ),
                    score_level=float(rng.uniform(0.7, 0.95)),
                )
            )
    # OFF until frame 10, rolls in, stops at 35 (ON once confirmed), pulls
    # out at 60, gone after 80 (OUT, then OFF after the absence debounce).
    train = Actor(
        TRAIN,
        (
            Waypoint(10, 100.0, 120.0, 120.0, 120.0),
            Waypoint(35, 340.0, 120.0, 120.0, 120.0),
            Waypoint(60, 340.0, 120.0, 120.0, 120.0),
            Waypoint(80, 580.0, 120.0, 120.0, 120.0),
        ),
        score_level=0.95,
    )
    actors.append(train)
    return ScenarioSpec(CROWD_FRAMES, WIDE, WIDE, tuple(actors))


def render_crowd(seed: int) -> Workload:
    spec = crowd_spec(seed)
    t0 = time.perf_counter()
    truth, frames = encode_scenario(spec, config_for("crowd").decode, NUM_CLASSES)
    encode_s = time.perf_counter() - t0
    objects = sum(len(g.objects) for g in truth)
    return Workload(_header(WIDE, len(frames)), frames, truth, objects, objects, encode_s)


def render(name: str, seed: int) -> Workload:
    """Render one pass of the named workload from `seed`."""
    renderers = {"scenes": render_scenes, "dense": render_dense, "crowd": render_crowd}
    if name not in renderers:
        raise ValueError(f"unknown workload {name!r} (known: {', '.join(NAMES)})")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return renderers[name](seed)
