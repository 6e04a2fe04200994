"""Whole-frame differential test: `run_pipeline` against the slow reference.

Small frames go through the real pipeline and through
`reference.reference_frame_records` (per-cell decode, brute-force NMS,
`ReferenceTrainMachine`, a hand-written ground point and `point_in_polygon`).
Every record must print the same, and a frame must be an error record
exactly when the reference cannot decode it. A second property runs
`TrainStateMachine` and `ReferenceTrainMachine` side by side over train-box
traces.
"""

from __future__ import annotations

import json
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stationwatch import (
    BoundingBox,
    DecodeConfig,
    EncodingCollisionError,
    FsmConfig,
    GroundTruthFrame,
    GroundTruthObject,
    PipelineConfig,
    SequenceBackend,
    TensorStreamHeader,
    TrainStateMachine,
    Zone,
    default_config,
    encode_objects_to_tensors,
    run_pipeline,
)
from stationwatch.scenario import PERSON_CLASS, SCENE_NUM_CLASSES, TRAIN_CLASS

from reference import ReferenceTrainMachine, Rejected, reference_frame_records

SIZE = 64
STRIDES = (8, 16, 32)
CHANNELS = 5 + SCENE_NUM_CLASSES
OTHER_CLASS = 2
# Finite float32 values at and near the ends of the range, and values whose
# exponential overflows or underflows a float64. A live cell's size term
# among them makes its box overflow, so the frame is an error record.
EXTREMES = (3.4e38, -3.4e38, 1e38, -1e38, 700.0, -700.0, 710.0, 1e6, -1e6)


def small_config(conf_threshold, iou_threshold, confirm_frames) -> PipelineConfig:
    """The built-in scene's zones scaled down to a 64x64 image."""
    base = default_config()
    scale = SIZE / 320
    return PipelineConfig(
        decode=DecodeConfig(conf_threshold=conf_threshold, nms_iou_threshold=iou_threshold),
        zones=tuple(
            Zone(z.name, z.kind, tuple((x * scale, y * scale) for x, y in z.polygon))
            for z in base.zones
        ),
        camera=base.camera,
        fsm=FsmConfig(confirm_frames=confirm_frames),
    )


@st.composite
def object_boxes(draw, foot_ys):
    """A box whose centre lies in the image; large ones reach past its edges."""
    cx = draw(st.integers(0, 2 * SIZE - 1)) / 2
    foot = draw(foot_ys)
    w = draw(st.integers(1, 80)) / 2
    h = draw(st.integers(1, max(1, int(2 * foot)))) / 2
    return BoundingBox(cx - w / 2, foot - h, cx + w / 2, foot)


# Feet on and around the scaled yellow-line strip (y 20 to 26) come up often.
person_feet = st.one_of(st.sampled_from([19.5, 20.0, 23.0, 26.0, 26.5]), st.integers(1, 70))


@st.composite
def rendered_frame(draw, index, config, train_box):
    objects = [
        GroundTruthObject(class_id, draw(object_boxes(person_feet)), 0)
        for class_id in draw(st.lists(st.sampled_from([PERSON_CLASS, OTHER_CLASS]), max_size=4))
    ]
    shift = draw(st.sampled_from([None, 0.0, 0.0, 0.5, 6.0]))  # None: no train
    if shift is not None:
        objects.append(GroundTruthObject(
            TRAIN_CLASS,
            BoundingBox(train_box.x1 + shift, train_box.y1, train_box.x2 + shift, train_box.y2),
            1,
        ))
    scores = draw(st.lists(st.sampled_from([0.9, 0.6, 0.35]),
                           min_size=len(objects), max_size=len(objects)))
    try:
        return encode_objects_to_tensors(
            GroundTruthFrame(index, tuple(objects)), config.decode, SIZE, SIZE,
            SCENE_NUM_CLASSES, actor_scores=scores,
        )
    except EncodingCollisionError:
        assume(False)


def cells(draw):
    level = draw(st.integers(0, len(STRIDES) - 1))
    side = SIZE // STRIDES[level]
    return level, draw(st.integers(0, side - 1)), draw(st.integers(0, side - 1))


@st.composite
def live_cell_values(draw, conf_threshold):
    """One cell's channels: tied scores, boxes past the edges, cut-off logits."""
    offsets = st.one_of(st.sampled_from([0.0, 0.5, -4.0, 4.0]), st.floats(-4.0, 4.0, width=32))
    sizes = st.one_of(st.sampled_from([0.0, 1.0, 3.0]), st.floats(-3.0, 3.0, width=32))
    values = [draw(offsets), draw(offsets), draw(sizes), draw(sizes)]
    if draw(st.integers(0, 7)) == 0:
        values[draw(st.integers(0, 3))] = draw(st.sampled_from(EXTREMES))
    if 0.0 < conf_threshold < 1.0 and draw(st.booleans()):
        edge = np.float32(math.log(conf_threshold) - math.log1p(-conf_threshold))
        values.append(float(edge + draw(st.integers(-2, 2)) * np.spacing(edge)))
        class_logits = [-20.0] * SCENE_NUM_CLASSES
        class_logits[draw(st.sampled_from([PERSON_CLASS, TRAIN_CLASS]))] = 40.0
    else:
        values.append(draw(st.sampled_from([20.0, 2.0, 0.0, -1.0, 3.4e38, -3.4e38])))
        class_logits = draw(st.lists(st.sampled_from([-20.0, 0.0, 3.0, 5.0]),
                                     min_size=SCENE_NUM_CLASSES, max_size=SCENE_NUM_CLASSES))
    return values + class_logits


@st.composite
def frames(draw, index, config, train_box):
    frame = draw(rendered_frame(index, config, train_box))
    for _ in range(draw(st.integers(0, 6))):
        level, gy, gx = cells(draw)
        frame.outputs[level][gy, gx] = draw(live_cell_values(config.decode.conf_threshold))
    for _ in range(draw(st.integers(0, 2))):
        level, gy, gx = cells(draw)
        channel = draw(st.integers(0, CHANNELS - 1))
        frame.outputs[level][gy, gx, channel] = draw(st.sampled_from(EXTREMES + (math.nan,)))
    return frame


@st.composite
def runs(draw):
    config = small_config(
        conf_threshold=draw(st.sampled_from([0.3, 0.3, 0.25, 0.5, 0.0, 1.0])),
        iou_threshold=draw(st.sampled_from([0.45, 0.45, 0.0, 0.5, 1.0])),
        confirm_frames=draw(st.integers(1, 2)),
    )
    train_box = draw(object_boxes(st.integers(8, 30)))
    count = draw(st.integers(1, 4))
    return config, [draw(frames(index, config, train_box)) for index in range(count)]


def comparable(record: dict) -> dict:
    if "error" in record:
        assert set(record) == {"frame", "error"}
        return {"frame": record["frame"], "error": True}
    return record


@settings(max_examples=150, deadline=None)
@given(run=runs())
def test_run_pipeline_prints_the_records_of_the_slow_reference(run):
    config, frame_list = run
    header = TensorStreamHeader(
        num_classes=SCENE_NUM_CLASSES, image_width=SIZE, image_height=SIZE,
        strides=STRIDES, frame_count=len(frame_list),
    )
    alerts: list[dict] = []
    results: list[dict] = []
    run_pipeline(SequenceBackend(header, frame_list), config,
                 alert_sink=alerts.append, result_sink=results.append)

    fsm = ReferenceTrainMachine(config.fsm)
    want_results: list[dict] = []
    want_alerts: list[dict] = []
    for frame in frame_list:
        try:
            result, frame_alerts = reference_frame_records(frame, config, fsm)
        except Rejected:
            want_results.append({"frame": frame.frame_index, "error": True})
            continue
        want_results.append(result)
        want_alerts.extend(frame_alerts)

    assert [json.dumps(comparable(r)) for r in results] == [json.dumps(r) for r in want_results]
    assert [json.dumps(a) for a in alerts] == [json.dumps(a) for a in want_alerts]


TRACK = default_config().risk_zone  # x 0 to 320, y 20 to 100


@st.composite
def train_traces(draw):
    """An FsmConfig and per-frame train boxes: a 60x40 train that stops,
    creeps, moves by exactly stationary_eps_px, leaves the zone or vanishes,
    sometimes with a second box of smaller, equal or larger area."""
    config = FsmConfig(
        stationary_eps_px=draw(st.sampled_from([0.5, 2.0, 3.0])),
        confirm_frames=draw(st.integers(1, 6)),
    )
    eps = config.stationary_eps_px
    x, y = draw(st.integers(0, 260)), draw(st.integers(0, 80))
    moves = st.one_of(
        st.sampled_from([0.0, 0.0, 0.0, eps, -eps, eps / 2, None]),
        st.integers(-80, 80).map(lambda k: k / 4),
    )
    trace = []
    for _ in range(draw(st.integers(1, 40))):
        move = draw(moves)
        if move is None:  # no train box at all
            trace.append([])
            continue
        if draw(st.booleans()):
            x += move
        else:
            y += move
        boxes = [[x, y, x + 60.0, y + 40.0]]
        extra = draw(st.sampled_from([None, (20.0, 20.0), (40.0, 60.0), (80.0, 60.0)]))
        if extra is not None:
            w, h = extra
            ox, oy = draw(st.integers(-20, 300)), draw(st.integers(-20, 200))
            boxes.insert(draw(st.integers(0, 1)), [ox, oy, ox + w, oy + h])
        trace.append(boxes)
    return config, trace


@settings(max_examples=300, deadline=None)
@given(case=train_traces())
def test_train_state_machine_agrees_with_the_reference_on_every_frame(case):
    config, trace = case
    machine, reference = TrainStateMachine(config), ReferenceTrainMachine(config)
    for boxes in trace:
        assert machine.observe_and_step(boxes, TRACK) == reference.observe_and_step(boxes, TRACK)
