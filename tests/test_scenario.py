from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stationwatch import (
    Actor,
    BoundingBox,
    DecodeConfig,
    EncodingCollisionError,
    GroundTruthFrame,
    GroundTruthObject,
    ScenarioError,
    ScenarioSpec,
    Waypoint,
    builtin_scenarios,
    decode_all,
    encode_objects_to_tensors,
    encode_scenario,
    generate_scenario,
)
from stationwatch.scenario import (
    PERSON_CLASS,
    SCENE_HEIGHT,
    SCENE_WIDTH,
    TRAIN_CLASS,
    ground_truth_from_json,
    ground_truth_to_json,
    scenario_from_json,
    scenario_to_json,
)

from reference import box_center, reference_encode_objects, reference_generate


def single_actor_spec(actor: Actor, duration: int = 20) -> ScenarioSpec:
    return ScenarioSpec(
        duration_frames=duration, image_width=320, image_height=320, actors=(actor,)
    )


# --- interpolation -------------------------------------------------------------

def test_waypoints_interpolate_linearly():
    actor = Actor(0, (Waypoint(0, 20.0, 100.0, 10.0, 10.0), Waypoint(10, 120.0, 100.0, 10.0, 30.0)))
    frames = generate_scenario(single_actor_spec(actor))
    mid = frames[5].objects[0]
    assert box_center(mid.box) == (70.0, 100.0)
    assert mid.box.y2 - mid.box.y1 == 20.0
    at_waypoint = frames[10].objects[0]
    assert box_center(at_waypoint.box) == (120.0, 100.0)


def test_actor_is_absent_outside_its_waypoint_span():
    actor = Actor(0, (Waypoint(5, 50.0, 50.0, 10.0, 10.0), Waypoint(10, 80.0, 50.0, 10.0, 10.0)))
    frames = generate_scenario(single_actor_spec(actor, duration=15))
    for frame in frames:
        if 5 <= frame.frame_index <= 10:
            assert len(frame.objects) == 1
        else:
            assert frame.objects == ()


def test_single_waypoint_actor_exists_for_exactly_one_frame():
    actor = Actor(0, (Waypoint(3, 50.0, 50.0, 10.0, 10.0),))
    frames = generate_scenario(single_actor_spec(actor, duration=6))
    assert [len(f.objects) for f in frames] == [0, 0, 0, 1, 0, 0]


def test_scenario_with_no_actors_renders_empty_frames():
    spec = ScenarioSpec(duration_frames=4, image_width=320, image_height=320, actors=())
    frames = generate_scenario(spec)
    assert len(frames) == 4
    assert all(f.objects == () for f in frames)


def test_generate_scenario_is_deterministic():
    spec = builtin_scenarios()["crossing_during_approach"]
    assert generate_scenario(spec) == generate_scenario(spec)


def test_out_of_bounds_boxes_name_the_frame():
    actor = Actor(0, (Waypoint(0, 160.0, 160.0, 10.0, 10.0), Waypoint(10, 320.0, 160.0, 10.0, 10.0)))
    with pytest.raises(ScenarioError, match="frame 10"):
        generate_scenario(single_actor_spec(actor))


def test_actor_validation():
    wp = Waypoint(0, 50.0, 50.0, 10.0, 10.0)
    with pytest.raises(ScenarioError, match="at least one waypoint"):
        Actor(0, ())
    with pytest.raises(ScenarioError, match="strictly increasing"):
        Actor(0, (Waypoint(5, 0, 0, 1, 1), wp))
    with pytest.raises(ScenarioError, match="strictly increasing"):
        Actor(0, (wp, wp))
    with pytest.raises(ScenarioError, match="frames must be >= 0"):
        Actor(0, (Waypoint(-1, 0, 0, 1, 1), wp))
    with pytest.raises(ScenarioError, match="non-positive size"):
        Actor(0, (Waypoint(0, 50.0, 50.0, 0.0, 10.0),))
    with pytest.raises(ScenarioError, match="class_id"):
        Actor(-1, (wp,))
    with pytest.raises(ScenarioError, match="score_level"):
        Actor(0, (wp,), score_level=0.0)


def test_spec_validation():
    actor = Actor(0, (Waypoint(0, 50.0, 50.0, 10.0, 10.0),))
    with pytest.raises(ScenarioError, match="duration_frames"):
        ScenarioSpec(0, 320, 320, (actor,))
    with pytest.raises(ScenarioError, match="dimensions"):
        ScenarioSpec(10, 0, 320, (actor,))


# --- encoding ---------------------------------------------------------------------

def test_encoded_object_decodes_back_to_itself():
    config = DecodeConfig()
    box = BoundingBox(71.0, 100.0, 89.0, 140.0)  # 18x40 person at (80, 120)
    gt = GroundTruthFrame(0, (GroundTruthObject(PERSON_CLASS, box, 0),))
    tensors = encode_objects_to_tensors(gt, config, 320, 320, 8)

    dets = decode_all(tensors, config)
    assert len(dets) == 1
    assert dets.class_ids[0] == PERSON_CLASS
    assert dets.scores[0] == pytest.approx(0.9, abs=1e-6)
    x1, _, _, y2 = dets.boxes[0]
    assert x1 == pytest.approx(box.x1, abs=1e-3)
    assert y2 == pytest.approx(box.y2, abs=1e-3)


@pytest.mark.parametrize("box, clipped", [
    ((-10.0, 10.0, 2.0, 40.0), (0.0, 10.0, 2.0, 40.0)),
    ((10.0, -10.0, 40.0, 2.0), (10.0, 0.0, 40.0, 2.0)),
], ids=["centre_left_of_image", "centre_above_image"])
def test_a_centre_outside_the_top_left_edge_decodes_to_its_clipped_box(box, clipped):
    # The centre's cell is clamped to the first column or row, never wrapped
    # to the last one.
    config = DecodeConfig()
    gt = GroundTruthFrame(0, (GroundTruthObject(PERSON_CLASS, BoundingBox(*box), 0),))
    tensors = encode_objects_to_tensors(gt, config, 64, 64, 8)
    (decoded,) = decode_all(tensors, config).boxes.tolist()
    assert decoded == pytest.approx(list(clipped), abs=1e-3)


def test_encoder_places_the_object_on_the_best_matching_level():
    config = DecodeConfig()
    # sqrt(18*40) ~ 26.8 is closest to 4*8, so the stride-8 grid gets it.
    box = BoundingBox(71.0, 100.0, 89.0, 140.0)
    gt = GroundTruthFrame(0, (GroundTruthObject(PERSON_CLASS, box, 0),))
    tensors = encode_objects_to_tensors(gt, config, 320, 320, 8)
    hot = [int((level[..., 4] > -20.0).sum()) for level in tensors.outputs]
    assert hot == [1, 0, 0]
    # The 60x60 train box sits closest to 4*16.
    train_box = BoundingBox(140.0, 30.0, 200.0, 90.0)
    gt = GroundTruthFrame(0, (GroundTruthObject(TRAIN_CLASS, train_box, 0),))
    tensors = encode_objects_to_tensors(gt, config, 320, 320, 8)
    hot = [int((level[..., 4] > -20.0).sum()) for level in tensors.outputs]
    assert hot == [0, 1, 0]


def test_score_level_one_is_clamped_but_round_trips_within_tolerance():
    config = DecodeConfig()
    box = BoundingBox(100.0, 100.0, 140.0, 140.0)
    gt = GroundTruthFrame(0, (GroundTruthObject(0, box, 0),))
    tensors = encode_objects_to_tensors(gt, config, 320, 320, 8, actor_scores=[1.0])
    score = decode_all(tensors, config).scores[0]
    assert score <= 1.0
    assert score == pytest.approx(1.0, abs=1e-5)


def test_two_objects_in_one_cell_raise_a_collision_error():
    config = DecodeConfig()
    box = BoundingBox(100.0, 100.0, 118.0, 140.0)
    gt = GroundTruthFrame(
        7,
        (
            GroundTruthObject(0, box, 0),
            GroundTruthObject(1, box, 1),
        ),
    )
    with pytest.raises(EncodingCollisionError) as excinfo:
        encode_objects_to_tensors(gt, config, 320, 320, 8)
    err = excinfo.value
    assert err.frame_index == 7
    assert err.stride in (8, 16, 32)
    assert len(err.cell) == 2


def test_an_object_whose_logit_is_the_background_still_takes_its_cell():
    # sigmoid(-20)**2 gives the float32 objectness logit -20.0 exactly, the
    # background value: the cell must count as taken all the same.
    quiet = (1.0 / (1.0 + math.exp(20.0))) ** 2  # 4.248354237778568e-18
    gt = GroundTruthFrame(0, (GroundTruthObject(0, BoundingBox(100.0, 100.0, 118.0, 140.0), 0),
                              GroundTruthObject(0, BoundingBox(101.0, 101.0, 119.0, 141.0), 1)))
    with pytest.raises(EncodingCollisionError) as excinfo:
        encode_objects_to_tensors(gt, DecodeConfig(), 320, 320, 8, actor_scores=[quiet, 0.9])
    assert (excinfo.value.stride, excinfo.value.cell) == (8, (13, 15))


def outcome(call):
    """What `call()` gives: its value, or the type and text of what it raised."""
    try:
        return call()
    except Exception as exc:  # the two sides must fail alike, whatever the failure
        return type(exc), str(exc)


def tensor_bytes(frame):
    return (frame.frame_index, frame.image_width, frame.image_height,
            [(level.shape, level.tobytes()) for level in frame.outputs])


def now_and_then(draw, usual, unusual):
    """A draw from `unusual` about one time in ten, else from `usual`."""
    return draw(unusual) if draw(st.integers(0, 9)) == 0 else draw(usual)


@st.composite
def frames_to_encode(draw):
    width, height, most = draw(st.sampled_from([(64, 64, 6), (128, 96, 12), (640, 640, 40)]))
    num_classes = draw(st.integers(1, 8))
    # Few distinct sizes and scores per frame, so memoised inputs repeat.
    sizes = draw(st.lists(st.sampled_from([3.0, 9.5, 18.0, 26.8, 40.0, 61.0, 130.0, 250.0]),
                          min_size=1, max_size=4))
    scores = draw(st.lists(st.sampled_from([1.0, 1e-12, 0.9, 0.35, 4.248354237778568e-18]),
                           min_size=1, max_size=3))
    # The kinds of refusal this frame may hold; each spoils about one object in ten.
    spoilt = draw(st.sets(st.sampled_from(["class", "size", "score", "cell"])))

    def spoil(kind, usual, unusual):
        return now_and_then(draw, usual, unusual) if kind in spoilt else draw(usual)

    xs = st.floats(0.0, width) | st.sampled_from([0.0, -4.0, width, width + 6.0])
    ys = st.floats(0.0, height) | st.sampled_from([0.0, -4.0, height, height + 6.0])
    objects, object_scores = [], []
    for actor_id in range(draw(st.integers(0, most))):
        w, h = (spoil("size", st.sampled_from(sizes), st.just(0.0)) for _ in "wh")
        cx, cy = draw(xs), draw(ys)
        if objects and spoil("cell", st.just(False), st.just(True)):
            cx, cy = box_center(draw(st.sampled_from(objects)).box)
        box = BoundingBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
        class_id = spoil("class", st.integers(0, num_classes - 1),
                         st.sampled_from([num_classes, num_classes + 1]))
        objects.append(GroundTruthObject(class_id, box, actor_id))
        object_scores.append(spoil("score", st.sampled_from(scores),
                                   st.sampled_from([0.0, 1.5, math.nan])))
    frame = GroundTruthFrame(draw(st.integers(0, 99)), tuple(objects))
    actor_scores = draw(st.sampled_from([None, object_scores]))
    return frame, width, height, num_classes, actor_scores


def one_spoilt_object(class_id, x2, score):
    box = BoundingBox(10.0, 10.0, x2, 30.0)
    return GroundTruthFrame(3, (GroundTruthObject(class_id, box, 0),)), 64, 64, 8, [score]


def objects_at(*boxes):
    """Frame 3 of a 64x64 image holding one class-0 object per box, each at score 0.9."""
    objects = tuple(GroundTruthObject(0, box, actor) for actor, box in enumerate(boxes))
    return GroundTruthFrame(3, objects), 64, 64, 8, None


@settings(max_examples=300, deadline=None)
@given(frames_to_encode())
@example(one_spoilt_object(9, 10.0, 1.5))  # class, before size and score
@example(one_spoilt_object(0, 10.0, 1.5))  # size, before score
@example(objects_at(BoundingBox(0.0, 10.0, 5e-324, 30.0)))  # the width vanishes at stride 8
@example(objects_at(BoundingBox(0.0, 0.0, 5e-324, 5e-324)))  # the area is 0
@example(objects_at(BoundingBox(1e308, 0.0, 1.7e308, 10.0)))  # the centre overflows
@example(objects_at(BoundingBox(-1e308, 0.0, 1e308, 10.0)))  # the width overflows: tw is inf
@example(objects_at(BoundingBox(0.0, 0.0, 1e300, 10.0)))  # tx overflows float32
@example(objects_at(BoundingBox(0.0, 10.0, 6.0, 30.0),  # size, before the cell it shares
                    BoundingBox(0.0, 10.0, 5e-324, 30.0)))
def test_encoding_equals_the_one_object_at_a_time_encoder(case):
    frame, width, height, num_classes, actor_scores = case
    args = (frame, DecodeConfig(), width, height, num_classes)
    ours = outcome(lambda: encode_objects_to_tensors(*args, actor_scores=actor_scores))
    reference = outcome(lambda: reference_encode_objects(*args, actor_scores=actor_scores))
    if isinstance(ours, tuple):  # the simulator refuses only in its own words
        assert issubclass(ours[0], ScenarioError), ours
    if isinstance(reference, tuple):
        assert ours == reference
    else:
        assert tensor_bytes(ours) == tensor_bytes(reference)


@pytest.mark.parametrize("box, text", [
    (BoundingBox(-1e308, 0.0, 1e308, 10.0), "(-1e+308, 0.0, 1e+308, 10.0)"),
    (BoundingBox(0.0, 0.0, 1e300, 10.0), "(0.0, 0.0, 1e+300, 10.0)"),
], ids=["width_overflows", "tx_overflows_float32"])
def test_a_box_whose_values_overflow_float32_is_refused_without_a_warning(box, text):
    frame, width, height, num_classes, _ = objects_at(box)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScenarioError) as excinfo:
            encode_objects_to_tensors(frame, DecodeConfig(), width, height, num_classes)
    assert str(excinfo.value) == f"frame 3: box {text} does not fit the float32 head tensors"


@st.composite
def scenario_specs(draw):
    duration = draw(st.integers(1, 30))
    unusual = st.sampled_from([math.nan, math.inf, -math.inf, -30.0, 350.0, 1e308])
    size = st.sampled_from([4.0, 18.0, 40.0]) | st.floats(0.5, 60.0)

    def waypoint(frame):
        cx, cy = (now_and_then(draw, st.floats(30.0, 290.0), unusual) for _ in "xy")
        w, h = (now_and_then(draw, size, unusual.filter(lambda v: not v <= 0)) for _ in "wh")
        return Waypoint(frame, cx, cy, w, h)

    actors = []
    for _ in range(draw(st.integers(0, 5))):
        frames = sorted(draw(st.sets(st.integers(0, duration + 10), min_size=1, max_size=4)))
        actors.append(Actor(draw(st.integers(0, 7)), tuple(waypoint(f) for f in frames),
                            draw(st.sampled_from([0.9, 0.5, 1.0]))))
    return ScenarioSpec(duration, 320, 320, tuple(actors))


@settings(max_examples=300, deadline=None)
@given(scenario_specs())
def test_generation_equals_the_one_frame_at_a_time_generator(spec):
    ours = outcome(lambda: generate_scenario(spec))
    reference = outcome(lambda: reference_generate(spec))
    if isinstance(ours, tuple):  # the simulator refuses only in its own words
        assert issubclass(ours[0], ScenarioError), ours
    assert repr(ours) == repr(reference)  # repr keeps the sign of a zero


def test_encoder_input_validation():
    config = DecodeConfig()
    box = BoundingBox(100.0, 100.0, 118.0, 140.0)
    gt = GroundTruthFrame(0, (GroundTruthObject(0, box, 0),))
    with pytest.raises(ScenarioError, match="num_classes"):
        encode_objects_to_tensors(gt, config, 320, 320, 0)
    with pytest.raises(ScenarioError, match="does not divide"):
        encode_objects_to_tensors(gt, config, 321, 320, 8)
    with pytest.raises(ScenarioError, match="actor_scores"):
        encode_objects_to_tensors(gt, config, 320, 320, 8, actor_scores=[0.5, 0.5])
    tall = GroundTruthFrame(0, (GroundTruthObject(9, box, 0),))
    with pytest.raises(ScenarioError, match="does not fit"):
        encode_objects_to_tensors(tall, config, 320, 320, 8)


def test_encode_scenario_is_deterministic_and_collision_free():
    spec = builtin_scenarios()["crowd_safe"]
    gt_a, tensors_a = encode_scenario(spec, DecodeConfig())
    gt_b, tensors_b = encode_scenario(spec, DecodeConfig())
    assert gt_a == gt_b
    assert len(tensors_a) == spec.duration_frames
    for a, b in zip(tensors_a, tensors_b):
        assert all(np.array_equal(x, y) for x, y in zip(a.outputs, b.outputs))


# --- the built-in scenes -------------------------------------------------------------

def test_builtin_catalog_contents():
    catalog = builtin_scenarios()
    assert set(catalog) == {"empty_platform", "crossing_during_approach", "crowd_safe"}
    for spec in catalog.values():
        assert spec.image_width == SCENE_WIDTH
        assert spec.image_height == SCENE_HEIGHT
        generate_scenario(spec)  # every scene stays in bounds


def crossing_person_feet() -> dict[int, float]:
    spec = builtin_scenarios()["crossing_during_approach"]
    feet = {}
    for frame in generate_scenario(spec):
        for obj in frame.objects:
            if obj.class_id == PERSON_CLASS:
                feet[frame.frame_index] = obj.box.y2
    return feet


def test_crossing_scene_ground_truth_occupies_the_strip_on_frames_20_to_38():
    feet = crossing_person_feet()
    # The yellow strip spans y in [100, 130]; straight-line check, no
    # polygon code involved.
    inside = sorted(f for f, y in feet.items() if 100.0 <= y <= 130.0)
    assert inside == list(range(20, 39))


def test_empty_platform_scene_has_only_the_train():
    spec = builtin_scenarios()["empty_platform"]
    present = set()
    for frame in generate_scenario(spec):
        for obj in frame.objects:
            present.add(obj.class_id)
            assert obj.class_id == TRAIN_CLASS
    assert present == {TRAIN_CLASS}


def test_crowd_scene_keeps_every_person_on_the_platform():
    spec = builtin_scenarios()["crowd_safe"]
    for frame in generate_scenario(spec):
        for obj in frame.objects:
            if obj.class_id == PERSON_CLASS:
                assert obj.box.y2 > 130.0  # never down to the yellow strip


# --- serialization ---------------------------------------------------------------------

def test_scenario_json_round_trip():
    for spec in builtin_scenarios().values():
        assert scenario_from_json(scenario_to_json(spec)) == spec


def test_old_spec_files_with_a_seed_key_still_load():
    spec = builtin_scenarios()["crossing_during_approach"]
    data = scenario_to_json(spec)
    assert "seed" not in data
    assert scenario_from_json({**data, "seed": 7}) == spec


def spec_json_with(**changes):
    """The crossing scene's spec JSON with top-level keys, or its first actor's, changed."""
    data = scenario_to_json(builtin_scenarios()["crossing_during_approach"])
    data.update(changes.pop("top", {}))
    data["actors"][0].update(changes)
    return data


@pytest.mark.parametrize("data, reason", [
    ({"actors": [{"class_id": 0}]}, "'waypoints'"),
    ({}, "'actors'"),
    (spec_json_with(top={"duration_frames": 120.9}), "duration_frames must be a whole number"),
    (spec_json_with(top={"image_width": "320"}), "image_width must be a whole number"),
    (spec_json_with(class_id=True), "class_id must be a whole number"),
    (spec_json_with(waypoints=[["119", 40.0, 140.0, 18.0, 40.0]]),
     "waypoint frame must be a whole number"),
    (spec_json_with(waypoints=[[0, "40.0", 140.0, 18.0, 40.0]]), "must be a number"),
    (spec_json_with(score_level=True), "score_level must be a number"),
    (spec_json_with(top={"duraton_frames": 10}), "unknown key 'duraton_frames' in scenario"),
    (spec_json_with(colour="red"), "unknown key 'colour' in actor"),
], ids=["actor_without_waypoints", "empty", "duration_fractional", "width_as_text",
        "class_true", "waypoint_frame_as_text", "centre_as_text", "score_true",
        "unknown_top_level_key", "unknown_actor_key"])
def test_scenario_from_json_rejects_malformed_input(data, reason):
    with pytest.raises(ScenarioError, match="malformed") as raised:
        scenario_from_json(data)
    assert reason in str(raised.value)


def test_ground_truth_json_round_trip_is_exact_for_dyadic_coordinates():
    frames = [
        GroundTruthFrame(
            0,
            (
                GroundTruthObject(0, BoundingBox(1.5, 2.25, 10.0, 20.125), 0),
                GroundTruthObject(6, BoundingBox(0.0, 0.0, 64.0, 64.0), 1),
                GroundTruthObject(0, BoundingBox(3.0, 4.0, 5.0, 6.0), -1),  # no actor
            ),
        ),
        GroundTruthFrame(1, ()),
    ]
    assert ground_truth_from_json(ground_truth_to_json(frames)) == frames


def test_ground_truth_json_round_trip_on_a_builtin_scene():
    frames = generate_scenario(builtin_scenarios()["crowd_safe"])
    restored = ground_truth_from_json(ground_truth_to_json(frames))
    assert len(restored) == len(frames)
    for a, b in zip(frames, restored):
        assert a.frame_index == b.frame_index
        for obj_a, obj_b in zip(a.objects, b.objects):
            assert obj_a.class_id == obj_b.class_id
            assert obj_a.box.x1 == pytest.approx(obj_b.box.x1, abs=1e-5)
            assert obj_a.box.y2 == pytest.approx(obj_b.box.y2, abs=1e-5)


def test_ground_truth_from_json_rejects_malformed_input():
    with pytest.raises(ScenarioError, match="malformed"):
        ground_truth_from_json({"frames": [{"frame": 0}]})
