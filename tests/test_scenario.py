from __future__ import annotations

import numpy as np
import pytest

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


def single_actor_spec(actor: Actor, duration: int = 20) -> ScenarioSpec:
    return ScenarioSpec(
        duration_frames=duration, image_width=320, image_height=320, actors=(actor,)
    )


# --- interpolation -------------------------------------------------------------

def test_waypoints_interpolate_linearly():
    actor = Actor(0, (Waypoint(0, 20.0, 100.0, 10.0, 10.0), Waypoint(10, 120.0, 100.0, 10.0, 30.0)))
    frames = generate_scenario(single_actor_spec(actor))
    mid = frames[5].objects[0]
    assert mid.box.center() == (70.0, 100.0)
    assert mid.box.height == 20.0
    at_waypoint = frames[10].objects[0]
    assert at_waypoint.box.center() == (120.0, 100.0)


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
    tensors = encode_objects_to_tensors(gt, config, 320, 320, 8, score_level=0.9)

    dets = decode_all(tensors, config).to_list()
    assert len(dets) == 1
    det = dets[0]
    assert det.class_id == PERSON_CLASS
    assert det.score == pytest.approx(0.9, abs=1e-6)
    assert det.box.x1 == pytest.approx(box.x1, abs=1e-3)
    assert det.box.y2 == pytest.approx(box.y2, abs=1e-3)


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
    tensors = encode_objects_to_tensors(gt, config, 320, 320, 8, score_level=1.0)
    det = decode_all(tensors, config).to_list()[0]
    assert det.score <= 1.0
    assert det.score == pytest.approx(1.0, abs=1e-5)


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
    spec = builtin_scenarios()["crossing_during_approach"]
    assert scenario_from_json(scenario_to_json(spec)) == spec


def test_old_spec_files_with_a_seed_key_still_load():
    spec = builtin_scenarios()["crossing_during_approach"]
    data = scenario_to_json(spec)
    assert "seed" not in data
    assert scenario_from_json({**data, "seed": 7}) == spec


def test_scenario_from_json_rejects_malformed_input():
    with pytest.raises(ScenarioError, match="malformed"):
        scenario_from_json({"actors": [{"class_id": 0}]})
    with pytest.raises(ScenarioError, match="malformed"):
        scenario_from_json({})


def test_ground_truth_json_round_trip_is_exact_for_dyadic_coordinates():
    frames = [
        GroundTruthFrame(
            0,
            (
                GroundTruthObject(0, BoundingBox(1.5, 2.25, 10.0, 20.125), 0),
                GroundTruthObject(6, BoundingBox(0.0, 0.0, 64.0, 64.0), 1),
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
