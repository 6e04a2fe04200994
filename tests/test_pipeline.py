from __future__ import annotations

import json
import logging
import math

import numpy as np
import pytest

from stationwatch import (
    BoundingBox,
    CameraModel,
    ConfigError,
    DecodeConfig,
    FrameError,
    FsmConfig,
    GroundTruthFrame,
    GroundTruthObject,
    PipelineConfig,
    RawTensorSet,
    SequenceBackend,
    SinkWriteError,
    TensorStreamHeader,
    TrainState,
    TrainStateMachine,
    Zone,
    ZoneKind,
    builtin_scenarios,
    default_config,
    encode_objects_to_tensors,
    encode_scenario,
    load_config,
    point_in_zone,
    process_frame,
    run_pipeline,
    save_config,
)
from stationwatch.pipeline import MAX_CANDIDATES, SEVERITY, config_from_json, config_to_json
from stationwatch.postprocess import Detections, detections_to_record
from stationwatch.scenario import PERSON_CLASS, TRAIN_CLASS

PERSON_IN_DANGER = BoundingBox(151.0, 80.0, 169.0, 120.0)   # foot (160, 120)
PERSON_ON_PLATFORM = BoundingBox(151.0, 120.0, 169.0, 160.0)  # foot (160, 160)
TRAIN_IN_TRACK = BoundingBox(40.0, 30.0, 100.0, 90.0)


def scene_frame(index: int, objects: tuple[GroundTruthObject, ...]):
    gt = GroundTruthFrame(index, objects)
    return encode_objects_to_tensors(gt, DecodeConfig(), 320, 320, 8)


def scene_header(frame_count: int) -> TensorStreamHeader:
    return TensorStreamHeader(
        num_classes=8, image_width=320, image_height=320,
        strides=(8, 16, 32), frame_count=frame_count,
    )


def person_obj(box: BoundingBox) -> GroundTruthObject:
    return GroundTruthObject(PERSON_CLASS, box, 0)


def train_obj(box: BoundingBox, actor_id: int = 1) -> GroundTruthObject:
    return GroundTruthObject(TRAIN_CLASS, box, actor_id)


# --- severity ----------------------------------------------------------------------

def test_severity_grading_by_train_state():
    assert SEVERITY == {
        TrainState.IN: "CRITICAL",
        TrainState.ON: "WARNING",
        TrainState.OUT: "WARNING",
        TrainState.OFF: "CAUTION",
    }


def test_only_danger_zones_ever_alert():
    # Persons in the track (RISK) and platform (MONITOR) zones never alert;
    # the one past the line alerts in every train state, graded by SEVERITY.
    base = default_config()
    config = PipelineConfig(
        decode=base.decode, zones=base.zones, camera=base.camera,
        fsm=FsmConfig(confirm_frames=1),
    )
    fsm = TrainStateMachine(config.fsm)
    persons = tuple(
        person_obj(box)
        for box in (PERSON_IN_DANGER, BoundingBox(151.0, 20.0, 169.0, 60.0), PERSON_ON_PLATFORM)
    )
    trains = [(train_obj(TRAIN_IN_TRACK),)] * 2 + [()] * 2
    graded = []
    for index, train in enumerate(trains):
        record, _ = process_frame(scene_frame(index, persons + train), config, fsm)
        graded.append((record["state"], [(a["zone"], a["severity"]) for a in record["alerts"]]))
    assert graded == [
        ("IN", [("yellow-line", "CRITICAL")]),
        ("ON", [("yellow-line", "WARNING")]),
        ("OUT", [("yellow-line", "WARNING")]),
        ("OFF", [("yellow-line", "CAUTION")]),
    ]


# --- config ------------------------------------------------------------------------

def test_default_config_matches_the_builtin_scene():
    config = default_config()
    assert [(z.name, z.kind) for z in config.zones] == [
        ("track", ZoneKind.RISK),
        ("yellow-line", ZoneKind.DANGER),
        ("platform", ZoneKind.MONITOR),
    ]
    assert config.decode.strides == (8, 16, 32)
    assert config.decode.conf_threshold == 0.30
    assert config.decode.nms_iou_threshold == 0.45
    assert config.decode.person_class_id == 0
    assert config.decode.train_class_id == 6
    assert config.fsm == FsmConfig(stationary_eps_px=2.0, confirm_frames=5)


def config_with_zones(zones) -> PipelineConfig:
    return PipelineConfig(
        decode=DecodeConfig(), zones=tuple(zones),
        camera=CameraModel(3.0, 12.0), fsm=FsmConfig(),
    )


def test_config_requires_exactly_one_risk_zone():
    base = default_config()
    with pytest.raises(ConfigError, match="RISK"):
        config_with_zones(z for z in base.zones if z.kind is not ZoneKind.RISK)
    extra = Zone("track2", ZoneKind.RISK, ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0)))
    with pytest.raises(ConfigError, match="exactly one RISK"):
        config_with_zones(base.zones + (extra,))


def test_config_requires_a_danger_zone_and_unique_names():
    base = default_config()
    with pytest.raises(ConfigError, match="DANGER"):
        config_with_zones(z for z in base.zones if z.kind is not ZoneKind.DANGER)
    clash = Zone("track", ZoneKind.DANGER, ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0)))
    with pytest.raises(ConfigError, match="unique"):
        config_with_zones(base.zones + (clash,))


def test_config_json_round_trip(tmp_path):
    config = default_config()
    assert config_to_json(config_from_json(config_to_json(config))) == config_to_json(config)
    path = tmp_path / "config.json"
    save_config(config, path)
    assert config_to_json(load_config(path)) == config_to_json(config)


# What `default-config` wrote before severities were fixed: today's JSON plus
# the table of the four (state, DANGER) entries.
SAVED_SEVERITY_TABLE = [
    {"state": "IN", "zone_kind": "DANGER", "severity": "CRITICAL"},
    {"state": "ON", "zone_kind": "DANGER", "severity": "WARNING"},
    {"state": "OUT", "zone_kind": "DANGER", "severity": "WARNING"},
    {"state": "OFF", "zone_kind": "DANGER", "severity": "CAUTION"},
]


def saved_config_json(**table_changes) -> dict:
    """An older default-config file, with `table_changes` set in its first table entry."""
    data = config_to_json(default_config())
    data["severity_table"] = [dict(entry) for entry in SAVED_SEVERITY_TABLE]
    data["severity_table"][0].update(table_changes)
    return data


def test_an_older_default_config_file_with_its_severity_table_loads_unchanged(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps(saved_config_json(), indent=2))
    assert load_config(path) == default_config()
    assert "severity_table" not in config_to_json(load_config(path))


def test_config_rejects_a_malformed_severity_table():
    with pytest.raises(ConfigError, match="malformed"):
        config_from_json(saved_config_json(severity="PANIC"))
    data = saved_config_json()
    data["severity_table"] = []
    with pytest.raises(ConfigError, match="severity table"):
        config_from_json(data)


def config_json_with(part, key, value):
    """The default config's JSON with one key of one part set (part None: top level)."""
    data = config_to_json(default_config())
    target = data if part is None else data[part]
    (target[0] if isinstance(target, list) else target)[key] = value
    return json.dumps(data)


@pytest.mark.parametrize("content, reason", [
    ("{not json", "malformed pipeline config: Expecting property name"),
    (json.dumps({"camera": {"height_m": 3.0, "z0_m": 12.0}}),
     "malformed pipeline config: missing key 'zones'"),
    ("[]", "config must be an object"),
    (config_json_with("decode", "conf_treshold", 0.9), "unknown key 'conf_treshold' in decode"),
    (config_json_with(None, "cameras", {}), "unknown key 'cameras' in config"),
    (config_json_with("zones", "colour", "red"), "unknown key 'colour' in zone"),
    (config_json_with("camera", "tilt_deg", 3.0), "unknown key 'tilt_deg' in camera"),
    (config_json_with("fsm", "confirm", 5), "unknown key 'confirm' in fsm"),
    (json.dumps(saved_config_json(severity="WARNING")), "severities are fixed"),
    (config_json_with("zones", "name", None), "zone.name must be a string, got None"),
    (config_json_with("zones", "name", ["x"]), "zone.name must be a string, got ['x']"),
    (config_json_with("decode", "strides", [8.7, 16, 32]), "decode.strides must be a whole"),
    (config_json_with("fsm", "confirm_frames", 2.9), "fsm.confirm_frames must be a whole"),
    (config_json_with("decode", "person_class_id", "0"), "person_class_id must be a whole"),
    (config_json_with("decode", "person_class_id", True), "person_class_id must be a whole"),
    (config_json_with("decode", "conf_threshold", "0.3"), "conf_threshold must be a number"),
    (config_json_with("camera", "height_m", True), "camera.height_m must be a number"),
    (config_json_with("zones", "polygon", [[0, "1"], [1, 1], [1, 0]]), "polygon y must be a"),
    ("[" * 200_000 + "]" * 200_000, "maximum recursion depth exceeded"),
], ids=["not_json", "no_zones", "not_an_object", "misspelled_decode_key", "unknown_top_level_key",
        "unknown_zone_key", "unknown_camera_key", "unknown_fsm_key", "severity_changed",
        "zone_name_null", "zone_name_list",
        "stride_fractional", "confirm_frames_fractional", "class_id_as_text", "class_id_true",
        "threshold_as_text", "camera_height_true", "polygon_as_text", "deep"])
def test_load_config_rejects_bad_files(tmp_path, content, reason):
    path = tmp_path / "broken.json"
    path.write_text(content)
    with pytest.raises(ConfigError, match="malformed pipeline config") as raised:
        load_config(path)
    assert reason in str(raised.value)


def test_config_json_fills_a_missing_decode_or_fsm_key_with_its_default():
    data = config_to_json(default_config())
    del data["decode"]["strides"], data["decode"]["train_class_id"], data["fsm"]
    assert config_from_json(data) == default_config()


# --- process_frame ------------------------------------------------------------------

def test_person_past_the_line_with_no_train_is_a_caution():
    config = default_config()
    fsm = TrainStateMachine(config.fsm)
    record, _ = process_frame(scene_frame(0, (person_obj(PERSON_IN_DANGER),)), config, fsm)

    assert record["state"] == "OFF"
    assert len(record["alerts"]) == 1
    alert = record["alerts"][0]
    assert alert["severity"] == "CAUTION"
    assert alert["zone"] == "yellow-line"
    assert alert["state"] == "OFF"


def test_fsm_advances_before_persons_are_evaluated():
    # Train and person appear on the same first frame: the alert must see
    # IN, not the stale OFF.
    config = default_config()
    fsm = TrainStateMachine(config.fsm)
    frame = scene_frame(0, (person_obj(PERSON_IN_DANGER), train_obj(TRAIN_IN_TRACK)))
    record, _ = process_frame(frame, config, fsm)
    assert record["state"] == "IN"
    assert [a["severity"] for a in record["alerts"]] == ["CRITICAL"]


def test_alert_severity_downgrades_when_the_train_is_confirmed_stopped():
    config = default_config()
    fsm = TrainStateMachine(config.fsm)
    severities = []
    for index in range(6):
        frame = scene_frame(index, (person_obj(PERSON_IN_DANGER), train_obj(TRAIN_IN_TRACK)))
        record, _ = process_frame(frame, config, fsm)
        severities.append([a["severity"] for a in record["alerts"]])
    # 5 frames approaching (the still count confirms on the 6th frame), then ON.
    assert severities == [["CRITICAL"]] * 5 + [["WARNING"]]
    assert fsm.state is TrainState.ON


@pytest.mark.parametrize("level", [logging.INFO, logging.DEBUG], ids=["INFO", "DEBUG"])
def test_only_danger_zones_are_tested_at_every_log_level(monkeypatch, caplog, level):
    tested: list[str] = []

    def recording_point_in_zone(point, zone):
        tested.append(zone.name)
        return point_in_zone(point, zone)

    monkeypatch.setattr("stationwatch.pipeline.point_in_zone", recording_point_in_zone)
    config = default_config()
    frame = scene_frame(0, (person_obj(PERSON_ON_PLATFORM),))
    with caplog.at_level(level, logger="stationwatch.pipeline"):
        record, _ = process_frame(frame, config, TrainStateMachine(config.fsm))
    assert tested == ["yellow-line"]
    assert record["alerts"] == []
    assert caplog.records == []


def test_person_in_the_track_zone_is_not_an_alert():
    config = default_config()
    fsm = TrainStateMachine(config.fsm)
    on_track = BoundingBox(151.0, 20.0, 169.0, 60.0)  # foot (160, 60): RISK zone
    record, _ = process_frame(scene_frame(0, (person_obj(on_track),)), config, fsm)
    assert record["alerts"] == []


def test_corrupt_tensor_raises_a_frame_error_with_the_index():
    config = default_config()
    frame = scene_frame(3, ())
    frame.outputs[1][0, 0, 2] = np.nan
    with pytest.raises(FrameError, match="frame 3") as excinfo:
        process_frame(frame, config, TrainStateMachine(config.fsm))
    assert excinfo.value.frame_index == 3


def overflowing(frame):
    frame.outputs[0][2, 3, :5] = [0.0, 0.0, 1000.0, 0.0, 20.0]
    frame.outputs[0][2, 3, 5] = 20.0
    return frame


def nan_cell(frame):
    frame.outputs[1][0, 0, 2] = np.nan
    return frame


def short_grid(frame):
    return RawTensorSet(3, (frame.outputs[0][:-1],) + frame.outputs[1:], 320, 320)


def odd_width(frame):
    return RawTensorSet(3, frame.outputs, 324, 320)


@pytest.mark.parametrize("corrupt, message", [
    (nan_cell, "frame 3, level 1: non-finite value at cell (gx=0, gy=0), channel 2"),
    (overflowing, "frame 3, level 0: box at cell (gx=3, gy=2) overflows: "
                  "(tx, ty, tw, th) = (0.0, 0.0, 1000.0, 0.0)"),
    pytest.param(short_grid, "frame 3, level 0: grid (39, 40) does not match stride 8 over "
                             "320x320 (expected (40, 40))", id="short_grid"),
    pytest.param(odd_width, "frame 3, level 0: stride 8 does not divide image 324x320",
                 id="odd_width"),
])
def test_every_decode_error_names_its_frame_once(corrupt, message):
    config = default_config()
    frame = corrupt(scene_frame(3, ()))
    with pytest.raises(FrameError) as excinfo:
        process_frame(frame, config, TrainStateMachine(config.fsm))
    assert str(excinfo.value) == message


def test_an_alert_past_the_right_edge_prints_the_box_of_its_result_record():
    config = default_config()
    past_edge = BoundingBox(310.0, 80.0, 328.0, 120.0)  # clipped to x2 = 320
    frame = scene_frame(0, (person_obj(past_edge),))
    record, _ = process_frame(frame, config, TrainStateMachine(config.fsm))
    (alert,) = record["alerts"]
    (detection,) = record["detections"]
    assert json.dumps(alert["box"][2]) == "320.0"
    assert json.dumps([alert["box"], alert["score"]]) == json.dumps(
        [detection["box"], detection["score"]]
    )


@pytest.mark.parametrize("number", [np.float64, float])
def test_alert_records_round_half_way_values_as_result_records_do(number):
    # Each value lies half-way between two 6-decimal values; numpy's round
    # of an np.float64 and Python's correctly rounded round() disagree on it.
    # Result records, and the alerts that take their box and score from
    # them, round through detections_to_record alone.
    box = [number(v) for v in (310.0, 79.9999995, 327.5658395, 120.0)]
    score = number(0.8008755)
    detection = Detections(np.array([box]), np.array([score]), np.array([PERSON_CLASS]))
    (entry,) = detections_to_record(0, detection)["detections"]
    assert json.dumps([entry["box"], entry["score"]]) == json.dumps(
        [[round(float(v), 6) for v in box], round(float(score), 6)]
    )
    assert json.dumps(entry["box"][2]) == "327.565839"


def test_frame_result_record_shape():
    config = default_config()
    fsm = TrainStateMachine(config.fsm)
    frame = scene_frame(0, (person_obj(PERSON_IN_DANGER),))
    record, stage_ms = process_frame(frame, config, fsm)
    assert list(record) == ["frame", "detections", "state", "alerts"]
    assert record["frame"] == 0
    assert record["state"] == "OFF"
    assert len(record["detections"]) == 1
    assert set(stage_ms) == {"decode", "nms", "fsm", "geometry"}
    assert all(v >= 0.0 for v in stage_ms.values())
    (alert_record,) = record["alerts"]
    assert list(alert_record) == ["frame", "zone", "state", "severity", "box", "score"]
    assert alert_record["zone"] == "yellow-line"
    assert alert_record["severity"] == "CAUTION"
    assert "height_m" not in alert_record
    json.dumps(record)  # must be serializable as-is


# --- run_pipeline --------------------------------------------------------------------

def crossing_backend():
    config = default_config()
    spec = builtin_scenarios()["crossing_during_approach"]
    _, tensors = encode_scenario(spec, config.decode)
    return SequenceBackend(scene_header(len(tensors)), tensors), config


def test_run_pipeline_over_the_crossing_scene():
    backend, config = crossing_backend()
    alerts: list[dict] = []
    transitions: list[dict] = []
    results: list[dict] = []
    summary = run_pipeline(
        backend, config,
        alert_sink=alerts.append, log_sink=transitions.append, result_sink=results.append,
    )

    assert summary.frames_processed == 150
    assert summary.error_count == 0
    assert summary.alerts_emitted == len(alerts) > 0
    assert len(results) == 150
    assert transitions == [
        {"frame": 10, "from": "OFF", "to": "IN"},
        {"frame": 45, "from": "IN", "to": "ON"},
        {"frame": 101, "from": "ON", "to": "OUT"},
        {"frame": 135, "from": "OUT", "to": "OFF"},
    ]
    assert summary.to_record() == {"frames": 150, "alerts": len(alerts), "errors": 0}


@pytest.mark.parametrize("scenario", sorted(builtin_scenarios()))
def test_alert_sink_records_are_the_result_records_alerts(scenario):
    config = default_config()
    _, tensors = encode_scenario(builtin_scenarios()[scenario], config.decode)
    alerts: list[dict] = []
    results: list[dict] = []
    run_pipeline(
        SequenceBackend(scene_header(len(tensors)), tensors), config,
        alert_sink=alerts.append, result_sink=results.append,
    )
    assert alerts == [alert for record in results for alert in record["alerts"]]
    for record in results:
        persons = [
            [d["box"], d["score"]] for d in record["detections"] if d["class"] == PERSON_CLASS
        ]
        for alert in record["alerts"]:
            assert alert["frame"] == record["frame"]
            assert alert["state"] == record["state"]
            assert [alert["box"], alert["score"]] in persons


def test_run_pipeline_skips_corrupt_frames_and_keeps_going(background_frame):
    header = scene_header(5)
    frames = [background_frame(header, i) for i in range(5)]
    frames[2].outputs[0][0, 0, 0] = np.nan
    backend = SequenceBackend(header, frames)

    results: list[dict] = []
    emitted: list[str] = []

    def result_sink(record: dict) -> None:
        results.append(record)
        emitted.append("error" if "error" in record else "result")

    def stage_sink(stage_ms: dict) -> None:
        assert set(stage_ms) == {"decode", "nms", "fsm", "geometry"}
        emitted.append("stages")

    summary = run_pipeline(backend, default_config(), result_sink=result_sink,
                           stage_sink=stage_sink)
    assert summary.frames_processed == 4
    assert summary.error_count == 1
    error_records = [r for r in results if "error" in r]
    assert len(error_records) == 1
    assert error_records[0]["frame"] == 2
    assert [r["frame"] for r in results if "detections" in r] == [0, 1, 3, 4]
    # Each processed frame's stage times come just before its result record.
    assert emitted == ["stages", "result"] * 2 + ["error"] + ["stages", "result"] * 2


def test_run_pipeline_counts_a_size_overflow_as_a_frame_error(background_frame):
    header = scene_header(4)
    frames = [background_frame(header, i) for i in range(4)]
    frames[1].outputs[0][2, 3] = [0.0, 0.0, 1000.0, 0.0, 20.0, 20.0, -20.0, -20.0,
                                  -20.0, -20.0, -20.0, -20.0, -20.0]
    backend = SequenceBackend(header, frames)

    results: list[dict] = []
    summary = run_pipeline(backend, default_config(), result_sink=results.append)
    assert summary.frames_processed == 3
    assert summary.error_count == 1
    (error,) = [r for r in results if "error" in r]
    assert error["frame"] == 1
    assert "level 0: box at cell (gx=3, gy=2) overflows" in error["error"]
    assert [r["frame"] for r in results if "detections" in r] == [0, 2, 3]


def two_class_config() -> PipelineConfig:
    """The default config with the train as class 1, for frames of two classes."""
    base = default_config()
    return PipelineConfig(decode=DecodeConfig(train_class_id=1), zones=base.zones,
                          camera=base.camera, fsm=base.fsm)


def wide_header(frame_count: int) -> TensorStreamHeader:
    return TensorStreamHeader(
        num_classes=2, image_width=640, image_height=640,
        strides=(8, 16, 32), frame_count=frame_count,
    )


def test_run_pipeline_refuses_a_frame_with_more_than_max_candidates(background_frame,
                                                                    full_frame):
    header = wide_header(3)
    frames = [background_frame(header, 0), full_frame(np.random.default_rng(8400), 1),
              background_frame(header, 2)]
    results: list[dict] = []
    summary = run_pipeline(SequenceBackend(header, frames), two_class_config(),
                           result_sink=results.append)
    assert (summary.frames_processed, summary.error_count) == (2, 1)
    assert results[1] == {
        "frame": 1, "error": "frame 1: 8400 candidates, more than MAX_CANDIDATES (2048)",
    }
    assert [r["frame"] for r in results if "detections" in r] == [0, 2]


def test_a_frame_of_exactly_max_candidates_is_processed(background_frame):
    config = two_class_config()
    frame = background_frame(wide_header(1), 0)
    # 1-px person boxes at the centres of the finest cells: none overlaps
    # another, so every candidate is also kept.
    live = frame.outputs[0].reshape(-1, 7)
    live[:MAX_CANDIDATES] = [0.5, 0.5, math.log(1 / 8), math.log(1 / 8), 20.0, 20.0, -20.0]
    record, _ = process_frame(frame, config, TrainStateMachine(config.fsm))
    assert len(record["detections"]) == MAX_CANDIDATES

    live[MAX_CANDIDATES] = live[0]
    with pytest.raises(FrameError, match=f"frame 0: {MAX_CANDIDATES + 1} candidates"):
        process_frame(frame, config, TrainStateMachine(config.fsm))


def test_run_pipeline_counts_a_backend_failure_and_stops(background_frame):
    header = scene_header(2)
    good = [background_frame(header, i) for i in range(2)]

    class FlakyBackend(SequenceBackend):
        def __init__(self):
            super().__init__(header, good)
            self.served = 0

        def next_frame(self):
            if self.served == 2:
                raise RuntimeError("device fell over")
            self.served += 1
            return super().next_frame()

    results: list[dict] = []
    summary = run_pipeline(FlakyBackend(), default_config(), result_sink=results.append)
    assert summary.frames_processed == 2
    assert summary.error_count == 1
    assert len(results) == 3
    assert results[-1] == {"error": "backend failed: device fell over"}


# The alert count each sink's abort reports: the frame's one alert is
# counted once all its alert records are out, before its result record.
@pytest.mark.parametrize("sink, alerts_emitted", [
    ("alert_sink", 0), ("result_sink", 1), ("stage_sink", 0),
], ids=["alert", "result", "stage"])
def test_failing_sink_aborts_with_the_partial_summary(sink, alerts_emitted):
    config = default_config()
    frames = [scene_frame(0, (person_obj(PERSON_IN_DANGER),))]
    backend = SequenceBackend(scene_header(1), frames)

    def broken_sink(record: dict) -> None:
        raise OSError("disk full")

    with pytest.raises(SinkWriteError) as excinfo:
        run_pipeline(backend, config, **{sink: broken_sink})
    partial = excinfo.value.partial_summary
    assert partial is not None
    assert partial.frames_processed == 1
    assert partial.alerts_emitted == alerts_emitted


def test_backend_config_mismatch_is_rejected_before_processing(background_frame):
    narrow = TensorStreamHeader(
        num_classes=2, image_width=320, image_height=320,
        strides=(8, 16, 32), frame_count=1,
    )
    backend = SequenceBackend(narrow, [background_frame(narrow, 0)])
    with pytest.raises(ConfigError, match="train class id 6"):
        run_pipeline(backend, default_config())

    coarse = TensorStreamHeader(
        num_classes=8, image_width=320, image_height=320,
        strides=(4, 8, 16), frame_count=0,
    )
    with pytest.raises(ConfigError, match="strides"):
        run_pipeline(SequenceBackend(coarse, []), default_config())


def test_run_pipeline_is_deterministic():
    def run():
        backend, config = crossing_backend()
        results: list[dict] = []
        run_pipeline(backend, config, result_sink=results.append)
        return results

    assert run() == run()
