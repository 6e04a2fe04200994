from __future__ import annotations

import json
import logging

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
    SequenceBackend,
    Severity,
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
    severity_for,
)
from stationwatch.pipeline import config_from_json, config_to_json
from stationwatch.scenario import PERSON_CLASS, TRAIN_CLASS

PERSON_IN_DANGER = BoundingBox(151.0, 80.0, 169.0, 120.0)   # foot (160, 120)
PERSON_ON_PLATFORM = BoundingBox(151.0, 120.0, 169.0, 160.0)  # foot (160, 160)
TRAIN_IN_TRACK = BoundingBox(40.0, 30.0, 100.0, 90.0)


def scene_frame(index: int, objects: tuple[GroundTruthObject, ...]):
    gt = GroundTruthFrame(index, objects)
    return encode_objects_to_tensors(gt, DecodeConfig(), 320, 320, 8, score_level=0.9)


def scene_header(frame_count: int) -> TensorStreamHeader:
    return TensorStreamHeader(
        num_classes=8, image_width=320, image_height=320,
        strides=(8, 16, 32), frame_count=frame_count,
    )


def person_obj(box: BoundingBox) -> GroundTruthObject:
    return GroundTruthObject(PERSON_CLASS, box, 0)


def train_obj(box: BoundingBox, actor_id: int = 1) -> GroundTruthObject:
    return GroundTruthObject(TRAIN_CLASS, box, actor_id)


# --- severity table ----------------------------------------------------------------

def test_severity_grading_by_train_state():
    assert severity_for(TrainState.IN, ZoneKind.DANGER) is Severity.CRITICAL
    assert severity_for(TrainState.ON, ZoneKind.DANGER) is Severity.WARNING
    assert severity_for(TrainState.OUT, ZoneKind.DANGER) is Severity.WARNING
    assert severity_for(TrainState.OFF, ZoneKind.DANGER) is Severity.CAUTION


def test_only_danger_zones_ever_alert():
    for state in TrainState:
        assert severity_for(state, ZoneKind.RISK) is None
        assert severity_for(state, ZoneKind.MONITOR) is None


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


def test_config_requires_a_total_severity_table():
    base = default_config()
    partial = {(TrainState.IN, ZoneKind.DANGER): Severity.CRITICAL}
    with pytest.raises(ConfigError, match="severity table"):
        PipelineConfig(
            decode=base.decode, zones=base.zones, camera=base.camera,
            fsm=base.fsm, severity_table=partial,
        )


def test_config_json_round_trip(tmp_path):
    config = default_config()
    assert config_to_json(config_from_json(config_to_json(config))) == config_to_json(config)
    path = tmp_path / "config.json"
    save_config(config, path)
    assert config_to_json(load_config(path)) == config_to_json(config)


def test_config_json_round_trip_keeps_a_custom_severity_table():
    base = default_config()
    table = dict(base.severity_table)
    table[(TrainState.OFF, ZoneKind.DANGER)] = Severity.WARNING
    config = PipelineConfig(
        decode=base.decode, zones=base.zones, camera=base.camera, fsm=base.fsm,
        severity_table=table,
    )
    restored = config_from_json(json.loads(json.dumps(config_to_json(config))))
    assert restored.severity_table == table
    assert severity_for(TrainState.OFF, ZoneKind.DANGER, restored.severity_table) is (
        Severity.WARNING
    )


def test_config_without_a_severity_table_gets_the_default():
    data = config_to_json(default_config())
    del data["severity_table"]
    assert config_from_json(data).severity_table == default_config().severity_table


def test_config_rejects_a_malformed_severity_table():
    data = config_to_json(default_config())
    data["severity_table"][0]["severity"] = "PANIC"
    with pytest.raises(ConfigError, match="malformed"):
        config_from_json(data)
    data["severity_table"] = []
    with pytest.raises(ConfigError, match="severity table"):
        config_from_json(data)


def test_load_config_rejects_bad_files(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)
    path.write_text(json.dumps({"camera": {"height_m": 3.0, "z0_m": 12.0}}))
    with pytest.raises(ConfigError, match="malformed"):
        load_config(path)


# --- process_frame ------------------------------------------------------------------

def test_person_past_the_line_with_no_train_is_a_caution():
    config = default_config()
    fsm = TrainStateMachine(config.fsm)
    result = process_frame(scene_frame(0, (person_obj(PERSON_IN_DANGER),)), config, fsm)

    assert result.train_state is TrainState.OFF
    assert len(result.alerts) == 1
    alert = result.alerts[0]
    assert alert.severity is Severity.CAUTION
    assert alert.zone == "yellow-line"
    assert alert.train_state is TrainState.OFF


def test_fsm_advances_before_persons_are_evaluated():
    # Train and person appear on the same first frame: the alert must see
    # IN, not the stale OFF.
    config = default_config()
    fsm = TrainStateMachine(config.fsm)
    frame = scene_frame(0, (person_obj(PERSON_IN_DANGER), train_obj(TRAIN_IN_TRACK)))
    result = process_frame(frame, config, fsm)
    assert result.train_state is TrainState.IN
    assert [a.severity for a in result.alerts] == [Severity.CRITICAL]


def test_alert_severity_downgrades_when_the_train_is_confirmed_stopped():
    config = default_config()
    fsm = TrainStateMachine(config.fsm)
    severities = []
    for index in range(6):
        frame = scene_frame(index, (person_obj(PERSON_IN_DANGER), train_obj(TRAIN_IN_TRACK)))
        result = process_frame(frame, config, fsm)
        severities.append([a.severity for a in result.alerts])
    # 5 frames approaching (the still count confirms on the 6th frame), then ON.
    assert severities == [[Severity.CRITICAL]] * 5 + [[Severity.WARNING]]
    assert fsm.state is TrainState.ON


def test_person_on_the_platform_is_logged_not_alerted(caplog):
    config = default_config()
    fsm = TrainStateMachine(config.fsm)
    with caplog.at_level(logging.DEBUG, logger="stationwatch.pipeline"):
        result = process_frame(scene_frame(0, (person_obj(PERSON_ON_PLATFORM),)), config, fsm)
    assert result.alerts == ()
    assert any("platform" in record.message for record in caplog.records)


def test_monitor_zones_are_tested_only_when_debug_logging_is_on(monkeypatch, caplog):
    tested: list[str] = []

    def recording_point_in_zone(point, zone):
        tested.append(zone.name)
        return point_in_zone(point, zone)

    monkeypatch.setattr("stationwatch.pipeline.point_in_zone", recording_point_in_zone)
    config = default_config()
    frame = scene_frame(0, (person_obj(PERSON_ON_PLATFORM),))
    with caplog.at_level(logging.INFO, logger="stationwatch.pipeline"):
        process_frame(frame, config, TrainStateMachine(config.fsm))
    assert tested == ["yellow-line"]

    tested.clear()
    with caplog.at_level(logging.DEBUG, logger="stationwatch.pipeline"):
        process_frame(frame, config, TrainStateMachine(config.fsm))
    assert tested == ["yellow-line", "platform"]


def test_person_in_the_track_zone_is_not_an_alert():
    config = default_config()
    fsm = TrainStateMachine(config.fsm)
    on_track = BoundingBox(151.0, 20.0, 169.0, 60.0)  # foot (160, 60): RISK zone
    result = process_frame(scene_frame(0, (person_obj(on_track),)), config, fsm)
    assert result.alerts == ()


def test_corrupt_tensor_raises_a_frame_error_with_the_index():
    config = default_config()
    frame = scene_frame(3, ())
    frame.outputs[1][0, 0, 2] = np.nan
    with pytest.raises(FrameError, match="frame 3") as excinfo:
        process_frame(frame, config, TrainStateMachine(config.fsm))
    assert excinfo.value.frame_index == 3


def test_frame_result_record_shape():
    config = default_config()
    fsm = TrainStateMachine(config.fsm)
    result = process_frame(scene_frame(0, (person_obj(PERSON_IN_DANGER),)), config, fsm)
    record = result.to_record()
    assert record["frame"] == 0
    assert record["state"] == "OFF"
    assert len(record["detections"]) == 1
    assert set(record["latency_ms"]) == {"decode", "nms", "geometry", "fsm"}
    assert all(v >= 0.0 for v in record["latency_ms"].values())
    (alert_record,) = record["alerts"]
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


def test_run_pipeline_skips_corrupt_frames_and_keeps_going(background_frame):
    header = scene_header(5)
    frames = [background_frame(header, i) for i in range(5)]
    frames[2].outputs[0][0, 0, 0] = np.nan
    backend = SequenceBackend(header, frames)

    results: list[dict] = []
    summary = run_pipeline(backend, default_config(), result_sink=results.append)
    assert summary.frames_processed == 4
    assert summary.error_count == 1
    error_records = [r for r in results if "error" in r]
    assert len(error_records) == 1
    assert error_records[0]["frame"] == 2
    assert [r["frame"] for r in results if "detections" in r] == [0, 1, 3, 4]


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
    assert any("backend failed" in r.get("error", "") for r in results)


def test_failing_sink_aborts_with_the_partial_summary():
    config = default_config()
    frames = [scene_frame(0, (person_obj(PERSON_IN_DANGER),))]
    backend = SequenceBackend(scene_header(1), frames)

    def broken_sink(record: dict) -> None:
        raise OSError("disk full")

    with pytest.raises(SinkWriteError) as excinfo:
        run_pipeline(backend, config, alert_sink=broken_sink)
    partial = excinfo.value.partial_summary
    assert partial is not None
    assert partial.frames_processed == 1
    assert partial.alerts_emitted == 0


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
        return [
            {k: v for k, v in record.items() if k != "latency_ms"} for record in results
        ]

    assert run() == run()
