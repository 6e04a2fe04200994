"""Frame-by-frame safety monitoring: decode, track the train, raise alerts.

Per frame the pipeline decodes the head tensors, suppresses duplicates,
advances the train state from the track-zone evidence, and only then
evaluates passengers against the danger zones, so each alert's severity
reflects the train state as of the same frame:

    train IN  + person past the line -> CRITICAL  (train approaching)
    train ON/OUT                     -> WARNING   (train stopped/leaving)
    train OFF                        -> CAUTION   (no train, still unsafe)

The grading is fixed (`SEVERITY`), not configured. Only DANGER zones are
tested, at every log level: MONITOR zones describe the station layout and
no frame tests them. Detection runs in every train state so a person on
the track is never invisible merely because no train is near.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConfigError, DecodeError, FrameError, GeometryError, SinkWriteError
from .geometry import CameraModel, Zone, ZoneKind, ground_point, point_in_zone
from .postprocess import (DecodeConfig, decode_all, detections_to_record, known_keys, load_json,
                          nms, reading, real_number, whole_number)
from .scenario import PLATFORM_POLYGON, TRACK_POLYGON, YELLOW_LINE_POLYGON
from .tensor_stream import InferenceBackend, RawTensorSet
from .train_fsm import FsmConfig, TrainState, TrainStateMachine

logger = logging.getLogger(__name__)

Sink = Callable[[dict], None]

# A frame that decodes to more candidates than this is refused before NMS,
# whose time grows faster than the count: four times the most any benchmark
# workload frame has (504), and a fully live 640x640 frame has 8,400.
MAX_CANDIDATES = 2048


SEVERITY: dict[TrainState, str] = {
    TrainState.IN: "CRITICAL",
    TrainState.ON: "WARNING",
    TrainState.OUT: "WARNING",
    TrainState.OFF: "CAUTION",
}

# The "severity_table" every config file written before severities were
# fixed carries; config_from_json accepts that key only with this value.
_SAVED_SEVERITY_TABLE = [
    {"state": state.value, "zone_kind": ZoneKind.DANGER.value, "severity": severity}
    for state, severity in SEVERITY.items()
]


@dataclass(frozen=True)
class RunSummary:
    frames_processed: int
    alerts_emitted: int
    error_count: int

    def to_record(self) -> dict:
        return {
            "frames": self.frames_processed,
            "alerts": self.alerts_emitted,
            "errors": self.error_count,
        }


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the monitor needs besides the tensors themselves."""

    decode: DecodeConfig
    zones: tuple[Zone, ...]
    camera: CameraModel
    fsm: FsmConfig
    # The zones' roles, resolved once from `zones` in __post_init__.
    risk_zone: Zone = field(init=False, repr=False, compare=False)
    danger_zones: tuple[Zone, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "zones", tuple(self.zones))
        risk = [z for z in self.zones if z.kind is ZoneKind.RISK]
        danger = tuple(z for z in self.zones if z.kind is ZoneKind.DANGER)
        if len(risk) != 1:
            raise ConfigError(
                f"config needs exactly one RISK zone, found {len(risk)}"
            )
        if not danger:
            raise ConfigError("config needs at least one DANGER zone, found none")
        names = [z.name for z in self.zones]
        if len(set(names)) != len(names):
            raise ConfigError(f"zone names must be unique, got {names}")
        object.__setattr__(self, "risk_zone", risk[0])
        object.__setattr__(self, "danger_zones", danger)


def default_config() -> PipelineConfig:
    """Monitor configuration matching the built-in 320x320 station scene."""
    return PipelineConfig(
        decode=DecodeConfig(),
        zones=(
            Zone("track", ZoneKind.RISK, TRACK_POLYGON),
            Zone("yellow-line", ZoneKind.DANGER, YELLOW_LINE_POLYGON),
            Zone("platform", ZoneKind.MONITOR, PLATFORM_POLYGON),
        ),
        camera=CameraModel(height_m=3.0, z0_m=12.0),
        fsm=FsmConfig(),
    )


def config_to_json(config: PipelineConfig) -> dict:
    # Each section's keys are its dataclass's fields in order. Zones are
    # written by hand: `Zone.reach` is a field, not a key.
    return {
        "decode": {**asdict(config.decode), "strides": list(config.decode.strides)},
        "zones": [
            {"name": z.name, "kind": z.kind.value, "polygon": [list(v) for v in z.polygon]}
            for z in config.zones
        ],
        "camera": asdict(config.camera),
        "fsm": asdict(config.fsm),
    }


def _strides(value, name: str) -> tuple[int, ...]:
    return tuple(whole_number(stride, name) for stride in value)


# How each key of these config objects is read; a decode or fsm key left
# out takes the dataclass's default.
_DECODE_READERS = {
    "strides": _strides,
    "conf_threshold": real_number,
    "nms_iou_threshold": real_number,
    "person_class_id": whole_number,
    "train_class_id": whole_number,
}
_CAMERA_READERS = {"height_m": real_number, "z0_m": real_number}
_FSM_READERS = {"stationary_eps_px": real_number, "confirm_frames": whole_number}


def _read(data, readers: dict, name: str) -> dict:
    known_keys(data, readers, name)
    return {key: readers[key](value, f"{name}.{key}") for key, value in data.items()}


def config_from_json(data: dict) -> PipelineConfig:
    """Inverse of config_to_json, for a config that comes from outside.

    A key no field reads is refused by name. Whole-number fields read
    through whole_number, the others only from JSON numbers, so nothing is
    truncated or parsed from text.
    """
    with reading(ConfigError, "pipeline config"):
        known_keys(data, ("decode", "zones", "camera", "fsm", "severity_table"), "config")
        decode = DecodeConfig(**_read(data.get("decode", {}), _DECODE_READERS, "decode"))
        zones = []
        for entry in data["zones"]:
            known_keys(entry, ("name", "kind", "polygon"), "zone")
            polygon = tuple((real_number(x, "polygon x"), real_number(y, "polygon y"))
                            for x, y in entry["polygon"])
            if not isinstance(entry["name"], str):
                raise ValueError(f"zone.name must be a string, got {entry['name']!r}")
            zones.append(Zone(entry["name"], ZoneKind(entry["kind"]), polygon))
        camera = CameraModel(**_read(data["camera"], _CAMERA_READERS, "camera"))
        fsm = FsmConfig(**_read(data.get("fsm", {}), _FSM_READERS, "fsm"))
        if data.get("severity_table", _SAVED_SEVERITY_TABLE) != _SAVED_SEVERITY_TABLE:
            raise ValueError(
                "severities are fixed (IN: CRITICAL, ON and OUT: WARNING, OFF: CAUTION); "
                "a severity table is accepted only as older default-config files wrote it"
            )
    return PipelineConfig(decode=decode, zones=zones, camera=camera, fsm=fsm)


def load_config(path: str | Path) -> PipelineConfig:
    return load_json(path, config_from_json, ConfigError, "pipeline config")


def save_config(config: PipelineConfig, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_json(config), fh, indent=2)
        fh.write("\n")


def process_frame(
    frame: RawTensorSet,
    config: PipelineConfig,
    fsm: TrainStateMachine,
) -> tuple[dict, dict[str, float]]:
    """Run the full per-frame analysis; return its result record and stage times.

    The record's keys are "frame" and "detections" (as from
    `detections_to_record`), "state" and "alerts", so it holds only what
    the frame decided and two runs of one stream give equal records.
    "alerts" has one entry per person and DANGER zone the person's ground
    point lies in, person-major, whose box and score are the person's
    detection entry's. The stage times are wall-clock ms, unrounded, keyed
    "decode", "nms", "fsm" and "geometry".

    Advances `fsm` as a side effect. The FSM steps before person
    evaluation, so alert severities use the state the train reached on
    this very frame. Decode problems, and a frame that decodes to more than
    MAX_CANDIDATES candidates, raise FrameError carrying the frame index
    and a message that names the frame; the caller decides whether the run
    continues.
    """
    t0 = time.perf_counter()
    try:
        decoded = decode_all(frame, config.decode)
    except (DecodeError, GeometryError) as exc:
        raise FrameError(frame.frame_index, str(exc)) from exc
    if len(decoded) > MAX_CANDIDATES:
        raise FrameError(
            frame.frame_index,
            f"frame {frame.frame_index}: {len(decoded)} candidates, more than "
            f"MAX_CANDIDATES ({MAX_CANDIDATES})",
        )
    t1 = time.perf_counter()

    detections = nms(decoded, config.decode.nms_iou_threshold)
    t2 = time.perf_counter()

    trains = detections.boxes[detections.class_ids == config.decode.train_class_id].tolist()
    _, state, _ = fsm.observe_and_step(trains, config.risk_zone)
    t3 = time.perf_counter()

    danger_zones = config.danger_zones
    rows = np.flatnonzero(detections.class_ids == config.decode.person_class_id)
    hits: list[tuple[int, str]] = []  # (detection row, DANGER zone name), person-major
    for row, box in zip(rows.tolist(), detections.boxes[rows].tolist()):
        foot = ground_point(box)
        for zone in danger_zones:
            if point_in_zone(foot, zone):
                hits.append((row, zone.name))
    t4 = time.perf_counter()

    record = detections_to_record(frame.frame_index, detections)
    entries = record["detections"]
    record["state"] = state.value
    severity = SEVERITY[state]
    record["alerts"] = [
        {
            "frame": frame.frame_index,
            "zone": zone,
            "state": state.value,
            "severity": severity,
            "box": entries[row]["box"],
            "score": entries[row]["score"],
        }
        for row, zone in hits
    ]
    stage_ms = {
        "decode": (t1 - t0) * 1000.0,
        "nms": (t2 - t1) * 1000.0,
        "fsm": (t3 - t2) * 1000.0,
        "geometry": (t4 - t3) * 1000.0,
    }
    return record, stage_ms


def check_backend_geometry(backend: InferenceBackend, config: PipelineConfig) -> None:
    """Raise ConfigError unless the config's strides and class ids fit the stream."""
    header = backend.header
    if tuple(header.strides) != tuple(config.decode.strides):
        raise ConfigError(
            f"backend strides {header.strides} do not match config {config.decode.strides}"
        )
    for name, class_id in (
        ("person", config.decode.person_class_id),
        ("train", config.decode.train_class_id),
    ):
        if class_id >= header.num_classes:
            raise ConfigError(
                f"{name} class id {class_id} does not fit the stream's "
                f"{header.num_classes} classes"
            )


def run_pipeline(
    backend: InferenceBackend,
    config: PipelineConfig,
    alert_sink: Sink | None = None,
    log_sink: Sink | None = None,
    result_sink: Sink | None = None,
    stage_sink: Sink | None = None,
) -> RunSummary:
    """Process a backend's whole stream.

    Per-frame failures (corrupt tensors) are counted, reported through the
    result sink as {"frame": n, "error": ...}, and skipped. A backend error
    mid-stream is counted, reported through the result sink as
    {"error": "backend failed: ..."} with no frame, and ends the run, since
    the source cannot continue past it. A sink raising aborts the run with
    SinkWriteError carrying the partial summary. Sinks see records in frame
    order.

    The stage sink gets each processed frame's stage times, as
    `process_frame` returns them, before that frame's log, alert and result
    records; it gets nothing for an error record.

    Sinks get the records themselves and must not modify them: each alert
    record is also an entry of its frame's result record's "alerts", and
    shares its box list with that frame's detection entry.
    """
    check_backend_geometry(backend, config)
    fsm = TrainStateMachine(config.fsm)
    frames_processed = 0
    alerts_emitted = 0
    error_count = 0

    def emit(sink: Sink | None, record: dict) -> None:
        if sink is None:
            return
        try:
            sink(record)
        except Exception as exc:
            raise SinkWriteError(
                f"output sink failed: {exc}",
                partial_summary=RunSummary(frames_processed, alerts_emitted, error_count),
            ) from exc

    while True:
        try:
            frame = backend.next_frame()
        except Exception as exc:
            error_count += 1
            logger.error("backend failed mid-stream: %s", exc)
            emit(result_sink, {"error": f"backend failed: {exc}"})
            break
        if frame is None:
            break

        before = fsm.state
        try:
            record, stage_ms = process_frame(frame, config, fsm)
        except FrameError as exc:
            error_count += 1
            logger.warning("skipping frame %d: %s", exc.frame_index, exc)
            emit(result_sink, {"frame": exc.frame_index, "error": str(exc)})
            continue

        frames_processed += 1
        emit(stage_sink, stage_ms)
        if fsm.state is not before:
            emit(
                log_sink,
                {"frame": record["frame"], "from": before.value, "to": fsm.state.value},
            )
        alerts = record["alerts"]
        for alert in alerts:
            emit(alert_sink, alert)
        alerts_emitted += len(alerts)
        emit(result_sink, record)

    return RunSummary(frames_processed, alerts_emitted, error_count)
