"""Frame-by-frame safety monitoring: decode, track the train, raise alerts.

Per frame the pipeline decodes the head tensors, suppresses duplicates,
advances the train state from the track-zone evidence, and only then
evaluates passengers against the danger zones, so each alert's severity
reflects the train state as of the same frame:

    train IN  + person past the line -> CRITICAL  (train approaching)
    train ON/OUT                     -> WARNING   (train stopped/leaving)
    train OFF                        -> CAUTION   (no train, still unsafe)

MONITOR zones never alert; presence there is only logged. Detection runs
in every train state so a person on the track is never invisible merely
because no train is near.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .errors import ConfigError, DecodeError, FrameError, GeometryError, SinkWriteError
from .geometry import CameraModel, Zone, ZoneKind, ground_point, point_in_zone
from .postprocess import (
    DecodeConfig,
    Detection,
    decode_all,
    detections_to_record,
    filter_class,
    nms,
)
from .scenario import PLATFORM_POLYGON, TRACK_POLYGON, YELLOW_LINE_POLYGON
from .tensor_stream import InferenceBackend, RawTensorSet
from .train_fsm import FsmConfig, TrainState, TrainStateMachine

logger = logging.getLogger(__name__)

Sink = Callable[[dict], None]


class Severity(Enum):
    CAUTION = "CAUTION"
    WARNING = "WARNING"
    CRITICAL = "CRITICAL"

    def __str__(self) -> str:
        return self.value


DEFAULT_SEVERITY_TABLE: dict[tuple[TrainState, ZoneKind], Severity] = {
    (TrainState.IN, ZoneKind.DANGER): Severity.CRITICAL,
    (TrainState.ON, ZoneKind.DANGER): Severity.WARNING,
    (TrainState.OUT, ZoneKind.DANGER): Severity.WARNING,
    (TrainState.OFF, ZoneKind.DANGER): Severity.CAUTION,
}


def severity_for(
    state: TrainState,
    zone_kind: ZoneKind,
    table: Mapping[tuple[TrainState, ZoneKind], Severity] | None = None,
) -> Severity | None:
    """Alert severity for a person in a zone, or None when no alert is due."""
    if table is None:
        table = DEFAULT_SEVERITY_TABLE
    if zone_kind is not ZoneKind.DANGER:
        return None
    return table[(state, zone_kind)]


@dataclass(frozen=True)
class AlertEvent:
    """One person past the line in one zone on one frame."""

    frame_index: int
    zone: str
    train_state: TrainState
    severity: Severity
    detection: Detection

    def to_record(self) -> dict:
        return {
            "frame": self.frame_index,
            "zone": self.zone,
            "state": self.train_state.value,
            "severity": self.severity.value,
            "box": [round(v, 6) for v in self.detection.box.as_list()],
            "score": round(self.detection.score, 6),
        }


@dataclass(frozen=True)
class StageLatencies:
    """Per-stage wall-clock cost of one frame, in milliseconds."""

    decode_ms: float
    nms_ms: float
    geometry_ms: float
    fsm_ms: float

    def as_dict(self) -> dict[str, float]:
        return {
            "decode": self.decode_ms,
            "nms": self.nms_ms,
            "geometry": self.geometry_ms,
            "fsm": self.fsm_ms,
        }

    def max_ms(self) -> float:
        return max(self.decode_ms, self.nms_ms, self.geometry_ms, self.fsm_ms)


@dataclass(frozen=True)
class FrameResult:
    frame_index: int
    detections: tuple[Detection, ...]
    train_state: TrainState
    alerts: tuple[AlertEvent, ...]
    latency: StageLatencies

    def to_record(self) -> dict:
        record = detections_to_record(self.frame_index, self.detections)
        record["state"] = self.train_state.value
        record["alerts"] = [alert.to_record() for alert in self.alerts]
        record["latency_ms"] = {k: round(v, 6) for k, v in self.latency.as_dict().items()}
        return record


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
    severity_table: Mapping[tuple[TrainState, ZoneKind], Severity] = field(
        default_factory=lambda: dict(DEFAULT_SEVERITY_TABLE)
    )

    def __post_init__(self):
        object.__setattr__(self, "zones", tuple(self.zones))
        risk = [z for z in self.zones if z.kind is ZoneKind.RISK]
        danger = [z for z in self.zones if z.kind is ZoneKind.DANGER]
        if len(risk) != 1:
            raise ConfigError(
                f"config needs exactly one RISK zone, found {len(risk)}"
            )
        if not danger:
            raise ConfigError("config needs at least one DANGER zone, found none")
        names = [z.name for z in self.zones]
        if len(set(names)) != len(names):
            raise ConfigError(f"zone names must be unique, got {names}")
        for state in TrainState:
            if (state, ZoneKind.DANGER) not in self.severity_table:
                raise ConfigError(f"severity table misses entry for ({state.value}, DANGER)")

    @property
    def risk_zone(self) -> Zone:
        return next(z for z in self.zones if z.kind is ZoneKind.RISK)

    @property
    def danger_zones(self) -> tuple[Zone, ...]:
        return tuple(z for z in self.zones if z.kind is ZoneKind.DANGER)

    @property
    def monitor_zones(self) -> tuple[Zone, ...]:
        return tuple(z for z in self.zones if z.kind is ZoneKind.MONITOR)


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
    return {
        "decode": {
            "strides": list(config.decode.strides),
            "conf_threshold": config.decode.conf_threshold,
            "nms_iou_threshold": config.decode.nms_iou_threshold,
            "person_class_id": config.decode.person_class_id,
            "train_class_id": config.decode.train_class_id,
        },
        "zones": [
            {"name": z.name, "kind": z.kind.value, "polygon": [list(v) for v in z.polygon]}
            for z in config.zones
        ],
        "camera": {"height_m": config.camera.height_m, "z0_m": config.camera.z0_m},
        "fsm": {
            "stationary_eps_px": config.fsm.stationary_eps_px,
            "confirm_frames": config.fsm.confirm_frames,
        },
        "severity_table": [
            {"state": state.value, "zone_kind": kind.value, "severity": severity.value}
            for (state, kind), severity in config.severity_table.items()
        ],
    }


def config_from_json(data: dict) -> PipelineConfig:
    try:
        decode_data = data.get("decode", {})
        decode = DecodeConfig(
            strides=tuple(decode_data.get("strides", (8, 16, 32))),
            conf_threshold=float(decode_data.get("conf_threshold", 0.30)),
            nms_iou_threshold=float(decode_data.get("nms_iou_threshold", 0.45)),
            person_class_id=int(decode_data.get("person_class_id", 0)),
            train_class_id=int(decode_data.get("train_class_id", 6)),
        )
        zones = tuple(
            Zone(
                name=str(entry["name"]),
                kind=ZoneKind(entry["kind"]),
                polygon=tuple((float(x), float(y)) for x, y in entry["polygon"]),
            )
            for entry in data["zones"]
        )
        camera_data = data["camera"]
        camera = CameraModel(
            height_m=float(camera_data["height_m"]), z0_m=float(camera_data["z0_m"])
        )
        fsm_data = data.get("fsm", {})
        fsm = FsmConfig(
            stationary_eps_px=float(fsm_data.get("stationary_eps_px", 2.0)),
            confirm_frames=int(fsm_data.get("confirm_frames", 5)),
        )
        table_data = data.get("severity_table")
        if table_data is None:
            severity_table = dict(DEFAULT_SEVERITY_TABLE)
        else:
            severity_table = {
                (TrainState(e["state"]), ZoneKind(e["zone_kind"])): Severity(e["severity"])
                for e in table_data
            }
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed pipeline config: {exc}") from exc
    return PipelineConfig(
        decode=decode, zones=zones, camera=camera, fsm=fsm, severity_table=severity_table
    )


def load_config(path: str | Path) -> PipelineConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return config_from_json(data)


def save_config(config: PipelineConfig, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_json(config), fh, indent=2)
        fh.write("\n")


def process_frame(
    frame: RawTensorSet,
    config: PipelineConfig,
    fsm: TrainStateMachine,
) -> FrameResult:
    """Run the full per-frame analysis; advances `fsm` as a side effect.

    The FSM steps before person evaluation, so alert severities use the
    state the train reached on this very frame. Decode problems raise
    FrameError carrying the frame index; the caller decides whether the
    run continues.
    """
    t0 = time.perf_counter()
    try:
        decoded = decode_all(frame, config.decode)
    except (DecodeError, GeometryError) as exc:
        raise FrameError(frame.frame_index, f"frame {frame.frame_index}: {exc}") from exc
    t1 = time.perf_counter()

    detections = nms(decoded, config.decode.nms_iou_threshold).to_list()
    t2 = time.perf_counter()

    trains = filter_class(detections, config.decode.train_class_id)
    _, state, _ = fsm.observe_and_step(trains, config.risk_zone)
    t3 = time.perf_counter()

    persons = filter_class(detections, config.decode.person_class_id)
    danger_zones = config.danger_zones
    # MONITOR zones only feed a debug log, so they are tested only when it is on.
    monitor_zones = config.monitor_zones if logger.isEnabledFor(logging.DEBUG) else ()
    alerts: list[AlertEvent] = []
    for person in persons:
        foot = ground_point(person)
        for zone in danger_zones:
            if point_in_zone(foot, zone):
                severity = severity_for(state, zone.kind, config.severity_table)
                if severity is not None:
                    alerts.append(
                        AlertEvent(
                            frame_index=frame.frame_index,
                            zone=zone.name,
                            train_state=state,
                            severity=severity,
                            detection=person,
                        )
                    )
        for zone in monitor_zones:
            if point_in_zone(foot, zone):
                logger.debug(
                    "frame %d: person in monitor zone '%s'", frame.frame_index, zone.name
                )
    t4 = time.perf_counter()

    return FrameResult(
        frame_index=frame.frame_index,
        detections=tuple(detections),
        train_state=state,
        alerts=tuple(alerts),
        latency=StageLatencies(
            decode_ms=(t1 - t0) * 1000.0,
            nms_ms=(t2 - t1) * 1000.0,
            geometry_ms=(t4 - t3) * 1000.0,
            fsm_ms=(t3 - t2) * 1000.0,
        ),
    )


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
) -> RunSummary:
    """Process a backend's whole stream.

    Per-frame failures (corrupt tensors) are counted, reported through the
    result sink as {"frame": n, "error": ...}, and skipped. A backend error
    mid-stream is counted and ends the run, since the source cannot
    continue past it. A sink raising aborts the run with SinkWriteError
    carrying the partial summary. Sinks see records in frame order.
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
            result = process_frame(frame, config, fsm)
        except FrameError as exc:
            error_count += 1
            logger.warning("skipping frame %d: %s", exc.frame_index, exc)
            emit(result_sink, {"frame": exc.frame_index, "error": str(exc)})
            continue

        frames_processed += 1
        if result.train_state is not before:
            emit(
                log_sink,
                {"frame": result.frame_index, "from": before.value, "to": result.train_state.value},
            )
        for alert in result.alerts:
            emit(alert_sink, alert.to_record())
        alerts_emitted += len(result.alerts)
        emit(result_sink, result.to_record())

    return RunSummary(frames_processed, alerts_emitted, error_count)
