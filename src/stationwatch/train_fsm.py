"""Train arrival/departure tracking over the track-side zone.

The platform cares about four situations: no train (OFF), a train moving
in view (IN), a train confirmed stopped (ON), and a train leaving or gone
but not yet confirmed gone (OUT). Transitions are driven purely by what
the detector sees in the track zone each frame; stop and gone are both
debounced over confirm_frames consecutive observations so one noisy frame
cannot flip the state.

Transition table (anything not listed keeps the current state):

    OFF -> IN   train present
    IN  -> ON   confirm_frames consecutive frames moving < stationary_eps_px
    IN  -> OUT  train absent before the stop was confirmed (pass-through)
    ON  -> OUT  train moves >= stationary_eps_px, or absent
    OUT -> OFF  confirm_frames consecutive absent frames

Counters reset on every state change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .geometry import Zone, ZoneKind, box_zone_overlap_area, ground_point, point_in_zone
from .postprocess import Detection


class TrainState(Enum):
    OFF = "OFF"  # no train
    IN = "IN"    # train approaching / moving in view
    ON = "ON"    # train arrived and stopped
    OUT = "OUT"  # train pulling out or recently gone

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class TrainObservation:
    """Per-frame evidence about the train zone.

    displacement_px is how far the largest train box's centroid moved since
    the previous observation (0 on absence or first appearance). centroid
    carries the largest box centre forward so the next observation can
    measure displacement.
    """

    present: bool
    displacement_px: float = 0.0
    centroid: tuple[float, float] | None = None

    def __post_init__(self):
        if self.displacement_px < 0 or not math.isfinite(self.displacement_px):
            raise ValueError(f"displacement_px must be >= 0, got {self.displacement_px}")


@dataclass(frozen=True)
class FsmConfig:
    """Debounce thresholds for stop/gone confirmation."""

    stationary_eps_px: float = 2.0
    confirm_frames: int = 5

    def __post_init__(self):
        if self.stationary_eps_px <= 0 or not math.isfinite(self.stationary_eps_px):
            raise ValueError(f"stationary_eps_px must be > 0, got {self.stationary_eps_px}")
        if self.confirm_frames < 1:
            raise ValueError(f"confirm_frames must be >= 1, got {self.confirm_frames}")


@dataclass(frozen=True)
class FsmCounters:
    """Consecutive-frame confirmation counts."""

    stationary_frames: int = 0
    absent_frames: int = 0


def observe_train(
    detections: Sequence[Detection],
    risk_zone: Zone,
    previous: TrainObservation | None = None,
) -> TrainObservation:
    """Summarize train evidence for one frame.

    `detections` must already be filtered to the train class; every box is
    treated as a train. A train is present when at least one box touches
    the zone, either by its ground point or by box overlap.
    """
    if risk_zone.kind is not ZoneKind.RISK:
        raise ValueError(f"train observation needs a RISK zone, got {risk_zone.kind}")

    present = any(
        box_zone_overlap_area(det.box, risk_zone) > 0.0
        or point_in_zone(ground_point(det), risk_zone)
        for det in detections
    )
    if not present:
        return TrainObservation(present=False)

    largest = max(detections, key=lambda d: d.box.area())
    centroid = largest.box.center()
    if previous is not None and previous.centroid is not None:
        displacement = math.dist(centroid, previous.centroid)
    else:
        displacement = 0.0
    return TrainObservation(present=True, displacement_px=displacement, centroid=centroid)


def step_fsm(
    state: TrainState,
    observation: TrainObservation,
    config: FsmConfig,
    counters: FsmCounters,
) -> tuple[TrainState, FsmCounters]:
    """Advance the train state by one observation.

    Pure function: returns the next state and counter values. Counters are
    zeroed whenever the state changes, so confirmation never carries over
    into the next state.
    """
    reset = FsmCounters()
    if state is TrainState.OFF:
        if observation.present:
            return TrainState.IN, reset
        return TrainState.OFF, reset

    if state is TrainState.IN:
        if not observation.present:
            return TrainState.OUT, reset
        if observation.displacement_px < config.stationary_eps_px:
            count = counters.stationary_frames + 1
            if count >= config.confirm_frames:
                return TrainState.ON, reset
            return TrainState.IN, FsmCounters(stationary_frames=count)
        return TrainState.IN, reset

    if state is TrainState.ON:
        if not observation.present or observation.displacement_px >= config.stationary_eps_px:
            return TrainState.OUT, reset
        return TrainState.ON, reset

    if state is TrainState.OUT:
        if not observation.present:
            count = counters.absent_frames + 1
            if count >= config.confirm_frames:
                return TrainState.OFF, reset
            return TrainState.OUT, FsmCounters(absent_frames=count)
        return TrainState.OUT, reset

    raise ValueError(f"unknown state {state!r}")


class TrainStateMachine:
    """Stateful wrapper chaining observations frame to frame.

    Single-writer: exactly one machine instance advances per stream, in
    frame order. Use step_fsm directly for pure-function access.
    """

    def __init__(self, config: FsmConfig | None = None):
        self.config = config or FsmConfig()
        self.state = TrainState.OFF
        self.counters = FsmCounters()
        self.last_observation: TrainObservation | None = None

    def observe_and_step(
        self, train_detections: Sequence[Detection], risk_zone: Zone
    ) -> tuple[TrainState, TrainState, TrainObservation]:
        """Observe one frame and advance; returns (before, after, observation)."""
        observation = observe_train(train_detections, risk_zone, self.last_observation)
        before = self.state
        self.state, self.counters = step_fsm(self.state, observation, self.config, self.counters)
        self.last_observation = observation
        return before, self.state, observation
