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

The confirmation count resets on every state change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .geometry import Zone, ZoneKind, box_zone_overlap_area, ground_point, point_in_zone


class TrainState(Enum):
    OFF = "OFF"  # no train
    IN = "IN"    # train approaching / moving in view
    ON = "ON"    # train arrived and stopped
    OUT = "OUT"  # train pulling out or recently gone


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


def observe_train(
    trains: Sequence[Sequence[float]], risk_zone: Zone
) -> tuple[float, float] | None:
    """The centre of the largest train box, or None when no train is present.

    `trains` holds the (x1, y1, x2, y2) boxes of the train class; every box
    is treated as a train. A train is present when at least one box touches
    the zone, either by its ground point or by box overlap. The largest box,
    the first of maximal area, gives the centre, whether or not it touches
    the zone itself.
    """
    if risk_zone.kind is not ZoneKind.RISK:
        raise ValueError(f"train observation needs a RISK zone, got {risk_zone.kind.value}")

    present = any(  # the cheap point test first: the polygon clip runs only when it fails
        point_in_zone(ground_point(box), risk_zone)
        or box_zone_overlap_area(box, risk_zone) > 0.0
        for box in trains
    )
    if not present:
        return None
    x1, y1, x2, y2 = max(trains, key=lambda box: (box[2] - box[0]) * (box[3] - box[1]))
    return (x1 + x2) / 2.0, (y1 + y2) / 2.0


def step_fsm(
    state: TrainState,
    present: bool,
    displacement_px: float,
    count: int,
    config: FsmConfig,
) -> tuple[TrainState, int]:
    """Advance the train state by one frame.

    Pure function: returns the next state and count. `count` is the number
    of consecutive stationary frames so far in IN and of consecutive absent
    frames so far in OUT; it is 0 in every other state. It is zeroed
    whenever the state changes, so confirmation never carries over into the
    next state. `displacement_px` is how far the train moved since the
    previous frame and is read only when `present`.
    """
    if state is TrainState.OFF:
        if present:
            return TrainState.IN, 0
        return TrainState.OFF, 0

    if state is TrainState.IN:
        if not present:
            return TrainState.OUT, 0
        if displacement_px < config.stationary_eps_px:
            count += 1
            if count >= config.confirm_frames:
                return TrainState.ON, 0
            return TrainState.IN, count
        return TrainState.IN, 0

    if state is TrainState.ON:
        if not present or displacement_px >= config.stationary_eps_px:
            return TrainState.OUT, 0
        return TrainState.ON, 0

    if state is TrainState.OUT:
        if not present:
            count += 1
            if count >= config.confirm_frames:
                return TrainState.OFF, 0
            return TrainState.OUT, count
        return TrainState.OUT, 0

    raise ValueError(f"unknown state {state!r}")


class TrainStateMachine:
    """Stateful wrapper chaining frames: the state, its count and the last centre.

    Single-writer: exactly one machine instance advances per stream, in
    frame order. Use step_fsm directly for pure-function access.
    """

    def __init__(self, config: FsmConfig | None = None):
        self.config = config or FsmConfig()
        self.state = TrainState.OFF
        self.count = 0
        self.centroid: tuple[float, float] | None = None

    def observe_and_step(
        self, trains: Sequence[Sequence[float]], risk_zone: Zone
    ) -> tuple[TrainState, TrainState, tuple[float, float] | None]:
        """Observe one frame and advance; returns (before, after, centroid).

        The displacement is how far the largest train box's centre moved
        since the previous frame: 0 on a first sighting or after an absence.
        """
        centroid = observe_train(trains, risk_zone)
        if centroid is None or self.centroid is None:
            displacement = 0.0
        else:
            displacement = math.dist(centroid, self.centroid)
        before = self.state
        self.state, self.count = step_fsm(
            before, centroid is not None, displacement, self.count, self.config
        )
        self.centroid = centroid
        return before, self.state, centroid
