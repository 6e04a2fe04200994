from __future__ import annotations

import pytest

from stationwatch import (
    BoundingBox,
    FsmConfig,
    TrainState,
    TrainStateMachine,
    Zone,
    ZoneKind,
    observe_train,
    step_fsm,
)

RISK = Zone("track", ZoneKind.RISK, ((0.0, 0.0), (100.0, 0.0), (100.0, 100.0), (0.0, 100.0)))

# (present, displacement_px) of one frame.
ABSENT = (False, 0.0)
MOVING = (True, 8.0)
STILL = (True, 0.0)


def train(box: BoundingBox) -> list[float]:
    return box.as_list()


# --- observe_train ------------------------------------------------------------

def test_observation_of_a_half_covering_train():
    assert observe_train([train(BoundingBox(0, 0, 50, 100))], RISK) == (25.0, 50.0)


def test_observation_absent_when_nothing_touches_the_zone():
    assert observe_train([], RISK) is None
    assert observe_train([train(BoundingBox(0, 200, 50, 240))], RISK) is None


def test_ground_point_on_the_zone_edge_counts_as_present():
    # Zero-height box: no overlap area, but its ground point sits on y=100.
    assert observe_train([train(BoundingBox(10, 100, 20, 100))], RISK) is not None


def test_largest_box_drives_the_centroid():
    small = train(BoundingBox(0, 0, 10, 10))
    large = train(BoundingBox(20, 20, 80, 80))
    assert observe_train([small, large], RISK) == (50.0, 50.0)


def test_any_touching_box_makes_the_train_present_in_either_order():
    far = train(BoundingBox(0, 200, 300, 240))  # largest box, outside the zone
    touching = train(BoundingBox(40, 40, 60, 60))
    for boxes in ([far, touching], [touching, far]):
        assert observe_train(boxes, RISK) == (150.0, 220.0)
    assert observe_train([far, far], RISK) is None


def test_observe_train_requires_a_risk_zone():
    for kind in ("MONITOR", "DANGER"):
        zone = Zone("platform", ZoneKind(kind), RISK.polygon)
        with pytest.raises(ValueError, match=f"needs a RISK zone, got {kind}$"):
            observe_train([], zone)


def test_fsm_config_validation():
    with pytest.raises(ValueError, match="stationary_eps_px"):
        FsmConfig(stationary_eps_px=0.0)
    with pytest.raises(ValueError, match="confirm_frames"):
        FsmConfig(confirm_frames=0)


def test_step_fsm_refuses_a_state_it_does_not_know():
    with pytest.raises(ValueError, match="unknown state 'ON'"):
        step_fsm("ON", *STILL, 0, FsmConfig())


# --- step_fsm transition table ---------------------------------------------------

def test_off_state_reacts_only_to_presence():
    config = FsmConfig()
    assert step_fsm(TrainState.OFF, *ABSENT, 0, config) == (TrainState.OFF, 0)
    assert step_fsm(TrainState.OFF, *MOVING, 0, config) == (TrainState.IN, 0)
    assert step_fsm(TrainState.OFF, *STILL, 0, config) == (TrainState.IN, 0)


def test_stop_is_confirmed_on_the_nth_consecutive_stationary_frame():
    config = FsmConfig(stationary_eps_px=2.0, confirm_frames=5)
    state, count = TrainState.IN, 0
    for expected_count in (1, 2, 3, 4):
        state, count = step_fsm(state, *STILL, count, config)
        assert state is TrainState.IN
        assert count == expected_count
    assert step_fsm(state, *STILL, count, config) == (TrainState.ON, 0)


def test_movement_restarts_the_stop_confirmation():
    config = FsmConfig(confirm_frames=5)
    state, count = TrainState.IN, 0
    for obs in [STILL, STILL, STILL, MOVING, STILL, STILL, STILL, STILL]:
        state, count = step_fsm(state, *obs, count, config)
    assert state is TrainState.IN  # only 4 consecutive stills since the move
    state, _ = step_fsm(state, *STILL, count, config)
    assert state is TrainState.ON


def test_pass_through_goes_in_to_out_without_stopping():
    assert step_fsm(TrainState.IN, *ABSENT, 3, FsmConfig()) == (TrainState.OUT, 0)


def test_on_state_ends_on_movement_or_absence():
    config = FsmConfig(stationary_eps_px=2.0)
    assert step_fsm(TrainState.ON, *STILL, 0, config)[0] is TrainState.ON
    assert step_fsm(TrainState.ON, True, 1.999, 0, config)[0] is TrainState.ON
    assert step_fsm(TrainState.ON, True, 2.0, 0, config)[0] is TrainState.OUT
    assert step_fsm(TrainState.ON, *ABSENT, 0, config)[0] is TrainState.OUT


def test_departure_is_confirmed_by_consecutive_absence():
    config = FsmConfig(confirm_frames=5)
    state, count = TrainState.OUT, 0
    for expected_count in (1, 2, 3, 4):
        state, count = step_fsm(state, *ABSENT, count, config)
        assert state is TrainState.OUT
        assert count == expected_count
    assert step_fsm(state, *ABSENT, count, config) == (TrainState.OFF, 0)


def test_reappearance_restarts_the_departure_confirmation():
    config = FsmConfig(confirm_frames=5)
    state, count = TrainState.OUT, 0
    for obs in [ABSENT] * 4 + [MOVING] + [ABSENT] * 4:
        state, count = step_fsm(state, *obs, count, config)
    assert state is TrainState.OUT
    state, _ = step_fsm(state, *ABSENT, count, config)
    assert state is TrainState.OFF


def test_confirm_frames_of_one_flips_immediately():
    config = FsmConfig(confirm_frames=1)
    assert step_fsm(TrainState.IN, *STILL, 0, config)[0] is TrainState.ON
    assert step_fsm(TrainState.OUT, *ABSENT, 0, config)[0] is TrainState.OFF


def test_step_fsm_is_a_pure_function():
    args = (TrainState.IN, *STILL, 2, FsmConfig())
    assert step_fsm(*args) == step_fsm(*args)


# --- stateful wrapper over real detections -----------------------------------------

def states_of(machine: TrainStateMachine, boxes: list[BoundingBox | None]) -> list[TrainState]:
    """The machine's state after each frame; None is a frame without a train."""
    return [
        machine.observe_and_step([train(box)] if box is not None else [], RISK)[1]
        for box in boxes
    ]


def test_observation_measures_displacement_from_the_previous_centroid():
    machine = TrainStateMachine(FsmConfig(stationary_eps_px=2.0, confirm_frames=1))
    first, moved = BoundingBox(0, 0, 50, 100), BoundingBox(10, 0, 60, 100)
    assert states_of(machine, [first, moved]) == [TrainState.IN, TrainState.IN]
    assert machine.centroid == (35.0, 50.0)
    assert states_of(machine, [moved]) == [TrainState.ON]


def test_a_move_of_exactly_stationary_eps_is_not_stationary():
    machine = TrainStateMachine(FsmConfig(stationary_eps_px=2.0, confirm_frames=1))
    first, moved = BoundingBox(0, 0, 50, 100), BoundingBox(0, 2, 50, 102)
    assert states_of(machine, [first, moved, moved]) == [
        TrainState.IN, TrainState.IN, TrainState.ON,
    ]
    assert states_of(machine, [first]) == [TrainState.OUT]


def test_machine_forgets_the_centroid_when_the_train_is_absent():
    machine = TrainStateMachine(FsmConfig(confirm_frames=1))
    box = BoundingBox(0, 0, 50, 100)
    _, _, centroid = machine.observe_and_step([train(box)], RISK)
    assert centroid == machine.centroid == (25.0, 50.0)
    assert machine.observe_and_step([], RISK) == (TrainState.IN, TrainState.OUT, None)
    assert machine.centroid is None
    assert machine.count == 0

def test_full_arrival_cycle_through_the_state_machine():
    machine = TrainStateMachine(FsmConfig(stationary_eps_px=2.0, confirm_frames=5))

    def step(box: BoundingBox | None) -> TrainState:
        dets = [train(box)] if box is not None else []
        _, after, _ = machine.observe_and_step(dets, RISK)
        return after

    states = []
    states.append(step(None))                         # no train yet
    for i in range(3):                                # rolls in, 10 px/frame
        states.append(step(BoundingBox(10.0 * i, 0, 10.0 * i + 40, 60)))
    for _ in range(5):                                # holds still
        states.append(step(BoundingBox(20.0, 0, 60.0, 60)))
    for i in range(1, 3):                             # pulls out
        states.append(step(BoundingBox(20.0 + 15.0 * i, 0, 60.0 + 15.0 * i, 60)))
    for _ in range(5):                                # gone
        states.append(step(None))

    assert states == [
        TrainState.OFF,
        TrainState.IN, TrainState.IN, TrainState.IN,
        # first still frame is the 4th present frame; 5 stills confirm the stop
        TrainState.IN, TrainState.IN, TrainState.IN, TrainState.IN, TrainState.ON,
        TrainState.OUT, TrainState.OUT,
        TrainState.OUT, TrainState.OUT, TrainState.OUT, TrainState.OUT, TrainState.OFF,
    ]


def test_state_machine_runs_are_deterministic():
    boxes = [None, BoundingBox(0, 0, 40, 60), BoundingBox(10, 0, 50, 60), None, None]

    def run():
        machine = TrainStateMachine()
        trace = []
        for box in boxes:
            dets = [train(box)] if box is not None else []
            trace.append(machine.observe_and_step(dets, RISK)[1])
        return trace

    assert run() == run()
