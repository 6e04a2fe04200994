from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stationwatch import (
    BoundingBox,
    Detection,
    FsmConfig,
    FsmCounters,
    TrainObservation,
    TrainState,
    TrainStateMachine,
    Zone,
    ZoneKind,
    observe_train,
    step_fsm,
)

RISK = Zone("track", ZoneKind.RISK, ((0.0, 0.0), (100.0, 0.0), (100.0, 100.0), (0.0, 100.0)))

ABSENT = TrainObservation(present=False)
MOVING = TrainObservation(present=True, displacement_px=8.0, centroid=(50.0, 50.0))
STILL = TrainObservation(present=True, displacement_px=0.0, centroid=(50.0, 50.0))

ALLOWED = {
    (TrainState.OFF, TrainState.OFF),
    (TrainState.OFF, TrainState.IN),
    (TrainState.IN, TrainState.IN),
    (TrainState.IN, TrainState.ON),
    (TrainState.IN, TrainState.OUT),
    (TrainState.ON, TrainState.ON),
    (TrainState.ON, TrainState.OUT),
    (TrainState.OUT, TrainState.OUT),
    (TrainState.OUT, TrainState.OFF),
}


def train(box: BoundingBox) -> Detection:
    return Detection(box, 0.95, 6)


# --- observe_train ------------------------------------------------------------

def test_observation_of_a_half_covering_train():
    obs = observe_train([train(BoundingBox(0, 0, 50, 100))], RISK)
    assert obs.present
    assert obs.displacement_px == 0.0  # first sighting
    assert obs.centroid == (25.0, 50.0)


def test_observation_measures_displacement_from_the_previous_centroid():
    first = observe_train([train(BoundingBox(0, 0, 50, 100))], RISK)
    second = observe_train([train(BoundingBox(10, 0, 60, 100))], RISK, previous=first)
    assert second.displacement_px == 10.0


def test_observation_absent_when_nothing_touches_the_zone():
    obs = observe_train([], RISK)
    assert obs == TrainObservation(present=False)
    far = observe_train([train(BoundingBox(0, 200, 50, 240))], RISK)
    assert not far.present
    assert far.centroid is None


def test_ground_point_on_the_zone_edge_counts_as_present():
    # Zero-height box: no overlap area, but its ground point sits on y=100.
    obs = observe_train([train(BoundingBox(10, 100, 20, 100))], RISK)
    assert obs.present


def test_largest_box_drives_the_centroid():
    small = train(BoundingBox(0, 0, 10, 10))
    large = train(BoundingBox(20, 20, 80, 80))
    obs = observe_train([small, large], RISK)
    assert obs.centroid == (50.0, 50.0)


def test_any_touching_box_makes_the_train_present_in_either_order():
    far = train(BoundingBox(0, 200, 300, 240))  # largest box, outside the zone
    touching = train(BoundingBox(40, 40, 60, 60))
    for boxes in ([far, touching], [touching, far]):
        obs = observe_train(boxes, RISK)
        assert obs.present
        assert obs.centroid == (150.0, 220.0)
    assert not observe_train([far, far], RISK).present


def test_observe_train_requires_a_risk_zone():
    monitor = Zone("platform", ZoneKind.MONITOR, RISK.polygon)
    with pytest.raises(ValueError, match="RISK"):
        observe_train([], monitor)


def test_observation_validation():
    with pytest.raises(ValueError, match="displacement_px"):
        TrainObservation(present=True, displacement_px=-1.0)


def test_fsm_config_validation():
    with pytest.raises(ValueError, match="stationary_eps_px"):
        FsmConfig(stationary_eps_px=0.0)
    with pytest.raises(ValueError, match="confirm_frames"):
        FsmConfig(confirm_frames=0)


# --- step_fsm transition table ---------------------------------------------------

def test_off_state_reacts_only_to_presence():
    config = FsmConfig()
    assert step_fsm(TrainState.OFF, ABSENT, config, FsmCounters()) == (TrainState.OFF, FsmCounters())
    assert step_fsm(TrainState.OFF, MOVING, config, FsmCounters()) == (TrainState.IN, FsmCounters())
    assert step_fsm(TrainState.OFF, STILL, config, FsmCounters()) == (TrainState.IN, FsmCounters())


def test_stop_is_confirmed_on_the_nth_consecutive_stationary_frame():
    config = FsmConfig(stationary_eps_px=2.0, confirm_frames=5)
    state, counters = TrainState.IN, FsmCounters()
    for expected_count in (1, 2, 3, 4):
        state, counters = step_fsm(state, STILL, config, counters)
        assert state is TrainState.IN
        assert counters.stationary_frames == expected_count
    state, counters = step_fsm(state, STILL, config, counters)
    assert state is TrainState.ON
    assert counters == FsmCounters()


def test_movement_restarts_the_stop_confirmation():
    config = FsmConfig(confirm_frames=5)
    state, counters = TrainState.IN, FsmCounters()
    for obs in [STILL, STILL, STILL, MOVING, STILL, STILL, STILL, STILL]:
        state, counters = step_fsm(state, obs, config, counters)
    assert state is TrainState.IN  # only 4 consecutive stills since the move
    state, _ = step_fsm(state, STILL, config, counters)
    assert state is TrainState.ON


def test_pass_through_goes_in_to_out_without_stopping():
    state, counters = step_fsm(TrainState.IN, ABSENT, FsmConfig(), FsmCounters(stationary_frames=3))
    assert state is TrainState.OUT
    assert counters == FsmCounters()


def test_on_state_ends_on_movement_or_absence():
    config = FsmConfig(stationary_eps_px=2.0)
    assert step_fsm(TrainState.ON, STILL, config, FsmCounters())[0] is TrainState.ON
    slow = TrainObservation(True, 1.999, (50.0, 50.0))
    assert step_fsm(TrainState.ON, slow, config, FsmCounters())[0] is TrainState.ON
    at_eps = TrainObservation(True, 2.0, (50.0, 50.0))
    assert step_fsm(TrainState.ON, at_eps, config, FsmCounters())[0] is TrainState.OUT
    assert step_fsm(TrainState.ON, ABSENT, config, FsmCounters())[0] is TrainState.OUT


def test_departure_is_confirmed_by_consecutive_absence():
    config = FsmConfig(confirm_frames=5)
    state, counters = TrainState.OUT, FsmCounters()
    for expected_count in (1, 2, 3, 4):
        state, counters = step_fsm(state, ABSENT, config, counters)
        assert state is TrainState.OUT
        assert counters.absent_frames == expected_count
    state, counters = step_fsm(state, ABSENT, config, counters)
    assert state is TrainState.OFF
    assert counters == FsmCounters()


def test_reappearance_restarts_the_departure_confirmation():
    config = FsmConfig(confirm_frames=5)
    state, counters = TrainState.OUT, FsmCounters()
    for obs in [ABSENT] * 4 + [MOVING] + [ABSENT] * 4:
        state, counters = step_fsm(state, obs, config, counters)
    assert state is TrainState.OUT
    state, _ = step_fsm(state, ABSENT, config, counters)
    assert state is TrainState.OFF


def test_confirm_frames_of_one_flips_immediately():
    config = FsmConfig(confirm_frames=1)
    assert step_fsm(TrainState.IN, STILL, config, FsmCounters())[0] is TrainState.ON
    assert step_fsm(TrainState.OUT, ABSENT, config, FsmCounters())[0] is TrainState.OFF


def test_step_fsm_is_a_pure_function():
    args = (TrainState.IN, STILL, FsmConfig(), FsmCounters(stationary_frames=2))
    assert step_fsm(*args) == step_fsm(*args)


@settings(max_examples=300, deadline=None)
@given(
    trace=st.lists(
        st.one_of(
            st.just(ABSENT),
            st.builds(
                TrainObservation,
                present=st.just(True),
                displacement_px=st.floats(min_value=0.0, max_value=20.0),
                centroid=st.just((50.0, 50.0)),
            ),
        ),
        max_size=40,
    )
)
def test_random_traces_stay_within_the_declared_transition_set(trace):
    state, counters = TrainState.OFF, FsmCounters()
    for observation in trace:
        new_state, counters = step_fsm(state, observation, FsmConfig(), counters)
        assert (state, new_state) in ALLOWED
        state = new_state


# --- stateful wrapper over real detections -----------------------------------------

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
