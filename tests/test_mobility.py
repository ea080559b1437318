import math
import random

from hypothesis import given
from hypothesis import strategies as st

from manetsim.mobility import (WaypointState, advance_waypoint, initial_waypoint,
                               kinematics_at, parked_waypoint, scripted_waypoint)
from manetsim.model import Vec2


def _leg(current, target, speed, start=0.0):
    return WaypointState(current=current, target=target, speed=speed,
                         pause_until=math.inf, leg_start_time=start)


def test_leg_start_has_full_velocity():
    state = _leg(Vec2(0.0, 0.0), Vec2(10.0, 0.0), speed=2.0)
    k = kinematics_at(state, 0.0)
    assert k.pos == Vec2(0.0, 0.0)
    assert k.vel == Vec2(2.0, 0.0)


def test_paused_node_has_zero_velocity():
    state = initial_waypoint(Vec2(3.0, 4.0), 0.0, pause=2.0)
    k = kinematics_at(state, 1.0)
    assert k.pos == Vec2(3.0, 4.0)
    assert k.vel == Vec2(0.0, 0.0)


def test_halfway_along_leg():
    # 10 m leg at 2 m/s: halfway in time (2.5 s) is 5 m along.
    state = _leg(Vec2(0.0, 0.0), Vec2(10.0, 0.0), speed=2.0)
    k = kinematics_at(state, 2.5)
    assert math.isclose(k.pos.x, 5.0)
    assert k.pos.y == 0.0


def test_position_clamps_at_target():
    state = _leg(Vec2(0.0, 0.0), Vec2(10.0, 0.0), speed=2.0)
    k = kinematics_at(state, 100.0)
    assert k.pos == Vec2(10.0, 0.0)
    assert k.vel == Vec2(0.0, 0.0)


def test_advance_is_deterministic_for_fixed_seed():
    state = initial_waypoint(Vec2(1.0, 1.0), 0.0, pause=0.5)
    a = advance_waypoint(state, random.Random(99), 0.5, 50.0, 50.0, 1.0, 5.0, 2.0)
    b = advance_waypoint(state, random.Random(99), 0.5, 50.0, 50.0, 1.0, 5.0, 2.0)
    assert a == b


def test_advance_with_degenerate_speed_range():
    state = initial_waypoint(Vec2(1.0, 1.0), 0.0, pause=0.0)
    nxt = advance_waypoint(state, random.Random(1), 0.0, 50.0, 50.0, 3.0, 3.0, 1.0)
    assert nxt.speed == 3.0


def test_advance_target_stays_in_area():
    rng = random.Random(5)
    state = initial_waypoint(Vec2(10.0, 10.0), 0.0, pause=0.0)
    for _ in range(200):
        state = advance_waypoint(state, rng, state.pause_until, 50.0, 50.0, 0.5, 5.0, 1.0)
        assert 0.0 <= state.target.x <= 50.0
        assert 0.0 <= state.target.y <= 50.0


@given(t=st.floats(min_value=0.0, max_value=1e4, allow_nan=False))
def test_positions_never_leave_area(t):
    # Both leg endpoints inside the area keep every interpolated point inside.
    rng = random.Random(7)
    state = initial_waypoint(Vec2(25.0, 25.0), 0.0, pause=0.1)
    state = advance_waypoint(state, rng, 0.1, 50.0, 50.0, 1.0, 5.0, 1.0)
    k = kinematics_at(state, max(t, state.leg_start_time))
    assert 0.0 <= k.pos.x <= 50.0
    assert 0.0 <= k.pos.y <= 50.0


def test_parked_node_is_never_due():
    state = parked_waypoint(Vec2(2.0, 2.0))
    assert state.pause_until == math.inf
    assert kinematics_at(state, 123.0).pos == Vec2(2.0, 2.0)


def test_scripted_leg_moves_then_parks():
    state = scripted_waypoint(Vec2(0.0, 0.0), Vec2(8.0, 6.0), speed=5.0)
    assert state.pause_until == math.inf
    mid = kinematics_at(state, 1.0)
    assert math.isclose(mid.pos.x, 4.0) and math.isclose(mid.pos.y, 3.0)
    assert math.isclose(mid.vel.norm(), 5.0)
    end = kinematics_at(state, 10.0)
    assert end.pos == Vec2(8.0, 6.0)
    assert end.vel == Vec2(0.0, 0.0)


def test_scripted_without_target_is_parked():
    state = scripted_waypoint(Vec2(1.0, 2.0), None, speed=0.0)
    assert kinematics_at(state, 55.0).pos == Vec2(1.0, 2.0)
