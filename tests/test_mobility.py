import math
import pickle
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from manetsim.mobility import Kinematics, WaypointState, advance_waypoint, kinematics_at


def _leg(current, target, speed, start=0.0):
    return WaypointState(current=current, target=target, speed=speed,
                         pause_until=math.inf, leg_start_time=start)


def _resting(pos, t0, pause):
    """A node resting at ``pos`` from ``t0``; its first travel leg starts after ``pause``."""
    return WaypointState(pos, pos, 0.0, t0 + pause, t0)


def test_leg_start_has_full_velocity():
    state = _leg(Kinematics(0.0, 0.0), Kinematics(10.0, 0.0), speed=2.0)
    k = kinematics_at(state, 0.0)
    assert (k.x, k.y) == (0.0, 0.0)
    assert (k.vx, k.vy) == (2.0, 0.0)


def test_paused_node_has_zero_velocity():
    state = _resting(Kinematics(3.0, 4.0), 0.0, pause=2.0)
    k = kinematics_at(state, 1.0)
    assert (k.x, k.y) == (3.0, 4.0)
    assert (k.vx, k.vy) == (0.0, 0.0)


def test_halfway_along_leg():
    # 10 m leg at 2 m/s: halfway in time (2.5 s) is 5 m along.
    state = _leg(Kinematics(0.0, 0.0), Kinematics(10.0, 0.0), speed=2.0)
    k = kinematics_at(state, 2.5)
    assert math.isclose(k.x, 5.0)
    assert k.y == 0.0


def test_position_clamps_at_target():
    state = _leg(Kinematics(0.0, 0.0), Kinematics(10.0, 0.0), speed=2.0)
    k = kinematics_at(state, 100.0)
    assert (k.x, k.y) == (10.0, 0.0)
    assert (k.vx, k.vy) == (0.0, 0.0)


def test_advance_is_deterministic_for_fixed_seed():
    state = _resting(Kinematics(1.0, 1.0), 0.0, pause=0.5)
    a = advance_waypoint(state, random.Random(99), 0.5, 50.0, 50.0, 1.0, 5.0, 2.0)
    b = advance_waypoint(state, random.Random(99), 0.5, 50.0, 50.0, 1.0, 5.0, 2.0)
    assert a == b


def test_advance_with_degenerate_speed_range():
    state = _resting(Kinematics(1.0, 1.0), 0.0, pause=0.0)
    nxt = advance_waypoint(state, random.Random(1), 0.0, 50.0, 50.0, 3.0, 3.0, 1.0)
    assert nxt.speed == 3.0


def test_advance_target_stays_in_area():
    rng = random.Random(5)
    state = _resting(Kinematics(10.0, 10.0), 0.0, pause=0.0)
    for _ in range(200):
        state = advance_waypoint(state, rng, state.pause_until, 50.0, 50.0, 0.5, 5.0, 1.0)
        assert 0.0 <= state.target.x <= 50.0
        assert 0.0 <= state.target.y <= 50.0


@given(t=st.floats(min_value=0.0, max_value=1e4, allow_nan=False))
def test_positions_never_leave_area(t):
    # Both leg endpoints inside the area keep every interpolated point inside.
    rng = random.Random(7)
    state = _resting(Kinematics(25.0, 25.0), 0.0, pause=0.1)
    state = advance_waypoint(state, rng, 0.1, 50.0, 50.0, 1.0, 5.0, 1.0)
    k = kinematics_at(state, max(t, state.leg_start_time))
    assert 0.0 <= k.x <= 50.0
    assert 0.0 <= k.y <= 50.0


def test_parked_node_is_never_due():
    here = Kinematics(2.0, 2.0)
    state = WaypointState(here, here, 0.0, math.inf, 7.5)
    assert state.pause_until == math.inf
    assert kinematics_at(state, 123.0) is here  # its rest is its own position record


def test_scripted_leg_moves_then_parks():
    target = Kinematics(8.0, 6.0)
    state = _leg(Kinematics(0.0, 0.0), target, speed=5.0)
    assert state.pause_until == math.inf
    mid = kinematics_at(state, 1.0)
    assert math.isclose(mid.x, 4.0) and math.isclose(mid.y, 3.0)
    assert math.isclose(math.hypot(mid.vx, mid.vy), 5.0)
    end = kinematics_at(state, 10.0)
    assert end is target  # a moving leg rests at its own target
    assert (end.vx, end.vy) == (0.0, 0.0)


def test_scripted_without_target_is_parked():
    # A ``nodes`` entry without a leg: its target is its position, at zero speed.
    pos = Kinematics(1.0, 2.0)
    state = _leg(pos, pos, speed=0.0)
    assert kinematics_at(state, 55.0) is pos
    # A leg that does not move stands at its start, whatever its target.
    assert kinematics_at(_leg(pos, Kinematics(9.0, 9.0), speed=0.0), 55.0) is pos


def test_a_zero_speed_draw_parks_the_node_where_it_rests():
    here = Kinematics(4.0, 5.0)
    rng = random.Random(3)
    state = advance_waypoint(_resting(here, 0.0, 0.0), rng, 2.5, 50.0, 50.0, 0.0, 0.0, 1.0)
    assert state == WaypointState(here, here, 0.0, math.inf, 2.5)
    assert kinematics_at(state, 99.0) is here


def test_the_next_leg_starts_where_the_last_one_rests():
    # 1 / dist overflows on this leg, so it does not move: it rests at its start.
    short = WaypointState(Kinematics(0.0, 0.0), Kinematics(0.0, 5e-324), 1.0, 0.0, 0.0)
    assert kinematics_at(short, 1.0) == (0.0, 0.0, 0.0, 0.0)
    state = advance_waypoint(short, random.Random(3), 1.0, 50.0, 50.0, 1.0, 2.0, 1.0)
    assert state.current is short.rest


def reference_kinematics_at(state, t):
    """Reference kinematics: the whole leg's geometry worked out at every call.

    A leg does not move when its speed is at most 0, or when it is so
    short, zero length included, that 1 / dist is not finite.
    """
    dx, dy = state.target.x - state.current.x, state.target.y - state.current.y
    dist = math.hypot(dx, dy)
    if state.speed <= 0.0 or dist == 0.0 or math.isinf(1.0 / dist):
        return Kinematics(state.current.x, state.current.y)
    travel = dist / state.speed
    elapsed = t - state.leg_start_time
    if elapsed >= travel:
        return Kinematics(state.target.x, state.target.y)
    ux, uy = dx * (1.0 / dist), dy * (1.0 / dist)
    step = state.speed * elapsed
    return Kinematics(state.current.x + ux * step, state.current.y + uy * step,
                      ux * state.speed, uy * state.speed)


def kinematics_bits(kin):
    """The four floats as reprs, which tell -0.0 from 0.0 and every last bit."""
    return tuple(repr(v) for v in kin)


_coord = st.floats(-1e4, 1e4)
# Zero, sub-metre and long displacements from a leg's start to its target.
_offset = st.one_of(st.just(0.0), st.floats(-1.0, 1.0), st.floats(-2e3, 2e3))
_speed = st.one_of(st.just(0.0), st.floats(-5.0, 50.0), st.floats(1e-9, 1e-3))
_time = st.floats(0.0, 1e5)


@st.composite
def _legs(draw):
    """Legs as the engine makes them: given, resting, parked, scripted and advanced."""
    current = Kinematics(draw(_coord), draw(_coord))
    target = Kinematics(current.x + draw(_offset), current.y + draw(_offset))
    speed, start, pause = draw(_speed), draw(_time), draw(st.floats(0.0, 100.0))
    maker = draw(st.sampled_from(["keyword", "initial", "parked", "scripted", "advance"]))
    if maker == "keyword":
        return WaypointState(current=current, target=target, speed=speed,
                             pause_until=start + pause, leg_start_time=start)
    if maker == "initial":
        return _resting(current, start, pause)
    if maker == "parked":
        return WaypointState(current, current, 0.0, math.inf, start)
    if maker == "scripted":
        return _leg(current, draw(st.sampled_from([current, target])), speed)
    area = st.one_of(st.floats(0.0, 2.0), st.floats(0.0, 1e3))
    speed_min = draw(st.floats(0.0, 20.0))
    speed_max = draw(st.one_of(st.just(speed_min), st.floats(speed_min, 50.0)))
    return advance_waypoint(_resting(current, 0.0, 0.0),
                            random.Random(draw(st.integers(0, 2**32))), start,
                            draw(area), draw(area), speed_min, speed_max, pause)


@settings(max_examples=500)
@given(leg=_legs(), where=st.sampled_from(["before", "arrival", "after"]),
       fraction=st.floats(0.0, 1.0, exclude_max=True), late=_time)
@example(leg=WaypointState(current=Kinematics(0.1, 0.2), target=Kinematics(0.1, 0.2), speed=3.0,
                           pause_until=1.0, leg_start_time=0.0),
         where="before", fraction=0.5, late=0.0)
# speed * elapsed, then times the direction: (ux * speed) * elapsed differs here.
@example(leg=WaypointState(current=Kinematics(1.0, 2.0), target=Kinematics(7.3, -4.1), speed=0.7,
                           pause_until=math.inf, leg_start_time=4.1),
         where="before", fraction=0.5, late=0.0)
# Arrival is t - leg_start_time >= travel: t >= leg_start_time + travel differs here.
@example(leg=WaypointState(current=Kinematics(0.0, 0.0), target=Kinematics(0.3, -0.4), speed=0.7,
                           pause_until=math.inf, leg_start_time=12.3),
         where="arrival", fraction=0.0, late=0.0)
# 1 / dist overflows to inf on this leg, so it does not move.
@example(leg=WaypointState(current=Kinematics(0.0, 0.0), target=Kinematics(0.0, 5e-324), speed=1.0,
                           pause_until=0.0, leg_start_time=0.0),
         where="before", fraction=0.0, late=0.0)
# At infinite speed the zero y component of the direction gives vy = 0.0, not 0 * inf.
@example(leg=WaypointState(current=Kinematics(0.0, 0.0), target=Kinematics(10.0, 0.0), speed=math.inf,
                           pause_until=math.inf, leg_start_time=0.0),
         where="after", fraction=0.0, late=1.0)
def test_kinematics_match_the_reference(leg, where, fraction, late):
    dist = math.hypot(leg.target.x - leg.current.x, leg.target.y - leg.current.y)
    travel = dist / leg.speed if leg.speed > 0.0 and dist > 0.0 else 0.0
    t = leg.leg_start_time + {"before": fraction * travel, "arrival": travel,
                              "after": travel + late}[where]
    assert kinematics_bits(kinematics_at(leg, t)) == kinematics_bits(
        reference_kinematics_at(leg, t))
    twin = WaypointState(current=leg.current, target=leg.target, speed=leg.speed,
                         pause_until=leg.pause_until, leg_start_time=leg.leg_start_time)
    assert twin == leg and hash(twin) == hash(leg)
    assert not any(map(math.isnan, (*leg[5:10], *leg.rest)))  # no worked-out field is NaN
    # A leg's rest is one of its own ends, never a record built for it.
    assert leg.rest is (leg.current if leg.travel == -math.inf else leg.target)
    assert kinematics_bits(kinematics_at(twin, t)) == kinematics_bits(kinematics_at(leg, t))


@given(leg=_legs())
def test_a_leg_pickles_as_its_five_given_fields(leg):
    again = pickle.loads(pickle.dumps(leg))
    assert type(again) is WaypointState and again == leg
    assert repr(again) == repr(leg)
