"""Random-waypoint node kinematics and link expiration time prediction."""

from __future__ import annotations

import math
from enum import Enum
from random import Random
from typing import NamedTuple

#: Kinematics used by the medium are resampled on this grid; positions in
#: between are exact, so the grid only quantizes neighbor-set changes.
MOBILITY_STEP = 0.1


class LetMode(Enum):
    PAPER = "PAPER"
    STRICT = "STRICT"


class Kinematics(NamedTuple):
    """A node's position (m) and velocity (m/s) at one instant; a position alone is at rest."""

    x: float
    y: float
    vx: float = 0.0
    vy: float = 0.0


class _Leg(NamedTuple):
    """The fields of a `WaypointState`: five given, then six worked out from them."""

    current: Kinematics
    target: Kinematics
    speed: float
    pause_until: float
    leg_start_time: float
    #: Unit direction of travel, then velocity while travelling; 0.0 on a
    #: leg that does not move.
    ux: float
    uy: float
    vx: float
    vy: float
    #: Seconds from the leg's start to arrival; -inf on a leg that does not
    #: move, so that every instant finds it at rest.
    travel: float
    #: Kinematics once arrived: the target, or ``current`` if the leg does
    #: not move.
    rest: Kinematics


class WaypointState(_Leg):
    """One leg of random-waypoint motion: travel current -> target, then pause.

    ``pause_until`` marks the earliest time a new leg may start (arrival time
    plus the pause); ``math.inf`` parks the node after this leg, for good.
    The constructor takes these five fields and works out the leg's geometry
    once, for `kinematics_at` to read; no field it works out is NaN, so legs
    with equal fields are equal.
    Make every leg with the constructor: ``_replace`` would keep the old
    geometry.  A leg pickles as its five given fields.
    """

    __slots__ = ()

    def __new__(cls, current: Kinematics, target: Kinematics, speed: float,
                pause_until: float, leg_start_time: float):
        dx = target.x - current.x
        dy = target.y - current.y
        dist = math.hypot(dx, dy)
        # Scale by 1 / dist, not divide by dist: positions, and so the trace
        # bytes, depend on this rounding.  A leg so short that 1 / dist
        # overflows does not move, as one of length zero does not.
        inv = 1.0 / dist if dist > 0.0 else math.inf
        if speed <= 0.0 or inv == math.inf:
            geometry = (0.0, 0.0, 0.0, 0.0, -math.inf, current)
        else:
            ux, uy = dx * inv, dy * inv
            # A zero component of the direction keeps a zero velocity even at
            # infinite speed, where 0 * inf would be NaN.
            geometry = (ux, uy, ux * speed if ux else ux, uy * speed if uy else uy,
                        dist / speed, target)
        return tuple.__new__(cls, (current, target, speed, pause_until, leg_start_time)
                             + geometry)

    def __getnewargs__(self):
        return self[:5]

    def __repr__(self) -> str:
        return (f"WaypointState(current={self.current!r}, target={self.target!r}, "
                f"speed={self.speed!r}, pause_until={self.pause_until!r}, "
                f"leg_start_time={self.leg_start_time!r})")


#: Builds a NamedTuple from a tuple of its fields, without the keyword
#: parsing of its constructor: kinematics_at runs for every node at every tick.
_new = tuple.__new__


def kinematics_at(state: WaypointState, t: float) -> Kinematics:
    """Position and velocity at time t >= leg_start_time.

    Position interpolates linearly along the leg and clamps at the target;
    velocity is the leg's constant vector, zero once arrived or while paused.
    """
    elapsed = t - state.leg_start_time
    if elapsed >= state.travel:
        return state.rest
    step = state.speed * elapsed
    x, y, _, _ = state.current
    return _new(Kinematics, (x + state.ux * step, y + state.uy * step, state.vx, state.vy))


def advance_waypoint(state: WaypointState, rng: Random, t: float,
                     area_x: float, area_y: float,
                     speed_min: float, speed_max: float, pause: float) -> WaypointState:
    """Start the next leg from the current resting point.

    Consumes exactly three draws, in order: target.x, target.y, speed.
    A zero speed parks the node for good (no further draws).
    """
    tx = rng.uniform(0.0, area_x)
    ty = rng.uniform(0.0, area_y)
    speed = rng.uniform(speed_min, speed_max)
    here = state.rest  # where kinematics_at leaves the node after the previous leg
    if speed <= 0.0:
        return WaypointState(here, here, 0.0, math.inf, t)
    travel = math.hypot(tx - here.x, ty - here.y) / speed
    return WaypointState(current=here, target=Kinematics(tx, ty), speed=speed,
                         pause_until=t + travel + pause, leg_start_time=t)


def link_expiration_time(sender: Kinematics, receiver: Kinematics, r: float,
                         mode: LetMode = LetMode.STRICT) -> float:
    """Predict how long sender and receiver stay within range ``r``.

    With relative velocity (a, c) and relative displacement (b, d), the link
    expires at the larger root of |(b, d) + (a, c)*t| = r:

        LET = (-(a*b + c*d) + sqrt(P)) / (a^2 + c^2),
        P   = (a^2 + c^2) * r^2 - (a*d - b*c)^2

    Zero relative velocity yields math.inf.  The discriminant P is negative
    exactly when the relative track never intersects the range disk.  PAPER
    mode substitutes Q = sqrt(|P|) in that case and returns the raw quotient,
    negative values included; a NaN quotient, from inf - inf, gives 0.0.
    STRICT mode returns 0.0 for P < 0 or NaN, clamps negative and NaN roots to
    0.0, and refines the zero-relative-velocity case: co-moving nodes already
    out of range get 0.0 rather than infinity.
    """
    if r <= 0.0:
        raise ValueError(f"range must be positive, got {r}")
    a = receiver.vx - sender.vx
    b = receiver.x - sender.x
    c = receiver.vy - sender.vy
    d = receiver.y - sender.y
    denom = a * a + c * c
    if denom == 0.0:
        if mode is LetMode.STRICT and b * b + d * d > r * r:
            return 0.0
        return math.inf
    cross = a * d - b * c  # squared as a product: a float ** overflows where * gives inf
    p = denom * r * r - cross * cross
    if mode is LetMode.PAPER:
        let = (-(a * b + c * d) + math.sqrt(abs(p))) / denom
        return 0.0 if math.isnan(let) else let
    if not p >= 0.0:  # a NaN discriminant, inf - inf, counts as negative
        return 0.0
    let = (-(a * b + c * d) + math.sqrt(p)) / denom
    return let if let >= 0.0 else 0.0
