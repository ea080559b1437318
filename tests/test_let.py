import math
import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from manetsim.mobility import LetMode, link_expiration_time

from .conftest import kin, stepping_let

coords = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
vels = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
ranges = st.floats(min_value=1.0, max_value=300.0, allow_nan=False)
modes = st.sampled_from([LetMode.PAPER, LetMode.STRICT])


def _close(a, b):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return a == pytest.approx(b, rel=1e-6, abs=1e-6)


def _components(s, r):
    a = r.vx - s.vx
    b = r.x - s.x
    c = r.vy - s.vy
    d = r.y - s.y
    denom = a * a + c * c
    return a, b, c, d, denom


def _away_from_boundaries(s, rec, r):
    """Keep generated cases off the discontinuities (tangency, zero rel. speed)."""
    a, b, c, d, denom = _components(s, rec)
    if denom == 0.0:
        return abs(math.hypot(b, d) - r) > 1e-3
    p = denom * r * r - (a * d - b * c) ** 2
    return denom > 1e-6 and abs(p) > 1e-3 * max(1.0, denom * r * r)


def test_both_velocities_zero_is_infinite():
    s = kin(0.0, 0.0)
    rec = kin(1.0, 1.0)
    assert math.isinf(link_expiration_time(s, rec, 250.0, LetMode.PAPER))
    assert math.isinf(link_expiration_time(s, rec, 250.0, LetMode.STRICT))


def test_co_moving_nodes_are_infinite():
    s = kin(0.0, 0.0, 3.0, -1.0)
    rec = kin(5.0, 5.0, 3.0, -1.0)
    assert math.isinf(link_expiration_time(s, rec, 15.0, LetMode.STRICT))


def test_strict_refines_co_moving_out_of_range_to_zero():
    s = kin(0.0, 0.0, 2.0, 0.0)
    rec = kin(100.0, 0.0, 2.0, 0.0)
    assert link_expiration_time(s, rec, 15.0, LetMode.STRICT) == 0.0
    assert math.isinf(link_expiration_time(s, rec, 15.0, LetMode.PAPER))


def test_radial_flight_closed_form():
    # Co-located, receiver fleeing at 10 m/s: link lives exactly r/v seconds.
    s = kin(0.0, 0.0)
    rec = kin(0.0, 0.0, 10.0, 0.0)
    for mode in (LetMode.PAPER, LetMode.STRICT):
        assert link_expiration_time(s, rec, 250.0, mode) == pytest.approx(25.0, abs=1e-6)


def test_negative_discriminant_modes_differ():
    # Parallel tracks offset 2r: the relative track never meets the range disk.
    s = kin(0.0, 0.0)
    rec = kin(0.0, 30.0, 1.0, 0.0)
    # a=1, b=0, c=0, d=30, r=15: P = 1*225 - 30^2 = -675 < 0.
    assert (1.0 * 15.0 ** 2 - 30.0 ** 2) < 0.0
    paper = link_expiration_time(s, rec, 15.0, LetMode.PAPER)
    assert paper == pytest.approx(math.sqrt(675.0), abs=1e-9)
    assert link_expiration_time(s, rec, 15.0, LetMode.STRICT) == 0.0


def test_separating_out_of_range_pair():
    # Already 20 m apart and receding with r=15: both crossings in the past.
    s = kin(0.0, 0.0)
    rec = kin(20.0, 0.0, 1.0, 0.0)
    assert link_expiration_time(s, rec, 15.0, LetMode.PAPER) == pytest.approx(-5.0)
    assert link_expiration_time(s, rec, 15.0, LetMode.STRICT) == 0.0


def test_non_positive_range_rejected():
    with pytest.raises(ValueError):
        link_expiration_time(kin(0, 0), kin(1, 1), 0.0)


def test_matches_stepping_oracle_on_random_cases():
    rng = random.Random(20240811)
    r = 15.0
    checked = 0
    while checked < 200:
        sx, sy = rng.uniform(0, 50), rng.uniform(0, 50)
        angle = rng.uniform(0, 2 * math.pi)
        dist = rng.uniform(0, r)
        rx, ry = sx + dist * math.cos(angle), sy + dist * math.sin(angle)
        s = kin(sx, sy, rng.uniform(-5, 5), rng.uniform(-5, 5))
        rec = kin(rx, ry, rng.uniform(-5, 5), rng.uniform(-5, 5))
        a, b, c, d, denom = _components(s, rec)
        if denom < 1.0:  # keep the oracle horizon short
            continue
        if denom * r * r - (a * d - b * c) ** 2 < 0.0:
            continue
        analytic = link_expiration_time(s, rec, r, LetMode.STRICT)
        oracle = stepping_let(s, rec, r)
        assert abs(analytic - oracle) <= 0.01, (s, rec, analytic, oracle)
        checked += 1


@given(sx=coords, sy=coords, rx=coords, ry=coords, svx=vels, svy=vels,
       rvx=vels, rvy=vels, r=ranges, ox=coords, oy=coords, mode=modes)
def test_translation_invariance(sx, sy, rx, ry, svx, svy, rvx, rvy, r, ox, oy, mode):
    s, rec = kin(sx, sy, svx, svy), kin(rx, ry, rvx, rvy)
    assume(_away_from_boundaries(s, rec, r))
    base = link_expiration_time(s, rec, r, mode)
    shifted = link_expiration_time(kin(sx + ox, sy + oy, svx, svy),
                                   kin(rx + ox, ry + oy, rvx, rvy), r, mode)
    assert _close(base, shifted)


@given(sx=coords, sy=coords, rx=coords, ry=coords, svx=vels, svy=vels,
       rvx=vels, rvy=vels, r=ranges, wx=vels, wy=vels, mode=modes)
def test_galilean_invariance(sx, sy, rx, ry, svx, svy, rvx, rvy, r, wx, wy, mode):
    s, rec = kin(sx, sy, svx, svy), kin(rx, ry, rvx, rvy)
    assume(_away_from_boundaries(s, rec, r))
    base = link_expiration_time(s, rec, r, mode)
    boosted = link_expiration_time(kin(sx, sy, svx + wx, svy + wy),
                                   kin(rx, ry, rvx + wx, rvy + wy), r, mode)
    assert _close(base, boosted)


@given(sx=coords, sy=coords, rx=coords, ry=coords, svx=vels, svy=vels,
       rvx=vels, rvy=vels, r=ranges,
       scale=st.floats(min_value=0.1, max_value=10.0), mode=modes)
def test_uniform_scaling_invariance(sx, sy, rx, ry, svx, svy, rvx, rvy, r, scale, mode):
    s, rec = kin(sx, sy, svx, svy), kin(rx, ry, rvx, rvy)
    assume(_away_from_boundaries(s, rec, r))
    base = link_expiration_time(s, rec, r, mode)
    scaled = link_expiration_time(
        kin(sx * scale, sy * scale, svx * scale, svy * scale),
        kin(rx * scale, ry * scale, rvx * scale, rvy * scale), r * scale, mode)
    assert _close(base, scaled)


@given(sx=coords, sy=coords, rx=coords, ry=coords, svx=vels, svy=vels,
       rvx=vels, rvy=vels, r=ranges,
       scale=st.floats(min_value=0.5, max_value=4.0), mode=modes)
def test_velocity_scaling_divides_finite_let(sx, sy, rx, ry, svx, svy, rvx, rvy,
                                             r, scale, mode):
    s, rec = kin(sx, sy, svx, svy), kin(rx, ry, rvx, rvy)
    assume(_away_from_boundaries(s, rec, r))
    base = link_expiration_time(s, rec, r, mode)
    assume(math.isfinite(base))
    faster = link_expiration_time(kin(sx, sy, svx * scale, svy * scale),
                                  kin(rx, ry, rvx * scale, rvy * scale), r, mode)
    if mode is LetMode.STRICT and base == 0.0:
        assert faster == 0.0
    else:
        assert _close(base / scale, faster)


@given(sx=coords, sy=coords, rx=coords, ry=coords, svx=vels, svy=vels,
       rvx=vels, rvy=vels, r=ranges, mode=modes)
def test_sender_receiver_symmetry(sx, sy, rx, ry, svx, svy, rvx, rvy, r, mode):
    s, rec = kin(sx, sy, svx, svy), kin(rx, ry, rvx, rvy)
    assume(_away_from_boundaries(s, rec, r))
    assert _close(link_expiration_time(s, rec, r, mode),
                  link_expiration_time(rec, s, r, mode))


@given(sx=coords, sy=coords, rx=coords, ry=coords, svx=vels, svy=vels,
       rvx=vels, rvy=vels, r=ranges)
def test_strict_mode_is_never_negative(sx, sy, rx, ry, svx, svy, rvx, rvy, r):
    value = link_expiration_time(kin(sx, sy, svx, svy), kin(rx, ry, rvx, rvy),
                                 r, LetMode.STRICT)
    assert value >= 0.0


def test_overflowing_terms_give_a_lifetime_not_an_error():
    # (a*d - b*c) ** 2 raised OverflowError here; the product is inf.
    s, rec = kin(0.0, 0.0, 1.0, 0.0), kin(1e200, 1e200)
    assert link_expiration_time(s, rec, 1.0, LetMode.PAPER) == math.inf
    assert link_expiration_time(s, rec, 1.0, LetMode.STRICT) == 0.0
    # inf - inf: STRICT mode reads a NaN discriminant as a negative one, and
    # PAPER mode turns the NaN quotient it makes into 0.0.
    s, rec = kin(0.0, 0.0), kin(0.0, 1e200, 1e200, 0.0)
    assert link_expiration_time(s, rec, 1.0, LetMode.STRICT) == 0.0
    assert link_expiration_time(s, rec, 1.0, LetMode.PAPER) == 0.0
