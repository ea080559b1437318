
from hypothesis import given
from hypothesis import strategies as st

from manetsim.mlet import admit_link, annotate
from manetsim.mobility import LetMode
from manetsim.model import CommonHeader, PacketKind

from .conftest import kin

coords = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
vels = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def _header(size=24, sender_kin=None):
    return CommonHeader(uid=1, kind=PacketKind.RREQ, size=size, src=0,
                        dst=2, prev_hop=0, seq=0, fid=0, sender_kin=sender_kin)


def test_annotate_round_trips_kinematics():
    k = kin(1.0, 2.0, 3.0, 4.0)
    assert annotate(_header(), k, annex_bytes=24).sender_kin == k


def test_annotate_grows_size_by_annex_once():
    header = _header(size=24)
    tagged = annotate(header, kin(0, 0), annex_bytes=24)
    assert tagged.size == 48
    # Re-annotation at a forwarding hop replaces the kinematics, not the size.
    retagged = annotate(tagged, kin(5, 5), annex_bytes=24)
    assert retagged.size == 48
    assert retagged.sender_kin == kin(5, 5)


def test_annotate_with_zero_annex_keeps_size():
    assert annotate(_header(size=24), kin(0, 0), annex_bytes=0).size == 24


def test_stationary_pair_admitted_at_any_threshold():
    threshold = 1e6
    assert admit_link(kin(0, 0), kin(5, 5), 15.0, threshold, LetMode.STRICT)


def test_fleeing_receiver_rejected_above_lifetime():
    # Co-located, receiver fleeing at 10 m/s with r=250: lifetime is 25 s.
    sender, receiver = kin(0, 0), kin(0, 0, 10.0, 0.0)
    assert not admit_link(sender, receiver, 250.0, 30.0)
    assert admit_link(sender, receiver, 250.0, 20.0)


@given(sx=coords, sy=coords, rx=coords, ry=coords,
       svx=vels, svy=vels, rvx=vels, rvy=vels)
def test_threshold_zero_admits_everything_in_strict_mode(sx, sy, rx, ry,
                                                         svx, svy, rvx, rvy):
    threshold = 0.0
    assert admit_link(kin(sx, sy, svx, svy), kin(rx, ry, rvx, rvy), 15.0, threshold,
                      LetMode.STRICT)


@given(sx=coords, sy=coords, rx=coords, ry=coords,
       svx=vels, svy=vels, rvx=vels, rvy=vels,
       low=st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
       high=st.floats(min_value=0.0, max_value=30.0, allow_nan=False))
def test_admission_is_monotone_in_threshold(sx, sy, rx, ry, svx, svy, rvx, rvy,
                                            low, high):
    if low > high:
        low, high = high, low
    sender, receiver = kin(sx, sy, svx, svy), kin(rx, ry, rvx, rvy)
    if admit_link(sender, receiver, 15.0, high):
        assert admit_link(sender, receiver, 15.0, low)


def test_infinite_lifetime_beats_every_threshold():
    assert admit_link(kin(0, 0), kin(1, 1), 15.0, 1e9)
