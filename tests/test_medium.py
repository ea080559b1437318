import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from manetsim.medium import CellGrid, broadcast, in_range, tx_delay
from manetsim.mobility import Kinematics
from manetsim.model import BROADCAST

from .conftest import kin, scan_broadcast

coords = st.floats(min_value=-1000.0, max_value=1000.0, allow_nan=False)


def test_in_range_zero_distance():
    assert in_range(Kinematics(3.0, 4.0), Kinematics(3.0, 4.0), 1.0)


def test_in_range_boundary_inclusive():
    assert in_range(Kinematics(0.0, 0.0), Kinematics(5.0, 0.0), 5.0)


def test_in_range_twice_the_range_is_out():
    assert not in_range(Kinematics(0.0, 0.0), Kinematics(10.0, 0.0), 5.0)


@given(ax=coords, ay=coords, bx=coords, by=coords,
       r=st.floats(min_value=0.1, max_value=500.0, allow_nan=False))
def test_in_range_is_symmetric(ax, ay, bx, by, r):
    a, b = Kinematics(ax, ay), Kinematics(bx, by)
    assert in_range(a, b, r) == in_range(b, a, r)


def test_tx_delay_zero_bytes():
    assert tx_delay(0, 250000.0) == 0.0


def test_tx_delay_config_values():
    assert tx_delay(100, 250000.0) == pytest.approx(0.0032)


def test_tx_delay_is_linear_in_size():
    assert tx_delay(200, 250000.0) == pytest.approx(2 * tx_delay(100, 250000.0))


def test_tx_delay_rejects_bad_args():
    with pytest.raises(ValueError):
        tx_delay(-1, 250000.0)
    with pytest.raises(ValueError):
        tx_delay(10, 0.0)


def _grid(kins, r=15.0):
    grid = CellGrid(r)
    for nid, k in kins.items():
        grid.place(nid, k)
    return grid


def test_broadcast_with_no_neighbors_is_empty():
    kins = {0: kin(0, 0), 1: kin(100, 100)}
    assert broadcast(0, BROADCAST, _grid(kins), 0.0, random.Random(1)) == []


def test_broadcast_clique_delivers_to_all():
    kins = {0: kin(0, 0), 1: kin(5, 0), 2: kin(0, 5)}
    receivers = broadcast(0, BROADCAST, _grid(kins), 0.0, random.Random(1))
    assert receivers == [1, 2]


def test_broadcast_chain_connectivity():
    # Nodes at (0,0), (r,0), (2r,0): ends are mutually out of range.
    r = 15.0
    kins = {0: kin(0, 0), 1: kin(r, 0), 2: kin(2 * r, 0)}
    assert not in_range(kins[0], kins[2], r)
    from_middle = broadcast(1, BROADCAST, _grid(kins), 0.0, random.Random(1))
    assert from_middle == [0, 2]
    from_end = broadcast(0, BROADCAST, _grid(kins), 0.0, random.Random(1))
    assert from_end == [1]


def test_lossless_broadcast_equals_neighbor_set_and_repeats():
    rng_a, rng_b = random.Random(3), random.Random(3)
    kins = {i: kin(i * 5.0, 0.0) for i in range(6)}
    a = broadcast(2, BROADCAST, _grid(kins), 0.0, rng_a)
    b = broadcast(2, BROADCAST, _grid(kins), 0.0, rng_b)
    assert a == b
    expected = [i for i in range(6) if i != 2 and abs(i - 2) * 5.0 <= 15.0]
    assert a == expected


def test_lossy_broadcast_is_seed_deterministic():
    grid = _grid({i: kin(float(i), 0.0) for i in range(10)})
    a = broadcast(0, BROADCAST, grid, 0.5, random.Random(11))
    b = broadcast(0, BROADCAST, grid, 0.5, random.Random(11))
    c = broadcast(0, BROADCAST, grid, 0.5, random.Random(12))
    assert a == b
    assert len(a) < 9  # some losses at p=0.5 with 9 in-range receivers
    assert a != c


def test_unicast_draws_like_a_broadcast_but_delivers_to_the_addressee_only():
    kins = {i: kin(float(i), 0.0) for i in range(10)}
    rng_b, rng_u = random.Random(11), random.Random(11)
    heard = broadcast(0, BROADCAST, _grid(kins), 0.5, rng_b)
    assert len(heard) > 1
    for nid in heard:
        rng_u.setstate(random.Random(11).getstate())
        assert broadcast(0, nid, _grid(kins), 0.5, rng_u) == [nid]
        assert rng_u.getstate() == rng_b.getstate()
    lost = next(i for i in range(1, 10) if i not in heard)
    rng_u.setstate(random.Random(11).getstate())
    assert broadcast(0, lost, _grid(kins), 0.5, rng_u) == []
    assert rng_u.getstate() == rng_b.getstate()


R = 10.0
# Lattice points a tenth of the range apart put many pairs at exactly range_r
# (and on the 3-4-5 diagonal); the other ordinates leave any area.
ordinate = st.one_of(st.integers(-30, 30).map(lambda i: i * R / 10),
                     st.floats(-60.0, 60.0, allow_nan=False),
                     st.floats(-1e6, 1e6, allow_nan=False))
point = st.tuples(ordinate, ordinate)


@given(points=st.lists(point, min_size=1, max_size=16),
       moves=st.lists(st.tuples(st.integers(0, 15), point), max_size=6),
       loss=st.sampled_from([0.0, 0.3]), seed=st.integers(0, 2**32 - 1))
def test_grid_search_matches_a_full_scan(points, moves, loss, seed):
    grid, kins = CellGrid(R), {}
    rng, twin = random.Random(seed), random.Random(seed)
    for step, (nid, xy) in enumerate([*enumerate(points), *moves]):
        nid %= len(points)
        kins[nid] = kin(*xy)
        grid.place(nid, kins[nid])
        if step < len(points) - 1:
            continue  # search once every node is placed, then after each move
        for sender in kins:
            for dst in (BROADCAST, (sender + 1) % len(points), len(points)):
                got = broadcast(sender, dst, grid, loss, rng)
                assert got == scan_broadcast(sender, dst, kins, R, loss, twin)
                assert rng.getstate() == twin.getstate()


def test_grid_finds_a_pair_that_rounding_puts_in_range():
    # 1e-17 is lost when 10 - (-1e-17) is rounded, so the pair is in range,
    # yet an unpadded cell side of 10 would put the two cells apart.
    kins = {0: kin(-1e-17, 0.0), 1: kin(R, 0.0)}
    assert in_range(kins[0], kins[1], R)
    heard = broadcast(0, BROADCAST, _grid(kins, r=R), 0.0, random.Random(1))
    assert heard == [1]
