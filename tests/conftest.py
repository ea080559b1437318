import math
import random
from pathlib import Path

import numpy as np
from hypothesis import settings

from manetsim.cli import write_trace
from manetsim.config import validate_config
from manetsim.engine import Simulation
from manetsim.medium import in_range
from manetsim.mobility import Kinematics
from manetsim.model import BROADCAST

# print_blob: a failure prints the @reproduce_failure line that replays it.
settings.register_profile("suite", deadline=None, print_blob=True)
settings.load_profile("suite")

DATA_DIR = Path(__file__).parent / "data"
CONFIG_DIR = Path(__file__).parents[1] / "configs"


def write_events(path, events):
    """Write a list of trace records through the CLI's trace sink."""
    with write_trace(str(path)) as record:
        for event in events:
            record(event)


def run_traced(cfg):
    """Run ``cfg`` to its end; returns its trace records, in order, and its RunReport."""
    records = []
    report = Simulation(cfg, records.append).run()
    return records, report


def kin(px, py, vx=0.0, vy=0.0):
    return Kinematics(px, py, vx, vy)


def scan_broadcast(sender, link_dst, node_kinematics, range_r, loss_prob, rng):
    """Reference medium: every node is range-tested, in ascending id order.

    One loss draw per in-range node other than the sender, as the medium
    draws them; a unicast frame yields only the addressee's id.
    """
    here = node_kinematics[sender]
    receivers = []
    for nid in sorted(node_kinematics):
        if nid == sender or not in_range(here, node_kinematics[nid], range_r):
            continue
        if loss_prob > 0.0 and rng.random() < loss_prob:
            continue
        if link_dst in (BROADCAST, nid):
            receivers.append(nid)
    return receivers


def stepping_let(sender, receiver, r, dt=1e-3):
    """Brute-force link lifetime oracle, independent of the closed form.

    Advances the relative motion on a dt grid and returns the first grid
    instant at which the distance exceeds r.
    """
    bx = receiver.x - sender.x
    by = receiver.y - sender.y
    ax = receiver.vx - sender.vx
    ay = receiver.vy - sender.vy
    if bx * bx + by * by > r * r:
        return 0.0
    speed = math.hypot(ax, ay)
    if speed == 0.0:
        return math.inf
    # Past this horizon the pair is guaranteed to be separated:
    # |relative position| >= speed*t - |b| > r.
    horizon = 2.0 * (r + math.hypot(bx, by)) / speed + 1.0
    t = np.arange(int(horizon / dt) + 2) * dt
    outside = (bx + ax * t) ** 2 + (by + ay * t) ** 2 > r * r
    if not outside.any():
        return math.inf
    return float(t[int(np.argmax(outside))])


def bfs_hops(points, r, src):
    """Hop distances from src on the disk graph over (x, y) points."""
    n = len(points)

    def adjacent(i, j):
        dx = points[i][0] - points[j][0]
        dy = points[i][1] - points[j][1]
        return dx * dx + dy * dy <= r * r

    hops = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in range(n):
                if v not in hops and v != u and adjacent(u, v):
                    hops[v] = hops[u] + 1
                    nxt.append(v)
        frontier = nxt
    return hops


def random_connected_topology(rng, max_nodes=10, area=60.0, r=25.0):
    """Random static node placement whose disk graph is connected."""
    while True:
        n = rng.randint(4, max_nodes)
        points = [(rng.uniform(0.0, area), rng.uniform(0.0, area)) for _ in range(n)]
        if len(bfs_hops(points, r, 0)) == n:
            return n, points


def static_topology_config(points, r, area, flow, stop=3.0, seed=1, **extra):
    """Scenario with every node parked at the given coordinates."""
    n = len(points)
    raw = {
        "nn": n, "x": area, "y": area, "stop": stop, "rp": "AODV",
        "seed": seed, "range_r": r,
        "nodes": "; ".join(f"{x},{y}" for x, y in points),
        "flows": flow,
    }
    raw.update(extra)
    return validate_config(raw)
