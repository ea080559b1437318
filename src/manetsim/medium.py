"""Idealized shared radio medium: disk connectivity and per-packet delays."""

from __future__ import annotations

from random import Random
from typing import Dict, List, Tuple

from .mobility import Kinematics
from .model import BROADCAST


Cell = Tuple[int, int]


class CellGrid:
    """Node kinematics, indexed by a uniform grid of cells as wide as the range.

    These are the cell lists of Allen & Tildesley (*Computer Simulation of
    Liquids*, 1987): a node within ``range_r`` of another lies in the same cell
    or in one of the eight around it, so a neighbour search reads 3x3 cells and
    not every node.  The side is padded so that no pair passing the float range
    test sits two cells apart; ``//`` floors the exact quotient.  Cells are
    keyed by integer coordinates, so positions outside the area need no clamp.
    """

    def __init__(self, range_r: float):
        self.range_r = range_r
        self.side = range_r * (1.0 + 1e-9)
        self.kin: Dict[int, Kinematics] = {}
        self._cell: Dict[int, Cell] = {}
        self._members: Dict[Cell, List[int]] = {}

    def place(self, nid: int, kin: Kinematics):
        """Record a node's kinematics; move it to another cell if it left its own."""
        self.kin[nid] = kin
        cell = (int(kin.x // self.side), int(kin.y // self.side))
        old = self._cell.get(nid)
        if cell == old:
            return
        self._cell[nid] = cell
        if old is not None:
            members = self._members[old]
            members.remove(nid)
            if not members:
                del self._members[old]
        self._members.setdefault(cell, []).append(nid)

    def near(self, nid: int) -> List[int]:
        """Ids in the 3x3 cells around ``nid``'s cell, ``nid`` included, in no set order."""
        cx, cy = self._cell[nid]
        members = self._members
        return [m for x in (cx - 1, cx, cx + 1) for y in (cy - 1, cy, cy + 1)
                for m in members.get((x, y), ())]


def in_range(a, b, r: float) -> bool:
    """Euclidean distance at most r, boundary inclusive, between two points with ``.x, .y``."""
    dx = a.x - b.x
    dy = a.y - b.y
    return dx * dx + dy * dy <= r * r


def tx_delay(size: int, bitrate: float) -> float:
    """Serialization time of ``size`` bytes at ``bitrate`` bits per second."""
    if size < 0 or bitrate <= 0.0:
        raise ValueError("size must be >= 0 and bitrate > 0")
    return size * 8.0 / bitrate


def broadcast(sender: int, link_dst: int, grid: CellGrid, loss_prob: float,
              rng: Random) -> List[int]:
    """Ids of the nodes that receive one transmission, ascending.

    Every node other than the sender that is within range at send time hears
    the frame, independently lost with ``loss_prob``: one draw per such node,
    in ascending node id order, whoever the frame is addressed to.  Only the
    nodes that process the frame are returned: every hearer of a ``BROADCAST``
    frame, and otherwise the addressed receiver alone.  All of them hear it
    after the same tx_delay + prop_delay, which the caller adds.  The medium
    knows no channels: the caller decides whether a frame is on the air at
    all.  The range is the one ``grid`` was built with.
    """
    kin = grid.kin
    here = kin[sender]
    range_r = grid.range_r
    if link_dst != BROADCAST and loss_prob <= 0.0:
        # No loss draws to keep in step: only the addressee can hear it.
        if (link_dst != sender and link_dst in kin
                and in_range(here, kin[link_dst], range_r)):
            return [link_dst]
        return []
    # Range first, so that only the hearers are sorted for the draws.
    hearers = [nid for nid in grid.near(sender)
               if nid != sender and in_range(here, kin[nid], range_r)]
    hearers.sort()
    if loss_prob > 0.0:
        hearers = [nid for nid in hearers if rng.random() >= loss_prob]
    if link_dst == BROADCAST:
        return hearers
    return [link_dst] if link_dst in hearers else []
