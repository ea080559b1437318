"""Reactive routing state machine: on-demand discovery, forwarding, maintenance.

Each node owns one `AodvNode`.  The engine hands every received header/body to
`AodvNode.receive`, which calls the handler for the packet's kind.  Handlers
return a list of actions (transmissions, drops, retry-timer requests) for the
engine to execute; they never touch the medium, energy, or random streams.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, NamedTuple, Optional, Tuple

from .config import ScenarioConfig
from .model import (BROADCAST, BUFFER_OVERFLOW, CONTROL_FID, HELLO_BYTES, NO_REVERSE_ROUTE,
                    NO_ROUTE, RERR_BYTES, RETRY_EXHAUSTED, RREP_BYTES, RREQ_BYTES,
                    CommonHeader, PacketKind, RrepBody, RreqBody)

#: Size of ``AodvNode.rreq_seen`` that triggers its first sweep of expired entries.
RREQ_SWEEP_MIN = 64
#: Most hops an RREQ travels (RFC 3561 section 10).  Duplicate suppression
#: alone does not end a flood whose cache entries expire while it spreads.
NET_DIAMETER = 35


class Tx(NamedTuple):
    """A transmission the engine should perform on behalf of a node."""

    header: CommonHeader
    link_dst: int
    body: object = None
    forward: bool = False


class Drop(NamedTuple):
    """A packet discarded at this node, to be traced as a 'd' event."""

    header: CommonHeader
    reason: str
    neighbor: int


class StartRetry(NamedTuple):
    """Ask the engine to schedule a discovery-retry timer.

    Named by the broadcast id of the flood it was armed for: every flood gets
    a fresh id, so a stale timer left over from an earlier flood toward the
    same destination cannot fire into a newer one.  ``attempt`` counts that
    flood among the discovery's floods, from 1.
    """

    dst: int
    bid: int
    attempt: int


Action = object


class RouteEntry:
    """A routing-table row: a use extends its expiry and a break invalidates it, in place."""

    __slots__ = ("dest", "next_hop", "hop_count", "dest_seq", "expiry", "valid")

    def __init__(self, dest: int, next_hop: int, hop_count: int, dest_seq: int,
                 expiry: float, valid: bool = True):
        self.dest = dest
        self.next_hop = next_hop
        self.hop_count = hop_count
        self.dest_seq = dest_seq
        self.expiry = expiry
        self.valid = valid


class AodvNode:
    """Routing table, discovery state, pending traffic, and neighbor monitor."""

    def __init__(self, nid: int, cfg: ScenarioConfig, alloc_uid: Callable[[], int]):
        self.nid = nid
        self.cfg = cfg
        self.alloc_uid = alloc_uid
        self.routes: Dict[int, RouteEntry] = {}
        self.own_seq = 0
        self.next_broadcast_id = 0
        self.pkt_seq = 0
        self.rreq_seen: Dict[Tuple[int, int], float] = {}
        self._rreq_sweep_at = RREQ_SWEEP_MIN
        self.pending: Dict[int, Deque[CommonHeader]] = {}
        #: Destination -> broadcast id of the latest flood of its discovery.
        self.discovery: Dict[int, int] = {}
        self.last_hello: Dict[int, float] = {}

    # -- helpers -----------------------------------------------------------

    def _new_header(self, kind: PacketKind, size: int, dst: int,
                    fid: int = CONTROL_FID) -> CommonHeader:
        """Header of a packet this node originates; the engine tags it on sending."""
        header = CommonHeader(uid=self.alloc_uid(), kind=kind, size=size, src=self.nid,
                              dst=dst, prev_hop=self.nid, seq=self.pkt_seq, fid=fid)
        self.pkt_seq += 1
        return header

    def _valid_route(self, dst: int, t: float) -> Optional[RouteEntry]:
        entry = self.routes.get(dst)
        if entry is not None and entry.valid and entry.expiry > t:
            return entry
        return None

    def _next_hop(self, dst: int, t: float) -> Optional[int]:
        """Next hop of a valid route to dst, whose lifetime a use extends (RFC 3561 6.2)."""
        entry = self._valid_route(dst, t)
        if entry is None:
            return None
        entry.expiry = max(entry.expiry, t + self.cfg.route_lifetime)
        return entry.next_hop

    def _update_route(self, dest: int, next_hop: int, hop_count: int,
                      dest_seq: int, t: float):
        """Install/replace on fresher sequence number or shorter same-seq path."""
        if dest == self.nid:
            return
        entry = self.routes.get(dest)
        stale = entry is None or not entry.valid or entry.expiry <= t
        if (stale or dest_seq > entry.dest_seq
                or (dest_seq == entry.dest_seq and hop_count < entry.hop_count)):
            self.routes[dest] = RouteEntry(dest=dest, next_hop=next_hop,
                                           hop_count=hop_count, dest_seq=dest_seq,
                                           expiry=t + self.cfg.route_lifetime)
        elif (dest_seq == entry.dest_seq and hop_count == entry.hop_count
                and next_hop == entry.next_hop):
            entry.expiry = max(entry.expiry, t + self.cfg.route_lifetime)

    def _rreq_duplicate(self, orig: int, bid: int, t: float) -> bool:
        seen = self.rreq_seen.get((orig, bid))
        if seen is not None and t - seen <= self.cfg.rreq_cache_ttl:
            return True
        self._remember_rreq(orig, bid, t)
        return False

    def _remember_rreq(self, orig: int, bid: int, t: float):
        """Mark a flood seen at t; sweep out expired entries when the cache doubles.

        An entry older than ``rreq_cache_ttl`` is one a lookup already treats as
        missing, and event times never decrease, so the sweep (RFC 3561 section
        6.3) changes no outcome; it keeps the cache from growing with ``stop``.
        """
        self.rreq_seen[(orig, bid)] = t
        if len(self.rreq_seen) >= self._rreq_sweep_at:
            ttl = self.cfg.rreq_cache_ttl
            self.rreq_seen = {key: seen for key, seen in self.rreq_seen.items()
                              if t - seen <= ttl}
            self._rreq_sweep_at = 2 * max(len(self.rreq_seen), RREQ_SWEEP_MIN)

    def _flood_rreq(self, dst: int, t: float) -> Tx:
        bid = self.next_broadcast_id
        self.next_broadcast_id += 1
        self._remember_rreq(self.nid, bid, t)  # suppress echoes of our own flood
        known = self.routes.get(dst)
        body = RreqBody(broadcast_id=bid, orig_seq=self.own_seq, dest=dst,
                        dest_seq_known=known.dest_seq if known else None)
        header = self._new_header(PacketKind.RREQ, RREQ_BYTES, BROADCAST)
        return Tx(header=header, link_dst=BROADCAST, body=body)

    def ensure_discovery(self, dst: int, t: float) -> List[Action]:
        """Start a route discovery toward dst unless one is already in flight."""
        if dst in self.discovery:
            return []
        self.own_seq += 1
        tx = self._flood_rreq(dst, t)
        bid = self.discovery[dst] = tx.body.broadcast_id
        return [tx, StartRetry(dst=dst, bid=bid, attempt=1)]

    # -- application traffic -----------------------------------------------

    def originate_data(self, dst: int, size: int, fid: int, t: float) -> List[Action]:
        """Send one payload toward dst, or buffer it and discover a route."""
        next_hop = self._next_hop(dst, t)
        header = self._new_header(PacketKind.DATA, size, dst, fid)
        if next_hop is not None:
            return [Tx(header=header, link_dst=next_hop)]
        actions: List[Action] = []
        queue = self.pending.setdefault(dst, deque())
        if len(queue) >= self.cfg.buffer_cap:
            oldest = queue.popleft()
            actions.append(Drop(header=oldest, reason=BUFFER_OVERFLOW,
                                neighbor=oldest.dst))
        queue.append(header)
        actions.extend(self.ensure_discovery(dst, t))
        return actions

    def send_unbuffered(self, dst: int, size: int, fid: int, t: float) -> List[Action]:
        """Send one payload toward dst over a valid route; with none, only discover one."""
        next_hop = self._next_hop(dst, t)
        if next_hop is None:
            return self.ensure_discovery(dst, t)
        return [Tx(header=self._new_header(PacketKind.DATA, size, dst, fid),
                   link_dst=next_hop)]

    def on_retry(self, dst: int, bid: int, attempt: int, t: float) -> List[Action]:
        """Retry timer of flood ``attempt``: re-flood, or give up and drop buffered data."""
        if self.discovery.get(dst) != bid:
            return []
        if self._valid_route(dst, t) is not None:
            del self.discovery[dst]
            return []
        if attempt <= self.cfg.retry_limit:
            tx = self._flood_rreq(dst, t)
            bid = self.discovery[dst] = tx.body.broadcast_id
            return [tx, StartRetry(dst=dst, bid=bid, attempt=attempt + 1)]
        del self.discovery[dst]
        drops: List[Action] = []
        for header in self.pending.pop(dst, deque()):
            drops.append(Drop(header=header, reason=RETRY_EXHAUSTED, neighbor=dst))
        return drops

    # -- packet handlers -----------------------------------------------------

    def receive(self, header: CommonHeader, body: object, t: float) -> List[Action]:
        """Hand a packet this node has accepted to the handler for its kind."""
        kind = header.kind
        if kind is PacketKind.DATA:
            return self.handle_data(header, t)
        if kind is PacketKind.HELLO:
            return self.handle_hello(header, t)
        if kind is PacketKind.RREQ:
            return self.handle_rreq(header, body, t)
        if kind is PacketKind.RREP:
            return self.handle_rrep(header, body, t)
        return self.handle_rerr(header, body, t)

    def handle_rreq(self, header: CommonHeader, body: RreqBody, t: float) -> List[Action]:
        if self._rreq_duplicate(header.src, body.broadcast_id, t):
            return []
        if header.src == self.nid:
            return []
        self._update_route(dest=header.src, next_hop=header.prev_hop,
                           hop_count=header.hop_count + 1, dest_seq=body.orig_seq, t=t)
        if body.dest == self.nid:
            self.own_seq = max(self.own_seq, body.dest_seq_known or 0)
            return self._reply(orig=header.src, dest=self.nid,
                               dest_seq=self.own_seq, hop_count=0, t=t)
        if self.cfg.intermediate_rrep:
            cached = self._valid_route(body.dest, t)
            wanted = body.dest_seq_known or 0
            if cached is not None and cached.dest_seq >= wanted:
                return self._reply(orig=header.src, dest=body.dest,
                                   dest_seq=cached.dest_seq,
                                   hop_count=cached.hop_count, t=t)
        if header.hop_count + 1 >= NET_DIAMETER:
            return []  # the flood ends here, as silently as a duplicate
        return [Tx(header=header, link_dst=BROADCAST, body=body, forward=True)]

    def _reply(self, orig: int, dest: int, dest_seq: int, hop_count: int,
               t: float) -> List[Action]:
        reverse = self._valid_route(orig, t)
        if reverse is None:
            return []
        body = RrepBody(dest=dest, dest_seq=dest_seq, hop_count=hop_count, orig=orig)
        header = self._new_header(PacketKind.RREP, RREP_BYTES, orig)
        return [Tx(header=header, link_dst=reverse.next_hop, body=body)]

    def handle_rrep(self, header: CommonHeader, body: RrepBody, t: float) -> List[Action]:
        self._update_route(dest=body.dest, next_hop=header.prev_hop,
                           hop_count=body.hop_count + 1, dest_seq=body.dest_seq, t=t)
        if body.orig == self.nid:
            return self._flush_pending(body.dest, t)
        reverse = self._valid_route(body.orig, t)
        if reverse is None:
            return [Drop(header=header, reason=NO_REVERSE_ROUTE, neighbor=header.prev_hop)]
        forwarded = body._replace(hop_count=body.hop_count + 1)
        return [Tx(header=header, link_dst=reverse.next_hop, body=forwarded, forward=True)]

    def _flush_pending(self, dst: int, t: float) -> List[Action]:
        self.discovery.pop(dst, None)
        actions: List[Action] = []
        queue = self.pending.pop(dst, None)
        if not queue:
            return actions
        for header in queue:  # FIFO release order
            next_hop = self._next_hop(dst, t)
            if next_hop is None:
                actions.append(Drop(header=header, reason=NO_ROUTE, neighbor=dst))
            else:
                actions.append(Tx(header=header, link_dst=next_hop))
        return actions

    def handle_data(self, header: CommonHeader, t: float) -> List[Action]:
        if header.dst == self.nid:
            return []  # delivered; the engine records the reception
        next_hop = self._next_hop(header.dst, t)
        if next_hop is not None:
            return [Tx(header=header, link_dst=next_hop, forward=True)]
        known = self.routes.get(header.dst)
        bumped = (known.dest_seq + 1) if known else 0
        rerr = self._new_header(PacketKind.RERR, RERR_BYTES, header.prev_hop)
        return [Drop(header=header, reason=NO_ROUTE, neighbor=header.prev_hop),
                Tx(header=rerr, link_dst=header.prev_hop, body=((header.dst, bumped),))]

    def handle_rerr(self, header: CommonHeader, unreachable: Tuple[Tuple[int, int], ...],
                    t: float) -> List[Action]:
        for dest, seq in unreachable:  # the RERR's body: each with its bumped seq
            entry = self.routes.get(dest)
            if entry is not None and entry.valid and entry.next_hop == header.prev_hop:
                entry.valid = False
                entry.dest_seq = max(entry.dest_seq, seq)
        return []

    def handle_hello(self, header: CommonHeader, t: float) -> List[Action]:
        self.last_hello[header.src] = t
        return []

    # -- periodic maintenance ------------------------------------------------

    def detect_breaks(self, t: float) -> List[Action]:
        """Invalidate routes through silent neighbors; announce them once."""
        limit = self.cfg.hello_loss_limit * self.cfg.hello_interval
        lost = {n for n, last in self.last_hello.items() if t - last > limit}
        if not lost:
            return []
        for n in lost:
            del self.last_hello[n]
        invalidated: List[Tuple[int, int]] = []
        for dest in sorted(self.routes):
            entry = self.routes[dest]
            if entry.valid and entry.next_hop in lost:
                entry.valid = False
                entry.dest_seq += 1
                invalidated.append((dest, entry.dest_seq))
        if not invalidated:
            return []
        header = self._new_header(PacketKind.RERR, RERR_BYTES, BROADCAST)
        return [Tx(header=header, link_dst=BROADCAST, body=tuple(invalidated))]

    def on_hello_tick(self, t: float) -> List[Action]:
        actions = self.detect_breaks(t)
        hello = self._new_header(PacketKind.HELLO, HELLO_BYTES, BROADCAST)
        actions.append(Tx(header=hello, link_dst=BROADCAST))
        return actions
