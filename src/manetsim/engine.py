"""Deterministic discrete-event core: queue, nodes, energy, attacker, traces.

Events are processed in (time, insertion sequence) order by a single thread;
all randomness flows through named `random.Random` streams derived from the
scenario seed, so a (config, seed) pair always reproduces the same trace bytes.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from random import Random
from typing import Callable, Dict, List, Optional, Tuple

from .aodv import AodvNode, Drop, Tx
from .config import ScenarioConfig, Sophistication, check_config
from .medium import CellGrid, broadcast, tx_delay
from .mlet import admit_link, annotate
from .mobility import MOBILITY_STEP, Kinematics, WaypointState, advance_waypoint, kinematics_at
from .model import (ATTACK_FID, BROADCAST, DEAD_SENDER, HEADER_RX_BYTES, LET_REJECT, CommonHeader,
                    PacketKind, TraceEvent)
from .saodv import VerifyOutcome, draw_random_values, select_channel, verify

# Event kinds; the main loop looks each up in its handler table.
DELIVER = "DELIVER"
HELLO_TIMER = "HELLO_TIMER"
MOBILITY_UPDATE = "MOBILITY_UPDATE"
APP_SEND = "APP_SEND"
ATTACK_STEP = "ATTACK_STEP"
RETRY_TIMER = "RETRY_TIMER"
METRIC_SAMPLE = "METRIC_SAMPLE"
STOP = "STOP"

_CONTROL_KINDS = (PacketKind.RREQ, PacketKind.RREP, PacketKind.RERR)


def debit(remaining: float, cost: float) -> float:
    """Energy left after spending ``cost`` joules; crossing zero clamps to 0.0.

    A node is alive while its energy is above 0.0, so a dead node stays dead;
    so does a battery that ``inf - inf`` would turn into NaN.
    """
    remaining -= cost
    return remaining if remaining > 0.0 else 0.0


METRICS_HEADER = "t,malicious_drops,malicious_accepts,victim_energy,cum_loss,ctrl_overhead,delivered"


class RunReport:
    """The counts and samples of one run; two reports are equal when every field is."""

    def __init__(self, protocol: str, seed: int, victim: int):
        self.protocol = protocol
        self.seed = seed
        self.victim = victim
        self.events_processed = 0
        self.honest_data_originated = 0
        self.honest_data_sent = 0
        self.honest_data_delivered = 0
        self.honest_data_lost = 0
        self.attacker_data_sent = 0
        self.victim_malicious_accepts = 0
        self.victim_malicious_drops = 0
        self.victim_final_energy = 0.0
        self.control_tx: Counter = Counter()
        self.drops_by_reason: Counter = Counter()
        self.depletion_times: Dict[int, float] = {}
        #: One ``metrics.csv`` row per ``metrics_interval``, in METRICS_HEADER's order.
        self.samples: List[Tuple[float, int, int, float, int, int, int]] = []

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def metrics_csv(self) -> str:
        lines = [METRICS_HEADER]
        for t, drops, accepts, energy, loss, ctrl, delivered in self.samples:
            lines.append(f"{t:.6f},{drops},{accepts},{energy:.9f},{loss},{ctrl},{delivered}")
        return "\n".join(lines) + "\n"

    def summary_lines(self) -> List[str]:
        lines = [
            f"protocol={self.protocol} seed={self.seed} events={self.events_processed}",
            (f"honest data: originated={self.honest_data_originated} "
             f"sent={self.honest_data_sent} "
             f"delivered={self.honest_data_delivered} lost={self.honest_data_lost}"),
            ("control tx: " + " ".join(f"{k.value}={self.control_tx.get(k, 0)}"
                                       for k in _CONTROL_KINDS)),
            (f"victim node {self.victim}: final_energy={self.victim_final_energy:.6f} J "
             f"malicious_accepts={self.victim_malicious_accepts} "
             f"malicious_drops={self.victim_malicious_drops}"),
            f"attacker data sent: {self.attacker_data_sent}",
        ]
        if self.drops_by_reason:
            parts = " ".join(f"{reason}={count}" for reason, count
                             in sorted(self.drops_by_reason.items()))
            lines.append(f"drops by reason: {parts}")
        if self.depletion_times:
            parts = " ".join(f"node{nid}@{t:.3f}" for nid, t
                             in sorted(self.depletion_times.items()))
            lines.append(f"depleted: {parts}")
        return lines


def _keep_nothing(event: TraceEvent) -> None:
    """The default trace sink: it drops every record."""


class _Node:
    __slots__ = ("nid", "aodv", "waypoint", "energy", "last_sync", "mob_rng", "tag_rng")

    def __init__(self, nid, aodv, waypoint, energy, mob_rng, tag_rng):
        self.nid = nid
        self.aodv = aodv
        self.waypoint = waypoint
        self.energy = energy
        self.last_sync = 0.0
        self.mob_rng = mob_rng
        self.tag_rng = tag_rng


class Simulation:
    """One scenario run; build it from a validated config, and run() returns its RunReport.

    Each trace record goes to ``record`` as it is made; the run holds none.
    """

    def __init__(self, cfg: ScenarioConfig,
                 record: Callable[[TraceEvent], object] = _keep_nothing):
        self.cfg = cfg = check_config(cfg)
        # Read once: each is an Enum property that tests tuple membership.
        self.verifies = cfg.protocol.verifies
        self.uses_let = cfg.protocol.uses_let
        self.attacker_id: Optional[int] = cfg.nn if cfg.attacker_enabled else None
        self.victim = cfg.attacker_target
        self.loss_rng = Random(f"{cfg.rng_seed}/loss")
        self.attacker_rng = Random(f"{cfg.rng_seed}/attacker")
        self._alloc_uid = itertools.count().__next__
        self.heap: List[Tuple[float, int, str, tuple]] = []
        self.event_seq = 0
        self.record = record
        self.report = RunReport(protocol=cfg.protocol.value, seed=cfg.rng_seed,
                                victim=self.victim)
        #: The victim's malicious drops and accepts at the last sample.
        self.sampled_drops = self.sampled_accepts = 0
        self.nodes: Dict[int, _Node] = {}
        total = cfg.nn + (1 if cfg.attacker_enabled else 0)
        for nid in range(total):
            mob_rng = Random(f"{cfg.rng_seed}/mobility/{nid}")
            tag_rng = Random(f"{cfg.rng_seed}/tags/{nid}")
            waypoint = self._first_leg(nid, mob_rng)
            energy = cfg.attacker_energy if nid == self.attacker_id else cfg.energy_initial
            self.nodes[nid] = _Node(nid=nid, aodv=AodvNode(nid, cfg, self._alloc_uid),
                                    waypoint=waypoint, energy=energy,
                                    mob_rng=mob_rng, tag_rng=tag_rng)
        self.grid = CellGrid(cfg.range_r)
        for nid, node in self.nodes.items():
            self.grid.place(nid, kinematics_at(node.waypoint, 0.0))
        self._schedule_initial()

    # -- setup ---------------------------------------------------------------

    def _first_leg(self, nid: int, mob_rng: Random) -> WaypointState:
        cfg = self.cfg
        if nid == self.attacker_id:
            if cfg.attacker_pos is not None:
                return WaypointState(cfg.attacker_pos, cfg.attacker_pos, 0.0, math.inf, 0.0)
        elif cfg.node_scripts is not None:
            return cfg.node_scripts[nid]
        start = Kinematics(mob_rng.uniform(0.0, cfg.area_x), mob_rng.uniform(0.0, cfg.area_y))
        return WaypointState(start, start, 0.0, cfg.pause, 0.0)  # first leg after the pause

    def _schedule_initial(self):
        cfg = self.cfg
        self._schedule(MOBILITY_STEP, MOBILITY_UPDATE, ())
        for nid in self.nodes:
            self._schedule(cfg.hello_interval, HELLO_TIMER, (nid,))
        for i, flow in enumerate(cfg.flows):
            self._schedule(flow.start, APP_SEND, (i,))
        if cfg.attacker_enabled:
            self._schedule(cfg.attacker_start, ATTACK_STEP, ())
        # Sample j+1 is pushed when sample j runs, under the one sequence number
        # reserved here: it sorts after set-up and before run-time events alike.
        self.sample_seq = self.event_seq
        self.event_seq += 1
        self._push_sample(1)
        # STOP alone ends the run: it sorts before every event pushed later for
        # its instant, and anything due after it stays queued, never processed.
        self._schedule(cfg.stop, STOP, ())

    def _push_sample(self, j: int):
        heapq.heappush(self.heap, (j * self.cfg.metrics_interval, self.sample_seq,
                                   METRIC_SAMPLE, (j,)))

    def _schedule(self, t: float, kind: str, payload: tuple):
        heapq.heappush(self.heap, (t, self.event_seq, kind, payload))
        self.event_seq += 1

    # -- energy ----------------------------------------------------------------

    def _debit(self, node: _Node, cost: float, t: float) -> bool:
        """Charge ``cost`` joules; returns True when it kills the node."""
        was_alive = node.energy > 0.0
        node.energy = debit(node.energy, cost)
        if was_alive and node.energy == 0.0:  # parked where it stands, for good
            x, y, _, _ = kinematics_at(node.waypoint, t)
            here = Kinematics(x, y)
            node.waypoint = WaypointState(here, here, 0.0, math.inf, t)
            self.grid.place(node.nid, here)
            self.report.depletion_times[node.nid] = t
            return True
        return False

    def _alive(self, node: _Node, t: float) -> bool:
        """Charge idle drain up to ``t``; True while the node has energy left."""
        elapsed = t - node.last_sync
        if elapsed > 0.0:
            node.last_sync = t
            self._debit(node, self.cfg.energy_idle_per_sec * elapsed, t)
        return node.energy > 0.0

    # -- trace / accounting ------------------------------------------------------

    def _emit(self, event: str, t: float, source: int, neighbor: int,
              header: CommonHeader):
        # Positional, and the kind's token read past the Enum descriptor: this
        # runs for every trace record.
        self.record(TraceEvent(event, round(t, 6), source, neighbor, header.kind._value_,
                               header.size, "---", header.fid, header.src, header.dst,
                               header.seq, header.uid))

    def _is_honest_data(self, header: CommonHeader) -> bool:
        return header.kind is PacketKind.DATA and header.src != self.attacker_id

    def _lose(self, header: CommonHeader):
        """Count a packet that goes no further; only honest DATA counts as loss."""
        if self._is_honest_data(header):
            self.report.honest_data_lost += 1

    def _drop(self, nid: int, header: CommonHeader, neighbor: int, reason: str,
              t: float):
        self._emit("d", t, nid, neighbor, header)
        self.report.drops_by_reason[reason] += 1
        self._lose(header)
        if (nid == self.victim and header.kind is PacketKind.DATA
                and header.src == self.attacker_id):
            self.report.victim_malicious_drops += 1

    # -- transmission -----------------------------------------------------------

    def _attacker_tags(self) -> Tuple[float, float, int]:
        mode = self.cfg.attacker_sophistication
        k = self.cfg.num_channels
        if mode is Sophistication.NAIVE_FIXED:
            # Constant tags implying channel 1, announced on channel 2.
            return 0.5, 0.5, 2 if k >= 2 else 1
        if mode is Sophistication.NAIVE_RANDOM:
            rv1 = self.attacker_rng.random()
            rv2 = self.attacker_rng.random()
            return rv1, rv2, self.attacker_rng.randint(1, k)
        rv1, rv2 = draw_random_values(self.attacker_rng)
        return rv1, rv2, select_channel(rv1, rv2, k)

    def _transmit(self, nid: int, tx: Tx, t: float):
        """Send one frame; every frame is tagged here, on each hop it takes."""
        node = self.nodes[nid]
        if node.energy <= 0.0:
            self._drop(nid, tx.header, tx.link_dst, DEAD_SENDER, t)
            return
        # Every caller has run _alive for this node at t: no idle drain is due.
        cfg = self.cfg
        (uid, kind, size, src, dst, prev_hop, seq, fid, _, _, _, hop_count,
         sender_kin) = tx.header
        if tx.forward:
            prev_hop, hop_count = nid, hop_count + 1
        if nid == self.attacker_id and kind is PacketKind.DATA and not tx.forward:
            rv1, rv2, channel = self._attacker_tags()  # the flood carries its own tags
            self.report.attacker_data_sent += 1
        else:
            rv1, rv2 = draw_random_values(node.tag_rng)
            channel = select_channel(rv1, rv2, cfg.num_channels)
        header = CommonHeader(uid, kind, size, src, dst, prev_hop, seq, fid, rv1, rv2,
                              channel, hop_count, sender_kin)
        if self.uses_let and kind in cfg.mlet_applies_to:
            header = annotate(header, self.grid.kin[nid], cfg.mlet_annex_bytes)
        self._debit(node, cfg.energy_tx_per_byte * header.size, t)
        self._emit("f" if tx.forward else "s", t, nid, tx.link_dst, header)
        if kind in _CONTROL_KINDS:
            self.report.control_tx[kind] += 1
        if self._is_honest_data(header) and not tx.forward:
            self.report.honest_data_sent += 1
        if cfg.physical_channels and verify(header, cfg.num_channels,
                                            cfg.paper_range_check) is not VerifyOutcome.ACCEPT:
            receivers = []  # sent on no channel its tags imply: nobody hears it
        else:
            receivers = broadcast(nid, tx.link_dst, self.grid, cfg.loss_prob, self.loss_rng)
        if not receivers:
            if tx.link_dst != BROADCAST:
                self._lose(header)  # next hop unreachable: the packet is gone
            return
        # One event for all receivers: their receptions share one instant, and
        # no other event may come between them.
        self._schedule(t + tx_delay(header.size, cfg.bitrate) + cfg.prop_delay, DELIVER,
                       (receivers, Tx(header, tx.link_dst, tx.body, tx.forward)))

    def _process(self, nid: int, actions, t: float):
        for action in actions:
            if isinstance(action, Tx):
                self._transmit(nid, action, t)
            elif isinstance(action, Drop):
                self._drop(nid, action.header, action.neighbor, action.reason, t)
            else:  # StartRetry(dst, bid, attempt)
                self._schedule(t + self.cfg.retry_timeout, RETRY_TIMER, (nid, *action))

    # -- reception ----------------------------------------------------------------

    def _deliver(self, receivers: List[int], frame: Tx, t: float):
        """Hand one frame to each of its receivers, in ascending id order.

        What depends on the frame alone is worked out once: the RX costs, the
        verification outcome and the fields of the ``r`` record.
        """
        # events= counts receptions; the main loop counted this frame once.
        self.report.events_processed += len(receivers) - 1
        cfg = self.cfg
        header = frame.header
        (uid, kind, size, src, dst, prev_hop, seq, fid, _, _, _, _, sender_kin) = header
        header_cost = min(size, HEADER_RX_BYTES)
        rx_per_byte = cfg.energy_rx_per_byte
        header_rx = rx_per_byte * header_cost
        body_rx = rx_per_byte * (size - header_cost)
        rejected = None
        if self.verifies:
            outcome = verify(header, cfg.num_channels, cfg.paper_range_check)
            if outcome is not VerifyOutcome.ACCEPT:
                rejected = outcome.value
        when, token = round(t, 6), kind._value_
        for receiver in receivers:
            node = self.nodes[receiver]
            # Idle drain, then the header's RX cost, may kill it at this instant.
            if not self._alive(node, t) or self._debit(node, header_rx, t):
                self._lose(header)
                continue
            if rejected is not None:
                # Rejected before the payload is read: header RX cost only.
                self._drop(receiver, header, prev_hop, rejected, t)
                continue
            if self._debit(node, body_rx, t):
                self._lose(header)
                continue
            if sender_kin is not None and not admit_link(
                    sender_kin, self.grid.kin[receiver], cfg.range_r, cfg.let_threshold,
                    cfg.let_mode):
                self._drop(receiver, header, prev_hop, LET_REJECT, t)
                continue
            self.record(TraceEvent("r", when, receiver, prev_hop, token, size, "---", fid,
                                   src, dst, seq, uid))
            if kind is PacketKind.DATA and dst == receiver:
                if src != self.attacker_id:
                    self.report.honest_data_delivered += 1
                elif receiver == self.victim:
                    self.report.victim_malicious_accepts += 1
            self._process(receiver, node.aodv.receive(header, frame.body, t), t)

    # -- timers ----------------------------------------------------------------

    def _hello_timer(self, nid: int, t: float):
        node = self.nodes[nid]
        if not self._alive(node, t):
            return  # depleted nodes stop their timers
        self._process(nid, node.aodv.on_hello_tick(t), t)
        self._schedule(t + self.cfg.hello_interval, HELLO_TIMER, (nid,))

    def _mobility_update(self, t: float):
        cfg = self.cfg
        place, placed = self.grid.place, self.grid.kin
        for nid, node in self.nodes.items():
            waypoint = node.waypoint
            if t >= waypoint.pause_until:
                waypoint = node.waypoint = advance_waypoint(waypoint, node.mob_rng, t,
                                                            cfg.area_x, cfg.area_y,
                                                            cfg.speed_min, cfg.speed_max,
                                                            cfg.pause)
            kin = kinematics_at(waypoint, t)
            if kin is not placed[nid]:  # a node at rest gets back the kinematics it has
                place(nid, kin)
        self._schedule(t + MOBILITY_STEP, MOBILITY_UPDATE, ())

    def _app_send(self, flow_idx: int, t: float):
        flow = self.cfg.flows[flow_idx]
        node = self.nodes[flow.src]
        if not self._alive(node, t):
            return
        self.report.honest_data_originated += 1
        actions = node.aodv.originate_data(flow.dst, flow.size, flow_idx + 1, t)
        self._process(flow.src, actions, t)
        self._schedule(t + 1.0 / flow.rate, APP_SEND, (flow_idx,))

    def _attack_step(self, t: float):
        node = self.nodes[self.attacker_id]
        if not self._alive(node, t):
            return
        cfg = self.cfg
        self._process(node.nid, node.aodv.send_unbuffered(cfg.attacker_target,
                                                          cfg.attacker_payload, ATTACK_FID, t), t)
        self._schedule(t + 1.0 / cfg.attacker_rate, ATTACK_STEP, ())

    def _retry_timer(self, nid: int, dst: int, bid: int, attempt: int, t: float):
        node = self.nodes[nid]
        if self._alive(node, t):
            self._process(nid, node.aodv.on_retry(dst, bid, attempt, t), t)

    def _metric_sample(self, j: int, t: float):
        self._push_sample(j + 1)
        for node in self.nodes.values():
            self._alive(node, t)
        report = self.report
        drops, accepts = report.victim_malicious_drops, report.victim_malicious_accepts
        report.samples.append((t, drops - self.sampled_drops, accepts - self.sampled_accepts,
                               self.nodes[self.victim].energy, report.honest_data_lost,
                               sum(report.control_tx.values()), report.honest_data_delivered))
        self.sampled_drops, self.sampled_accepts = drops, accepts

    # -- main loop ----------------------------------------------------------------

    def _check_conservation(self):
        """Every honest DATA packet originated is delivered, lost, buffered or in flight."""
        report = self.report
        buffered = sum(len(queue) for node in self.nodes.values()
                       for queue in node.aodv.pending.values())
        in_flight = sum(len(payload[0]) for _, _, kind, payload in self.heap
                        if kind == DELIVER and self._is_honest_data(payload[1].header))
        if report.honest_data_originated != (report.honest_data_delivered
                                             + report.honest_data_lost + buffered + in_flight):
            raise RuntimeError(
                f"honest DATA not conserved: originated={report.honest_data_originated} "
                f"delivered={report.honest_data_delivered} lost={report.honest_data_lost} "
                f"buffered={buffered} in_flight={in_flight}")

    def run(self) -> RunReport:
        handlers = {DELIVER: self._deliver, HELLO_TIMER: self._hello_timer,
                    MOBILITY_UPDATE: self._mobility_update, APP_SEND: self._app_send,
                    ATTACK_STEP: self._attack_step, RETRY_TIMER: self._retry_timer,
                    METRIC_SAMPLE: self._metric_sample}
        heap, pop = self.heap, heapq.heappop
        events = 0
        while True:
            t, _, kind, payload = pop(heap)
            if kind == STOP:
                break
            events += 1
            handlers[kind](*payload, t)
        self.report.events_processed += events
        for node in self.nodes.values():
            self._alive(node, self.cfg.stop)
        self.report.victim_final_energy = self.nodes[self.victim].energy
        self._check_conservation()
        return self.report
