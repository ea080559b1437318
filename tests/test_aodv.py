import itertools
import random


from manetsim.aodv import (BUFFER_OVERFLOW, NET_DIAMETER, NO_ROUTE, RETRY_EXHAUSTED,
                           RREQ_SWEEP_MIN, AodvNode, Drop, RouteEntry, StartRetry, Tx)
from manetsim.config import ScenarioConfig, validate_config
from manetsim.engine import Simulation
from manetsim.model import BROADCAST, CommonHeader, PacketKind, RrepBody, RreqBody

from .conftest import bfs_hops, random_connected_topology, run_traced, static_topology_config


def make_node(nid=1, **over):
    counter = itertools.count()
    return AodvNode(nid, ScenarioConfig(**over), lambda: next(counter))


def _route(node, dest, next_hop, hop_count=1, dest_seq=0, t=0.0):
    node.routes[dest] = RouteEntry(dest=dest, next_hop=next_hop, hop_count=hop_count,
                                   dest_seq=dest_seq, expiry=t + 10.0)


def _rreq(src, prev, bid=0, dest=5, hop_count=0, orig_seq=1):
    header = CommonHeader(uid=100 + bid, kind=PacketKind.RREQ, size=24, src=src,
                          dst=BROADCAST, prev_hop=prev, seq=0, fid=0,
                          hop_count=hop_count)
    return header, RreqBody(broadcast_id=bid, orig_seq=orig_seq, dest=dest)


def _rrep(prev, dest, orig, dest_seq=1, hop_count=0):
    header = CommonHeader(uid=200, kind=PacketKind.RREP, size=20, src=dest,
                          dst=orig, prev_hop=prev, seq=0, fid=0)
    return header, RrepBody(dest=dest, dest_seq=dest_seq, hop_count=hop_count,
                            orig=orig)


# -- origination --------------------------------------------------------------

def test_originate_with_cached_route_sends_data_only():
    node = make_node()
    _route(node, dest=5, next_hop=2)
    actions = node.originate_data(5, 100, fid=1, t=0.0)
    assert len(actions) == 1
    tx = actions[0]
    assert isinstance(tx, Tx) and tx.header.kind is PacketKind.DATA
    assert tx.link_dst == 2 and not tx.forward


def test_originate_without_route_floods_fresh_rreq():
    node = make_node()
    actions = node.originate_data(5, 100, fid=1, t=0.0)
    kinds = [a.header.kind for a in actions if isinstance(a, Tx)]
    assert kinds == [PacketKind.RREQ]
    rreq = next(a for a in actions if isinstance(a, Tx))
    assert rreq.link_dst == BROADCAST
    assert rreq.body.broadcast_id == 0
    assert any(isinstance(a, StartRetry) for a in actions)
    assert len(node.pending[5]) == 1


def test_send_unbuffered_without_route_discovers_and_keeps_nothing():
    node = make_node()
    actions = node.send_unbuffered(5, 400, fid=9, t=0.0)
    assert [type(a) for a in actions] == [Tx, StartRetry]
    assert actions[0].header.kind is PacketKind.RREQ and actions[0].link_dst == BROADCAST
    assert actions[1] == StartRetry(dst=5, bid=actions[0].body.broadcast_id, attempt=1)
    assert node.pending == {}
    assert node.send_unbuffered(5, 400, fid=9, t=0.1) == []  # discovery in flight
    assert node.pending == {}


def test_send_unbuffered_over_a_valid_route_sends_one_data_frame():
    node = make_node(route_lifetime=3.0)
    _route(node, dest=5, next_hop=2)
    node.routes[5].expiry = 1.0  # valid at 0.5, for less than a route lifetime
    actions = node.send_unbuffered(5, 400, fid=9, t=0.5)
    assert len(actions) == 1
    tx = actions[0]
    assert isinstance(tx, Tx) and not tx.forward and tx.link_dst == 2
    assert tx.header.kind is PacketKind.DATA and tx.header.fid == 9
    assert (tx.header.src, tx.header.dst, tx.header.size) == (1, 5, 400)
    assert node.routes[5].expiry == 0.5 + 3.0


def test_second_originate_joins_discovery_in_flight():
    node = make_node()
    node.originate_data(5, 100, fid=1, t=0.0)
    actions = node.originate_data(5, 100, fid=1, t=0.1)
    assert not any(isinstance(a, Tx) for a in actions)  # buffered only
    assert len(node.pending[5]) == 2
    assert node.next_broadcast_id == 1


def test_broadcast_ids_increase_per_discovery():
    node = make_node()
    node.originate_data(5, 100, 1, 0.0)
    node.on_retry(5, 0, 1, 1.0)  # second flood uses a fresh broadcast id
    assert (node.nid, 0) in node.rreq_seen and (node.nid, 1) in node.rreq_seen


def test_buffer_overflow_drops_oldest():
    node = make_node(buffer_cap=2)
    node.originate_data(5, 100, 1, 0.0)
    node.originate_data(5, 100, 1, 0.1)
    actions = node.originate_data(5, 100, 1, 0.2)
    drops = [a for a in actions if isinstance(a, Drop)]
    assert len(drops) == 1 and drops[0].reason == BUFFER_OVERFLOW
    assert len(node.pending[5]) == 2


def test_retry_exhaustion_drops_buffered_payloads():
    node = make_node(retry_limit=2)
    node.originate_data(5, 100, 1, 0.0)
    assert [a.header.kind for a in node.on_retry(5, 0, 1, 1.0) if isinstance(a, Tx)] \
        == [PacketKind.RREQ]
    assert [a.header.kind for a in node.on_retry(5, 1, 2, 2.0) if isinstance(a, Tx)] \
        == [PacketKind.RREQ]
    final = node.on_retry(5, 2, 3, 3.0)
    assert [a.reason for a in final if isinstance(a, Drop)] == [RETRY_EXHAUSTED]
    assert 5 not in node.discovery


def test_each_retry_timer_carries_its_flood_attempt():
    node = make_node(retry_limit=1)
    node.originate_data(5, 100, 1, 0.0)
    assert node.on_retry(5, 0, 1, 1.0)[-1] == StartRetry(dst=5, bid=1, attempt=2)
    assert node.discovery == {5: 1}
    assert [a.reason for a in node.on_retry(5, 1, 2, 2.0)] == [RETRY_EXHAUSTED]
    assert node.discovery == {}


def test_stale_retry_timer_is_ignored():
    node = make_node()
    node.originate_data(5, 100, 1, 0.0)
    node.on_retry(5, 0, 1, 1.0)  # re-floods under broadcast id 1
    assert node.on_retry(5, 0, 2, 1.5) == []  # stale broadcast id
    assert node.on_retry(5, 7, 2, 1.5) == []  # an id this node never flooded
    assert node.discovery[5] == 1


# -- RREQ handling -------------------------------------------------------------

def test_destination_replies_to_prev_hop():
    node = make_node(nid=5)
    header, body = _rreq(src=0, prev=3, dest=5)
    actions = node.handle_rreq(header, body, t=0.0)
    assert len(actions) == 1
    rrep = actions[0]
    assert rrep.header.kind is PacketKind.RREP
    assert rrep.link_dst == 3
    assert rrep.body.orig == 0 and rrep.body.dest == 5


def test_duplicate_rreq_is_silently_ignored():
    node = make_node(nid=2)
    header, body = _rreq(src=0, prev=1, bid=7)
    assert node.handle_rreq(header, body, 0.0) != []
    assert node.handle_rreq(header, body, 0.1) == []


def test_expired_rreq_entries_are_swept():
    node = make_node(nid=9, rreq_cache_ttl=10.0)
    old = RREQ_SWEEP_MIN // 2
    for bid in range(RREQ_SWEEP_MIN - 1):  # one short of the first sweep
        node.handle_rreq(*_rreq(src=0, prev=1, bid=bid), t=0.0 if bid < old else 5.0)
    assert len(node.rreq_seen) == RREQ_SWEEP_MIN - 1
    header, body = _rreq(src=2, prev=1, bid=0)
    assert node.handle_rreq(header, body, 10.5) != []  # the sweep runs here
    assert set(node.rreq_seen) == ({(0, bid) for bid in range(old, RREQ_SWEEP_MIN - 1)}
                                   | {(2, 0)})
    assert node.handle_rreq(header, body, 20.5) == []  # still suppressed at the TTL
    assert node.handle_rreq(*_rreq(src=0, prev=1, bid=old), t=15.0) == []
    assert node.handle_rreq(*_rreq(src=0, prev=1, bid=0), t=15.0) != []


def test_intermediate_rebroadcasts_first_copy_with_incremented_hop():
    node = make_node(nid=2)
    header, body = _rreq(src=0, prev=1, dest=5, hop_count=3)
    actions = node.handle_rreq(header, body, 0.0)
    assert len(actions) == 1
    fwd = actions[0]
    assert fwd.forward and fwd.link_dst == BROADCAST
    # reverse route toward the originator via the previous hop
    entry = node.routes[0]
    assert entry.next_hop == 1 and entry.hop_count == 4


def test_rreq_travels_at_most_net_diameter_hops():
    # The copy a node sends out carries hop_count + 1 (RFC 3561 section 10).
    last = make_node(nid=2).handle_rreq(*_rreq(src=0, prev=1, hop_count=NET_DIAMETER - 2),
                                        t=0.0)
    assert [(a.forward, a.header.kind) for a in last] == [(True, PacketKind.RREQ)]
    node = make_node(nid=2)
    assert node.handle_rreq(*_rreq(src=0, prev=1, hop_count=NET_DIAMETER - 1), t=0.0) == []
    assert node.routes[0].hop_count == NET_DIAMETER  # the reverse route is still learnt
    # The destination still answers a flood that can go no further.
    dest = make_node(nid=5)
    reply = dest.handle_rreq(*_rreq(src=0, prev=1, dest=5, hop_count=NET_DIAMETER - 1), t=0.0)
    assert [a.header.kind for a in reply] == [PacketKind.RREP]


def test_rreq_flood_without_duplicate_suppression_is_bounded():
    # Cache entries expire within 1e-6 s, so every copy is new to its
    # receiver and only the hop limit ends a flood.  Without it this run
    # processed 54,630 events and sent 10,417 RREQs.
    clique = [(10, 10), (12, 10), (14, 10), (10, 12), (12, 12), (14, 12)]
    cfg = static_topology_config(clique, r=15.0, area=50.0, flow="5:0:4:100:1",
                                 rreq_cache_ttl=1e-6)
    trace, report = run_traced(cfg)
    assert report.events_processed <= 1_000
    assert report.control_tx[PacketKind.RREQ] <= 200
    assert not [e for e in trace if e.event == "d" and e.pkt_type == "RREQ"]
    assert report.honest_data_delivered == report.honest_data_originated == 8


def test_intermediate_rrep_disabled_by_default():
    node = make_node(nid=2)
    _route(node, dest=5, next_hop=4, dest_seq=9)
    header, body = _rreq(src=0, prev=1, dest=5)
    actions = node.handle_rreq(header, body, 0.0)
    assert [a.header.kind for a in actions] == [PacketKind.RREQ]


def test_intermediate_rrep_with_fresh_route_when_enabled():
    node = make_node(nid=2, intermediate_rrep=True)
    _route(node, dest=5, next_hop=4, hop_count=2, dest_seq=9)
    header, body = _rreq(src=0, prev=1, dest=5)
    actions = node.handle_rreq(header, body, 0.0)
    assert [a.header.kind for a in actions] == [PacketKind.RREP]


# -- RREP handling -------------------------------------------------------------

def test_originator_flushes_buffer_in_fifo_order():
    node = make_node(nid=0)
    node.originate_data(5, 100, 1, 0.0)
    node.originate_data(5, 200, 1, 0.1)
    header, body = _rrep(prev=3, dest=5, orig=0)
    actions = node.handle_rrep(header, body, 0.5)
    sizes = [a.header.size for a in actions if isinstance(a, Tx)]
    assert sizes == [100, 200]
    assert all(a.link_dst == 3 for a in actions if isinstance(a, Tx))
    assert 5 not in node.discovery


def test_intermediate_forwards_rrep_along_reverse_route():
    node = make_node(nid=2)
    _route(node, dest=0, next_hop=1)  # reverse route to the originator
    header, body = _rrep(prev=3, dest=5, orig=0, hop_count=0)
    actions = node.handle_rrep(header, body, 0.0)
    assert len(actions) == 1
    fwd = actions[0]
    assert fwd.forward and fwd.link_dst == 1
    assert fwd.body.hop_count == 1
    assert node.routes[5].next_hop == 3 and node.routes[5].hop_count == 1


def test_rrep_without_reverse_route_is_dropped():
    node = make_node(nid=2)
    header, body = _rrep(prev=3, dest=5, orig=0)
    actions = node.handle_rrep(header, body, 0.0)
    assert [type(a) for a in actions] == [Drop]


def test_stale_rrep_does_not_replace_fresher_route():
    node = make_node(nid=0)
    header, body = _rrep(prev=3, dest=5, orig=0, dest_seq=5, hop_count=0)
    node.handle_rrep(header, body, 0.0)
    assert node.routes[5].dest_seq == 5
    header, body = _rrep(prev=4, dest=5, orig=0, dest_seq=3, hop_count=0)
    node.handle_rrep(header, body, 0.1)
    assert node.routes[5].dest_seq == 5
    assert node.routes[5].next_hop == 3


def test_same_seq_shorter_route_wins():
    node = make_node(nid=0)
    header, body = _rrep(prev=3, dest=5, orig=0, dest_seq=5, hop_count=3)
    node.handle_rrep(header, body, 0.0)
    header, body = _rrep(prev=4, dest=5, orig=0, dest_seq=5, hop_count=1)
    node.handle_rrep(header, body, 0.1)
    assert node.routes[5].next_hop == 4 and node.routes[5].hop_count == 2


# -- DATA and RERR --------------------------------------------------------------

def _data(dst, prev, src=0):
    return CommonHeader(uid=300, kind=PacketKind.DATA, size=100, src=src, dst=dst,
                        prev_hop=prev, seq=0, fid=1)


def test_forwarder_with_route_emits_single_forward():
    node = make_node(nid=2)
    _route(node, dest=5, next_hop=4)
    actions = node.handle_data(_data(dst=5, prev=1), 0.0)
    assert len(actions) == 1
    assert actions[0].forward and actions[0].link_dst == 4


def test_forwarder_without_route_drops_and_reports_upstream():
    node = make_node(nid=2)
    actions = node.handle_data(_data(dst=5, prev=1), 0.0)
    drops = [a for a in actions if isinstance(a, Drop)]
    rerrs = [a for a in actions if isinstance(a, Tx)]
    assert len(drops) == 1 and drops[0].reason == NO_ROUTE
    assert len(rerrs) == 1
    assert rerrs[0].header.kind is PacketKind.RERR and rerrs[0].link_dst == 1
    assert rerrs[0].body[0][0] == 5


def test_delivery_at_destination_emits_nothing():
    node = make_node(nid=5)
    assert node.handle_data(_data(dst=5, prev=1), 0.0) == []


def test_rerr_invalidates_only_matching_next_hop():
    node = make_node(nid=0)
    _route(node, dest=5, next_hop=3, dest_seq=1)
    _route(node, dest=6, next_hop=2, dest_seq=1)
    header = CommonHeader(uid=301, kind=PacketKind.RERR, size=20, src=3, dst=0,
                          prev_hop=3, seq=0, fid=0)
    node.handle_rerr(header, ((5, 4), (6, 4)), 0.0)
    assert not node.routes[5].valid
    assert node.routes[5].dest_seq == 4
    assert node.routes[6].valid  # different next hop: untouched


# -- HELLO and break detection ----------------------------------------------------

def test_hello_refreshes_monitor():
    node = make_node(nid=0)
    header = CommonHeader(uid=1, kind=PacketKind.HELLO, size=16, src=3,
                          dst=BROADCAST, prev_hop=3, seq=0, fid=0)
    node.handle_hello(header, 4.2)
    assert node.last_hello[3] == 4.2


def test_silent_neighbor_invalidates_routes_and_emits_rerr():
    node = make_node(nid=0, hello_interval=1.0, hello_loss_limit=2)
    node.last_hello[3] = 1.0
    _route(node, dest=5, next_hop=3, t=1.0)
    assert node.detect_breaks(3.0) == []  # exactly at the limit: not lost yet
    actions = node.detect_breaks(3.5)  # 2.5 s > 2 * 1 s
    assert len(actions) == 1
    rerr = actions[0]
    assert rerr.header.kind is PacketKind.RERR and rerr.link_dst == BROADCAST
    assert rerr.body == ((5, 1),)
    assert not node.routes[5].valid
    assert 3 not in node.last_hello


def test_hello_tick_always_broadcasts_hello():
    node = make_node(nid=0)
    actions = node.on_hello_tick(1.0)
    assert [a.header.kind for a in actions] == [PacketKind.HELLO]
    assert actions[0].link_dst == BROADCAST


# -- engine-level routing scenarios ----------------------------------------------

def test_chain_discovery_delivers_within_one_second():
    cfg = static_topology_config(
        points=[(10, 10), (20, 10), (30, 10)], r=15.0, area=50.0,
        flow="0:2:5:100:0.5", stop=2.0, seed=1)
    trace = []
    sim = Simulation(cfg, trace.append)
    sim.run()
    deliveries = [e for e in trace
                  if e.event == "r" and e.pkt_type == "DATA" and e.source == 2]
    assert deliveries and deliveries[0].time <= 1.5  # originate at 0.5 + bound 1 s
    assert sim.nodes[0].aodv.routes[2].hop_count == 2


def test_break_triggers_rerr_then_rediscovery():
    # 3-node chain whose middle relay walks away: route maintenance must
    # produce an RERR and a fresh RREQ after the initial discovery.
    cfg = validate_config({
        "nn": 3, "x": 50, "y": 50, "stop": 12, "rp": "AODV", "seed": 4,
        "range_r": 15, "nodes": "10,10; 20,10,20,48,5; 30,10",
        "flows": "0:2:5:100:0.3",
    })
    trace, _ = run_traced(cfg)
    rerr_times = [e.time for e in trace if e.pkt_type == "RERR" and e.event == "s"]
    rreq_times = [e.time for e in trace if e.pkt_type == "RREQ" and e.event == "s"]
    assert rerr_times, "expected a break-detection RERR"
    first_rerr = min(rerr_times)
    assert any(t > first_rerr for t in rreq_times), "expected re-discovery after the break"


def test_no_duplicate_rreq_rebroadcast_per_node():
    rng = random.Random(99)
    n, points = random_connected_topology(rng)
    cfg = static_topology_config(points, r=25.0, area=60.0,
                                 flow=f"0:{n - 1}:5:50:0.2", stop=2.0, seed=2)
    trace, _ = run_traced(cfg)
    per_node_flood = {}
    for e in trace:
        if e.pkt_type == "RREQ" and e.event in ("s", "f"):
            key = (e.source, e.pkt_id)
            per_node_flood[key] = per_node_flood.get(key, 0) + 1
    assert all(count == 1 for count in per_node_flood.values())


def test_min_hop_routes_on_random_connected_graphs():
    rng = random.Random(31415)
    for trial in range(10):
        n, points = random_connected_topology(rng)
        cfg = static_topology_config(points, r=25.0, area=60.0,
                                     flow=f"0:{n - 1}:5:50:0.2", stop=3.0,
                                     seed=trial + 1)
        sim = Simulation(cfg)
        sim.run()
        hops = bfs_hops(points, 25.0, 0)
        route = sim.nodes[0].aodv.routes.get(n - 1)
        assert route is not None and route.valid
        assert route.hop_count == hops[n - 1]
