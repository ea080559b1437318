"""Acceptance suite: one test per shipped criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import math
import random
import time

from manetsim.analyze import interval_series, parse_trace_text
from manetsim.cli import sweep_accept_fractions
from manetsim.config import load_config, validate_config
from manetsim.engine import Simulation
from manetsim.mobility import LetMode, link_expiration_time
from manetsim.model import CommonHeader, PacketKind
from manetsim.saodv import VerifyOutcome, select_channel, verify

from .conftest import (CONFIG_DIR, DATA_DIR, bfs_hops, kin,
                       random_connected_topology, run_traced, static_topology_config,
                       stepping_let)



def _passed(name):
    print(f"[PASS] {name}")


# -- criterion 1: link-lifetime oracle equivalence --------------------------------


def test_c1_let_oracle_equivalence():
    started = time.monotonic()
    r = 15.0
    rng = random.Random(0xC1)
    checked = 0
    worst = 0.0
    while checked < 1000:
        sx, sy = rng.uniform(0, 50), rng.uniform(0, 50)
        angle = rng.uniform(0, 2 * math.pi)
        offset = rng.uniform(0, r)
        sender = kin(sx, sy, rng.uniform(-5, 5), rng.uniform(-5, 5))
        receiver = kin(sx + offset * math.cos(angle), sy + offset * math.sin(angle),
                       rng.uniform(-5, 5), rng.uniform(-5, 5))
        a = receiver.vx - sender.vx
        b = receiver.x - sender.x
        c = receiver.vy - sender.vy
        d = receiver.y - sender.y
        denom = a * a + c * c
        if denom < 1.0:  # keep the brute-force horizon short
            continue
        if denom * r * r - (a * d - b * c) ** 2 < 0.0:
            continue
        analytic = link_expiration_time(sender, receiver, r, LetMode.STRICT)
        oracle = stepping_let(sender, receiver, r, dt=1e-3)
        worst = max(worst, abs(analytic - oracle))
        assert abs(analytic - oracle) <= 0.01, (sender, receiver, analytic, oracle)
        checked += 1
    # exact cases
    assert math.isinf(link_expiration_time(kin(0, 0), kin(1, 1), 250.0, LetMode.STRICT))
    radial = link_expiration_time(kin(0, 0), kin(0, 0, 10.0, 0.0), 250.0, LetMode.STRICT)
    assert abs(radial - 25.0) <= 1e-6
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f}s"
    _passed(f"criterion 1: 1000 random pairs within 0.01 s of the stepping oracle "
            f"(worst {worst:.5f} s, {elapsed:.1f}s)")


# -- criterion 2: verification never drops honest traffic --------------------------


def _tagged(rv1, rv2, channel):
    return CommonHeader(uid=0, kind=PacketKind.DATA, size=100, src=1, dst=0,
                        prev_hop=1, seq=0, fid=1, rv1=rv1, rv2=rv2, channel=channel)


def test_c2_saodv_soundness():
    grid = [i / 40.0 for i in range(41)]  # dense grid including both endpoints
    total = 0
    for k in range(1, 17):
        for rv1 in grid:
            for rv2 in grid:
                channel = select_channel(rv1, rv2, k)
                assert verify(_tagged(rv1, rv2, channel), k) is VerifyOutcome.ACCEPT
                total += 1
    rng = random.Random(0xC2)
    for _ in range(100_000):
        k = rng.randint(1, 16)
        rv1, rv2 = rng.random(), rng.random()
        channel = select_channel(rv1, rv2, k)
        assert verify(_tagged(rv1, rv2, channel), k) is VerifyOutcome.ACCEPT
        total += 1
    _passed(f"criterion 2: verify(select_channel(..)) accepted 100% of {total} honest tags")


# -- criterion 3: accept fraction falls as 1/k --------------------------------------


def _sweep_base_config():
    # Static victim with the flooder adjacent; the large battery keeps the
    # victim alive for the full sample even when every packet is accepted.
    return validate_config({
        "nn": 2, "x": 50, "y": 50, "stop": 50, "rp": "SAODV", "seed": 5,
        "range_r": 15, "nodes": "10,10; 20,10", "flows": "1:0:4:100:1",
        "energy.initial": 1000,
        "attacker.enabled": "true", "attacker.target": 0, "attacker.start": 10,
        "attacker.rate": 100, "attacker.payload": 400,
        "attacker.sophistication": "NAIVE_RANDOM", "attacker.pos": "10,20",
    })


def test_c3_one_over_k_attenuation():
    started = time.monotonic()
    cfg = _sweep_base_config()
    one_rep = Simulation(cfg._replace(rng_seed=cfg.rng_seed * 1000)).run()
    sample = one_rep.victim_malicious_accepts + one_rep.victim_malicious_drops
    assert sample >= 2000, f"each repetition must see >= 2000 attack packets, got {sample}"
    rows = sweep_accept_fractions(cfg, [1, 2, 4, 8], reps=10)
    means = [mean for _, mean, _ in rows]
    for (k, mean, _), target in zip(rows, (1.0, 0.5, 0.25, 0.125)):
        assert abs(mean - target) <= 0.05, f"k={k}: {mean:.4f} vs {target}"
    assert all(a >= b for a, b in zip(means, means[1:])), "fractions must not increase"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    fractions = " ".join(f"k={k}:{mean:.3f}" for (k, mean, _) in rows)
    _passed(f"criterion 3: accept fraction tracks 1/k ({fractions}, {elapsed:.1f}s)")


# -- criterion 4: drops at the victim appear only under verification ------------------


def _victim_attacker_data(trace, victim, attacker):
    return [e for e in trace
            if e.source == victim and e.src_addr == attacker
            and e.pkt_type == "DATA" and e.event in ("r", "d")]


def test_c4_drop_direction_at_the_victim():
    aodv_cfg = load_config(str(CONFIG_DIR / "table1_aodv.cfg"))
    aodv_trace, _ = run_traced(aodv_cfg)
    saodv_trace, _ = run_traced(load_config(str(CONFIG_DIR / "table1_saodv.cfg")))
    attacker = aodv_cfg.nn  # one attacker, appended after the honest nodes
    at_victim_aodv = _victim_attacker_data(aodv_trace, 0, attacker)
    at_victim_saodv = _victim_attacker_data(saodv_trace, 0, attacker)
    assert at_victim_aodv and at_victim_saodv, "the flood must reach the victim"
    aodv_drops = [e for e in at_victim_aodv if e.event == "d"]
    assert aodv_drops == [], "baseline must accept every flood packet"
    saodv_drops = [e for e in at_victim_saodv if e.event == "d"]
    assert len(saodv_drops) == len(at_victim_saodv), \
        "verification must drop 100% of received flood packets"
    _passed(f"criterion 4: victim drops 0/{len(at_victim_aodv)} under AODV and "
            f"{len(saodv_drops)}/{len(at_victim_saodv)} under SAODV")


# -- criterion 5: the victim's battery survives under verification --------------------


def test_c5_victim_energy_direction():
    demo = load_config(str(CONFIG_DIR / "attack_demo.cfg"))
    saodv = Simulation(demo).run()
    aodv = Simulation(load_config(str(CONFIG_DIR / "attack_demo_aodv.cfg"))).run()
    rows_s, rows_a = saodv.samples, aodv.samples
    assert len(rows_s) == len(rows_a)
    attack_start = demo.attacker_start
    for (ts, *_rest_s), (ta, *_rest_a) in zip(rows_s, rows_a):
        assert ts == ta
    for row_s, row_a in zip(rows_s, rows_a):
        t, energy_s, energy_a = row_s[0], row_s[3], row_a[3]
        assert energy_s >= energy_a, f"t={t}: {energy_s} < {energy_a}"
        if t >= attack_start + 1.0:
            assert energy_s > energy_a, f"t={t}: expected strict separation"
    died_at = aodv.depletion_times.get(0)
    assert died_at is not None and died_at < demo.stop, \
        "baseline victim must run out of energy before the stop time"
    retained = saodv.victim_final_energy / demo.energy_initial
    assert retained > 0.5, f"verified victim kept only {retained:.0%}"
    _passed(f"criterion 5: baseline victim dead at t={died_at:.1f}s, verified victim "
            f"retains {retained:.0%}")


# -- criterion 6: mobility-aware admission avoids the fragile relay --------------------


def test_c6_mlet_direction_and_zero_threshold_equivalence():
    mlet_cfg = load_config(str(CONFIG_DIR / "fig11_mlet.cfg"))
    baseline_cfg = load_config(str(CONFIG_DIR / "fig11_aodv.cfg"))
    mlet, _ = run_traced(mlet_cfg)
    baseline, _ = run_traced(baseline_cfg)

    def rerr_tx(trace):
        return sum(1 for e in trace
                   if e.pkt_type == "RERR" and e.event in ("s", "f"))

    def data_drops(trace):
        return sum(1 for e in trace
                   if e.pkt_type == "DATA" and e.event == "d")

    assert rerr_tx(baseline) > rerr_tx(mlet), "expected strictly fewer RERR events"
    assert data_drops(baseline) > data_drops(mlet), "expected strictly fewer DATA drops"

    neutral = mlet_cfg._replace(let_threshold=0.0, mlet_annex_bytes=0)
    neutral_trace, _ = run_traced(neutral)
    assert neutral_trace == baseline, \
        "threshold 0 with a zero-size annex must reproduce the baseline byte for byte"
    _passed(f"criterion 6: RERR {rerr_tx(baseline)}->{rerr_tx(mlet)}, DATA drops "
            f"{data_drops(baseline)}->{data_drops(mlet)}, threshold-0 trace identical")


# -- criterion 7: discovery finds min-hop routes, tables stay loop-free ----------------


def _assert_loop_free(nodes, t):
    for origin, node in nodes.items():
        for dest, entry in node.aodv.routes.items():
            if not entry.valid:
                continue
            current, seen = origin, {origin}
            while current != dest:
                hop = nodes[current].aodv.routes.get(dest)
                if hop is None or not hop.valid:
                    break
                current = hop.next_hop
                assert current not in seen, f"loop toward {dest} from {origin}"
                seen.add(current)


def test_c7_min_hop_and_loop_freedom():
    rng = random.Random(0xC7)
    for trial in range(50):
        n, points = random_connected_topology(rng)
        cfg = static_topology_config(points, r=25.0, area=60.0,
                                     flow=f"0:{n - 1}:5:50:0.2", stop=3.0,
                                     seed=trial + 1)
        sim = Simulation(cfg)
        sim.run()
        route = sim.nodes[0].aodv.routes.get(n - 1)
        assert route is not None and route.valid, f"trial {trial}: no route discovered"
        expected = bfs_hops(points, 25.0, 0)[n - 1]
        assert route.hop_count == expected, \
            f"trial {trial}: hop_count {route.hop_count} != BFS {expected}"
        _assert_loop_free(sim.nodes, cfg.stop)
    _passed("criterion 7: 50 random topologies, hop counts equal BFS, tables loop-free")


# -- criterion 8: determinism and trace format -----------------------------------------


def test_c8_determinism_and_format():
    cfg = load_config(str(DATA_DIR / "golden_3node.cfg"))
    golden = (DATA_DIR / "golden_3node.tr").read_text()
    first, _ = run_traced(cfg)
    second, _ = run_traced(cfg)
    assert first == second, "same seed must reproduce the trace byte for byte"
    text = "".join(e.format_line() + "\n" for e in first)
    assert text == golden, "trace deviates from the frozen golden file"
    for line in text.splitlines():
        assert len(line.split()) == 12
    events = parse_trace_text(text)
    assert events == first
    assert interval_series(events, 1.0, node=2), "analyzer must consume the trace"
    _passed(f"criterion 8: golden trace stable ({len(events)} lines, 12 tokens each)")
