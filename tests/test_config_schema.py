"""The config schema: pinned violation messages, finiteness, the timer cap, README sync."""

import math
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from manetsim.config import (KNOWN_KEYS, MAX_COUNT, MAX_NODES, MAX_PACKET_BYTES,
                             MAX_TIMER_FIRINGS, SCHEMA, ConfigError, ScenarioConfig,
                             validate_config)
from manetsim.engine import Simulation
from manetsim.mobility import MOBILITY_STEP

README = Path(__file__).parents[1] / "README.md"

# Violations reported for bad raw configs, captured before the schema rewrite
# and expected verbatim, in order, ever since; the attacker battery's moved to
# the generic bound messages when it lost its own parser.
VIOLATIONS = [
    ({'nn': 'abc'}, ["nn: expected an integer, got 'abc'"]),
    ({'nn': 0}, ['nn: must be >= 1, got 0']),
    ({'k': '2.5'}, ["k: expected an integer, got '2.5'"]),
    ({'retry_limit': -1}, ['retry_limit: must be >= 0, got -1']),
    ({'seed': 'x'}, ["seed: expected an integer, got 'x'"]),
    ({'x': 'wide'}, ["x: expected a number, got 'wide'"]),
    ({'x': 0}, ['x: must be > 0.0, got 0.0']),
    ({'x': '-inf'}, ['x: must be > 0.0, got -inf']),
    ({'stop': -1}, ['stop: must be > 0.0, got -1.0']),
    ({'let_threshold': -2}, ['let_threshold: must be >= 0.0, got -2.0']),
    ({'loss_prob': 1.0}, ['loss_prob: must be < 1.0, got 1.0']),
    ({'loss_prob': 'inf'}, ['loss_prob: must be < 1.0, got inf']),
    ({'range_r': 'nan'}, ['range_r: must not be NaN']),
    ({'physical_channels': 'maybe'},
     ["physical_channels: expected true/false, got 'maybe'"]),
    ({'rp': 'OSPF'}, ["rp: expected one of AODV|SAODV|SAODV_MLET|AODV_MLET, got 'OSPF'"]),
    ({'let_mode': 'loose'}, ["let_mode: expected one of PAPER|STRICT, got 'loose'"]),
    ({'attacker.sophistication': 'clever'},
     ["attacker.sophistication: expected one of NAIVE_FIXED|NAIVE_RANDOM|INSIDER, got 'clever'"]),
    ({'attacker.energy': 'lots'}, ["attacker.energy: expected a number, got 'lots'"]),
    ({'attacker.energy': '0'}, ['attacker.energy: must be > 0.0, got 0.0']),
    ({'attacker.energy': 'nan'}, ['attacker.energy: must not be NaN']),
    ({'attacker.energy': -5}, ['attacker.energy: must be > 0.0, got -5.0']),
    ({'energy.initial': 0}, ['energy.initial: must be > 0.0, got 0.0']),
    ({'energy.idle_per_sec': -0.001},
     ['energy.idle_per_sec: must be >= 0.0, got -0.001']),
    ({'mlet_applies_to': 'RREQ,FOO,HELLO'},
     ["mlet_applies_to: unknown packet kind 'FOO'",
      'mlet_applies_to: HELLO cannot carry the admission check']),
    ({'attacker.pos': '1'}, ["attacker.pos: expected 'x,y', got '1'"]),
    ({'attacker.pos': 'a,b'}, ["attacker.pos: could not convert string to float: 'a'"]),
    ({'attacker.pos': 'inf,0'},
     ['attacker.pos: Vec2 components must be finite, got (inf, 0.0)']),
    ({'attacker.pos': 'nan,0'},
     ['attacker.pos: Vec2 components must be finite, got (nan, 0.0)']),
    ({'attacker.pos': '60,5'}, ['attacker.pos: outside the 50.0x50.0 area']),
    ({'flows': '0:1:4'}, ['flows: entry 0: expected src:dst:rate:size[:start]']),
    ({'flows': '0:1:x:100'}, ["flows: entry 0: non-numeric field in '0:1:x:100'"]),
    ({'nn': 3, 'flows': '0:3:4:100'}, ['flows: entry 0: endpoints must be node ids < 3']),
    ({'flows': '1:1:4:100'}, ['flows: entry 0: src and dst must differ']),
    ({'flows': '0:1:0:100'}, ['flows: entry 0: rate/size must be positive, start >= 0']),
    ({'flows': '0:1:4:100:-1'},
     ['flows: entry 0: rate/size must be positive, start >= 0']),
    ({'flows': '0:1:4:100; 2:2:1:1; 0:1'},
     ['flows: entry 1: src and dst must differ',
      'flows: entry 2: expected src:dst:rate:size[:start]']),
    ({'nn': 3, 'nodes': '1,1; 2,2'}, ['nodes: expected 3 entries (one per node), got 2']),
    ({'nn': 1, 'nodes': '1'}, ["nodes: entry 0: expected 'x,y' or 'x,y,tx,ty,speed'"]),
    ({'nn': 1, 'nodes': 'a,b'}, ["nodes: entry 0: non-numeric field in 'a,b'"]),
    ({'nn': 1, 'nodes': '1,1,2,2,-1'}, ['nodes: entry 0: speed must be >= 0']),
    ({'nn': 1, 'x': 10, 'y': 10, 'nodes': '11,5'},
     ['nodes: entry 0: coordinates outside the 10.0x10.0 area']),
    ({'nn': 1, 'x': 10, 'nodes': '1,1,20,5,1'},
     ['nodes: entry 0: coordinates outside the 10.0x50.0 area']),
    ({'nnn': 25, 'foo.bar': 1, ' nn ': 0},
     ['nnn: unknown key',
      'foo.bar: unknown key',
      'nn: must be >= 1, got 0']),
    ({'speed_min': 3, 'speed_max': 1},
     ['speed_max: must be >= speed_min (3.0), got 1.0']),
    ({'nn': 5, 'attacker.enabled': 'true', 'attacker.target': 5},
     ['attacker.target: must name an honest node (< 5)']),
    # Every check at once: the report keeps the order in which keys are read,
    # and a rejected value falls back to its default for the later checks.
    ({'nnn': 1, 'nn': 0, 'x': 'a', 'stop': -1, 'k': 0, 'let_threshold': -2,
      'let_mode': 'x', 'mlet_applies_to': 'FOO', 'rp': 'x', 'attacker.energy': '0',
      'attacker.enabled': 'maybe', 'attacker.target': -1, 'attacker.pos': '1',
      'attacker.sophistication': 'y', 'energy.initial': -1, 'speed_min': 3,
      'speed_max': 1, 'flows': '0:1:4', 'nodes': '1,1', 'metrics_interval': 0},
     ['nnn: unknown key',
      'nn: must be >= 1, got 0',
      "x: expected a number, got 'a'",
      'stop: must be > 0.0, got -1.0',
      "rp: expected one of AODV|SAODV|SAODV_MLET|AODV_MLET, got 'x'",
      'k: must be >= 1, got 0',
      "let_mode: expected one of PAPER|STRICT, got 'x'",
      'let_threshold: must be >= 0.0, got -2.0',
      "mlet_applies_to: unknown packet kind 'FOO'",
      'metrics_interval: must be > 0.0, got 0.0',
      'energy.initial: must be > 0.0, got -1.0',
      "attacker.enabled: expected true/false, got 'maybe'",
      'attacker.energy: must be > 0.0, got 0.0',
      'attacker.target: must be >= 0, got -1',
      "attacker.sophistication: expected one of NAIVE_FIXED|NAIVE_RANDOM|INSIDER, got 'y'",
      "attacker.pos: expected 'x,y', got '1'",
      'speed_max: must be >= speed_min (3.0), got 1.0',
      'flows: entry 0: expected src:dst:rate:size[:start]',
      'nodes: expected 25 entries (one per node), got 1']),
]


@pytest.mark.parametrize("raw,expected", VIOLATIONS)
def test_violation_messages_are_pinned(raw, expected):
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    assert exc.value.violations == expected


# Values that validated before the finiteness rule and the timer cap, and then
# crashed, hung or were silently accepted.
REJECTED_NOW = [
    ({"stop": "inf"}, ["stop: must be finite, got inf"]),
    ({"x": "inf"}, ["x: must be finite, got inf"]),
    ({"attacker.start": "inf"}, ["attacker.start: must be finite, got inf"]),
    ({"attacker.rate": "inf"}, ["attacker.rate: must be finite, got inf"]),
    ({"flows": "0:1:inf:100"}, ["flows: entry 0: rate and start must be finite"]),
    ({"flows": "0:1:4:100:nan"}, ["flows: entry 0: rate and start must be finite"]),
    ({"flows": "0:1:4:100:inf"}, ["flows: entry 0: rate and start must be finite"]),
    ({"nn": 2, "nodes": "10,10,20,10,nan; 20,10"}, ["nodes: entry 0: speed must be >= 0"]),
    ({"metrics_interval": "1e-7"},
     ["metrics_interval: a timer every 1e-07 s would fire more than 1000000 times in 50.0 s"]),
    ({"hello_interval": "1e-300"},
     ["hello_interval: a timer every 1e-300 s would fire more than 1000000 times in 50.0 s"]),
    ({"attacker.enabled": "true", "attacker.rate": "1e9"},
     ["attacker.rate: a timer every 1e-09 s would fire more than 1000000 times in 50.0 s"]),
    ({"flows": "0:1:1e6:100"},
     ["flows: entry 0: a timer every 1e-06 s would fire more than 1000000 times in 50.0 s"]),
    ({"stop": "1e6"},
     ["stop: a timer every 0.1 s would fire more than 1000000 times in 1000000.0 s"]),
    # A leg whose length overflowed to inf left its node standing at its start.
    ({"x": "1.7e308", "y": "1.7e308"},
     ["x: must leave the diagonal hypot(x, y) finite, got a 1.7e+308x1.7e+308 area"]),
]


@pytest.mark.parametrize("raw,expected", REJECTED_NOW)
def test_non_finite_values_and_runaway_timers_are_rejected(raw, expected):
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    assert exc.value.violations == expected


# Integers that validated before the upper bounds, then ended a run in an
# OverflowError, a MemoryError or a KeyError.
HUGE = 10**400
UNBOUNDED_BEFORE = [
    ({"nn": 3000000}, ["nn: must be <= 1000, got 3000000"]),
    ({"mlet_annex_bytes": HUGE}, [f"mlet_annex_bytes: must be <= 65535, got {HUGE}"]),
    ({"attacker.payload": 65536}, ["attacker.payload: must be <= 65535, got 65536"]),
    ({"hello_loss_limit": HUGE}, [f"hello_loss_limit: must be <= 1000000, got {HUGE}"]),
    ({"k": HUGE}, [f"k: must be <= 1000000, got {HUGE}"]),
    ({"retry_limit": 1000001}, ["retry_limit: must be <= 1000000, got 1000001"]),
    ({"buffer_cap": 1000001}, ["buffer_cap: must be <= 1000000, got 1000001"]),
    ({"attacker.target": 1000}, ["attacker.target: must be < 1000, got 1000"]),
    ({"attacker.target": 25}, ["attacker.target: must name an honest node (< 25)"]),
    ({"flows": f"0:1:4:{HUGE}"}, ["flows: entry 0: size must be <= 65535"]),
]


@pytest.mark.parametrize("raw,expected", UNBOUNDED_BEFORE)
def test_integer_keys_have_upper_bounds(raw, expected):
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    assert exc.value.violations == expected


def test_upper_bounds_admit_their_limits():
    cfg = validate_config({
        "nn": MAX_NODES, "k": MAX_COUNT, "mlet_annex_bytes": MAX_PACKET_BYTES,
        "hello_loss_limit": MAX_COUNT, "retry_limit": MAX_COUNT, "buffer_cap": MAX_COUNT,
        "attacker.target": MAX_NODES - 1, "attacker.payload": MAX_PACKET_BYTES,
        "flows": f"0:1:4:{MAX_PACKET_BYTES}"})
    assert (cfg.nn, cfg.attacker_target, cfg.flows[0].size) == (
        MAX_NODES, MAX_NODES - 1, MAX_PACKET_BYTES)


def test_batteries_may_be_unlimited():
    cfg = validate_config({"energy.initial": "inf", "attacker.energy": "inf"})
    assert math.isinf(cfg.energy_initial) and math.isinf(cfg.attacker_energy)


def test_timer_cap_admits_the_boundary():
    cfg = validate_config({"stop": 100, "metrics_interval": 100 / MAX_TIMER_FIRINGS})
    assert cfg.stop / cfg.metrics_interval == MAX_TIMER_FIRINGS


def test_each_key_names_one_field_by_the_flat_naming_rule():
    # A dotted key "group.name" is the field group_name; flows and nodes are
    # parsed by hand into the only two fields that have no key of their own.
    keys = [key for key, _, _, _ in SCHEMA]
    attrs = [attr for _, attr, _, _ in SCHEMA]
    assert len(set(keys)) == len(keys) and len(set(attrs)) == len(attrs)
    assert KNOWN_KEYS == set(keys) | {"flows", "nodes"}
    assert attrs == [name for name in ScenarioConfig._fields
                     if name not in ("flows", "node_scripts")]
    for key, attr, _, default in SCHEMA:
        if "." in key:
            assert attr == key.replace(".", "_")
        assert getattr(ScenarioConfig(), attr) == default


def test_defaults_come_from_the_field_declarations():
    # validate_config({}) adds only the default background flow.
    assert validate_config({"flows": "none"}) == ScenarioConfig()


TIMING_KEYS = ("stop", "hello_interval", "metrics_interval", "attacker.rate",
               "attacker.start")
ATTACKED_PAIR = {"nn": 2, "nodes": "10,10; 20,10", "attacker.enabled": "true",
                 "attacker.pos": "10,20"}
number_text = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(min_value=5e-324, max_value=1e-3).map(repr),
    st.floats(min_value=1e3, max_value=1e308).map(repr),
    st.sampled_from(["inf", "-inf", "nan", "1e-300", "0"]),
)


@given(timing=st.dictionaries(st.sampled_from(TIMING_KEYS), number_text),
       rate=number_text, start=number_text)
def test_every_valid_config_keeps_its_timers_within_the_cap(timing, rate, start):
    raw = dict(ATTACKED_PAIR, flows=f"0:1:{rate}:100:{start}", **timing)
    try:
        cfg = validate_config(raw)
    except ConfigError:
        return
    periods = [MOBILITY_STEP, cfg.hello_interval, cfg.metrics_interval,
               1.0 / cfg.attacker_rate] + [1.0 / flow.rate for flow in cfg.flows]
    for period in periods:
        assert cfg.stop / period <= MAX_TIMER_FIRINGS
        assert cfg.stop + period > cfg.stop
    starts = [cfg.attacker_start] + [flow.start for flow in cfg.flows]
    assert all(math.isfinite(t) for t in [cfg.stop] + starts)
    # Set-up queues a bounded number of events, however many samples the run takes.
    assert len(Simulation(cfg).heap) <= 8


@given(st.dictionaries(st.sampled_from(sorted(KNOWN_KEYS)),
                       st.one_of(number_text, st.text(max_size=12))))
def test_validation_raises_nothing_but_config_errors(raw):
    try:
        validate_config(raw)
    except ConfigError:
        pass


def _readme_keys():
    section = README.read_text(encoding="utf-8").split("## Configuration reference")[1]
    section = section.split("\n## ")[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    return {key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])}


def test_readme_configuration_reference_lists_every_key():
    assert _readme_keys() == KNOWN_KEYS
