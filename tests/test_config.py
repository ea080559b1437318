import math
import pickle

import pytest

from manetsim import config, model
from manetsim.config import (ConfigError, FlowSpec, Protocol, ScenarioConfig,
                             Sophistication, check_config, load_config, parse_config_text,
                             validate_config)
from manetsim.engine import Simulation
from manetsim.mobility import Kinematics, LetMode, WaypointState

from .conftest import CONFIG_DIR


def test_all_defaults_is_valid_and_deterministic():
    cfg1 = validate_config({})
    cfg2 = validate_config({})
    assert cfg1 == cfg2
    assert cfg1.nn == 25
    assert cfg1.area_x == 50.0 and cfg1.area_y == 50.0
    assert cfg1.stop == 50.0
    assert cfg1.protocol is Protocol.AODV
    assert cfg1.range_r == 15.0
    assert cfg1.num_channels == 2
    assert cfg1.let_threshold == 0.0
    assert cfg1.bitrate == 250000.0
    assert cfg1.hello_interval == 1.0 and cfg1.hello_loss_limit == 2
    assert cfg1.speed_min == 0.0 and cfg1.speed_max == 5.0 and cfg1.pause == 2.0
    # default background traffic: one constant-bit-rate flow toward node 0
    assert cfg1.flows == (FlowSpec(src=24, dst=0, rate=4.0, size=100, start=1.0),)
    # Only a config file gets it: a config built in code has no flows.
    assert ScenarioConfig().flows == () and check_config(ScenarioConfig()).flows == ()


def test_table_values_accepted():
    cfg = validate_config({"nn": 25, "x": 50, "y": 50, "stop": 50, "rp": "SAODV"})
    assert cfg.nn == 25
    assert cfg.area_x == 50.0
    assert cfg.stop == 50.0
    assert cfg.protocol is Protocol.SAODV


def test_nn_zero_is_a_named_violation():
    with pytest.raises(ConfigError) as exc:
        validate_config({"nn": 0})
    assert any(v.startswith("nn:") for v in exc.value.violations)


def test_the_error_and_timer_bound_are_the_ones_model_defines():
    # The CLI and analyze take both from model, without loading this module.
    assert config.ConfigError is model.ConfigError
    assert config.MAX_TIMER_FIRINGS is model.MAX_TIMER_FIRINGS


def test_all_violations_reported_at_once():
    with pytest.raises(ConfigError) as exc:
        validate_config({"nn": 0, "stop": -1, "k": 0, "let_threshold": -2})
    keys = {v.split(":")[0] for v in exc.value.violations}
    assert {"nn", "stop", "k", "let_threshold"} <= keys


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as exc:
        validate_config({"nnn": 25})
    assert "nnn: unknown key" in exc.value.violations


def test_mlet_protocol_defaults_threshold_on():
    assert validate_config({"rp": "AODV_MLET"}).let_threshold == 5.0
    assert validate_config({"rp": "SAODV"}).let_threshold == 0.0
    assert validate_config({"rp": "AODV_MLET", "let_threshold": 1.5}).let_threshold == 1.5
    # Only a config file gets the 5.0: built in code, the threshold stays 0.0.
    assert check_config(ScenarioConfig(protocol=Protocol.AODV_MLET)).let_threshold == 0.0


def test_attacker_target_must_be_honest_node():
    with pytest.raises(ConfigError):
        validate_config({"nn": 5, "attacker.enabled": "true", "attacker.target": 5})


def test_flow_endpoints_checked():
    with pytest.raises(ConfigError):
        validate_config({"nn": 3, "flows": "0:3:4:100:1"})
    with pytest.raises(ConfigError):
        validate_config({"nn": 3, "flows": "1:1:4:100:1"})


def test_flows_none_disables_default_flow():
    assert validate_config({"flows": "none"}).flows == ()


def test_single_node_has_no_default_flow():
    assert validate_config({"nn": 1}).flows == ()


def test_list_values_skip_empty_entries_alike():
    # flows rejected an empty entry, as "entry 1: expected src:dst:rate:size[:start]",
    # where nodes and mlet_applies_to skipped it.
    one = validate_config({"flows": "1:0:4:100:1"})
    for text in ("1:0:4:100:1;", ";1:0:4:100:1", " ; 1:0:4:100:1 ;; "):
        assert validate_config({"flows": text}) == one, text
    assert validate_config({"flows": ";"}) == validate_config({"flows": "none"})
    nodes = validate_config({"nn": 2, "nodes": "1,1; 2,2"})
    assert validate_config({"nn": 2, "nodes": ";1,1;; 2,2;"}) == nodes
    kinds = validate_config({"mlet_applies_to": "RREQ,DATA"})
    assert validate_config({"mlet_applies_to": ",rreq, ,data,"}) == kinds
    # Entry numbers count the kept entries.
    with pytest.raises(ConfigError) as exc:
        validate_config({"flows": ";1:1:4:100;;0:1"})
    assert exc.value.violations == ["flows: entry 0: src and dst must differ",
                                    "flows: entry 1: expected src:dst:rate:size[:start]"]


def test_nodes_entry_count_must_match_nn():
    with pytest.raises(ConfigError) as exc:
        validate_config({"nn": 3, "nodes": "1,1; 2,2"})
    assert any(v.startswith("nodes:") for v in exc.value.violations)


def test_nodes_must_lie_inside_area():
    with pytest.raises(ConfigError):
        validate_config({"nn": 1, "x": 10, "y": 10, "nodes": "11,5"})


def test_speed_range_ordering():
    with pytest.raises(ConfigError):
        validate_config({"speed_min": 3, "speed_max": 1})


def test_parse_config_text_comments_and_blanks():
    raw = parse_config_text("# header\nnn = 4   # inline\n\nstop = 9\n")
    assert raw == {"nn": "4", "stop": "9"}


def test_parse_config_text_rejects_duplicates_and_garbage():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("nn = 4\nnn = 5\njust words\n")
    assert any("duplicate" in v for v in exc.value.violations)
    assert any("line 3" in v for v in exc.value.violations)


# A config round-trips through its own check: what a config file gives, the
# check of typed values gives back unchanged.
@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.stem)
def test_shipped_configs_round_trip(path):
    cfg = load_config(str(path))
    assert check_config(cfg) == cfg


# Each baseline runs its pair's scenario (seed, placement, flows, mobility and
# attack) with rp = AODV, so the two runs compare the protocol alone.
@pytest.mark.parametrize("baseline, pair", [("attack_demo_aodv", "attack_demo"),
                                            ("fig11_aodv", "fig11_mlet"),
                                            ("table1_aodv", "table1_saodv")])
def test_a_baseline_config_differs_from_its_pair_in_rp_alone(baseline, pair):
    cfg = load_config(str(CONFIG_DIR / f"{pair}.cfg"))
    assert cfg.protocol is not Protocol.AODV
    assert load_config(str(CONFIG_DIR / f"{baseline}.cfg")) == cfg._replace(protocol=Protocol.AODV)


def test_round_trip_preserves_every_field():
    cfg = validate_config({
        "nn": 4, "x": 80, "y": 30, "stop": 12.5, "rp": "SAODV_MLET", "seed": 9,
        "range_r": 22.5, "k": 8, "let_threshold": 3.25, "let_mode": "PAPER",
        "mlet_applies_to": "RREQ,DATA", "mlet_annex_bytes": 16,
        "bitrate": 1e6, "prop_delay": 0.001, "loss_prob": 0.25,
        "physical_channels": "true", "paper_range_check": "true",
        "hello_interval": 0.5, "hello_loss_limit": 3,
        "speed_min": 1, "speed_max": 4, "pause": 0.5,
        "route_lifetime": 7, "retry_limit": 1, "retry_timeout": 0.4,
        "buffer_cap": 8, "rreq_cache_ttl": 6, "intermediate_rrep": "true",
        "metrics_interval": 0.25,
        "energy.initial": 2.5, "energy.tx_per_byte": 1e-5,
        "energy.rx_per_byte": 5e-6, "energy.idle_per_sec": 1e-4,
        "attacker.enabled": "true", "attacker.target": 2, "attacker.start": 3,
        "attacker.rate": 50, "attacker.payload": 64,
        "attacker.sophistication": "INSIDER", "attacker.energy": 123.5,
        "attacker.pos": "4,5",
        "flows": "0:3:2.5:80:0.75; 1:2:1:40:2",
        "nodes": "1,1; 2,2,70,20,3.5; 3,3; 4,4",
    })
    assert cfg.let_mode is LetMode.PAPER
    assert cfg.attacker_sophistication is Sophistication.INSIDER
    assert check_config(cfg) == cfg


def test_a_nodes_entry_is_its_first_leg():
    # One motion has one config: a position alone is the leg to itself at speed 0.
    cfg = validate_config({"nn": 2, "nodes": "1,1; 2,2,5,6,1.5"})
    assert cfg.node_scripts == (
        WaypointState(Kinematics(1.0, 1.0), Kinematics(1.0, 1.0), 0.0, math.inf, 0.0),
        WaypointState(Kinematics(2.0, 2.0), Kinematics(5.0, 6.0), 1.5, math.inf, 0.0))
    assert cfg == validate_config({"nn": 2, "nodes": "1,1,1,1,0; 2,2,5,6,1.5"})
    assert validate_config({"nn": 2, "nodes": "1,1; 2,2"}) == validate_config(
        {"nn": 2, "nodes": "1,1,1,1,0; 2,2,2,2,0"})
    # The sweep's process pool pickles the config, legs and all.
    assert pickle.loads(pickle.dumps(cfg)) == cfg


def test_check_config_turns_node_triples_into_legs():
    base = validate_config({"nn": 2, "stop": 5})
    triples = (((1.0, 2.0), (1.0, 2.0), 0.0), ((3.0, 4.0), (10.0, 4.0), 2.0))
    checked = check_config(base._replace(node_scripts=triples))
    assert checked == base._replace(node_scripts=(
        WaypointState(Kinematics(1.0, 2.0), Kinematics(1.0, 2.0), 0.0, math.inf, 0.0),
        WaypointState(Kinematics(3.0, 4.0), Kinematics(10.0, 4.0), 2.0, math.inf, 0.0)))
    assert all(type(leg) is WaypointState for leg in checked.node_scripts)
    assert check_config(checked) == checked


def test_a_first_leg_that_a_nodes_entry_cannot_say_is_rejected():
    # A nodes entry starts its leg at 0 and parks its node for good after it, so
    # a first leg that resumes motion, or starts late, is named, not reset.
    base = validate_config({"nn": 2, "stop": 5})
    parked = WaypointState(Kinematics(3.0, 4.0), Kinematics(3.0, 4.0), 0.0, math.inf, 0.0)
    for pause_until, leg_start_time in [(7.0, 2.0), (7.0, 0.0), (math.inf, 2.0)]:
        leg = WaypointState(Kinematics(1, 1), Kinematics(5, 1), 1.0, pause_until, leg_start_time)
        with pytest.raises(ConfigError) as exc:
            check_config(base._replace(node_scripts=(parked, leg)))
        assert exc.value.violations == [
            f"nodes: entry 1: a first leg must have pause_until inf and leg_start_time 0.0, "
            f"got {pause_until!r} and {leg_start_time!r}"]
    leg = WaypointState(Kinematics(1, 1), Kinematics(5, 1), 1, math.inf, 0)
    assert check_config(base._replace(node_scripts=(parked, leg))).node_scripts[1] == (
        WaypointState(Kinematics(1.0, 1.0), Kinematics(5.0, 1.0), 1.0, math.inf, 0.0))


def test_a_node_entry_that_is_no_leg_is_named():
    base = validate_config({"nn": 1, "stop": 5})
    for bad in [((1.0, 1.0), (2.0, 2.0)), ((1.0, 1.0), (2.0, "2"), 1.0), 5,
                ((1.0, True), (2.0, 2.0), 1.0)]:
        with pytest.raises(ConfigError) as exc:
            check_config(base._replace(node_scripts=(bad,)))
        assert exc.value.violations == [
            f"nodes: entry 0: expected a leg or a (pos, target, speed), got {bad!r}"]


def test_flows_or_nodes_that_are_no_sequence_are_named():
    base = validate_config({"nn": 2})
    for flows in [5, None, "1:0:4:100:1", {FlowSpec(1, 0, 4.0, 100, 1.0)}]:
        with pytest.raises(ConfigError) as exc:
            check_config(base._replace(flows=flows))
        assert exc.value.violations == [f"flows: expected a tuple of flows, got {flows!r}"]
    for nodes in [5, "ab", {(1.0, 1.0)}]:
        with pytest.raises(ConfigError) as exc:
            check_config(base._replace(node_scripts=nodes))
        assert exc.value.violations == [f"nodes: expected None or a tuple of legs, got {nodes!r}"]
    # A Simulation checks its config first, so it names the key too.
    with pytest.raises(ConfigError, match="^flows: expected a tuple of flows, got 5$"):
        Simulation(base._replace(flows=5))
    # A list is a sequence: its entries are checked, and come back a tuple.
    flow, leg = FlowSpec(1, 0, 4.0, 100, 1.0), ((1.0, 1.0), (1.0, 1.0), 0.0)
    checked = check_config(base._replace(flows=[flow], node_scripts=[leg, leg]))
    assert checked.flows == (flow,) and len(checked.node_scripts) == 2


def test_round_trip_keeps_infinite_attacker_energy():
    cfg = validate_config({"attacker.enabled": "true"})
    assert math.isinf(cfg.attacker_energy)
    assert check_config(cfg) == cfg


def test_replace_keeps_config_usable():
    cfg = validate_config({})
    other = cfg._replace(protocol=Protocol.SAODV)
    assert other.protocol is Protocol.SAODV
    assert isinstance(other, ScenarioConfig)
