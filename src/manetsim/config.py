"""Scenario configuration: flat ``key = value`` files, and one check of typed values.

Each key is declared once, by the `_key` default of a `ScenarioConfig` field
below; a dotted key ``group.name`` is the field ``group_name``.  `SCHEMA` is
derived from those fields.  `validate_config` turns text into typed values and
checks them as `check_config` checks a config built in code; `flows`, `nodes`
and the checks that span several keys are the only hand-written parts.

`ConfigError` and `MAX_TIMER_FIRINGS` are defined in `model`, so that the CLI
and `analyze` can use them without loading this module; they are the same
objects here.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from enum import Enum
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from .mobility import MOBILITY_STEP, Kinematics, LetMode, WaypointState
from .model import MAX_TIMER_FIRINGS, ConfigError, PacketKind, read_utf8

#: Most honest nodes.  Every node beacons at the same instants, so a dense area
#: queues about nn * nn deliveries at once; this keeps that near a million.
MAX_NODES = 1000
#: Largest packet, payload or annex, in bytes: the IPv4 datagram limit.
MAX_PACKET_BYTES = 65_535
#: Largest channel count, retry count, buffer size and missed-beacon limit.
MAX_COUNT = 1_000_000


class Protocol(Enum):
    AODV = "AODV"
    SAODV = "SAODV"
    SAODV_MLET = "SAODV_MLET"
    AODV_MLET = "AODV_MLET"

    @property
    def verifies(self) -> bool:
        return self in (Protocol.SAODV, Protocol.SAODV_MLET)

    @property
    def uses_let(self) -> bool:
        return self in (Protocol.SAODV_MLET, Protocol.AODV_MLET)


class Sophistication(Enum):
    """How well the attacker's flood packets imitate honest tagging."""

    NAIVE_FIXED = "NAIVE_FIXED"      # constant tags, fixed (wrong) channel
    NAIVE_RANDOM = "NAIVE_RANDOM"    # uniform tags and an independent uniform channel
    INSIDER = "INSIDER"              # runs the honest tagging algorithm


# Text to typed values.  Text that is no value of its key's type stays text, for
# the check to reject as the wrong type; text whose fault says more becomes the
# ValueError that says so, for the check to report where the value belongs.
_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}
_KINDS = {kind.value: kind for kind in PacketKind}


def _parse(raw: str, default):
    """``raw`` as the type of ``default``: int, float, bool or an enum."""
    kind = type(default)
    try:
        if kind is bool:
            return _BOOLS[raw.lower()]
        return kind(raw.upper()) if isinstance(default, Enum) else kind(raw)
    except (KeyError, ValueError):
        return raw


def _split(raw: str, sep: str) -> List[str]:
    """The entries of a list value: each stripped, and the empty ones skipped."""
    return [entry for entry in map(str.strip, raw.split(sep)) if entry]


def _packet_kinds(raw: str) -> tuple:
    return tuple(_KINDS.get(token, token) for token in _split(raw.upper(), ","))


def _position(raw: str):
    if raw.lower() == "none":
        return None
    parts = [p.strip() for p in raw.split(",")]
    try:
        return Kinematics(float(parts[0]), float(parts[1])) if len(parts) == 2 else raw
    except ValueError as exc:
        return exc


def _flow(chunk: str):
    parts = [p.strip() for p in chunk.split(":")]
    if len(parts) not in (4, 5):
        return ValueError("expected src:dst:rate:size[:start]")
    try:
        return FlowSpec(int(parts[0]), int(parts[1]), float(parts[2]), int(parts[3]),
                        float(parts[4]) if len(parts) == 5 else 1.0)
    except ValueError:
        return ValueError(f"non-numeric field in {chunk!r}")


def _node(chunk: str):
    parts = [p.strip() for p in chunk.split(",")]
    if len(parts) not in (2, 5):
        return ValueError("expected 'x,y' or 'x,y,tx,ty,speed'")
    try:
        numbers = [float(p) for p in parts]
    except ValueError:
        return ValueError(f"non-numeric field in {chunk!r}")
    px, py, tx, ty, speed = numbers if len(numbers) == 5 else numbers * 2 + [0.0]
    return Kinematics(px, py), Kinematics(tx, ty), speed


# Checks take a typed value, built in code or parsed from text, and return it as
# a config file gives it, or raise ValueError(*violations).
_BOUNDS = {">=": operator.ge, ">": operator.gt, "<": operator.lt, "<=": operator.le}
_WANTED = {bool: "true/false", int: "an integer", float: "a number"}
_ADMITTED = (PacketKind.RREQ, PacketKind.RREP, PacketKind.DATA)  # can carry the MLET check


def _real(value) -> float:
    """An int or a float, as a float; anything else, a bool too, raises ValueError."""
    if type(value) not in (int, float):
        raise ValueError(value)
    try:
        return float(value)
    except OverflowError:  # an int past the largest float: inf, as its text reads
        return math.inf if value > 0 else -math.inf


def _point(value) -> Kinematics:
    """A Kinematics, or a plain (x, y) pair, as a Kinematics at rest."""
    x, y = value[:2] if isinstance(value, Kinematics) else value
    return Kinematics(_real(x), _real(y))


def _checked_kinds(kinds) -> Tuple[PacketKind, ...]:
    if type(kinds) is not tuple:
        raise ValueError(f"expected a tuple of packet kinds, got {kinds!r}")
    problems = [f"{kind.value} cannot carry the admission check"
                if isinstance(kind, PacketKind) else f"unknown packet kind {kind!r}"
                for kind in kinds if kind not in _ADMITTED]
    if problems:
        raise ValueError(*problems)
    return tuple(dict.fromkeys(kinds))


def _checked_position(value) -> Optional[Kinematics]:
    try:
        pos = None if value is None else _point(value)
    except (TypeError, ValueError):
        raise ValueError(f"expected 'x,y', got {value!r}") from None
    if pos and not (math.isfinite(pos.x) and math.isfinite(pos.y)):
        raise ValueError(f"coordinates must be finite, got ({pos.x}, {pos.y})")
    return pos


#: A key of `SCHEMA`: its name, field and default, its bounds as (op, limit)
#: pairs, whether a float must be finite, and a parser and check if the
#: default's type does not give them.
_Rule = namedtuple("_Rule", "key attr default bounds finite parse check")
_DECLARED: List[tuple] = []  # (key, bounds, finite, parse, check) of each `_key`


def _key(default, *bounds, key: Optional[str] = None, finite: bool = True,
         parse=None, check=None):
    """Declare a config key: its default, bounds as (op, limit) pairs, and its name
    if not the field's.

    Returns the default, for the field to take; the rest is kept for `SCHEMA`.
    A float key must be finite unless ``finite=False`` lets ``inf`` mean unlimited.
    """
    _DECLARED.append((key, tuple(zip(bounds[::2], bounds[1::2])), finite, parse, check))
    return default


class FlowSpec(NamedTuple):
    """A constant-bit-rate application flow src -> dst."""

    src: int
    dst: int
    rate: float
    size: int
    start: float


class ScenarioConfig(NamedTuple):
    """A validated scenario.  Keys are read, and reported, in field order.

    Every field but the last two is a `_key`; ``flows`` and ``nodes`` are
    parsed by hand into those two.  A ``nodes`` entry is its node's first leg,
    which travels to its target, if it has one, and then parks for good.

    Only a config file gets two defaults: ``let_threshold`` 5.0 under
    ``rp = *_MLET``, and one flow nn-1 -> 0 when ``flows`` is not given.  Built
    in code, a config has ``let_threshold`` 0.0, at which STRICT mode admits
    every link, and no flows.
    """

    nn: int = _key(25, ">=", 1, "<=", MAX_NODES)
    area_x: float = _key(50.0, ">", 0.0, key="x")
    area_y: float = _key(50.0, ">", 0.0, key="y")
    stop: float = _key(50.0, ">", 0.0)
    protocol: Protocol = _key(Protocol.AODV, key="rp")
    rng_seed: int = _key(1, key="seed")
    range_r: float = _key(15.0, ">", 0.0)
    num_channels: int = _key(2, ">=", 1, "<=", MAX_COUNT, key="k")
    let_mode: LetMode = _key(LetMode.STRICT)
    let_threshold: float = _key(0.0, ">=", 0.0)  # 5 under *_MLET in a file, see above
    mlet_applies_to: Tuple[PacketKind, ...] = _key((PacketKind.RREQ,), parse=_packet_kinds,
                                                   check=_checked_kinds)
    #: Bytes a kinematics annex adds to a packet: 4 floats plus framing.
    mlet_annex_bytes: int = _key(24, ">=", 0, "<=", MAX_PACKET_BYTES)
    bitrate: float = _key(250000.0, ">", 0.0)
    prop_delay: float = _key(0.0, ">=", 0.0)
    loss_prob: float = _key(0.0, ">=", 0.0, "<", 1.0)
    physical_channels: bool = _key(False)
    paper_range_check: bool = _key(False)
    hello_interval: float = _key(1.0, ">", 0.0)
    hello_loss_limit: int = _key(2, ">=", 1, "<=", MAX_COUNT)
    speed_min: float = _key(0.0, ">=", 0.0)
    speed_max: float = _key(5.0, ">=", 0.0)
    pause: float = _key(2.0, ">=", 0.0)
    route_lifetime: float = _key(10.0, ">", 0.0)
    retry_limit: int = _key(2, ">=", 0, "<=", MAX_COUNT)
    retry_timeout: float = _key(1.0, ">", 0.0)
    buffer_cap: int = _key(64, ">=", 1, "<=", MAX_COUNT)
    rreq_cache_ttl: float = _key(10.0, ">", 0.0)
    intermediate_rrep: bool = _key(False)
    metrics_interval: float = _key(1.0, ">", 0.0)
    energy_initial: float = _key(10.0, ">", 0.0, key="energy.initial", finite=False)
    energy_tx_per_byte: float = _key(60e-6, ">=", 0.0, key="energy.tx_per_byte")
    energy_rx_per_byte: float = _key(30e-6, ">=", 0.0, key="energy.rx_per_byte")
    energy_idle_per_sec: float = _key(1e-3, ">=", 0.0, key="energy.idle_per_sec")
    attacker_enabled: bool = _key(False, key="attacker.enabled")
    #: Attackers default to an unlimited battery; a flood at full rate would
    #: otherwise drain the attacker before the victim.
    attacker_energy: float = _key(math.inf, ">", 0.0, key="attacker.energy", finite=False)
    attacker_target: int = _key(0, ">=", 0, "<", MAX_NODES, key="attacker.target")
    attacker_start: float = _key(10.0, ">=", 0.0, key="attacker.start")
    attacker_rate: float = _key(200.0, ">", 0.0, key="attacker.rate")
    attacker_payload: int = _key(100, ">=", 1, "<=", MAX_PACKET_BYTES, key="attacker.payload")
    attacker_sophistication: Sophistication = _key(Sophistication.NAIVE_RANDOM,
                                                   key="attacker.sophistication")
    attacker_pos: Optional[Kinematics] = _key(None, key="attacker.pos", parse=_position,
                                              check=_checked_position)
    flows: Tuple[FlowSpec, ...] = ()
    node_scripts: Optional[Tuple[WaypointState, ...]] = None


#: One `_Rule` per key, in field order.
SCHEMA = tuple(_Rule(key or attr, attr, ScenarioConfig._field_defaults[attr], *rule)
               for attr, (key, *rule) in zip(ScenarioConfig._fields, _DECLARED))
KNOWN_KEYS = frozenset(rule.key for rule in SCHEMA) | {"flows", "nodes"}


def parse_config_text(text: str) -> Dict[str, str]:
    """Parse ``key = value`` lines; ``#`` starts a comment anywhere."""
    raw: Dict[str, str] = {}
    problems: List[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq:
            problems.append(f"line {lineno}: expected 'key = value', got {line!r}")
        elif key in raw:
            problems.append(f"line {lineno}: duplicate key {key!r}")
        else:
            raw[key] = value.strip()
    if problems:
        raise ConfigError(problems)
    return raw


def validate_config(raw: Mapping[str, object]) -> ScenarioConfig:
    """Build a fully-populated ScenarioConfig from text, reporting all violations at once."""
    keys = [str(key).strip() for key in raw]
    data = {key: str(value).strip() for key, value in zip(keys, raw.values())
            if key in KNOWN_KEYS}
    v = ScenarioConfig()._asdict()  # attribute -> typed value; a key not given keeps its default
    for rule in SCHEMA:
        if rule.key in data:
            text = data[rule.key]
            v[rule.attr] = rule.parse(text) if rule.parse else _parse(text, rule.default)
    if "let_threshold" not in data and getattr(v["protocol"], "uses_let", False):
        v["let_threshold"] = 5.0  # the admission filter is on by default under *_MLET
    for key, attr, parse in (("flows", "flows", _flow), ("nodes", "node_scripts", _node)):
        if data.get(key, "none").lower() != "none":
            v[attr] = tuple(map(parse, _split(data[key], ";")))
    cfg = _check(v, [f"{key}: unknown key" for key in keys if key not in KNOWN_KEYS])
    if "flows" not in data and cfg.nn >= 2:  # default background traffic toward node 0
        cfg = cfg._replace(flows=(FlowSpec(src=cfg.nn - 1, dst=0, rate=4.0, size=100, start=1.0),))
    return cfg


def _checked_value(rule: _Rule, value):
    """``value`` as its key's type, within its key's bounds."""
    if isinstance(value, ValueError):  # text that did not parse
        raise value
    if rule.check:
        return rule.check(value)
    kind = type(rule.default)
    if kind is float and type(value) is int:
        value = _real(value)
    if type(value) is not kind:
        wanted = (f"one of {'|'.join(e.value for e in kind)}" if issubclass(kind, Enum)
                  else _WANTED[kind])
        raise ValueError(f"expected {wanted}, got {value!r}")
    if kind is float and math.isnan(value):
        raise ValueError("must not be NaN")
    for op, limit in rule.bounds:
        if not _BOUNDS[op](value, limit):
            raise ValueError(f"must be {op} {limit}, got {value}")
    if rule.finite and kind is float and math.isinf(value):
        raise ValueError(f"must be finite, got {value}")
    return value


def _inside(x: float, y: float, area_x: float, area_y: float) -> bool:
    return 0.0 <= x <= area_x and 0.0 <= y <= area_y


def _timer_problem(period: float, stop: float) -> Optional[str]:
    if stop / period > MAX_TIMER_FIRINGS:
        return (f"a timer every {period!r} s would fire more than "
                f"{MAX_TIMER_FIRINGS} times in {stop!r} s")
    return None


def _checked_flow(flow, nn: int, stop: float) -> FlowSpec:
    """A FlowSpec, or a plain tuple of its fields, as a FlowSpec that can run."""
    try:
        src, dst, rate, size, start = flow
        if not type(src) is type(dst) is type(size) is int:
            raise TypeError
        rate, start = _real(rate), _real(start)
    except (TypeError, ValueError):
        raise ValueError(f"expected (src, dst, rate, size, start), got {flow!r}") from None
    if not (0 <= src < nn and 0 <= dst < nn):
        raise ValueError(f"endpoints must be node ids < {nn}")
    if src == dst:
        raise ValueError("src and dst must differ")
    if rate <= 0.0 or size <= 0 or start < 0.0:
        raise ValueError("rate/size must be positive, start >= 0")
    if size > MAX_PACKET_BYTES:
        raise ValueError(f"size must be <= {MAX_PACKET_BYTES}")
    if not (math.isfinite(rate) and math.isfinite(start)):
        raise ValueError("rate and start must be finite")
    if problem := _timer_problem(1.0 / rate, stop):
        raise ValueError(problem)
    return FlowSpec(src, dst, rate, size, start)


def _checked_leg(leg, area_x: float, area_y: float) -> WaypointState:
    """A first leg, or a plain (pos, target, speed) triple, as a first leg in the area."""
    # A nodes entry can say neither: its leg starts at 0 and then parks for good.
    if isinstance(leg, WaypointState) and (leg.pause_until, leg.leg_start_time) != (math.inf, 0.0):
        raise ValueError(f"a first leg must have pause_until inf and leg_start_time 0.0, "
                         f"got {leg.pause_until!r} and {leg.leg_start_time!r}")
    try:
        pos, target, speed = leg[:3]
        pos, target, speed = _point(pos), _point(target), _real(speed)
    except (TypeError, ValueError):
        raise ValueError(f"expected a leg or a (pos, target, speed), got {leg!r}") from None
    # The area is finite, so infinite and NaN coordinates fall outside it.
    if not speed >= 0.0:
        raise ValueError("speed must be >= 0")
    if not (_inside(pos.x, pos.y, area_x, area_y) and _inside(target.x, target.y, area_x, area_y)):
        raise ValueError(f"coordinates outside the {area_x}x{area_y} area")
    return WaypointState(pos, target, speed, math.inf, 0.0)


def _entries(key: str, entries, check, fail) -> tuple:
    """``check(entry)`` of each entry it takes; each it rejects fails as entry i."""
    kept = []
    for i, entry in enumerate(entries):
        try:
            if isinstance(entry, ValueError):  # text that did not parse
                raise entry
            kept.append(check(entry))
        except ValueError as exc:
            fail(key, f"entry {i}: {exc}")
    return tuple(kept)


def _check(v: Dict[str, object], violations: List[str]) -> ScenarioConfig:
    """The config of typed values ``v`` (attribute -> value), or ConfigError with
    ``violations`` and each found here.  A key that fails its own check takes its
    default for the checks that span keys, then ``flows`` and ``nodes``."""
    def fail(key: str, message: str):
        violations.append(f"{key}: {message}")

    for rule in SCHEMA:
        try:
            v[rule.attr] = _checked_value(rule, v[rule.attr])
        except ValueError as exc:
            violations.extend(f"{rule.key}: {message}" for message in exc.args)
            v[rule.attr] = rule.default
    nn, stop, area_x, area_y = v["nn"], v["stop"], v["area_x"], v["area_y"]
    if not math.isfinite(math.hypot(area_x, area_y)):  # bounds every leg's length
        fail("x", f"must leave the diagonal hypot(x, y) finite, got a {area_x}x{area_y} area")
    if not math.isfinite(max(area_x, area_y) / v["range_r"]):  # bounds cell indices
        fail("range_r", f"must leave x / range_r and y / range_r finite, got {v['range_r']}")
    if v["speed_max"] < v["speed_min"]:
        fail("speed_max", f"must be >= speed_min ({v['speed_min']}), got {v['speed_max']}")
    if v["attacker_target"] >= nn:  # the victim's energy is sampled, attack or not
        fail("attacker.target", f"must name an honest node (< {nn})")
    pos = v["attacker_pos"]
    if pos is not None and not _inside(pos.x, pos.y, area_x, area_y):
        fail("attacker.pos", f"outside the {area_x}x{area_y} area")
    timers = [("stop", MOBILITY_STEP), ("hello_interval", v["hello_interval"]),
              ("metrics_interval", v["metrics_interval"]), ("retry_timeout", v["retry_timeout"])]
    if v["attacker_enabled"]:
        timers.append(("attacker.rate", 1.0 / v["attacker_rate"]))
    for key, period in timers:
        if problem := _timer_problem(period, stop):
            fail(key, problem)
    flows, nodes = v["flows"], v["node_scripts"]
    if not isinstance(flows, (tuple, list)):
        fail("flows", f"expected a tuple of flows, got {flows!r}")
        flows = ()
    v["flows"] = _entries("flows", flows, lambda flow: _checked_flow(flow, nn, stop), fail)
    if nodes is not None and not isinstance(nodes, (tuple, list)):
        fail("nodes", f"expected None or a tuple of legs, got {nodes!r}")
    elif nodes is not None and len(nodes) != nn:
        fail("nodes", f"expected {nn} entries (one per node), got {len(nodes)}")
    elif nodes is not None:
        v["node_scripts"] = _entries("nodes", nodes,
                                     lambda leg: _checked_leg(leg, area_x, area_y), fail)
    if violations:
        raise ConfigError(violations)
    return ScenarioConfig(**v)


def check_config(cfg: ScenarioConfig) -> ScenarioConfig:
    """Give a config built in code the checks a config file gets: raise ConfigError.

    Returns the config as a config file gives it: an int given for a float key
    comes back a float, a plain ``(x, y)`` position a ``Kinematics`` at rest, a
    plain flow tuple a ``FlowSpec``, and a ``(pos, target, speed)`` triple a leg.
    """
    return _check(cfg._asdict(), [])


def load_config(path: str) -> ScenarioConfig:
    text = read_utf8(path, lambda lineno, message: ConfigError([f"line {lineno}: {message}"]))
    return validate_config(parse_config_text(text))
